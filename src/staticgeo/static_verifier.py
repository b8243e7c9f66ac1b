"""Residual checks and structure classification for static warped products.

Everything here reduces to sup norms of pointwise residual channels over
the margin-shrunk evaluation grid.  Residuals are always written in a
multiplied-through form (no division by the lapse or its derivative), so
they stay finite across zeros of f.

One evaluation (_static_rows: one curvature frame, lapse rows, static
channels and D classes) feeds every answer: verify_pair reads it at order 1
and keeps it, and classify takes its gate, clusters, D classes and warping
rows from that report.  Each dense audit (identity_dcw, identity_db,
check_lemma41) likewise reads one frame for all of its tensors.

verify_pair keeps its last report in a one-entry slot keyed by the
identity of the spec and lapse objects (function equality ignores the
profile, so a value key could hand back another lapse's report).  classify
takes its report from verify_pair, so verify_pair then classify of the
same pair builds one frame, and then empties the slot: the slot bridges
that one step and keeps no evaluation alive past the answer.  The stored
report's arrays are read-only.

The frame is built once over the whole grid; identity_dcw and identity_db
then materialize their dense tensors in fixed-size chunks of grid points
(_CHUNK_POINTS), so their peak memory does not grow with the grid, and
the chunk size never changes a result.  identity_dcw needs only the first
slot W_1ijk of the Weyl tensor, since the lapse gradient is f' E_1, and
materializes only that slice (S n^3 values instead of S n^4).

The classification looks at how many distinct values the fiber Ricci
eigenvalues take and which blocks warp.  Label strings, including
"ViolatesThm42" for three or more distinct fiber eigenvalues, are part of
the wire format and are consumed verbatim by the command line tools.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import curvature_engine as ce
from . import ode_solver as ode
from .errors import WrongBlockCount
from .jets import _rows, derivatives_from_jet, jder, jet_of
from .warped_geometry import LapseFunction, WarpedProductSpec

__all__ = [
    "Channel",
    "ResidualReport",
    "ToleranceProfile",
    "ANALYTIC",
    "ODE_BACKED",
    "tier_for",
    "static_pointwise",
    "static_residual",
    "harmonic_pointwise",
    "harmonic_residual",
    "integrability_residual",
    "identity_dcw",
    "identity_db",
    "check_lemma41",
    "verify_pair",
    "TypeLabel",
    "LABELS",
    "classify",
]

LABELS = (
    "Einstein",
    "DFlat_TypeI",
    "TypeII",
    "TypeIII",
    "TypeIV",
    "ViolatesThm42",
    "Invalid",
)


@dataclass(frozen=True)
class Channel:
    """Sup norm of one residual channel, with the offending grid point."""

    sup: float
    argmax_index: int
    argmax_s: float


@dataclass(frozen=True)
class ResidualReport:
    """Named residual channels over a grid; `_evaluation` keeps verify_pair's (d, fs, dc)."""

    channels: Mapping[str, Channel]
    grid: np.ndarray = field(repr=False)
    _evaluation: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", MappingProxyType(dict(self.channels)))

    def max_sup(self) -> float:
        """Largest channel sup (0.0 without channels); NaN if any sup is NaN."""
        return float(np.max([c.sup for c in self.channels.values()], initial=0.0))

    def merge(self, other: "ResidualReport") -> "ResidualReport":
        merged = dict(self.channels)
        merged.update(other.channels)
        return ResidualReport(merged, self.grid)

    def to_dict(self) -> dict:
        return {
            name: {"sup": c.sup, "argmax_index": c.argmax_index, "argmax_s": c.argmax_s}
            for name, c in sorted(self.channels.items())
        }


def _channel(values: np.ndarray, grid: np.ndarray) -> Channel:
    flat = np.abs(np.asarray(values, dtype=float))
    i = int(np.argmax(flat))
    return Channel(float(flat[i]), i, float(grid[i]))


@dataclass(frozen=True)
class ToleranceProfile:
    """Thresholds used by verification and classification.

    residual      sup tolerance for the static/harmonic channels
    distinct_rel  relative separation below which eigenvalues coincide
    structure     auxiliary structure fits inside classify
    """

    residual: float
    distinct_rel: float
    structure: float


ANALYTIC = ToleranceProfile(residual=1e-8, distinct_rel=1e-6, structure=1e-8)
ODE_BACKED = ToleranceProfile(residual=1e-5, distinct_rel=1e-6, structure=1e-5)


def tier_for(spec: WarpedProductSpec, f: LapseFunction) -> ToleranceProfile:
    """Pick the tolerance tier from the data sources of the warpings and the lapse.

    Trajectory-backed or sampled inputs carry integration and stencil
    noise, so they get the looser tier.
    """
    kinds = {f.kind, *(b.warping.kind for b in spec.blocks)}
    if kinds & {"ode-backed", "sampled", "derived"}:
        return ODE_BACKED
    return ANALYTIC


# ---------------------------------------------------------------------------
# Residual channels
# ---------------------------------------------------------------------------


def _static_channels(spec: WarpedProductSpec, fs, d) -> dict[str, np.ndarray]:
    f0, f1, f2 = fs
    shift = d.scalar[0] / (spec.n - 1.0)
    out = {"static_11": f2 - f0 * (d.lambda_1[0] - shift)}
    for j in range(len(spec.blocks)):
        out[f"static_block[{j}]"] = f1 * d.xi[0, j] - f0 * (d.lambda_block[0, j] - shift)
    return out


def _harmonic_channels(spec: WarpedProductSpec, d) -> dict[str, np.ndarray]:
    lam, xi = d.lambda_block, d.xi
    out = {"scalar_drift": d.scalar[1]}
    for j in range(len(spec.blocks)):
        out[f"harmonic_block[{j}]"] = lam[1, j] - (d.lambda_1[0] - lam[0, j]) * xi[0, j]
    return out


def _integrability_channels(spec: WarpedProductSpec, d) -> dict[str, np.ndarray]:
    lam, xi, shift = d.lambda_block, d.xi, d.scalar[0] / (spec.n - 1.0)
    return {
        f"integrability_block[{j}]": xi[1, j] + xi[0, j] ** 2 - (lam[0, j] - shift)
        for j in range(len(spec.blocks))
    }


def _static_rows(spec: WarpedProductSpec, f: LapseFunction, s, order: int = 0):
    """Spectrum to `order`, lapse rows 0-2, static channels and D classes from one frame."""
    d, fs = ce.eigenvalue_derivatives(spec, s, order=order), tuple(_rows(f, s, range(3)))
    dc = ce._d_jet(spec.n, fs[1][None], d.lambda_1, d.lambda_block, d.scalar)[0]
    return d, fs, _static_channels(spec, fs, d), dc


def _report(point: dict[str, np.ndarray], s: np.ndarray) -> ResidualReport:
    return ResidualReport({k: _channel(v, s) for k, v in point.items()}, s)


def static_pointwise(
    spec: WarpedProductSpec, f: LapseFunction, s=None
) -> dict[str, np.ndarray]:
    """Signed static-equation residuals per channel.

    In the adapted frame the Hessian of f is diag(f'', f' xi_j ...), so
    the equation Hess f = f (Ric - R/(n-1) g) becomes

        static_11       = f'' - f (lambda_1 - R/(n-1))
        static_block[j] = f' xi_j - f (lambda_j - R/(n-1))
    """
    if s is None:
        s = spec.evaluation_grid()
    return _static_rows(spec, f, s)[2]


def static_residual(spec: WarpedProductSpec, f: LapseFunction) -> ResidualReport:
    """Sup-norm report of the static-equation channels."""
    s = spec.evaluation_grid()
    return _report(static_pointwise(spec, f, s), s)


def harmonic_pointwise(spec: WarpedProductSpec, s=None) -> dict[str, np.ndarray]:
    """Signed residuals of the harmonic-curvature conditions.

        harmonic_block[j] = lambda_j' - (lambda_1 - lambda_j) xi_j
        scalar_drift      = R'
    """
    if s is None:
        s = spec.evaluation_grid()
    return _harmonic_channels(spec, ce.eigenvalue_derivatives(spec, s, order=1))


def harmonic_residual(spec: WarpedProductSpec) -> ResidualReport:
    """Sup-norm report of the harmonic-curvature channels (metric-only)."""
    s = spec.evaluation_grid()
    return _report(harmonic_pointwise(spec, s), s)


def integrability_residual(spec: WarpedProductSpec) -> ResidualReport:
    """Per-block residual of xi_j' + xi_j^2 = lambda_j - R/(n-1).

    This ties the radial curvature of each block to its Ricci eigenvalue;
    it holds on solutions of the static equation with harmonic curvature
    and is a useful smoke alarm when a profile is inconsistent.
    """
    s = spec.evaluation_grid()
    d = ce.eigenvalue_derivatives(spec, s, order=1)
    return _report(_integrability_channels(spec, d), s)


# Grid points per chunk of a dense audit.  Each chunk's dense tensors
# take S_chunk * n^3 doubles, so an audit's peak memory stops growing with
# the grid; results do not depend on the chunk size.
_CHUNK_POINTS = 2048


def _chunks(size: int):
    return (slice(i, i + _CHUNK_POINTS) for i in range(0, size, _CHUNK_POINTS))


def _row_sups(res: np.ndarray) -> np.ndarray:
    """Sup of |res| over each frame row: shape (points, n)."""
    return np.abs(res).reshape(res.shape[0], res.shape[1], -1).max(axis=2)


def _block_channels(prefix: str, rows: np.ndarray, spec: WarpedProductSpec, s) -> dict:
    """Per-block channels: sup over the frame rows each block owns."""
    owner = ce._block_of_index(spec)
    return {
        f"{prefix}[{j}]": _channel(rows[:, owner == j].max(axis=1), s)
        for j in range(len(spec.blocks))
    }


def identity_dcw(spec: WarpedProductSpec, f: LapseFunction) -> ResidualReport:
    """Dense residual of f C_ijk = f_l W_lijk + D_ijk.

    Materialized over all n^3 index triples so that class bookkeeping is
    exercised, then attributed back to blocks through the first index.
    The lapse gradient has only the component f_1, so only the first slot
    W_1ijk of the Weyl tensor is materialized.
    """
    s = spec.evaluation_grid()
    fr = ce._Frame(spec, s, 1)
    w = [j[0] for j in fr.weyl_jets()]
    fj = jet_of(f, s, 1)
    c, d = fr.cotton_jets()[0], ce._d_jet(spec.n, jder(fj), fr.lam1, fr.lam, fr.scal)[0]
    rows = []
    for g in _chunks(s.size):
        C = ce.materialize_full(ce.MixedThreeTensor(c[:, g]), spec)
        W0 = ce._first_slot(ce.RiemannClasses(*(v[..., g] for v in w)), spec)
        D = ce.materialize_full(ce.MixedThreeTensor(d[:, g]), spec)
        f0, f1 = fj[:, g, None, None, None]
        res = f0 * C
        res -= f1 * W0
        res -= D
        rows.append(_row_sups(res))
    return ResidualReport(_block_channels("dcw_block", np.concatenate(rows), spec, s), s)


def identity_db(spec: WarpedProductSpec, f: LapseFunction) -> ResidualReport:
    """Dense residual of (n-2) f B_ij = D_ijk,k - f_k (C_ijk + m C_jik).

    Here m = (n-3)/(n-2) and only k = 1 contributes to the gradient term.
    The divergence of D is taken densely with the frame connection.
    """
    s = spec.evaluation_grid()
    n = spec.n
    fr = ce._Frame(spec, s, 2)
    b, c, xi = fr.bach(), fr.cotton_jets()[0], fr.xi[0]
    fj = jet_of(f, s, 2)
    d, dp = derivatives_from_jet(ce._d_jet(n, jder(fj), fr.lam1, fr.lam, fr.scal))
    col11, rows = [], []
    for g in _chunks(s.size):
        B = ce.materialize_full(ce.DiagonalTwoTensor(b.value_1[g], b.value_block[:, g]), spec)
        C = ce.materialize_full(ce.MixedThreeTensor(c[:, g]), spec)
        D, Dp = (ce.materialize_full(ce.MixedThreeTensor(r[:, g]), spec) for r in (d, dp))
        div_d = ce.dense_three_tensor_divergence(D, Dp, ce._connection(spec, xi[:, g]))
        f0, f1 = fj[:2, g, None, None]
        mix = C[..., :, :, 0] + (n - 3.0) / (n - 2.0) * np.swapaxes(C, -3, -2)[..., :, :, 0]
        res = (n - 2.0) * f0 * B - div_d + f1 * mix
        col11.append(res[:, 0, 0])
        rows.append(_row_sups(res))
    db_11 = {"db_11": _channel(np.concatenate(col11), s)}
    return ResidualReport(
        db_11 | _block_channels("db_block", np.concatenate(rows), spec, s), s
    )


def check_lemma41(spec: WarpedProductSpec, f: LapseFunction) -> ResidualReport:
    """Two-block consistency identities, multiplied through by f.

    With X, Y the xi of the two blocks and S = r1 X + r2 Y:

        lemma41_46: [2f' + f(S - X - Y)](X - Y)
                    - f[(r1-1) k1/h1^2 - (r2-1) k2/h2^2]
        lemma41_47: -f' S + f S' + 2 f (r1 X^2 + r2 Y^2) - f (X + Y) S
    """
    if len(spec.blocks) != 2:
        raise WrongBlockCount(
            f"two-block identities need exactly 2 blocks, got {len(spec.blocks)}"
        )
    s = spec.evaluation_grid()
    d = ce.eigenvalue_derivatives(spec, s, order=1)
    b1, b2 = spec.blocks
    r1, r2 = float(b1.dim), float(b2.dim)
    X, Y = d.xi[0, 0], d.xi[0, 1]
    Xp, Yp = d.xi[1, 0], d.xi[1, 1]
    f0, f1 = jet_of(f, s, 1)
    h1, h2 = d.h[0]
    sum_xi = r1 * X + r2 * Y
    curv_gap = (r1 - 1.0) * b1.k / h1**2 - (r2 - 1.0) * b2.k / h2**2
    lem46 = (2.0 * f1 + f0 * (sum_xi - X - Y)) * (X - Y) - f0 * curv_gap
    lem47 = (
        -f1 * sum_xi
        + f0 * (r1 * Xp + r2 * Yp)
        + 2.0 * f0 * (r1 * X**2 + r2 * Y**2)
        - f0 * (X + Y) * sum_xi
    )
    return ResidualReport(
        {"lemma41_46": _channel(lem46, s), "lemma41_47": _channel(lem47, s)}, s
    )


# The last verify_pair as (spec, lapse, report), matched by identity; the
# strong references keep both ids from being reused while stored.
_EMPTY = (None, None, None)
_last_pair = _EMPTY


def verify_pair(spec: WarpedProductSpec, f: LapseFunction) -> ResidualReport:
    """Static, harmonic and integrability channels in one report.

    A call on the same spec and lapse objects as the stored one returns
    the stored report; any other call computes and stores its own.
    """
    global _last_pair
    last_spec, last_f, last_report = _last_pair  # one read: no torn entry
    if last_spec is spec and last_f is f:
        return last_report
    s = spec.evaluation_grid()
    d, fs, point, dc = _static_rows(spec, f, s, order=1)
    point.update(_harmonic_channels(spec, d))
    point.update(_integrability_channels(spec, d))
    report = _report(point, s)
    for a in (s, *fs, dc, *vars(d).values()):
        a.setflags(write=False)
    object.__setattr__(report, "_evaluation", (d, fs, dc))
    _last_pair = (spec, f, report)
    return report


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeLabel:
    """Classification outcome with the diagnostics and residual report behind it."""

    label: str
    distinct_count: int
    multiplicities: tuple[int, ...]
    xi_product_sup: float
    d_sup: float
    detail: str
    report: ResidualReport = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "distinct_count": self.distinct_count,
            "multiplicities": list(self.multiplicities),
            "xi_product_sup": self.xi_product_sup,
            "d_sup": self.d_sup,
            "detail": self.detail,
        }


def _cluster_blocks(lam_blk: np.ndarray, threshold: float) -> list[list[int]]:
    """Group block indices whose eigenvalue profiles agree in sup norm."""
    clusters: list[list[int]] = []
    for j in range(lam_blk.shape[0]):
        for cl in clusters:
            if all(np.max(np.abs(lam_blk[j] - lam_blk[i])) <= threshold for i in cl):
                cl.append(j)
                break
        else:
            clusters.append([j])
    return clusters


def classify(
    spec: WarpedProductSpec,
    f: LapseFunction,
    tol: ToleranceProfile | None = None,
) -> TypeLabel:
    """Identify which structural family the verified pair (spec, f) is in.

    Flow: residual gate, then eigenvalue clustering, then per-count
    structure checks.  A failed gate or an unrecognized structure comes
    back as "Invalid" with the reason in `detail`; three or more distinct
    fiber eigenvalues with everything else consistent come back as
    "ViolatesThm42".  The report comes from verify_pair (the stored one
    when the pair was just verified), and the slot is emptied after it.
    """
    global _last_pair
    if tol is None:
        tol = tier_for(spec, f)
    report = verify_pair(spec, f)
    _last_pair = _EMPTY
    d, _, dc = report._evaluation
    lam1, lam_blk, scal, xi = d.lambda_1[0], d.lambda_block[0], d.scalar[0], d.xi[0]
    dims = [b.dim for b in spec.blocks]
    scale = max(float(np.max(np.abs(lam_blk))), float(np.max(np.abs(lam1))), 1e-12)
    thr = tol.distinct_rel * scale

    clusters = _cluster_blocks(lam_blk, thr)
    mults = tuple(sorted(sum(dims[j] for j in cl) for cl in clusters))
    m = len(clusters)

    xi_prod = 0.0
    for cl_i, cl_j in itertools.combinations(clusters, 2):
        for a, b in itertools.product(cl_i, cl_j):
            xi_prod = max(xi_prod, float(np.max(np.abs(xi[a] * xi[b]))))
    d_sup = float(np.max(np.abs(dc)))

    def made(label: str, detail: str) -> TypeLabel:
        return TypeLabel(label, m, mults, xi_prod, d_sup, detail, report)

    gate = report.max_sup()
    if not gate <= tol.residual:
        worst = next(
            k for k, c in report.channels.items() if c.sup == gate or np.isnan(c.sup)
        )
        return made("Invalid", f"residual gate failed: {worst} sup {gate:.3e}")

    if m == 1:
        if float(np.max(np.abs(lam1 - lam_blk))) <= thr:
            return made("Einstein", "single eigenvalue shared with the interval direction")
        return made("DFlat_TypeI", "single fiber eigenvalue distinct from lambda_1")

    if m >= 3:
        return made("ViolatesThm42", "three or more distinct fiber eigenvalues")

    # Exactly two clusters: one must be non-warping.
    R = float(np.median(scal))
    const = [
        cl
        for cl in clusters
        if max(float(np.max(np.abs(xi[j]))) for j in cl) <= tol.structure
    ]
    if len(const) == 0:
        return made("Invalid", "two eigenvalue clusters but both warp")
    if len(const) == 2:
        return made("Invalid", "two eigenvalue clusters but neither warps")
    const_cl = const[0]
    warp_cl = clusters[0] if clusters[1] is const_cl else clusters[1]
    if len(warp_cl) != 1:
        return made("Invalid", "warping cluster spans several blocks")
    wb = spec.blocks[warp_cl[0]]
    lam_const = lam_blk[const_cl[0]]

    if wb.dim == 1:
        if float(np.max(np.abs(lam_const - R / (spec.n - 1.0)))) > thr:
            return made("Invalid", "constant cluster eigenvalue is not R/(n-1)")
        if R > tol.structure * scale:
            return made("TypeII", "one warped circle direction, R > 0")
        if R < -tol.structure * scale:
            return made("TypeIII", "one warped circle direction, R < 0")
        return made("Invalid", "one warped circle direction needs R != 0")

    # Warped block of dimension >= 2: fit the product-family equation
    # h'' + R/((n-1)(r1+1)) h = c0 h^(-r1) and its conserved quantity.
    r1 = wb.dim
    const_dim = sum(dims[j] for j in const_cl)
    if const_dim == 1 and abs(R) > tol.structure * scale:
        return made("Invalid", "line-type constant factor needs R = 0")
    c1 = ode._linear_coeff(spec.n, R, r1)
    h, hp, hpp = d.h[:3, warp_cl[0]]
    c0_profile = (hpp + c1 * h) * h**r1
    c0 = float(np.median(c0_profile))
    if float(np.max(np.abs(c0_profile - c0))) > tol.structure * max(1.0, abs(c0)):
        return made("Invalid", "warped factor does not follow the product-family equation")
    k_profile = ode._conserved(r1, c1, c0, h, hp)
    k_med = float(np.median(k_profile))
    if float(np.max(np.abs(k_profile - k_med))) > tol.structure * max(1.0, abs(k_med)):
        return made("Invalid", "conserved quantity of the warped factor drifts")
    return made("TypeIV", "warped factor obeys the product-family equation")
