"""Independent oracles used by the test suite.

Two layers, deliberately built with different machinery than the package:

1. A coordinate-level computation (sympy) of curvature for a doubly
   warped 4-metric, straight from Christoffel symbols.  No frames, no
   classes: plain coordinate tensors, normalized to the orthonormal
   frame only at the very end.

2. Dense index-loop evaluations of the tensor-tower formulas (Schouten,
   Weyl, Cotton, the obstruction 3-tensor, Bach, contracted Bianchi)
   written with explicit Python loops and Kronecker deltas.  The package
   uses einsum and collapsed classes; these loops share none of that.

3. The Runge-Kutta node loops of the warping solver written step by step
   on NumPy scalars through the vectorised `_rk4_step`, with the
   admissibility test spelled out check by check.  The package runs its
   node loops on Python floats in one generator; these must agree with it
   bit for bit, down to where and how a trajectory blows up.

4. The dense layer as it was before index tables and matrix products:
   `materialize_full` and the frame connection filled by index loops,
   both divergences as literal einsum strings, and the two dense audits
   evaluated over the whole grid at once with the full Weyl tensor.  The
   package scatters through index tables, contracts with batched matrix
   products and audits in chunks; materialization must agree bit for bit,
   contractions within their roundoff.

5. The `report` writer as it was before fixed row blocks: every value
   formatted on its own, row by row, and the JSON document handed whole to
   `json.dump`.  The package formats and encodes a block of rows at a
   time; the files must agree byte for byte.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
import sympy as sp

from staticgeo import curvature_engine as ce
from staticgeo.errors import BlowUp
from staticgeo.jets import derivatives_from_jet, jder, jet_of
from staticgeo.ode_solver import (
    _H_FLOOR,
    _STATE_CEIL,
    DEFAULT_STEPS,
    WarpingODEParams,
    _brentq,
    _potential,
    _rk4_step,
    turning_point,
)
from staticgeo.profiles import (
    ANALYTIC_ORDER,
    HyperbolicProfile,
    PolynomialProfile,
    SumProfile,
    TrigProfile,
)
from staticgeo.static_verifier import Channel, ResidualReport
from staticgeo.warped_geometry import (
    FiberBlock,
    LapseFunction,
    WarpedProductSpec,
    WarpingFunction,
)

# ---------------------------------------------------------------------------
# Layer 1: coordinate curvature of ds^2 + h1^2 (dth^2 + sin^2 th dph^2) + h2^2 dy^2
# ---------------------------------------------------------------------------

COORD_H1 = "2 + sin(s)/2"
COORD_H2 = "1 + s**2/8"
COORD_F = "1 + s/3"


def reference_spec(n: int, grid_points: int = 64) -> WarpedProductSpec:
    """Analytic comparison spec at n = 4 or 5.

    Block 0 is a 2-sphere warped by COORD_H1 and block 1 a line warped by
    COORD_H2, matching the coordinate model above; n = 5 appends a second
    line with an independent hyperbolic warping so cross-block components
    vary.
    """
    h1 = WarpingFunction(
        "custom", (), ANALYTIC_ORDER,
        SumProfile(PolynomialProfile((2.0,)), TrigProfile(a_sin=0.5, omega=1.0)),
    )
    h2 = WarpingFunction(
        "custom", (), ANALYTIC_ORDER, PolynomialProfile((1.0, 0.0, 0.125))
    )
    blocks = [FiberBlock(2, h1, "space_form", 1.0), FiberBlock(1, h2)]
    if n == 5:
        h3 = WarpingFunction(
            "custom", (), ANALYTIC_ORDER, HyperbolicProfile(a_cosh=1.5, omega=0.5)
        )
        blocks.append(FiberBlock(1, h3))
    elif n != 4:
        raise ValueError(f"reference spec exists for n in (4, 5), not {n}")
    return WarpedProductSpec(tuple(blocks), domain=(0.2, 1.6), grid_points=grid_points)


def reference_lapse() -> LapseFunction:
    """The lapse COORD_F as a package object."""
    return LapseFunction(
        "poly", (1.0, 1.0 / 3.0), ANALYTIC_ORDER, PolynomialProfile((1.0, 1.0 / 3.0))
    )


@lru_cache(maxsize=1)
def coordinate_model():
    """Symbolic curvature of the reference 4-metric, lambdified.

    Returns a dict of callables of (s, th): metric diagonal, lowered
    Riemann, Ricci, scalar curvature and lowered Cotton, each returned
    as dense numpy arrays.  Index order: x0 = s, x1 = th, x2 = ph,
    x3 = y.
    """
    s, th = sp.symbols("s th", positive=True)
    h1 = sp.sympify(COORD_H1, locals={"s": s})
    h2 = sp.sympify(COORD_H2, locals={"s": s})
    x = (s, th, sp.Symbol("ph"), sp.Symbol("y"))
    n = 4
    g = sp.zeros(n, n)
    g[0, 0] = sp.Integer(1)
    g[1, 1] = h1**2
    g[2, 2] = h1**2 * sp.sin(th) ** 2
    g[3, 3] = h2**2
    ginv = sp.diag(*[1 / g[i, i] for i in range(n)])

    # Christoffel symbols of the second kind.
    gamma = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                term = sp.Integer(0)
                for d in range(n):
                    term += ginv[a, d] * (
                        sp.diff(g[d, b], x[c])
                        + sp.diff(g[d, c], x[b])
                        - sp.diff(g[b, c], x[d])
                    )
                gamma[a][b][c] = sp.together(term / 2)

    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #            + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riem_up = [[[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    term = sp.diff(gamma[a][d][b], x[c]) - sp.diff(
                        gamma[a][c][b], x[d]
                    )
                    for e in range(n):
                        term += (
                            gamma[a][c][e] * gamma[e][d][b]
                            - gamma[a][d][e] * gamma[e][c][b]
                        )
                    riem_up[a][b][c][d] = term

    riem = [[[[sp.together(g[a, a] * riem_up[a][b][c][d]) for d in range(n)]
              for c in range(n)] for b in range(n)] for a in range(n)]

    ric = sp.zeros(n, n)
    for b in range(n):
        for d in range(n):
            term = sp.Integer(0)
            for a in range(n):
                term += riem_up[a][b][a][d]
            ric[b, d] = sp.together(term)

    scal = sp.together(
        sum(ginv[i, i] * ric[i, i] for i in range(n))
    )

    # Cotton from covariant derivatives of the trace-adjusted Ricci.
    A = ric - scal / (2 * (n - 1)) * g
    nabla_A = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                term = sp.diff(A[i, j], x[k])
                for m in range(n):
                    term -= gamma[m][k][i] * A[m, j] + gamma[m][k][j] * A[i, m]
                nabla_A[k][i][j] = term
    cotton = [[[sp.together(nabla_A[k][i][j] - nabla_A[j][i][k])
                for k in range(n)] for j in range(n)] for i in range(n)]

    def pack(expr_nested, shape):
        flat = []

        def rec(node):
            if isinstance(node, (list, tuple)):
                for sub in node:
                    rec(sub)
            else:
                flat.append(node)

        rec(expr_nested)
        fns = [sp.lambdify((s, th), e, "numpy") for e in flat]

        def call(sv, tv):
            vals = np.array([float(fn(sv, tv)) for fn in fns])
            return vals.reshape(shape)

        return call

    g_list = [g[i, i] for i in range(n)]
    ric_list = [[ric[i, j] for j in range(n)] for i in range(n)]
    return {
        "metric_diag": pack(g_list, (n,)),
        "riemann": pack(riem, (n, n, n, n)),
        "ricci": pack(ric_list, (n, n)),
        "scalar": pack([scal], (1,)),
        "cotton": pack(cotton, (n, n, n)),
    }


def frame_normalize(coord_tensor: np.ndarray, metric_diag: np.ndarray) -> np.ndarray:
    """Divide each index slot by sqrt(g_ii): orthonormal-frame components."""
    out = np.array(coord_tensor, dtype=float)
    root = np.sqrt(metric_diag)
    rank = out.ndim
    for axis in range(rank):
        shape = [1] * rank
        shape[axis] = len(root)
        out = out / root.reshape(shape)
    return out


# ---------------------------------------------------------------------------
# Layer 2: dense index-loop formula oracles (frame components)
# ---------------------------------------------------------------------------


def loop_schouten(ric: np.ndarray, scal: float, n: int) -> np.ndarray:
    """A_ij = R_ij - R/(2(n-1)) delta_ij, explicit loops."""
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            A[i, j] = ric[i, j] - (scal / (2.0 * (n - 1.0)) if i == j else 0.0)
    return A


def loop_weyl(riem: np.ndarray, A: np.ndarray, n: int) -> np.ndarray:
    """W from the Riemann tensor and Schouten tensor, explicit loops."""
    W = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    combo = (
                        A[i, k] * (1.0 if j == l else 0.0)
                        + A[j, l] * (1.0 if i == k else 0.0)
                        - A[i, l] * (1.0 if j == k else 0.0)
                        - A[j, k] * (1.0 if i == l else 0.0)
                    )
                    W[i, j, k, l] = riem[i, j, k, l] - combo / (n - 2.0)
    return W


def loop_grad_three(T: np.ndarray, T_prime: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(nabla_k T)_ij for a frame 2-tensor depending only on s; loops."""
    n = T.shape[0]
    out = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = T_prime[i, j] if k == 0 else 0.0
                for m in range(n):
                    acc += G[m, i, k] * T[m, j] + G[m, j, k] * T[i, m]
                out[i, j, k] = acc
    return out


def loop_cotton(A: np.ndarray, A_prime: np.ndarray, G: np.ndarray) -> np.ndarray:
    """C_ijk = A_ij,k - A_ik,j from covariant derivative loops."""
    nabla = loop_grad_three(A, A_prime, G)
    n = A.shape[0]
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                C[i, j, k] = nabla[i, j, k] - nabla[i, k, j]
    return C


def loop_d_tensor(ric: np.ndarray, scal: float, grad_f: np.ndarray, n: int) -> np.ndarray:
    """Obstruction 3-tensor from Ricci, scalar and the lapse gradient."""
    D = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = (n - 1.0) / (n - 2.0) * (
                    ric[i, k] * grad_f[j] - ric[i, j] * grad_f[k]
                )
                val += scal / (n - 2.0) * (
                    grad_f[k] * (1.0 if i == j else 0.0)
                    - grad_f[j] * (1.0 if i == k else 0.0)
                )
                contraction = 0.0
                for l in range(n):
                    contraction += grad_f[l] * (
                        ric[l, j] * (1.0 if i == k else 0.0)
                        - ric[l, k] * (1.0 if i == j else 0.0)
                    )
                D[i, j, k] = val + contraction / (n - 2.0)
    return D


def loop_three_divergence(
    T: np.ndarray, T_prime: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """(div T)_ij = T_ijk,k over the last slot, explicit loops."""
    n = T.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = T_prime[i, j, 0]
            for k in range(n):
                for m in range(n):
                    acc += (
                        G[m, i, k] * T[m, j, k]
                        + G[m, j, k] * T[i, m, k]
                        + G[m, k, k] * T[i, j, m]
                    )
            out[i, j] = acc
    return out


def loop_bach(
    cotton: np.ndarray,
    cotton_prime: np.ndarray,
    ric: np.ndarray,
    weyl: np.ndarray,
    G: np.ndarray,
    n: int,
) -> np.ndarray:
    """B_ij = (C_ijk,k + R_kl W_ikjl)/(n-2), explicit loops."""
    div_c = loop_three_divergence(cotton, cotton_prime, G)
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = div_c[i, j]
            for k in range(n):
                for l in range(n):
                    acc += ric[k, l] * weyl[i, k, j, l]
            B[i, j] = acc / (n - 2.0)
    return B


def loop_div_ricci(
    ric: np.ndarray, ric_prime: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """(div Ric)_i = R_ji,j, explicit loops (for the contracted Bianchi check)."""
    n = ric.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = ric_prime[0, i]
        for j in range(n):
            for m in range(n):
                acc += G[m, j, j] * ric[m, i] + G[m, i, j] * ric[j, m]
        out[i] = acc
    return out


# ---------------------------------------------------------------------------
# Layer 3: Runge-Kutta node loops on NumPy scalars
# ---------------------------------------------------------------------------


def loop_state_ok(c0: float, h, hp) -> bool:
    """Admissible state: finite, under the ceiling, above the floor if forced."""
    if not (math.isfinite(h) and math.isfinite(hp)):
        return False
    if abs(h) > _STATE_CEIL or abs(hp) > _STATE_CEIL:
        return False
    if c0 != 0.0 and h <= _H_FLOOR:
        return False
    return True


@np.errstate(all="ignore")
def loop_ode_nodes(params: WarpingODEParams) -> tuple[np.ndarray, np.ndarray, float]:
    """(h_nodes, hp_nodes, dt) of OdeBackedProfile(params), one step at a time."""
    lo, hi = params.domain
    n_steps = max(1, math.ceil((hi - lo) / params.effective_step - 1e-12))
    dt = (hi - lo) / n_steps
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    h = np.empty(n_steps + 1)
    hp = np.empty(n_steps + 1)
    h[0], hp[0] = params.h0, params.h0_prime
    if not loop_state_ok(c0, h[0], hp[0]):
        raise BlowUp("initial state already inadmissible", lo)
    for i in range(n_steps):
        h[i + 1], hp[i + 1] = _rk4_step(p, c1, c0, h[i], hp[i], dt)
        if not loop_state_ok(c0, h[i + 1], hp[i + 1]):
            raise BlowUp(
                f"trajectory left the admissible region near s = {lo + (i + 1) * dt:g}",
                lo + i * dt,
            )
    return h, hp, dt


@np.errstate(all="ignore")
def loop_orbit_search(params: WarpingODEParams, k: float, closure_tol: float = 1e-8):
    """find_periodic's (period, h_min, h_max, orbit params), or None, step by step."""
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    if c1 <= 0.0 or c0 <= 0.0:
        return None
    h_star = (c0 / c1) ** (1.0 / (p + 1.0))
    k_min = _potential(p, c1, c0, h_star)
    if k - k_min <= 1e-12 * max(1.0, abs(k_min)):
        return None
    h_max = turning_point(params, k, "outer")
    h_min = turning_point(params, k, "inner")
    t_lin = 2.0 * math.pi / math.sqrt((p + 1.0) * c1)
    dt = params.step if params.step is not None else t_lin / DEFAULT_STEPS
    s_budget = 64.0 * t_lin
    s, h, hp, crossings = 0.0, np.float64(h_max), np.float64(0.0), 0
    while s < s_budget:
        h_next, hp_next = _rk4_step(p, c1, c0, h, hp, dt)
        if not loop_state_ok(c0, h_next, hp_next):
            raise BlowUp(f"orbit search left admissible region near s = {s + dt:g}", s)
        if hp_next == 0.0 or (hp < 0.0 < hp_next) or (hp > 0.0 > hp_next):
            h0, hp0 = float(h), float(hp)

            def hp_at(delta: float) -> float:
                return _rk4_step(p, c1, c0, h0, hp0, delta)[1]

            delta = dt if hp_next == 0.0 else _brentq(hp_at, 0.0, dt)
            crossings += 1
            if crossings == 2:
                period = s + delta
                h_close = _rk4_step(p, c1, c0, h0, hp0, delta)[0]
                if abs(h_close - h_max) > closure_tol * max(1.0, h_max):
                    return None
                orbit = WarpingODEParams(
                    p, c1, c0, h_max, 0.0, (0.0, period), period / DEFAULT_STEPS
                )
                return period, h_min, h_max, orbit
        s += dt
        h, hp = h_next, hp_next
    return None


# ---------------------------------------------------------------------------
# Layer 4: dense materialization by index loops, divergences by einsum
# ---------------------------------------------------------------------------


def loop_materialize_full(classes, spec: WarpedProductSpec) -> np.ndarray:
    """ce.materialize_full, one frame index pair at a time."""
    n = spec.n
    owner = ce._block_of_index(spec)
    if isinstance(classes, ce.RiemannClasses):
        ce._check_fiber_data(spec)
        tail = classes.base_block.shape[1:]
        out = np.zeros(tail + (n, n, n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if i == 0:
                    val = classes.base_block[owner[j]]
                elif owner[i] == owner[j]:
                    val = classes.intra_block[owner[i]]
                else:
                    val = classes.cross_block[owner[i], owner[j]]
                out[..., i, j, i, j] = val
                out[..., j, i, j, i] = val
                out[..., i, j, j, i] = -val
                out[..., j, i, i, j] = -val
        return out
    if isinstance(classes, (ce.DiagonalTwoTensor, ce.RicciSpectrum)):
        if isinstance(classes, ce.RicciSpectrum):
            v1, vb = classes.lambda_1, classes.lambda_block
        else:
            v1, vb = classes.value_1, classes.value_block
        out = np.zeros(vb.shape[1:] + (n, n))
        out[..., 0, 0] = v1
        for a in range(1, n):
            out[..., a, a] = vb[owner[a]]
        return out
    if isinstance(classes, ce.MixedThreeTensor):
        vb = classes.value_block
        out = np.zeros(vb.shape[1:] + (n, n, n))
        for a in range(1, n):
            out[..., a, 0, a] = vb[owner[a]]
            out[..., a, a, 0] = -vb[owner[a]]
        return out
    raise TypeError(f"cannot materialize {type(classes).__name__}")


def loop_connection(spec: WarpedProductSpec, xi: np.ndarray) -> np.ndarray:
    """ce._connection, one frame index at a time."""
    n = spec.n
    owner = ce._block_of_index(spec)
    out = np.zeros(xi.shape[1:] + (n, n, n))
    for a in range(1, n):
        out[..., 0, a, a] = xi[owner[a]]
        out[..., a, 0, a] = -xi[owner[a]]
    return out


def einsum_three_tensor_divergence(C, C_prime, G) -> np.ndarray:
    """ce.dense_three_tensor_divergence as three literal einsums."""
    div = C_prime[..., 0].copy()
    div += np.einsum("...mjk,...mik->...ij", C, G)
    div += np.einsum("...imk,...mjk->...ij", C, G)
    div += np.einsum("...ijm,...mkk->...ij", C, G)
    return div


def einsum_weyl_divergence(W, W_prime, G) -> np.ndarray:
    """ce.dense_weyl_divergence as literal einsums."""
    tr = np.einsum("...pll->...p", G)
    div = W_prime[..., 0, :, :, :].copy()
    div += np.einsum("...pijk,...p->...ijk", W, tr)
    div += np.einsum("...lpjk,...pil->...ijk", W, G)
    div += np.einsum("...lipk,...pjl->...ijk", W, G)
    div += np.einsum("...lijp,...pkl->...ijk", W, G)
    return div


def _report(points: dict, s: np.ndarray) -> ResidualReport:
    """Sup-norm channels of pointwise values, as static_verifier reports them."""
    channels = {}
    for name, values in points.items():
        flat = np.abs(values)
        i = int(np.argmax(flat))
        channels[name] = Channel(float(flat[i]), i, float(s[i]))
    return ResidualReport(channels, s)


def _block_rows(prefix: str, res: np.ndarray, spec: WarpedProductSpec) -> dict:
    owner = ce._block_of_index(spec)
    rows = np.abs(res).reshape(res.shape[0], spec.n, -1).max(axis=2)
    return {f"{prefix}[{j}]": rows[:, owner == j].max(axis=1) for j in range(len(spec.blocks))}


def oracle_audits(spec: WarpedProductSpec, lapse: LapseFunction):
    """identity_dcw and identity_db over the whole grid through the layer-4 oracles.

    Returns both reports and the largest magnitude among the three terms
    of identity_db's residual, the scale its roundoff is measured by.
    """
    s = spec.evaluation_grid()
    n = spec.n
    fr = ce._Frame(spec, s, 1)
    fj = jet_of(lapse, s, 1)
    C = loop_materialize_full(ce.MixedThreeTensor(fr.cotton_jets()[0]), spec)
    W = loop_materialize_full(ce.RiemannClasses(*(w[0] for w in fr.weyl_jets())), spec)
    D = loop_materialize_full(
        ce.MixedThreeTensor(ce._d_jet(n, jder(fj), fr.lam1, fr.lam, fr.scal)[0]), spec
    )
    f0, f1 = fj[..., None, None, None]
    dcw = f0 * C - f1 * W[..., 0, :, :, :] - D

    fr = ce._Frame(spec, s, 2)
    fj = jet_of(lapse, s, 2)
    B = loop_materialize_full(fr.bach(), spec)
    C = loop_materialize_full(ce.MixedThreeTensor(fr.cotton_jets()[0]), spec)
    D, Dp = (
        loop_materialize_full(ce.MixedThreeTensor(row), spec)
        for row in derivatives_from_jet(ce._d_jet(n, jder(fj), fr.lam1, fr.lam, fr.scal))
    )
    div_d = einsum_three_tensor_divergence(D, Dp, loop_connection(spec, fr.xi[0]))
    f0, f1 = fj[:2, ..., None, None]
    mix = C[..., :, :, 0] + (n - 3.0) / (n - 2.0) * np.swapaxes(C, -3, -2)[..., :, :, 0]
    terms = ((n - 2.0) * f0 * B, div_d, f1 * mix)
    db = terms[0] - terms[1] + terms[2]
    db_points = {"db_11": db[..., 0, 0]} | _block_rows("db_block", db, spec)
    return (
        _report(_block_rows("dcw_block", dcw, spec), s),
        _report(db_points, s),
        max(float(np.max(np.abs(t))) for t in terms),
    )


# ---------------------------------------------------------------------------
# Layer 5: the row-by-row report writer
# ---------------------------------------------------------------------------


def loop_write_report(cols, path, fmt: str) -> None:
    """Write report columns [(name, values), ...] to path as CSV or JSON."""
    names = [name for name, _ in cols]
    data = np.column_stack([values for _, values in cols])
    if fmt == "csv":
        lines = [",".join(names)]
        for row in data:
            lines.append(",".join("%.17g" % v for v in row))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        doc = {"columns": names, "rows": [[float(v) for v in row] for row in data]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
