"""Curvature of multiply warped products in an adapted orthonormal frame.

For g = ds^2 + sum_j h_j(s)^2 g_j the frame is E_1 = d/ds together with
orthonormal directions along each fiber block.  Writing xi_j = h_j'/h_j,
everything collapses to a handful of s-dependent classes:

  connection        w_{1a} = xi_a w_a,  w_{a alpha} = 0 across blocks
  curvature         R_{1a1a} = -(xi_a' + xi_a^2) = -h_a''/h_a
                    R_{abab} = (k - h'^2)/h^2          same block, dim >= 2
                    R_{a alpha a alpha} = -xi_a xi_alpha   different blocks
  Ricci             lambda_1 = -sum_i (xi_i' + xi_i^2)
                    lambda_a = -xi_a' - xi_a sum_i xi_i + (dim-1) k / h^2
  trace-adjusted    A_ij = R_ij - R/(2(n-1)) delta_ij
  conformal         W_ijkl = R_ijkl - (A_ik d_jl + A_jl d_ik
                                       - A_il d_jk - A_jk d_il)/(n-2)

(sums over i run over all fiber directions with multiplicity).  The
intra-block class (k - h'^2)/h^2 is pinned by requiring that the frame
contraction sum_k R_{akak} reproduce lambda_a; a unit test enforces this.

Derivatives of the classes are computed with truncated Taylor jets, so
first and second derivatives of eigenvalue profiles are exact given the
warping's derivative tower (no finite differencing happens here).  Each
public operation reads one jet tower (`_Frame`), and each answer and dense
audit in static_verifier builds one: the Ricci jets and m_class up front,
the other classes on first read, each jet only to the order its reader
needs.

Scalar s arguments or 1-d grids are both accepted; outputs carry the
grid axes last, block axes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadRange, InsufficientFiberData
from .jets import _rows, derivatives_from_jet, jconst, jder, jdiv, jet_from_derivatives, jmul
from .profiles import _within
from .warped_geometry import LapseFunction, WarpedProductSpec

__all__ = [
    "RicciSpectrum",
    "RiemannClasses",
    "DiagonalTwoTensor",
    "MixedThreeTensor",
    "SpectrumDerivatives",
    "xi_profile",
    "ricci_spectrum",
    "eigenvalue_derivatives",
    "d_tensor_derivatives",
    "scalar_profile",
    "riemann_classes",
    "schouten_spectrum",
    "weyl_classes",
    "cotton_classes",
    "cotton_from_weyl_divergence",
    "d_tensor_classes",
    "bach_spectrum",
    "materialize_full",
    "frame_connection",
    "dense_three_tensor_divergence",
    "dense_weyl_divergence",
]


@dataclass(frozen=True)
class RicciSpectrum:
    """Diagonal Ricci data: lambda_1, per-block lambda_a, scalar curvature."""

    lambda_1: np.ndarray
    lambda_block: np.ndarray
    scalar: np.ndarray


@dataclass(frozen=True)
class RiemannClasses:
    """Curvature-operator classes of a warped product (or its Weyl part).

    base_block[j]       component with index pattern (1, a, 1, a)
    intra_block[j]      pattern (a, b, a, b) inside block j (nan if dim 1)
    cross_block[i, j]   pattern (a, alpha, a, alpha) across blocks (nan diag)
    """

    base_block: np.ndarray
    intra_block: np.ndarray
    cross_block: np.ndarray


@dataclass(frozen=True)
class DiagonalTwoTensor:
    """Diagonal symmetric 2-tensor constant on blocks."""

    value_1: np.ndarray
    value_block: np.ndarray


@dataclass(frozen=True)
class MixedThreeTensor:
    """3-tensor whose only components follow the (a,1,a) = -(a,a,1) pattern."""

    value_block: np.ndarray


def _check_domain(spec: WarpedProductSpec, s) -> np.ndarray:
    return _within(
        s, *spec.evaluation_domain, spec.step,
        "s outside margin-shrunk domain [{lo:g}, {hi:g}] of the spec",
    )


def _check_fiber_data(spec: WarpedProductSpec) -> None:
    for j, b in enumerate(spec.blocks):
        if b.model == "abstract_einstein" and b.dim >= 3:
            raise InsufficientFiberData(
                f"block {j} is an abstract Einstein fiber of dimension {b.dim}; "
                "full curvature output needs a space form (or dimension 2)"
            )


def _warping_rows(spec: WarpedProductSpec, s: np.ndarray, order: int) -> np.ndarray:
    """Warping derivatives 0..order of every block, shape (order+1, B) + S."""
    shape = (order + 1,) + s.shape
    rows = [np.broadcast_to(_rows(b.warping, s, range(order + 1)), shape) for b in spec.blocks]
    return np.stack(rows, axis=1)


class _Frame:
    """Jet tower shared by the public operations.

    All jets are arrays of shape (order+1, B) + S with the jet axis first
    and the block axis second, so jet arithmetic broadcasts across blocks
    and evaluation points alike.  One frame feeds a whole answer or dense
    audit: h, xi, Ricci, Weyl, Cotton, Bach and D jets all come from it.

    The constructor builds what an answer reads (h, xi, trace, lam, lam1,
    scal) and m_class, a negation of a sum it needs anyway; p_class,
    q_class and the A jets are built on first read and kept.  Each jet is
    cut to the order its reader needs, which moves no bit: row k of a jet
    product or quotient reads only rows 0..k.
    """

    def __init__(self, spec: WarpedProductSpec, s, lam_order: int):
        s = _check_domain(spec, s)
        self.spec = spec
        self.s = s
        self.n = spec.n
        self.B = len(spec.blocks)
        horder = lam_order + 2
        self.lo = lo = lam_order + 1                   # rows of every class jet
        self.h = h = jet_from_derivatives(_warping_rows(spec, s, horder))
        tail = (self.B,) + (1,) * s.ndim
        self.dims = dims = np.array([b.dim for b in spec.blocks], dtype=float).reshape(tail)
        self.ks = ks = np.array([b.k for b in spec.blocks], dtype=float).reshape(tail)

        self.xi = xi = jdiv(jder(h), h[:horder])       # order: horder-1
        self.h2inv = jdiv(jconst(1.0, lam_order, like=h), jmul(h[:lo], h[:lo]))
        self.trace = np.sum(dims * xi, axis=1)         # sum_i xi_i, mult-weighted
        xi_p = jder(xi)                                # order: horder-2 = lam_order
        curv = xi_p + jmul(xi[:lo], xi[:lo])           # xi' + xi^2
        # lambda_a = -xi' - xi * trace + (dim-1) k / h^2
        self.lam = -xi_p - jmul(xi[:lo], self.trace[:lo, None]) + (dims - 1.0) * ks * self.h2inv
        # lambda_1 = -sum_j r_j (xi_j' + xi_j^2)
        self.lam1 = -np.sum(dims * curv, axis=1)
        self.m_class = -curv                           # R_{1a1a}
        self.scal = self.lam1 + np.sum(dims * self.lam, axis=1)

    @cached_property
    def p_class(self):                                 # R_{abab} = (k - h'^2)/h^2, nan if dim 1
        _check_fiber_data(self.spec)
        hp = jder(self.h)[: self.lo]
        p = jmul(self.ks * jconst(1.0, self.lo - 1, like=self.h) - jmul(hp, hp), self.h2inv)
        p[:, self.dims.ravel() == 1] = np.nan
        return p

    @cached_property
    def q_class(self):                                 # R_{a alpha a alpha} = -xi_a xi_alpha
        q = -jmul(self.xi[: self.lo, :, None], self.xi[: self.lo, None, :])
        q[:, np.arange(self.B), np.arange(self.B)] = np.nan
        return q

    @cached_property
    def A1(self):                                      # A_ij = R_ij - R/(2(n-1)) delta_ij
        return self.lam1 - self.scal / (2.0 * (self.n - 1))

    @cached_property
    def Ablk(self):
        return self.lam - (self.scal / (2.0 * (self.n - 1)))[:, None]

    def weyl_jets(self):
        nm2 = self.n - 2
        w_base = self.m_class - (self.A1[:, None] + self.Ablk) / nm2
        w_intra = self.p_class - 2.0 * self.Ablk / nm2
        w_cross = self.q_class - (self.Ablk[:, :, None] + self.Ablk[:, None, :]) / nm2
        return w_base, w_intra, w_cross

    def cotton_jets(self):
        # C_{a1a} = (A_11 - A_aa) xi_a - A_aa'; A_aa' is one jet order shorter.
        return jmul(self.A1[:, None] - self.Ablk, self.xi)[:-1] - jder(self.Ablk)

    def bach(self) -> DiagonalTwoTensor:
        """bach_spectrum's values; needs lam_order >= 2 and space-form fibers."""
        nm2, dims, xi0, lam0 = self.n - 2.0, self.dims, self.xi[0], self.lam[0]
        c = self.cotton_jets()         # jet order 1
        w_base, w_intra, w_cross = self.weyl_jets()

        # (div C)_11 = -sum_j r_j c_j xi_j ; contraction with Ricci adds
        # sum_j r_j lambda_j W_{1a1a}.
        div_c_11 = -np.sum(dims * c[0] * xi0, axis=0)
        ric_w_11 = np.sum(dims * lam0 * w_base[0], axis=0)
        b_11 = (div_c_11 + ric_w_11) / nm2

        # (div C)_aa = -c_a' - c_a (sum_i xi_i - xi_a); the Ricci contraction
        # collects the base, intra-block and cross-block conformal classes.
        div_c_aa = -jder(c)[0] - c[0] * (self.trace[0][None] - xi0)
        w_intra0 = np.where(np.isnan(w_intra[0]), 0.0, w_intra[0])
        w_cross0 = np.where(np.isnan(w_cross[0]), 0.0, w_cross[0])
        ric_w_aa = (
            self.lam1[0][None] * w_base[0]
            + (dims - 1.0) * lam0 * w_intra0
            + np.sum((dims * lam0)[None, ...] * w_cross0, axis=1)
        )
        b_aa = (div_c_aa + ric_w_aa) / nm2
        return DiagonalTwoTensor(b_11, b_aa)


# ---------------------------------------------------------------------------
# Pointwise class operations
# ---------------------------------------------------------------------------


def xi_profile(spec: WarpedProductSpec, s) -> np.ndarray:
    """Per-block xi_j = h_j'/h_j, shape (B,) + shape(s)."""
    h, hp = _warping_rows(spec, _check_domain(spec, s), 1)
    return hp / h


def ricci_spectrum(spec: WarpedProductSpec, s) -> RicciSpectrum:
    """Eigenvalues of the Ricci endomorphism in the adapted frame."""
    fr = _Frame(spec, s, 0)
    return RicciSpectrum(fr.lam1[0], fr.lam[0], fr.scal[0])


def scalar_profile(spec: WarpedProductSpec, s) -> np.ndarray:
    """Scalar curvature along the interval."""
    return ricci_spectrum(spec, s).scalar


@dataclass(frozen=True)
class SpectrumDerivatives:
    """Eigenvalue functions with their s-derivatives stacked on a leading axis.

    Row d holds the d-th derivative (true derivatives, not Taylor
    coefficients).  Shapes: lambda_1 and scalar (order+1,) + S,
    lambda_block and xi (order+1, B) + S, and the warpings h
    (order+2, B) + S, whose rows 0-2 equal the warpings' own derivatives.
    """

    lambda_1: np.ndarray
    lambda_block: np.ndarray
    scalar: np.ndarray
    xi: np.ndarray
    h: np.ndarray


def eigenvalue_derivatives(
    spec: WarpedProductSpec, s, order: int = 1
) -> SpectrumDerivatives:
    """Ricci eigenvalues, scalar curvature and xi with exact derivatives.

    Derivatives come from the warping's own derivative tower through jet
    arithmetic, so an order-1 request costs warping derivatives up to 3.
    """
    fr = _Frame(spec, s, order)
    jets = (fr.lam1, fr.lam, fr.scal, fr.xi[: order + 1], fr.h[: order + 2])
    return SpectrumDerivatives(*(derivatives_from_jet(j) for j in jets))


def _d_jet(n: int, fp: np.ndarray, lambda_1, lambda_block, scalar) -> np.ndarray:
    """D_{a1a} = f' ((n-1) lambda_a - R + lambda_1)/(n-2) as a jet.

    fp is the jet of f'; the eigenvalue rows are truncated to its order
    (a derivative row 0 is its own order-0 jet).  Every input stacks its
    rows on the leading axis; the block axis of lambda_block comes next.
    """
    rows = fp.shape[0]
    lam1, scal = lambda_1[:rows, None], scalar[:rows, None]
    return jmul(fp[:, None], ((n - 1.0) * lambda_block[:rows] - scal + lam1) / (n - 2.0))


def d_tensor_derivatives(
    spec: WarpedProductSpec, f: LapseFunction, s, order: int = 1
) -> np.ndarray:
    """Obstruction classes D_{a1a} with derivatives, shape (order+1, B) + S."""
    fr = _Frame(spec, s, order)
    fpj = jet_from_derivatives(_rows(f, fr.s, range(1, order + 2)))
    return derivatives_from_jet(_d_jet(spec.n, fpj, fr.lam1, fr.lam, fr.scal))


def riemann_classes(spec: WarpedProductSpec, s) -> RiemannClasses:
    """Sectional-curvature classes; intra-block entries need space forms."""
    fr = _Frame(spec, s, 0)
    return RiemannClasses(fr.m_class[0], fr.p_class[0], fr.q_class[0])


def schouten_spectrum(spec: WarpedProductSpec, s) -> DiagonalTwoTensor:
    """Diagonal of A_ij = R_ij - R/(2(n-1)) delta_ij."""
    fr = _Frame(spec, s, 0)
    return DiagonalTwoTensor(fr.A1[0], fr.Ablk[0])


def weyl_classes(spec: WarpedProductSpec, s) -> RiemannClasses:
    """Conformal curvature classes (same index patterns as the Riemann part)."""
    return RiemannClasses(*(w[0] for w in _Frame(spec, s, 0).weyl_jets()))


def cotton_classes(spec: WarpedProductSpec, s) -> MixedThreeTensor:
    """C_{a1a} per block (metric-only)."""
    fr = _Frame(spec, s, 1)
    return MixedThreeTensor(fr.cotton_jets()[0])


def d_tensor_classes(spec: WarpedProductSpec, f: LapseFunction, s) -> MixedThreeTensor:
    """Obstruction 3-tensor classes for the pair (spec, f).

    D_{a1a} = f' [ (n-1) lambda_a - R + lambda_1 ] / (n-2); antisymmetric
    in its last two slots, zero elsewhere, like the Cotton classes.
    """
    return MixedThreeTensor(d_tensor_derivatives(spec, f, s, order=0)[0])


def bach_spectrum(spec: WarpedProductSpec, s) -> DiagonalTwoTensor:
    """Diagonal Bach values B_11 and B_aa per block (metric-only).

    B_ij = (C_ijk,k + R_kl W_ikjl)/(n-2); the divergence is taken in the
    adapted frame, where only w_{1a} = xi_a w_a contributes for
    block-constant component functions.
    """
    return _Frame(spec, s, 2).bach()


def cotton_from_weyl_divergence(spec: WarpedProductSpec, s) -> MixedThreeTensor:
    """Cotton classes recovered from -(n-2)/(n-3) * div W (first slot).

    Independent route used to cross-check cotton_classes; needs n >= 4
    and space-form fibers.  Evaluated densely so that index bookkeeping
    errors cannot hide in the class collapse.
    """
    if spec.n < 4:
        raise BadRange(f"Weyl-divergence route needs n >= 4, got n={spec.n}")
    fr = _Frame(spec, s, 1)
    w = fr.weyl_jets()
    W = materialize_full(RiemannClasses(*(j[0] for j in w)), spec)
    Wp = materialize_full(RiemannClasses(*(jder(j)[0] for j in w)), spec)
    div = dense_weyl_divergence(W, Wp, _connection(spec, fr.xi[0]))
    c = -(spec.n - 2.0) / (spec.n - 3.0) * div
    return MixedThreeTensor(np.stack([c[..., a, 0, a] for a in spec.block_offsets()]))


# ---------------------------------------------------------------------------
# Dense materialization and frame tensor calculus
#
# A dense tensor is scattered from its classes through an index table:
# for every nonzero entry, the class row it copies and whether it is
# negated.  The values are copies, so no arithmetic happens on the way.
# The divergences contract through batched matrix products, one small
# matrix product per grid point, so a point's result does not depend on
# how many points share the call.  The dense audits in static_verifier
# rely on that: they feed these functions fixed-size chunks of the grid
# (peak memory stays bounded however fine the grid is), and identity_dcw
# scatters only the first slot of the Weyl tensor, _first_slot below,
# which has the (a,1,a)/(a,a,1) pattern of the base class.
# ---------------------------------------------------------------------------


def _block_of_index(spec: WarpedProductSpec) -> np.ndarray:
    """Map frame index -> block id (-1 for the interval direction)."""
    owner = np.full(spec.n, -1, dtype=int)
    for j, (off, b) in enumerate(zip(spec.block_offsets(), spec.blocks)):
        owner[off : off + b.dim] = j
    return owner


def _table(rows: np.ndarray, plus, minus=()):
    """Index table (rows, index, negate) of a class tensor.

    Every pattern in plus and minus is a tuple of frame-index arrays as
    long as rows; entry e of a pattern copies class row rows[e], negated
    for the minus patterns.
    """
    patterns = tuple(plus) + tuple(minus)
    index = tuple(np.concatenate(slot) for slot in zip(*patterns))
    negate = np.repeat([False, True], [len(plus) * rows.size, len(minus) * rows.size])
    return np.tile(rows, len(patterns)), index, negate


def _scatter(source: np.ndarray, table, n: int) -> np.ndarray:
    """Dense tensor from class rows stacked on source's leading axis.

    The grid axes that follow the rows in source come first in the output.
    """
    rows, index, negate = table
    values = np.moveaxis(source[rows], 0, -1)
    values[..., negate] = -values[..., negate]
    out = np.zeros(source.shape[1:] + (n,) * len(index))
    out[(Ellipsis, *index)] = values
    return out


def _riemann_table(spec: WarpedProductSpec):
    """Index table of RiemannClasses over the rows of _riemann_source."""
    owner, B = _block_of_index(spec), len(spec.blocks)
    i, j = np.triu_indices(spec.n, 1)
    rows = np.where(
        i == 0,
        owner[j],
        np.where(owner[i] == owner[j], B + owner[i], 2 * B + owner[i] * B + owner[j]),
    )
    return _table(rows, [(i, j, i, j), (j, i, j, i)], [(i, j, j, i), (j, i, i, j)])


def _riemann_source(classes: RiemannClasses) -> np.ndarray:
    """Base, intra and the flattened cross classes stacked on one axis."""
    return np.concatenate([classes.base_block, classes.intra_block, *classes.cross_block])


def _first_slot(classes: RiemannClasses, spec: WarpedProductSpec) -> np.ndarray:
    """materialize_full(classes, spec)[..., 0, :, :, :], without the other slots."""
    _check_fiber_data(spec)
    rows, index, negate = _riemann_table(spec)
    first = index[0] == 0
    table = rows[first], tuple(ix[first] for ix in index[1:]), negate[first]
    return _scatter(_riemann_source(classes), table, spec.n)


def _mixed_patterns(n: int):
    """Frame indices a = 2..n and the interval index beside them."""
    a = np.arange(1, n)
    return a, np.zeros_like(a)


def materialize_full(classes, spec: WarpedProductSpec) -> np.ndarray:
    """Expand collapsed classes into a dense frame tensor.

    RiemannClasses -> (..., n, n, n, n) with all pair symmetries;
    DiagonalTwoTensor / RicciSpectrum -> (..., n, n);
    MixedThreeTensor -> (..., n, n, n).
    Grid axes of the class arrays come first in the output.
    """
    n = spec.n
    owner = _block_of_index(spec)
    if isinstance(classes, RiemannClasses):
        _check_fiber_data(spec)
        return _scatter(_riemann_source(classes), _riemann_table(spec), n)
    if isinstance(classes, (DiagonalTwoTensor, RicciSpectrum)):
        if isinstance(classes, RicciSpectrum):
            v1, vb = classes.lambda_1, classes.lambda_block
        else:
            v1, vb = classes.value_1, classes.value_block
        source = np.concatenate([np.broadcast_to(v1, vb.shape[1:])[None], vb])
        d = np.arange(n)
        return _scatter(source, _table(1 + owner, [(d, d)]), n)
    if isinstance(classes, MixedThreeTensor):
        a, z = _mixed_patterns(n)
        table = _table(owner[1:], [(a, z, a)], [(a, a, z)])
        return _scatter(classes.value_block, table, n)
    raise TypeError(f"cannot materialize {type(classes).__name__}")


def frame_connection(spec: WarpedProductSpec, s) -> np.ndarray:
    """Connection coefficients G[..., m, i, l] with w_{mi} = G[m,i,l] w_l.

    Only the w_{1a} = xi_a w_a classes appear; fiber-internal forms drop
    out of every covariant derivative of block-constant tensors, which is
    validated against dense oracles in the test suite.
    """
    return _connection(spec, xi_profile(spec, s))


def _connection(spec: WarpedProductSpec, xi: np.ndarray) -> np.ndarray:
    """frame_connection from per-block xi of shape (B,) + S."""
    a, z = _mixed_patterns(spec.n)
    table = _table(_block_of_index(spec)[1:], [(z, a, a)], [(a, z, a)])
    return _scatter(xi, table, spec.n)


def _matrices(x: np.ndarray, order: tuple[int, ...], rows: int) -> np.ndarray:
    """The frame axes of x, permuted to `order`, folded into a stack of matrices.

    The first `rows` of the permuted axes index matrix rows and the rest
    columns; the grid axes in front of them stack the matrices.
    """
    lead = x.ndim - len(order)
    n = x.shape[-1]
    y = x.transpose(tuple(range(lead)) + tuple(lead + o for o in order))
    return y.reshape(x.shape[:lead] + (n**rows, n ** (len(order) - rows)))


def dense_three_tensor_divergence(
    C: np.ndarray, C_prime: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """(div C)_ij = C_ijk,k for a frame 3-tensor with s-dependent components.

    C_prime is the plain s-derivative of the components; G comes from
    frame_connection.  The sum over the connection runs

        sum_mk (G_mik C_mjk + C_imk G_mjk) + sum_m C_ijm G_mkk,

    each term as one matrix product per grid point.
    """
    g = _matrices(G, (1, 0, 2), 1)                 # G_mik: rows i, columns (m, k)
    div = C_prime[..., 0].copy()
    div += g @ np.swapaxes(_matrices(C, (1, 0, 2), 1), -1, -2)
    div += _matrices(C, (0, 1, 2), 1) @ np.swapaxes(g, -1, -2)
    trace = np.trace(G, axis1=-2, axis2=-1)[..., None]
    div += (_matrices(C, (0, 1, 2), 2) @ trace).reshape(C.shape[:-1])
    return div


def dense_weyl_divergence(
    W: np.ndarray, W_prime: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """(div W)_ijk = W_lijk,l contracted over the first slot.

    The connection terms are

        sum_p W_pijk G_pll + sum_lp (G_pil W_lpjk + W_lipk G_pjl + W_lijp G_pkl),

    each as one matrix product per grid point.
    """
    shape = W.shape[:-1]
    trace = np.trace(G, axis1=-2, axis2=-1)[..., None, :]
    div = W_prime[..., 0, :, :, :].copy()
    div += (trace @ _matrices(W, (0, 1, 2, 3), 1)).reshape(shape)
    div += (_matrices(G, (1, 2, 0), 1) @ _matrices(W, (0, 1, 2, 3), 2)).reshape(shape)
    ikj = _matrices(W, (1, 3, 0, 2), 2) @ _matrices(G, (2, 0, 1), 2)
    div += np.swapaxes(ikj.reshape(shape), -1, -2)
    div += (_matrices(W, (1, 2, 0, 3), 2) @ _matrices(G, (2, 0, 1), 2)).reshape(shape)
    return div
