"""Scalar profiles of one variable with exact derivative towers.

A profile is a function of the arc-length coordinate s that can report
its derivatives up to some maximum order.  Analytic profiles differentiate
in closed form; sampled profiles differentiate through finite-difference
stencils (5-point for orders 1-2, 7-point for orders 3-4), gathered for
all query points at once and weighted by one broadcast Fornberg
recursion; integrated profiles get their higher derivatives from the
differential equation that defines them (see ode_solver).  A sampled read
sums each stencil's products left to right, without BLAS, so it gives the
same bits on every CPU.

A sampled profile's gather indices and weights depend only on its grid
(start, step, sample count), the order and the query points, never on
the sample values.  They are built once per such key and kept, read-only,
in a least-recently-used memo of _STENCIL_MEMO entries, so the warpings
and the lapse of one document share them across a request.  An entry for
q points holds at most 120 q bytes.

Trig, hyperbolic and integrated profiles keep their per-grid state in a
one-entry memo of their own (`Profile._grid_state`), built once per grid
and keyed by the shape and raw float64 bytes of the query points: (sin x,
cos x) or (sinh x, cosh x), 24 bytes a point with the key, so every order
on one grid costs one pair of transcendental evaluations.  A trig order d
is w^d (a_d sin x + b_d cos x), its coefficients turned a quarter, (a, b)
-> (-b, a), once per order; order 0 has the bits of the a sin + b cos form.

All evaluation methods accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DerivativeOrderUnavailable,
    NonPositiveSample,
    OutOfDomain,
    TooFewSamples,
)

__all__ = [
    "Profile",
    "PolynomialProfile",
    "TrigProfile",
    "HyperbolicProfile",
    "SampledProfile",
    "ScaledDerivativeProfile",
    "ScaledProfile",
    "SumProfile",
    "fd_weights",
]

# Analytic profiles can be differentiated as often as we like; this is the
# order they advertise.  Nothing downstream needs more than 4.
ANALYTIC_ORDER = 8


def _within(s, lo: float, hi: float, step: float, message: str, **fields) -> np.ndarray:
    """s as floats; refused beyond 1e-9 of a step outside [lo, hi], message formatted then."""
    s = np.asarray(s, dtype=float)
    slack = 1e-9 * step
    if np.any(s < lo - slack) or np.any(s > hi + slack):
        raise OutOfDomain(message.format(lo=lo, hi=hi, **fields))
    return s


class Profile:
    """Base class: a scalar function with a derivative tower.

    A leaf profile whose orders share work on one grid keeps that work in
    a one-entry memo, `_grid_state`: read-only rows built once for the
    last query's points, keyed by their shape and raw float64 bytes.
    """

    max_order: int = 0
    # (key, rows) of the last query; replaced whole, never written into.
    _grid_memo: tuple = (None, ())

    @property
    def approximate(self) -> bool:
        """True for sampled or RK4 data, which carry error, and for any profile built on them."""
        return any(isinstance(p, Profile) and p.approximate for p in vars(self).values())

    def derivative(self, s, order: int):
        raise NotImplementedError

    def _check_order(self, order: int) -> None:
        if not 0 <= order <= self.max_order:
            raise DerivativeOrderUnavailable(
                f"derivative order {order} not available "
                f"(max {self.max_order} for {type(self).__name__})"
            )

    def _grid_state(self, s: np.ndarray, build) -> tuple:
        """build(s)'s rows, from the memo when s holds its points; built once per grid.

        The rows are made read-only and the entry is replaced in one
        assignment, so a thread reading the memo sees a whole entry.  Not
        a dataclass field, it leaves a frozen profile's eq, hash and repr alone.
        """
        key = (s.shape, s.tobytes())
        memo_key, rows = self._grid_memo
        if memo_key == key:
            return rows
        rows = build(s)
        for row in rows:
            row.setflags(write=False)
        object.__setattr__(self, "_grid_memo", (key, rows))
        return rows


@dataclass(frozen=True)
class PolynomialProfile(Profile):
    """c[0] + c[1] s + c[2] s^2 + ... with exact derivatives."""

    coeffs: tuple[float, ...]
    max_order: int = field(default=ANALYTIC_ORDER, init=False)

    def derivative(self, s, order: int):
        self._check_order(order)
        s = np.asarray(s, dtype=float)
        c = list(map(float, self.coeffs))
        for _ in range(order):
            c = [j * c[j] for j in range(1, len(c))] or [0.0]
        value = c[-1] + s * 0.0
        for cj in reversed(c[:-1]):
            value = cj + value * s
        return value


@dataclass(frozen=True)
class TrigProfile(Profile):
    """a_sin * sin(w s + phase) + a_cos * cos(w s + phase).

    Keeps (sin x, cos x), x = w s + phase, for its last grid: 24 bytes a
    point with the key.  The d-th derivative is w^d (a_d sin x + b_d cos x),
    where each order turns the coefficients a quarter: (a, b) -> (-b, a).
    """

    a_sin: float = 0.0
    a_cos: float = 0.0
    omega: float = 1.0
    phase: float = 0.0
    max_order: int = field(default=ANALYTIC_ORDER, init=False)

    def _sin_cos(self, s):
        # + 0.0 turns a -0.0 angle into +0.0, as order 0 of x + d pi/2 did.
        x = self.omega * s + self.phase + 0.0
        return np.sin(x), np.cos(x)

    def derivative(self, s, order: int):
        self._check_order(order)
        sin, cos = self._grid_state(np.asarray(s, dtype=float), self._sin_cos)
        a, b = self.a_sin, self.a_cos
        for _ in range(order):
            a, b = -b, a
        return self.omega**order * (a * sin + b * cos)


@dataclass(frozen=True)
class HyperbolicProfile(Profile):
    """a_sinh * sinh(w s + phase) + a_cosh * cosh(w s + phase).

    Keeps (sinh x, cosh x) for its last grid, 24 bytes a point with the key.
    """

    a_sinh: float = 0.0
    a_cosh: float = 0.0
    omega: float = 1.0
    phase: float = 0.0
    max_order: int = field(default=ANALYTIC_ORDER, init=False)

    def _sinh_cosh(self, s):
        x = self.omega * s + self.phase
        return np.sinh(x), np.cosh(x)

    def derivative(self, s, order: int):
        self._check_order(order)
        sinh, cosh = self._grid_state(np.asarray(s, dtype=float), self._sinh_cosh)
        scale = self.omega**order
        if order % 2 == 0:
            return scale * (self.a_sinh * sinh + self.a_cosh * cosh)
        return scale * (self.a_sinh * cosh + self.a_cosh * sinh)


def fd_weights(nodes: np.ndarray, x0: float | np.ndarray, max_order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns an array W of shape (len(nodes), max_order + 1) such that
    sum_i W[i, m] * f(nodes[i]) approximates the m-th derivative of f at
    x0, exactly for polynomials up to degree len(nodes) - 1.  Broadcasts:
    nodes (..., n) and x0 (...) give W (..., n, max_order + 1).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    batch = np.broadcast_shapes(nodes.shape[:-1], np.shape(x0))
    nodes = np.broadcast_to(nodes, batch + (n,))
    w = np.zeros(nodes.shape + (max_order + 1,))
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    w[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    w[..., i, m] = (
                        c1 * (m * w[..., i - 1, m - 1] - c5 * w[..., i - 1, m]) / c2
                    )
                w[..., i, 0] = -c1 * c5 * w[..., i - 1, 0] / c2
            for m in range(mn, 0, -1):
                w[..., j, m] = (c4 * w[..., j, m] - m * w[..., j, m - 1]) / c3
            w[..., j, 0] = c4 * w[..., j, 0] / c3
        c1 = c2
    return w


# Stencil widths: 5 points carry orders 1-2, 7 points carry orders 3-4.
_STENCIL = {0: 5, 1: 5, 2: 5, 3: 7, 4: 7}

# Memo bound: verify_pair reads four orders per sample grid (classify reuses
# its answer and reads no profile), so eight entries hold two grids' worth.
_STENCIL_MEMO = 8


@functools.lru_cache(maxsize=_STENCIL_MEMO)
def _stencil(s_start: float, step: float, size: int, order: int, query: bytes):
    """Gather indices (q, width) and order-th weights (q, width) for a grid.

    query holds the raw float64 bytes of the q ravelled query points.  The
    weights are copied out of fd_weights' (q, width, order + 1) array, so
    the entry keeps only the column it reads: 8 q (2 width + 1) bytes with
    the indices and the key.
    """
    flat = np.frombuffer(query)
    width = _STENCIL[order]
    center = np.rint((flat - s_start) / step).astype(int)
    start = np.clip(center - width // 2, 0, size - width)
    idx = start[:, None] + np.arange(width)
    w = fd_weights(s_start + step * idx, flat, order)[..., order].copy()
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


class SampledProfile(Profile):
    """Uniformly sampled profile differentiated by local stencils.

    Evaluation is restricted to the interior where a centered stencil
    fits: two sample steps on each side for orders up to 2, three for
    orders 3 and 4.  Off-node queries use the same stencil with weights
    recomputed for the query point (local polynomial interpolation).  All
    queries of one call are evaluated in one batched stencil gather.

    The gather comes from the module's stencil memo, keyed by (s_start,
    step, sample count, order, query bytes); samples are not part of the
    key.  It keeps at most _STENCIL_MEMO (8) entries.  An entry for q query
    points with a width-w stencil holds 8 q (2 w + 1) bytes (the weights,
    the int64 indices and the key), so the memo never keeps more than
    960 q bytes: about 0.25 MB at 256 points, 15.7 MB at 16384.
    """

    max_order = 4
    approximate = True

    def __init__(self, s_start: float, step: float, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 9:
            raise TooFewSamples(
                f"need at least 9 samples, got {samples.size}"
            )
        if not step > 0:
            raise ValueError(f"sample step must be positive, got {step}")
        self.s_start = float(s_start)
        self.step = float(step)
        self.samples = samples
        self.samples.setflags(write=False)
        self.s_end = self.s_start + (samples.size - 1) * self.step

    def require_positive(self) -> None:
        if not np.all(self.samples > 0.0):
            # argmin finds the first NaN before any value <= 0.
            bad = int(np.argmin(self.samples))
            raise NonPositiveSample(
                f"sample {bad} is {self.samples[bad]:g}; warping samples must be > 0"
            )

    def derivative(self, s, order: int):
        self._check_order(order)
        margin = _STENCIL[order] // 2
        s_arr = _within(
            s, self.s_start + margin * self.step, self.s_end - margin * self.step,
            self.step, "evaluation at s outside [{lo:g}, {hi:g}] "
            "(order-{order} stencil needs {margin} steps of margin)",
            order=order, margin=margin,
        )
        idx, w = _stencil(
            self.s_start, self.step, self.samples.size, order, s_arr.tobytes()
        )
        # Summed left to right over the stencil width, not through BLAS, so
        # every CPU adds the same products in the same order.
        g = self.samples[idx]
        out = w[:, 0] * g[:, 0]
        for j in range(1, idx.shape[1]):
            out += w[:, j] * g[:, j]
        return out.reshape(s_arr.shape) if s_arr.shape else out[0]


@dataclass(frozen=True)
class ScaledDerivativeProfile(Profile):
    """factor * (d/ds) base, one derivative order fewer than the base."""

    base: Profile
    factor: float

    @property
    def max_order(self) -> int:  # type: ignore[override]
        return self.base.max_order - 1

    def derivative(self, s, order: int):
        self._check_order(order)
        return self.factor * self.base.derivative(s, order + 1)


@dataclass(frozen=True)
class ScaledProfile(Profile):
    """factor * base."""

    base: Profile
    factor: float

    @property
    def max_order(self) -> int:  # type: ignore[override]
        return self.base.max_order

    def derivative(self, s, order: int):
        self._check_order(order)
        return self.factor * self.base.derivative(s, order)


@dataclass(frozen=True)
class SumProfile(Profile):
    """Pointwise sum of two profiles."""

    first: Profile
    second: Profile

    @property
    def max_order(self) -> int:  # type: ignore[override]
        return min(self.first.max_order, self.second.max_order)

    def derivative(self, s, order: int):
        self._check_order(order)
        return self.first.derivative(s, order) + self.second.derivative(s, order)
