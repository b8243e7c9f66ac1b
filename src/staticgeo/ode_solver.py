"""Warping profiles defined by h'' + c1 h = c0 h^(-p).

This one family covers both uses in the package: a single warped fiber of
an n-manifold (p = n-1, c1 = R/(n(n-1))) and a warped sub-factor of
dimension r1 inside a product (p = r1, c1 = R/((n-1)(r1+1))).  Multiplying
by h' and integrating once gives the conserved quantity

    k = h'^2 + 2 c0/(p-1) h^(-(p-1)) + c1 h^2

which doubles as the curvature constant the fiber must carry for the
resulting geometry to close up; the catalog builders rely on that.

Integration is classic fixed-step fourth-order Runge-Kutta (default step:
domain length / 4096).  The node loop runs on Python floats in one kernel,
`_rk4_states`.  The returned warping evaluates between nodes by one short
step of the vectorised `_rk4_step`, whose arithmetic the kernel repeats
operation for operation, from the nearest stored node; all derivatives of
order two and higher come from the differential equation, never from
finite differences, so the equation residual of the profile is zero by
construction.

A warping keeps the rows of its last query in the one-entry memo of
`Profile._grid_state`, keyed by the shape and the raw float64 bytes of the
query points: (h, h', h'', h''') from one dense step and the equation,
built once per grid and read-only, 40 q bytes for q points with the key
(640 KB at 16384 points, 10 MB at the grid cap of 2^18).  Orders 0-3, and
the lapse f = c h' that wraps the same profile, read them; order 4 is
computed from them.

Turning points come from `_bisect`, which halves a sign-change bracket
until its ends are adjacent floats; a closed orbit's period is a
quadrature of the conserved quantity (`_period`), not an integration.

Known limitation: the nodes are computed with scalar arithmetic, but
dense output between them goes through NumPy's vectorised `power`, whose
SIMD kernels (AVX-512 where the CPU has it) round some float64 values
differently from the C library's `pow`.  The last digits of ODE-backed
dense output, and of the verdict numbers built on it, can therefore
differ between machines; the nodes do not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, BlowUp, NonPositiveInput, ZeroScale
from .profiles import Profile, ScaledDerivativeProfile, _within
from .warped_geometry import LapseFunction, WarpingFunction, _finite, _interval

__all__ = [
    "WarpingODEParams",
    "FirstIntegralValue",
    "PeriodicSolution",
    "integrate_warping",
    "first_integral",
    "lapse_from_warping",
    "k0_threshold",
    "turning_point",
    "find_periodic",
]

DEFAULT_STEPS = 4096

# Integration aborts outside this window: the h^(-p) term is singular at
# zero and nothing geometric survives values this large.
_H_FLOOR = 1e-10
_STATE_CEIL = 1e12
# Most quadrature nodes for an orbit's period (find_periodic).
_MAX_NODES = 2**14
# Most RK4 steps an explicit step may ask for (256 default integrations).
_MAX_STEPS = 2**20


@dataclass(frozen=True)
class WarpingODEParams:
    """Parameters and initial data for h'' + linear_coeff h = forcing h^(-power).

    power must be an integer >= 2.
    """

    power: int
    linear_coeff: float
    forcing: float
    h0: float
    h0_prime: float
    domain: tuple[float, float]
    step: float | None = None

    def __post_init__(self):
        if not (self.power >= 2 and float(self.power).is_integer()):
            raise BadRange(f"power must be an integer >= 2, got {self.power}")
        object.__setattr__(self, "power", int(self.power))
        object.__setattr__(self, "domain", _interval(self.domain))
        for name in ("linear_coeff", "forcing", "h0", "h0_prime", "step"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not self.effective_step > 0:
            raise BadRange(f"step must be positive, got {self.effective_step}")
        if self.forcing != 0.0 and not self.h0 > 0.0:
            raise NonPositiveInput(
                f"h0 must be positive when the singular term is active, got {self.h0}"
            )

    @property
    def effective_step(self) -> float:
        if self.step is not None:
            return self.step
        return (self.domain[1] - self.domain[0]) / DEFAULT_STEPS

    @classmethod
    def single_fiber(
        cls, n: int, R: float, forcing: float, h0: float, h0_prime: float,
        domain: tuple[float, float], step: float | None = None,
    ) -> "WarpingODEParams":
        """Warping of the full (n-1)-dimensional fiber of an n-manifold."""
        return cls.warped_factor(n, R, n - 1, forcing, h0, h0_prime, domain, step)

    @classmethod
    def warped_factor(
        cls, n: int, R: float, sub_dim: int, forcing: float, h0: float,
        h0_prime: float, domain: tuple[float, float], step: float | None = None,
    ) -> "WarpingODEParams":
        """Warping of a sub-factor of dimension sub_dim inside an n-manifold."""
        return cls(sub_dim, _linear_coeff(n, R, sub_dim), forcing, h0, h0_prime, domain, step)


@dataclass(frozen=True)
class FirstIntegralValue:
    """Value(s) of the conserved quantity along a trajectory."""

    value: float | np.ndarray


@dataclass(frozen=True)
class PeriodicSolution:
    """A closed orbit of the warping equation, starting at its maximum."""

    period: float
    h_min: float
    h_max: float
    k: float
    warping: WarpingFunction


def _linear_coeff(n: int, R: float, sub_dim: int) -> float:
    """c1 of a warped sub-factor of dimension sub_dim in an n-manifold of scalar R."""
    return R / ((n - 1.0) * (sub_dim + 1.0))


def _conserved(p: int, c1: float, c0: float, h, hp):
    """k = h'^2 + c1 h^2 + 2 c0/(p-1) h^(-(p-1)); scalars or arrays."""
    k = hp**2 + c1 * h**2
    if c0 != 0.0:
        k = k + 2.0 * c0 / (p - 1.0) * h ** (-(p - 1.0))
    return k


def _well(p: int, c1: float, c0: float) -> float:
    """The potential minimum h*, where c1 h = c0 h^(-p) (needs c1, c0 > 0)."""
    return (c0 / c1) ** (1.0 / (p + 1.0))


def _steps(length: float, step: float) -> int:
    """Number of RK4 steps of size about step across length; refuses too many."""
    count = length / step
    if not count <= _MAX_STEPS:
        raise BadRange(f"step {step:g} needs {count:.4g} RK4 steps, more than {_MAX_STEPS}")
    return max(1, math.ceil(count - 1e-12))


def _accel(p: int, c1: float, c0: float, h):
    if c0 == 0.0:
        return -c1 * h
    return c0 * h ** (-float(p)) - c1 * h


def _rk4_step(p, c1, c0, h, hp, dt):
    """One Runge-Kutta step of the second-order equation; vectorized."""
    k1h = hp
    k1v = _accel(p, c1, c0, h)
    k2h = hp + 0.5 * dt * k1v
    k2v = _accel(p, c1, c0, h + 0.5 * dt * k1h)
    k3h = hp + 0.5 * dt * k2v
    k3v = _accel(p, c1, c0, h + 0.5 * dt * k2h)
    k4h = hp + dt * k3v
    k4v = _accel(p, c1, c0, h + dt * k3h)
    h_new = h + dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    hp_new = hp + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return h_new, hp_new


def _state_ok(c0: float, h: float, hp: float) -> bool:
    # The ceiling comparisons are False for NaN and infinities as well.
    return abs(h) <= _STATE_CEIL and abs(hp) <= _STATE_CEIL and (c0 == 0.0 or h > _H_FLOOR)


def _rk4_states(p: int, c1: float, c0: float, h: float, hp: float, dt: float):
    """Successive `_rk4_step` states from (h, hp), bit for bit, on Python floats.

    Ends before the first state `_state_ok` (inlined) rejects; a power that
    overflows or divides by zero rejects its state, as NumPy's inf would.
    """
    c1, c0, e = float(c1), float(c0), -float(p)
    half, sixth, lin = 0.5 * dt, dt / 6.0, c0 == 0.0
    ceil, floor = _STATE_CEIL, _H_FLOOR
    try:
        while True:
            k1v = -c1 * h if lin else c0 * h ** e - c1 * h
            k2h = hp + half * k1v
            x = h + half * hp
            k2v = -c1 * x if lin else c0 * x ** e - c1 * x
            k3h = hp + half * k2v
            x = h + half * k2h
            k3v = -c1 * x if lin else c0 * x ** e - c1 * x
            k4h = hp + dt * k3v
            x = h + dt * k3h
            k4v = -c1 * x if lin else c0 * x ** e - c1 * x
            h += sixth * (hp + 2.0 * k2h + 2.0 * k3h + k4h)
            hp += sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (abs(h) <= ceil and abs(hp) <= ceil and (lin or h > floor)):
                return
            yield h, hp
    except (ZeroDivisionError, OverflowError):
        return


class OdeBackedProfile(Profile):
    """Dense-output trajectory of the warping equation.

    Stores the fixed-step nodes (read-only arrays) and evaluates anywhere
    in the domain by one Runge-Kutta step from the node just below the
    query point.  Its rows at the last query points (keyed by their shape
    and float64 bytes) stay in `Profile._grid_state`'s memo: that step's
    (h, h') and the equation's h'' and h''', built together once per grid,
    read-only, 40 bytes a point with the key.  So orders 0-3 of one grid,
    and the lapse f = c h' on the same profile, compute each row once;
    h'''' is computed from the rows on each read, and the domain check
    runs on every call.  Orders 2 through 4 are read off the equation:

        h''   = c0 h^(-p) - c1 h
        h'''  = h' (-p c0 h^(-p-1) - c1)
        h'''' = p(p+1) c0 h^(-p-2) h'^2 - (p c0 h^(-p-1) + c1) h''
    """

    max_order = 4
    approximate = True

    def __init__(self, params: WarpingODEParams):
        lo, hi = params.domain
        n_steps = _steps(hi - lo, params.effective_step)
        dt = (hi - lo) / n_steps
        h0, hp0 = float(params.h0), float(params.h0_prime)
        if not _state_ok(params.forcing, h0, hp0):
            raise BlowUp("initial state already inadmissible", lo)
        states = _rk4_states(params.power, params.linear_coeff, params.forcing, h0, hp0, dt)
        flat = itertools.chain.from_iterable(itertools.islice(states, n_steps))
        nodes = np.fromiter(itertools.chain((h0, hp0), flat), float)
        if nodes.size <= 2 * n_steps:
            i = nodes.size // 2 - 1
            raise BlowUp(
                f"trajectory left the admissible region near s = {lo + (i + 1) * dt:g}",
                lo + i * dt,
            )
        h, hp = nodes.reshape(-1, 2).T.copy()
        self.params = params
        self._eq = (float(params.power), params.linear_coeff, params.forcing)
        self.s_lo, self.s_hi = lo, hi
        self.dt = dt
        self.h_nodes = h
        self.hp_nodes = hp
        h.setflags(write=False)
        hp.setflags(write=False)

    def _dense_rows(self, s):
        """(h, h', h'', h''') at s: one dense step, then the equation's rows 2 and 3."""
        p, c1, c0 = self._eq
        idx = np.clip(
            np.floor((s - self.s_lo) / self.dt).astype(int), 0, self.h_nodes.size - 1
        )
        delta = s - (self.s_lo + idx * self.dt)
        h, hp = _rk4_step(p, c1, c0, self.h_nodes[idx], self.hp_nodes[idx], delta)
        sing = c0 * h ** (-p) if c0 != 0.0 else np.zeros_like(h)
        sing1 = -p * c0 * h ** (-p - 1.0) if c0 != 0.0 else np.zeros_like(h)
        return h, hp, sing - c1 * h, hp * (sing1 - c1)

    def derivative(self, s, order: int):
        self._check_order(order)
        s = _within(
            s, self.s_lo, self.s_hi, self.dt,
            "evaluation outside the integrated domain [{lo:g}, {hi:g}]",
        )
        rows = self._grid_state(s, self._dense_rows)
        if order < 4:
            return rows[order]
        h, hp, hpp = rows[:3]
        p, c1, c0 = self._eq
        sing1 = -p * c0 * h ** (-p - 1.0) if c0 != 0.0 else np.zeros_like(h)
        sing2 = p * (p + 1.0) * c0 * h ** (-p - 2.0) if c0 != 0.0 else np.zeros_like(h)
        return sing2 * hp**2 + (sing1 - c1) * hpp


def integrate_warping(params: WarpingODEParams) -> WarpingFunction:
    """Integrate the warping equation and wrap the trajectory as a warping."""
    profile = OdeBackedProfile(params)
    tag = (
        float(params.power), params.linear_coeff, params.forcing,
        params.h0, params.h0_prime,
    )
    # A non-default step is written as the optional sixth parameter, so the
    # document reloads onto the same nodes.
    lo, hi = params.domain
    if params.step not in (None, (hi - lo) / DEFAULT_STEPS):
        tag += (float(params.step),)
    return WarpingFunction("ode-backed", tag, profile)


def first_integral(params: WarpingODEParams, h, h_prime) -> FirstIntegralValue:
    """Conserved combination k evaluated on a state (scalars or arrays)."""
    value = _conserved(
        params.power, params.linear_coeff, params.forcing,
        np.asarray(h, dtype=float), np.asarray(h_prime, dtype=float),
    )
    return FirstIntegralValue(float(value) if value.ndim == 0 else value)


def lapse_from_warping(h: WarpingFunction, c: float) -> LapseFunction:
    """The lapse f = c h' that pairs with an equation-driven warping."""
    if c == 0.0:
        raise ZeroScale("lapse scale must be nonzero")
    return LapseFunction("derived", (float(c),), ScaledDerivativeProfile(h.profile, float(c)))


def k0_threshold(n: int, R: float, a: float) -> float:
    """Least first-integral value admitting a periodic single-fiber warping.

    Equals the potential minimum of the conserved quantity:
    R/((n-1)(n-2)) * (n(n-1) a / R)^(2/n) for R > 0, a > 0.
    """
    if n < 3:
        raise BadRange(f"need n >= 3, got {n}")
    if R <= 0.0:
        raise NonPositiveInput(f"threshold defined for R > 0, got R={R}")
    if a <= 0.0:
        raise NonPositiveInput(f"threshold defined for a > 0, got a={a}")
    return R / ((n - 1.0) * (n - 2.0)) * (n * (n - 1.0) * a / R) ** (2.0 / n)


def _bisect(f, a: float, b: float) -> float:
    """Root of f in [a, b]: halves the bracket until its ends are adjacent floats."""
    a, b = float(a), float(b)
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    while a < (m := 0.5 * (a + b)) < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return b


def _until_positive(f, x: float, factor: float) -> float:
    """x scaled by factor until f is positive there."""
    while f(x) <= 0.0:
        x *= factor
    return x


def turning_point(params: WarpingODEParams, k: float, branch: str = "outer") -> float:
    """Value of h where the potential part of the conserved quantity hits k.

    At a turning point h' = 0, so integrating from (turning_point(k), 0)
    produces a trajectory with conserved value exactly k.  "outer" is the
    root above the potential minimum (needs linear_coeff > 0), "inner" the
    barrier root below it; with linear_coeff <= 0 only "inner" exists.
    A k whose root search overflows a float is refused (BadRange).
    """
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    k = _finite("k", k)
    if c0 <= 0.0:
        raise NonPositiveInput(f"turning points need forcing > 0, got {c0}")
    if branch not in ("inner", "outer"):
        raise BadRange(f"branch must be 'inner' or 'outer', got {branch!r}")

    def gap(h: float) -> float:
        try:
            return _conserved(p, c1, c0, h, 0.0) - k
        except OverflowError:
            raise BadRange(f"no turning point within float range for k = {k}") from None

    if c1 > 0.0:
        h_star = _well(p, c1, c0)
        if gap(h_star) >= 0.0:
            raise BadRange(
                f"no turning point: conserved value {k} does not clear the "
                "potential minimum"
            )
        if branch == "outer":
            return _bisect(gap, h_star, _until_positive(gap, 2.0 * h_star, 2.0))
        return _bisect(gap, _until_positive(gap, 0.5 * h_star, 0.5), h_star)
    # Monotone potential: a single barrier root on the inner side.
    if branch == "outer":
        raise BadRange("no outer turning point when linear_coeff <= 0")
    if c1 == 0.0 and k <= 0.0:
        raise BadRange(
            f"no turning point: conserved value must be positive when the "
            f"linear term vanishes, got {k}"
        )
    lo = _until_positive(gap, 1.0, 0.5)
    return _bisect(gap, lo, _until_positive(lambda h: -gap(h), 1.0, 2.0))


def _period(p: int, c1: float, c0: float, h_min: float, h_max: float, k: float) -> float:
    """Orbit period: the integral over [0, 2 pi] of dt / sqrt(g(h)), where
    h = h_min + (h_max - h_min) sin^2(t/2 + pi/4) (= c + d sin t, kept exact at h_min)
    and g = c1 + 2 c0/(p-1) / (h_min h_max h) * H_{p-2}(1/h_min, 1/h_max, 1/h) is
    the potential's second divided difference (H_d: complete homogeneous sum, all
    terms positive).  Trapezoid sums on 16, 32, ... nodes, refused past _MAX_NODES.
    """
    x, y = 1.0 / h_min, 1.0 / h_max
    tail = [sum(x**i * y ** (j - i) for i in range(j + 1)) for j in range(1, p - 1)]
    scale, span = 2.0 * c0 / (p - 1.0) * x * y, h_max - h_min

    def term(theta: float) -> float:
        z = acc = 1.0 / (h_min + span * math.sin(0.5 * theta + 0.25 * math.pi) ** 2)
        for coeff in tail:  # z H_{p-2}(x, y, z) by Horner in z
            acc = (acc + coeff) * z
        return 1.0 / math.sqrt(c1 + scale * acc)

    n, width = 16, math.pi / 8.0
    terms = [term(j * width) for j in range(n)]
    period = width * math.fsum(terms)
    while n < _MAX_NODES:
        terms += [term((j + 0.5) * width) for j in range(n)]
        n, width, last = 2 * n, 0.5 * width, period
        period = width * math.fsum(terms)
        if abs(period - last) <= 1e-15 * period:
            return period
    raise BadRange(f"orbit period needs more than {_MAX_NODES} nodes for k = {k}")


def find_periodic(params: WarpingODEParams, k: float) -> PeriodicSolution | None:
    """Closed orbit with first integral k, or None when none exists.

    Needs linear_coeff > 0, forcing > 0 (a single well, where every k above
    the minimum closes) and k above the minimum.  The period is `_period`;
    the warping is one RK4 build from the maximum (h_max, 0) over one period,
    at step period/DEFAULT_STEPS unless params.step is set.  BadRange refuses
    turning points outside (_H_FLOOR, _STATE_CEIL] and a period needing over
    _MAX_NODES = 2^14 nodes (about 10 ms; p = 2 needs 4096 at 500 k_min).
    """
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    k = _finite("k", k)
    if c1 <= 0.0 or c0 <= 0.0:
        return None
    k_min = _conserved(p, c1, c0, _well(p, c1, c0), 0.0)
    if k - k_min <= 1e-12 * max(1.0, abs(k_min)):
        return None
    h_max, h_min = turning_point(params, k, "outer"), turning_point(params, k, "inner")
    if not (h_min > _H_FLOOR and h_max <= _STATE_CEIL):
        raise BadRange(f"turning points {h_min:g} and {h_max:g} of k = {k} are inadmissible")
    period = _period(p, c1, c0, h_min, h_max, k)
    orbit = WarpingODEParams(p, c1, c0, h_max, 0.0, (0.0, period), params.step)
    return PeriodicSolution(period, h_min, h_max, float(k), integrate_warping(orbit))
