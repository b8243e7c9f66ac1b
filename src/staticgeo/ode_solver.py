"""Warping profiles defined by h'' + c1 h = c0 h^(-p).

This one family covers both uses in the package: a single warped fiber of
an n-manifold (p = n-1, c1 = R/(n(n-1))) and a warped sub-factor of
dimension r1 inside a product (p = r1, c1 = R/((n-1)(r1+1))).  Multiplying
by h' and integrating once gives the conserved quantity

    k = h'^2 + 2 c0/(p-1) h^(-(p-1)) + c1 h^2

which doubles as the curvature constant the fiber must carry for the
resulting geometry to close up; the catalog builders rely on that.

Integration is classic fixed-step fourth-order Runge-Kutta (default step:
domain length / 4096).  The node loops of the integration and of the orbit
search run on Python floats in one kernel, `_rk4_states`.  The returned
warping evaluates between nodes by one short step of the vectorised
`_rk4_step`, whose arithmetic the kernel repeats operation for operation,
from the nearest stored node; all derivatives of order two and higher come
from the differential equation, never from finite differences, so the
equation residual of the profile is zero by construction.

Turning points and the orbit's return crossing come from `_bisect`, which
halves a sign-change bracket until its ends are adjacent floats.

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
# An orbit closes when it returns to h_max within this relative distance.
_CLOSURE_TOL = 1e-8
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
    query point.
    Orders 2 through 4 are read off the equation:

        h''   = c0 h^(-p) - c1 h
        h'''  = h' (-p c0 h^(-p-1) - c1)
        h'''' = p(p+1) c0 h^(-p-2) h'^2 - (p c0 h^(-p-1) + c1) h''
    """

    max_order = 4

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
        self.s_lo, self.s_hi = lo, hi
        self.dt = dt
        self.h_nodes = h
        self.hp_nodes = hp
        h.setflags(write=False)
        hp.setflags(write=False)

    def _state(self, s):
        s = _within(
            s, self.s_lo, self.s_hi, self.dt,
            "evaluation outside the integrated domain [{lo:g}, {hi:g}]",
        )
        idx = np.clip(
            np.floor((s - self.s_lo) / self.dt).astype(int), 0, self.h_nodes.size - 1
        )
        delta = s - (self.s_lo + idx * self.dt)
        pr = self.params
        return _rk4_step(
            pr.power, pr.linear_coeff, pr.forcing,
            self.h_nodes[idx], self.hp_nodes[idx], delta,
        )

    def derivative(self, s, order: int):
        self._check_order(order)
        h, hp = self._state(s)
        p = float(self.params.power)
        c1, c0 = self.params.linear_coeff, self.params.forcing
        if order == 0:
            return h
        if order == 1:
            return hp
        sing = c0 * h ** (-p) if c0 != 0.0 else np.zeros_like(h)
        h2 = sing - c1 * h
        if order == 2:
            return h2
        sing1 = -p * c0 * h ** (-p - 1.0) if c0 != 0.0 else np.zeros_like(h)
        if order == 3:
            return hp * (sing1 - c1)
        sing2 = p * (p + 1.0) * c0 * h ** (-p - 2.0) if c0 != 0.0 else np.zeros_like(h)
        return sing2 * hp**2 + (sing1 - c1) * h2


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
    return WarpingFunction("ode-backed", tag, profile.max_order, profile)


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
    profile = ScaledDerivativeProfile(h.profile, float(c))
    return LapseFunction("derived", (float(c),), h.derivative_order - 1, profile)


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
    """
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    k = _finite("k", k)
    if c0 <= 0.0:
        raise NonPositiveInput(f"turning points need forcing > 0, got {c0}")
    if branch not in ("inner", "outer"):
        raise BadRange(f"branch must be 'inner' or 'outer', got {branch!r}")

    def gap(h: float) -> float:
        return _conserved(p, c1, c0, h, 0.0) - k

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


def find_periodic(params: WarpingODEParams, k: float) -> PeriodicSolution | None:
    """Closed orbit with first integral k, or None when none exists.

    Requires a confining potential (linear_coeff > 0 and forcing > 0) and
    k strictly above the potential minimum; the orbit starts at its
    maximum (a root of the potential, h' = 0), and the period ends at the
    return crossing, the first step where h' goes from positive to
    non-positive, located by one bisection on the dense trajectory.
    """
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    k = _finite("k", k)
    if c1 <= 0.0 or c0 <= 0.0:
        return None
    k_min = _conserved(p, c1, c0, _well(p, c1, c0), 0.0)
    if k - k_min <= 1e-12 * max(1.0, abs(k_min)):
        return None

    h_max = turning_point(params, k, "outer")
    h_min = turning_point(params, k, "inner")

    # Linearized period sets the step; the search window is generous.
    t_lin = 2.0 * math.pi / math.sqrt((p + 1.0) * c1)
    dt = params.step if params.step is not None else t_lin / DEFAULT_STEPS
    s_budget = 64.0 * t_lin
    _steps(s_budget, dt)  # refuses a step too small for the search window

    s = 0.0
    h, hp = h_max, 0.0
    for h_next, hp_next in _rk4_states(p, c1, c0, h, hp, dt):
        if hp > 0.0 >= hp_next:
            # Back at the maximum inside (s, s + dt]; locate the crossing.
            def hp_at(delta: float) -> float:
                return _rk4_step(p, c1, c0, h, hp, delta)[1]

            delta = _bisect(hp_at, 0.0, dt)
            period = s + delta
            h_close = _rk4_step(p, c1, c0, h, hp, delta)[0]
            if abs(h_close - h_max) > _CLOSURE_TOL * max(1.0, h_max):
                return None
            orbit = WarpingODEParams(
                p, c1, c0, h_max, 0.0, (0.0, period), period / DEFAULT_STEPS
            )
            return PeriodicSolution(period, h_min, h_max, float(k), integrate_warping(orbit))
        s += dt
        if not s < s_budget:
            return None
        h, hp = h_next, hp_next
    raise BlowUp(f"orbit search left admissible region near s = {s + dt:g}", s)
