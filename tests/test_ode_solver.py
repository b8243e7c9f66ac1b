"""Fixed-step integration of h'' + c1 h = c0 h^(-p) and its helpers.

Independent accuracy oracles used below:

* with c0 = 0 the equation is a harmonic oscillator with a closed-form
  solution, so trajectory errors and the step-halving ratio are exact;
* the conserved quantity k = h'^2 + 2 c0/(p-1) h^(-(p-1)) + c1 h^2 must
  stay flat along every trajectory;
* an orbit period equals 2 * integral dh / sqrt(k - V(h)) between the
  turning points.  k - V(h) = g(h) (h - h_min)(h_max - h), where g is V's
  second divided difference on h_min, h_max and h (written below as a
  direct sum, checked against V itself), so h = c + d sin(theta) over
  [h_min, h_max] leaves the smooth integrand 1/sqrt(g) with no
  cancellation, and scipy's adaptive quadrature of it is trustworthy to
  ~1e-15;
* a Richardson extrapolation of RK4 return times at three explicit steps
  removes their step error, which gives a second, integrator-based period;
* p = 3 with c1 > 0 is the isochronous case: every orbit has period
  2 pi / sqrt(4 c1) no matter which k it carries, so the linearized
  period formula is exact there;
* p = 3 is also the Ermakov-Pinney equation, whose trajectories have a
  closed form, so type_iv's warping at r = 4 is checked row by row;
* the node loops step by step on NumPy scalars (`oracle_tools`) must give
  the same bits as the package's Python-float kernel.
"""

import dataclasses
import math
import random
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from oracle_tools import loop_ode_nodes, loop_state_ok
from staticgeo import catalog, ode_solver, profiles
from staticgeo import static_verifier as sv
from staticgeo.errors import (
    BadRange,
    BlowUp,
    DerivativeOrderUnavailable,
    NonPositiveInput,
    OutOfDomain,
    ZeroScale,
)
from staticgeo.ode_solver import (
    _H_FLOOR,
    _MAX_NODES,
    _STATE_CEIL,
    DEFAULT_STEPS,
    FirstIntegralValue,
    OdeBackedProfile,
    WarpingODEParams,
    find_periodic,
    first_integral,
    integrate_warping,
    k0_threshold,
    _bisect,
    _conserved,
    _rk4_step,
    _state_ok,
    lapse_from_warping,
    turning_point,
)
from staticgeo.profiles import HyperbolicProfile, TrigProfile

# The n = 5, R = 20, a = 1 single-fiber family at conserved value k = 2 is
# the standing regression case; the three numbers below were produced by
# this code and double-checked against the quadrature oracle.
K_ORBIT = 2.0
PERIOD_REGRESSION = 2.8383764512400584
H_MIN_REGRESSION = 0.7834901706259125
H_MAX_REGRESSION = 1.303438047363767


@pytest.fixture
def fiber_params():
    return WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.0, 0.0, (0.0, 1.0))


def potential(params, h):
    """Potential part of the conserved quantity, V(h) = k - h'^2."""
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    return 2.0 * c0 / (p - 1.0) * h ** (-(p - 1.0)) + c1 * h * h


def divided_difference(params, a, b, h):
    """V[a, b, h], the sum of c1 and 2 c0/(p-1) a^-(i+1) b^-(j+1) h^-(l+1), i+j+l = p-2."""
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    total = math.fsum(
        a ** (-i - 1.0) * b ** (-j - 1.0) * h ** (i + j + 1.0 - p)
        for i in range(p - 1) for j in range(p - 1 - i)
    )
    return c1 + 2.0 * c0 / (p - 1.0) * total


def quadrature_period(params, k):
    """Orbit period by scipy's adaptive quadrature of 1/sqrt(g) in theta."""
    h_min = turning_point(params, k, "inner")
    h_max = turning_point(params, k, "outer")
    c, d = 0.5 * (h_min + h_max), 0.5 * (h_max - h_min)

    def integrand(theta):
        return 1.0 / math.sqrt(divided_difference(params, h_min, h_max, c + d * math.sin(theta)))

    half, err = quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                     epsabs=1e-15, epsrel=1e-13, limit=200)
    assert err < 1e-12 * half
    return 2.0 * half


def trapezoid_period(params, k, nodes):
    """The trapezoid sum of the same integrand on nodes equally spaced nodes."""
    h_min = turning_point(params, k, "inner")
    h_max = turning_point(params, k, "outer")
    c, d = 0.5 * (h_min + h_max), 0.5 * (h_max - h_min)
    width = 2.0 * math.pi / nodes
    return width * math.fsum(
        1.0 / math.sqrt(divided_difference(params, h_min, h_max, c + d * math.sin(j * width)))
        for j in range(nodes)
    )


def rk4_period(params, k, steps):
    """First return of RK4 from (h_max, 0) to h' = 0 at step period/steps."""
    p, c1, c0 = params.power, params.linear_coeff, params.forcing
    h_max = turning_point(params, k, "outer")
    dt = quadrature_period(params, k) / steps
    profile = OdeBackedProfile(
        WarpingODEParams(p, c1, c0, h_max, 0.0, (0.0, (steps + 8) * dt), dt)
    )
    h, hp = profile.h_nodes, profile.hp_nodes
    i = int(np.flatnonzero((hp[:-1] > 0.0) & (hp[1:] <= 0.0))[0])
    delta = brentq(lambda x: _rk4_step(p, c1, c0, h[i], hp[i], x)[1], 0.0, profile.dt,
                   xtol=1e-16, rtol=1e-15)
    return i * profile.dt + delta


# ---------------------------------------------------------------------------
# Parameter validation and the named constructors


class TestParams:
    """WarpingODEParams guards and coefficient formulas."""

    def test_single_fiber_coefficients(self):
        p = WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert p.power == 4
        assert p.linear_coeff == 20.0 / (5.0 * 4.0)
        assert p.forcing == 1.0

    def test_warped_factor_coefficients(self):
        p = WarpingODEParams.warped_factor(6, 5.0, 3, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert p.power == 3
        assert p.linear_coeff == 5.0 / (5.0 * 4.0)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_single_fiber_is_the_full_warped_factor(self, n):
        rng = np.random.default_rng(n)
        for R in rng.uniform(-50.0, 50.0, size=20):
            args = (1.5, 1.2, -0.3, (0.0, 2.0), 0.01)
            assert WarpingODEParams.single_fiber(n, R, *args) == (
                WarpingODEParams.warped_factor(n, R, n - 1, *args)
            )

    def test_integral_float_power_is_coerced(self):
        p = WarpingODEParams(4.0, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert p.power == 4 and isinstance(p.power, int)

    @pytest.mark.parametrize("power", [1, 0, -3, 2.5, math.inf, math.nan])
    def test_bad_power(self, power):
        with pytest.raises(BadRange, match="power"):
            WarpingODEParams(power, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))

    @pytest.mark.parametrize(
        "domain", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]
    )
    def test_empty_domain(self, domain):
        with pytest.raises(BadRange, match="domain"):
            WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, domain)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("name", ["linear_coeff", "forcing", "h0", "h0_prime", "step"])
    def test_non_finite_field(self, name, bad):
        fields = dict(power=4, linear_coeff=1.0, forcing=1.0, h0=1.0, h0_prime=0.0,
                      domain=(0.0, 1.0), step=0.01)
        fields[name] = bad
        with pytest.raises(BadRange, match=f"{name} must be finite"):
            WarpingODEParams(**fields)

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_bad_step(self, step):
        with pytest.raises(BadRange, match="step"):
            WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), step)

    def test_default_step_that_underflows_is_refused(self):
        # (1e-320 - 0) / DEFAULT_STEPS rounds to zero.
        with pytest.raises(BadRange, match="step must be positive, got 0"):
            WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1e-320))

    @pytest.mark.parametrize("h0", [0.0, -1.0])
    def test_singular_term_needs_positive_start(self, h0):
        with pytest.raises(NonPositiveInput, match="h0"):
            WarpingODEParams(4, 1.0, 1.0, h0, 0.0, (0.0, 1.0))

    def test_oscillator_may_start_negative(self):
        # With no singular term the trajectory may cross zero freely.
        p = WarpingODEParams(2, 4.0, 0.0, -1.25, 0.0, (0.0, 1.0))
        assert p.h0 == -1.25

    def test_effective_step(self):
        p = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 2.0))
        assert p.effective_step == 2.0 / DEFAULT_STEPS
        q = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 2.0), 0.01)
        assert q.effective_step == 0.01

    def test_params_are_frozen(self, fiber_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fiber_params.forcing = 2.0


# ---------------------------------------------------------------------------
# Trajectory accuracy against the closed-form oscillator


def oscillator_error(step):
    """Max trajectory error for h'' + 4h = 0 against the exact solution."""
    params = WarpingODEParams(2, 4.0, 0.0, 1.25, -0.5, (0.0, 2.0), step)
    prof = OdeBackedProfile(params)
    s = np.linspace(0.0, 2.0, 41)
    exact = 1.25 * np.cos(2.0 * s) - 0.25 * np.sin(2.0 * s)
    return float(np.max(np.abs(prof.derivative(s, 0) - exact)))


class TestIntegration:
    """Accuracy, conservation, and the by-construction equation residual."""

    def test_closed_form_at_default_step(self):
        assert oscillator_error(None) < 1e-12

    def test_fourth_order_step_halving(self):
        coarse = oscillator_error(0.02)
        fine = oscillator_error(0.01)
        assert coarse / fine >= 8.0

    def test_dense_output_off_the_node_lattice(self):
        # Evaluation between stored nodes goes through one short step and
        # must not be any worse than the nodes themselves.
        params = WarpingODEParams(2, 4.0, 0.0, 1.25, -0.5, (0.0, 2.0), 0.02)
        prof = OdeBackedProfile(params)
        rng = np.random.default_rng(7)
        s = rng.uniform(0.0, 2.0, size=64)
        exact = 1.25 * np.cos(2.0 * s) - 0.25 * np.sin(2.0 * s)
        assert np.max(np.abs(prof.derivative(s, 0) - exact)) < 2e-7

    def test_first_integral_is_conserved(self):
        params = WarpingODEParams.single_fiber(
            5, 20.0, 1.0, H_MAX_REGRESSION, 0.0, (0.0, 1.0)
        )
        w = integrate_warping(params)
        s = np.linspace(0.0, 1.0, 201)
        k = first_integral(params, w.value(s), w.derivative(s, 1)).value
        assert np.max(np.abs(k - k[0])) < 1e-12

    def test_equation_residual_is_zero_by_construction(self, fiber_params):
        # Order two comes from the differential equation applied to the
        # evaluated state, so recomputing the right-hand side from the
        # order-zero values reproduces it bit for bit.
        prof = OdeBackedProfile(fiber_params)
        s = np.linspace(0.05, 0.95, 19)
        h = prof.derivative(s, 0)
        p = float(fiber_params.power)
        c1, c0 = fiber_params.linear_coeff, fiber_params.forcing
        np.testing.assert_array_equal(
            prof.derivative(s, 2), c0 * h ** (-p) - c1 * h
        )

    def test_nodes_are_read_only(self, fiber_params):
        prof = OdeBackedProfile(fiber_params)
        for nodes in (prof.h_nodes, prof.hp_nodes):
            with pytest.raises(ValueError):
                nodes[0] = 0.0

    def test_wrapped_warping_metadata(self, fiber_params):
        w = integrate_warping(fiber_params)
        assert w.kind == "ode-backed"
        assert w.profile.max_order == 4
        assert w.params == (4.0, 1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Leaving the admissible strip


class TestBlowUp:
    def test_collapse_to_the_floor(self):
        # h'' = -h^(-2) from rest is gravitational free fall; the exact
        # collapse time from h = 1 is pi / (2 sqrt(2)) ~ 1.1107.
        with pytest.raises(BlowUp) as info:
            OdeBackedProfile(WarpingODEParams(2, 0.0, -1.0, 1.0, 0.0, (0.0, 2.0)))
        assert 1.0 < info.value.last_valid_s < 1.2

    def test_growth_to_the_ceiling(self):
        # h'' = 100 h gives h = cosh(10 s); the velocity 10 sinh(10 s)
        # crosses 1e12 first, near s = ln(2e11) / 10 ~ 2.60.
        with pytest.raises(BlowUp) as info:
            OdeBackedProfile(
                WarpingODEParams(2, -100.0, 0.0, 1.0, 0.0, (0.0, 3.0))
            )
        assert 2.4 < info.value.last_valid_s < 2.7

    def test_inadmissible_initial_state(self):
        with pytest.raises(BlowUp) as info:
            OdeBackedProfile(
                WarpingODEParams(2, 0.0, 1.0, 1e-12, 0.0, (0.0, 1.0))
            )
        assert info.value.last_valid_s == 0.0


# ---------------------------------------------------------------------------
# The derivative tower of an integrated profile


@pytest.fixture
def fiber_profile(fiber_params):
    return OdeBackedProfile(fiber_params)


class TestDerivativeTower:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_orders_match_finite_differences(self, fiber_profile, order):
        s = np.array([0.2, 0.55, 0.9])
        delta = 1e-6
        fd = (
            fiber_profile.derivative(s + delta, order - 1)
            - fiber_profile.derivative(s - delta, order - 1)
        ) / (2.0 * delta)
        np.testing.assert_allclose(
            fiber_profile.derivative(s, order), fd, atol=1e-8
        )

    def test_order_five_is_unavailable(self, fiber_profile):
        assert fiber_profile.max_order == 4
        with pytest.raises(DerivativeOrderUnavailable):
            fiber_profile.derivative(0.5, 5)

    @pytest.mark.parametrize("s", [-0.1, 1.5])
    def test_out_of_domain(self, fiber_profile, s):
        with pytest.raises(OutOfDomain, match="outside the integrated domain"):
            fiber_profile.derivative(s, 0)


# ---------------------------------------------------------------------------
# Conserved quantity, derived lapse, and the periodicity threshold


class TestFirstIntegral:
    def test_scalar_in_float_out(self, fiber_params):
        got = first_integral(fiber_params, 1.0, 0.0)
        assert isinstance(got, FirstIntegralValue)
        assert isinstance(got.value, float)
        assert got.value == pytest.approx(2.0 / 3.0 + 1.0, rel=1e-15)

    def test_matches_hand_formula(self, fiber_params):
        rng = np.random.default_rng(11)
        h = rng.uniform(0.5, 2.0, size=32)
        hp = rng.uniform(-1.0, 1.0, size=32)
        want = hp**2 + (2.0 / 3.0) * h**-3.0 + h**2
        np.testing.assert_allclose(
            first_integral(fiber_params, h, hp).value, want, rtol=1e-14
        )

    def test_no_singular_term_when_forcing_vanishes(self):
        params = WarpingODEParams(2, 4.0, 0.0, 1.0, 0.0, (0.0, 1.0))
        got = first_integral(params, 2.0, 3.0)
        assert got.value == pytest.approx(9.0 + 4.0 * 4.0, rel=1e-15)


class TestLapseFromWarping:
    def test_zero_scale_rejected(self, fiber_params):
        with pytest.raises(ZeroScale):
            lapse_from_warping(integrate_warping(fiber_params), 0.0)

    def test_scaled_derivative(self, fiber_params):
        w = integrate_warping(fiber_params)
        f = lapse_from_warping(w, 2.5)
        assert f.kind == "derived"
        assert f.params == (2.5,)
        assert f.profile.max_order == w.profile.max_order - 1
        s = np.linspace(0.1, 0.9, 17)
        np.testing.assert_array_equal(f.value(s), 2.5 * w.derivative(s, 1))
        np.testing.assert_array_equal(f.derivative(s, 1), 2.5 * w.derivative(s, 2))


class TestThreshold:
    def test_known_values(self):
        # n = 5, R = 20, a = 1 makes the power factor exactly one;
        # n = 4, R = 6, a = 2 makes it exactly two.
        assert k0_threshold(5, 20.0, 1.0) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert k0_threshold(4, 6.0, 2.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n, R, a", [(5, 20.0, 1.0), (6, 7.0, 0.9), (8, 12.5, 2.0)])
    def test_equals_the_potential_minimum(self, n, R, a):
        params = WarpingODEParams.single_fiber(n, R, a, 1.0, 0.0, (0.0, 1.0))
        p, c1, c0 = params.power, params.linear_coeff, params.forcing
        h_star = (c0 / c1) ** (1.0 / (p + 1.0))
        k_min = first_integral(params, h_star, 0.0).value
        assert k0_threshold(n, R, a) == pytest.approx(k_min, rel=1e-13)

    def test_rejects_low_dimension(self):
        with pytest.raises(BadRange, match="n >= 3"):
            k0_threshold(2, 20.0, 1.0)

    @pytest.mark.parametrize("R", [0.0, -8.0])
    def test_rejects_nonpositive_scalar(self, R):
        with pytest.raises(NonPositiveInput, match="R"):
            k0_threshold(5, R, 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_rejects_nonpositive_forcing(self, a):
        with pytest.raises(NonPositiveInput, match="a"):
            k0_threshold(5, 20.0, a)


# ---------------------------------------------------------------------------
# Turning points


class TestTurningPoint:
    def test_regression_values(self, fiber_params):
        outer = turning_point(fiber_params, K_ORBIT, "outer")
        inner = turning_point(fiber_params, K_ORBIT, "inner")
        assert outer == pytest.approx(H_MAX_REGRESSION, abs=5e-14)
        assert inner == pytest.approx(H_MIN_REGRESSION, abs=5e-14)
        assert inner < 1.0 < outer

    @pytest.mark.parametrize("branch", ["inner", "outer"])
    @pytest.mark.parametrize("k", [1.7, 2.0, 50.0])
    def test_resting_state_carries_the_requested_value(
        self, fiber_params, branch, k
    ):
        h = turning_point(fiber_params, k, branch)
        assert first_integral(fiber_params, h, 0.0).value == pytest.approx(
            k, rel=1e-12
        )

    def test_monotone_potential_root(self):
        # With no linear term the potential is 2/3 h^(-3); at k = 2/3 the
        # only root is h = 1.
        params = WarpingODEParams(4, 0.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert turning_point(params, 2.0 / 3.0, "inner") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_negative_linear_coefficient_root(self):
        params = WarpingODEParams(4, -1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert turning_point(params, -1.0 / 3.0, "inner") == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("c0", [0.0, -1.0])
    def test_needs_positive_forcing(self, c0):
        params = WarpingODEParams(4, 1.0, c0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(NonPositiveInput, match="forcing"):
            turning_point(params, 2.0, "inner")

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("search", [
        lambda params, k: turning_point(params, k, "outer"),
        lambda params, k: turning_point(params, k, "inner"),
        find_periodic,
    ])
    def test_non_finite_value(self, fiber_params, search, k):
        with pytest.raises(BadRange, match="k must be finite"):
            search(fiber_params, k)

    def test_unknown_branch(self, fiber_params):
        with pytest.raises(BadRange, match="branch"):
            turning_point(fiber_params, 2.0, "both")

    def test_no_root_below_the_potential_minimum(self, fiber_params):
        with pytest.raises(BadRange, match="potential minimum"):
            turning_point(fiber_params, 1.0, "outer")
        # At the minimum itself there is no room left to turn.
        k_min = first_integral(fiber_params, 1.0, 0.0).value
        with pytest.raises(BadRange, match="potential minimum"):
            turning_point(fiber_params, k_min, "inner")

    def test_no_outer_branch_without_confinement(self):
        params = WarpingODEParams(4, 0.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(BadRange, match="outer"):
            turning_point(params, 2.0, "outer")

    def test_monotone_potential_needs_positive_value(self):
        params = WarpingODEParams(4, 0.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(BadRange, match="positive"):
            turning_point(params, 0.0, "inner")

    @pytest.mark.parametrize("c1, branch", [(1.0, "outer"), (1.0, "inner"), (-1.0, "inner")])
    def test_value_overflowing_the_root_search_is_refused(self, c1, branch):
        # Bracketing the root squares h, or raises it to -(p-1), beyond a float.
        params = WarpingODEParams(4, c1, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(BadRange, match=r"k = 1e\+308"):
            turning_point(params, 1e308, branch)

    def test_periodic_search_refuses_an_overflowing_value(self):
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(BadRange, match=r"k = 1e\+308"):
            find_periodic(params, 1e308)

    def test_largest_values_keep_their_root(self):
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert turning_point(params, 1e300, "outer") == pytest.approx(1e150, rel=1e-15)


# ---------------------------------------------------------------------------
# Step-count bound


class TestStepBound:
    """An explicit step is refused before integration when it needs over 2^20 steps."""

    def test_integration_refuses_at_once(self):
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), 1e-300)
        start = time.perf_counter()
        with pytest.raises(BadRange, match=r"step 1e-300 needs 1e\+300 RK4 steps"):
            integrate_warping(params)
        assert time.perf_counter() - start < 5.0

    def test_orbit_search_refuses_at_once(self):
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), 1e-9)
        start = time.perf_counter()
        with pytest.raises(BadRange, match="step 1e-09 needs .* more than 1048576"):
            find_periodic(params, 2.0)
        assert time.perf_counter() - start < 5.0

    def test_two_to_the_sixteen_steps_integrate(self):
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), 2.0**-16)
        assert OdeBackedProfile(params).h_nodes.size == 2**16 + 1

    def test_nodes_stream_into_their_arrays(self):
        # Streaming needs 2x the node arrays: the flat node array, then its split copy.
        params = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), 2.0**-16)
        tracemalloc.start()
        try:
            profile = integrate_warping(params).profile
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (profile.h_nodes.nbytes + profile.hp_nodes.nbytes)


# ---------------------------------------------------------------------------
# Root finder


def potential_brackets(rng, count):
    """Seeded brackets of the potential gap on both sides of its minimum."""
    for _ in range(count):
        p = int(rng.integers(2, 9))
        c1, c0 = rng.uniform(0.05, 10.0, size=2)
        h_star = (c0 / c1) ** (1.0 / (p + 1.0))
        k = _conserved(p, c1, c0, h_star, 0.0) * (1.0 + rng.uniform(1e-6, 3.0))

        def gap(h, p=p, c1=c1, c0=c0, k=k):
            return _conserved(p, c1, c0, h, 0.0) - k

        hi = 2.0 * h_star
        while gap(hi) <= 0.0:
            hi *= 2.0
        lo = 0.5 * h_star
        while gap(lo) <= 0.0:
            lo *= 0.5
        yield gap, h_star, hi
        yield gap, lo, h_star


def crossing_brackets(rng, count):
    """Seeded RK4 steps across which h' changes sign (brackets for a crossing time)."""
    found = 0
    while found < count:
        p = int(rng.integers(2, 9))
        c1, c0 = rng.uniform(0.05, 10.0, size=2)
        h0 = (c0 / c1) ** (1.0 / (p + 1.0)) * rng.uniform(0.5, 2.0)
        hp0 = rng.uniform(-1e-3, 1e-3)
        dt = rng.uniform(1e-4, 0.05)

        def hp_at(delta, p=p, c1=c1, c0=c0, h0=h0, hp0=hp0):
            return _rk4_step(p, c1, c0, h0, hp0, delta)[1]

        if hp0 != 0.0 and math.copysign(1.0, hp_at(dt)) != math.copysign(1.0, hp0):
            found += 1
            yield hp_at, 0.0, dt


class TestBrentq:
    """The bisection root finder, with scipy.optimize.brentq as the oracle."""

    @pytest.mark.parametrize(
        "brackets", [potential_brackets, crossing_brackets], ids=["gap", "crossing"]
    )
    def test_roots_within_scipy_tolerance(self, brackets):
        rng = np.random.default_rng(20240601)
        for f, a, b in brackets(rng, 300):
            root = _bisect(f, a, b)
            assert type(root) is float
            # An exact zero, or a sign change between the root and an adjacent float.
            f_root = f(root)
            neighbours = (f(np.nextafter(root, a)), f(np.nextafter(root, b)))
            assert f_root == 0.0 or any((v < 0.0) != (f_root < 0.0) for v in neighbours)
            # Within scipy's own stop tolerance of scipy's root.
            scipy_root = brentq(f, a, b, xtol=1e-14, rtol=1e-15)
            assert abs(root - scipy_root) <= 1e-14 + 1e-15 * abs(root)

    @pytest.mark.parametrize(
        "brackets", [potential_brackets, crossing_brackets], ids=["gap", "crossing"]
    )
    def test_evaluations_are_bounded(self, brackets):
        rng = np.random.default_rng(20240601)
        for f, a, b in brackets(rng, 300):
            calls = []
            _bisect(lambda x: calls.append(x) or f(x), a, b)
            assert len(calls) <= 80

    def test_endpoint_root_is_returned_exactly(self):
        assert _bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert _bisect(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Closed orbits


class TestFindPeriodic:
    def test_orbit_regression(self, fiber_params):
        sol = find_periodic(fiber_params, K_ORBIT)
        assert sol is not None
        assert sol.period == pytest.approx(PERIOD_REGRESSION, abs=1e-10)
        assert sol.h_min == pytest.approx(H_MIN_REGRESSION, abs=5e-14)
        assert sol.h_max == pytest.approx(H_MAX_REGRESSION, abs=5e-14)
        assert sol.k == K_ORBIT
        assert sol.warping.kind == "ode-backed"

    def test_orbit_against_quadrature(self, fiber_params):
        sol = find_periodic(fiber_params, K_ORBIT)
        assert sol.period == pytest.approx(quadrature_period(fiber_params, K_ORBIT), rel=1e-13)

    def test_orbit_trajectory(self, fiber_params):
        sol = find_periodic(fiber_params, K_ORBIT)
        assert sol.warping.value(0.0) == pytest.approx(sol.h_max, abs=1e-14)
        assert sol.warping.derivative(0.0, 1) == 0.0
        s = np.linspace(0.0, sol.period, 512)
        h = sol.warping.value(s)
        hp = sol.warping.derivative(s, 1)
        assert np.all(h >= sol.h_min - 1e-9)
        assert np.all(h <= sol.h_max + 1e-9)
        assert abs(float(np.min(h)) - sol.h_min) < 1e-5
        # Closure at one period, and the conserved value along the loop.
        assert h[-1] == pytest.approx(sol.h_max, abs=1e-9)
        k = first_integral(fiber_params, h, hp).value
        np.testing.assert_allclose(k, K_ORBIT, atol=1e-10)

    @pytest.mark.parametrize("k", [2.2, 3.0, 5.0])
    def test_isochronous_power_three(self, k):
        # p = 3 is the isochronous power: with c1 = 1/4, every orbit has
        # period 2 pi no matter the conserved value.
        params = WarpingODEParams(3, 0.25, 1.0, 1.0, 0.0, (0.0, 1.0))
        sol = find_periodic(params, k)
        assert sol is not None
        assert sol.period == pytest.approx(2.0 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("name", ["standing", "example4", "type_iv"])
    def test_two_root_solves_per_orbit(self, monkeypatch, fiber_params, name):
        # The two turning points take one bisection each; the period is a
        # quadrature and needs none.
        if name == "standing":
            proto, k = fiber_params, K_ORBIT
        else:
            args = catalog.build_entry(name).params
            proto, k = orbit_proto(name, args), args["k"]
        solves = []

        def counted(f, a, b, **kwargs):
            solves.append(f.__qualname__.split(".")[0])
            return _bisect(f, a, b, **kwargs)

        monkeypatch.setattr(ode_solver, "_bisect", counted)
        assert find_periodic(proto, k) is not None
        assert solves == ["turning_point", "turning_point"]

    @pytest.mark.parametrize("R", [0.0, -20.0])
    def test_none_without_confinement(self, R):
        params = WarpingODEParams.single_fiber(5, R, 1.0, 1.0, 0.0, (0.0, 1.0))
        assert find_periodic(params, 2.0) is None

    def test_none_without_forcing(self):
        params = WarpingODEParams(4, 1.0, 0.0, 1.0, 0.0, (0.0, 1.0))
        assert find_periodic(params, 2.0) is None

    @pytest.mark.parametrize("k", [1.0, 5.0 / 3.0])
    def test_none_at_or_below_the_threshold(self, fiber_params, k):
        assert find_periodic(fiber_params, k) is None

    def test_eccentric_orbit_closes(self):
        # h_max/h_min is about 500 here; an RK4 return search found no
        # return within 1e-8 of h_max and gave None.
        params = WarpingODEParams(2, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        sol = find_periodic(params, 100.0)
        assert sol.h_max / sol.h_min == pytest.approx(500.0, rel=0.01)
        assert sol.period == pytest.approx(3.1541808508507376, rel=1e-15)
        assert sol.period == pytest.approx(quadrature_period(params, 100.0), rel=1e-13)

    @pytest.mark.parametrize("p, k", [(4, 1e300), (2, 1e11)], ids=["h_max", "h_min"])
    def test_inadmissible_turning_points_are_refused(self, p, k):
        # h_max = 1e150 lies above the state ceiling; h_min = 2e-11 below the floor.
        params = WarpingODEParams(p, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(BadRange) as info:
            find_periodic(params, k)
        assert str(info.value).endswith(f"of k = {k} are inadmissible")

    @pytest.mark.parametrize("p, k", [(2, 1e6), (4, 1e22)])
    def test_too_eccentric_orbit_is_refused_at_once(self, p, k):
        # h_max/h_min is about 5e8 at p = 2 and 2.5e18 at p = 4, where h_min is
        # below the float spacing of h_max; the periods need over 2^14 nodes.
        params = WarpingODEParams(p, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        start = time.perf_counter()
        with pytest.raises(BadRange) as info:
            find_periodic(params, k)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"orbit period needs more than {_MAX_NODES} nodes for k = {k}"

    def test_the_next_doubling_agrees(self, monkeypatch, fiber_params):
        # The sums the quadrature forms, counted through its fsum; the last
        # two agree, and so do test-side sums on the last count and twice it.
        counts = []

        def fsum(terms):
            counts.append(len(terms))
            return math.fsum(terms)

        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(ode_solver, "math", types.SimpleNamespace(**(names | {"fsum": fsum})))
        for params, k in [(fiber_params, K_ORBIT)] + [c.values for c in CENSUS_SAMPLE]:
            counts.clear()
            period = find_periodic(params, k).period
            nodes = counts[-1]
            assert counts == [16 * 2**j for j in range(len(counts))] and nodes <= 256
            for n in (nodes, 2 * nodes):
                assert trapezoid_period(params, k, n) == pytest.approx(period, rel=1e-14)


# ---------------------------------------------------------------------------
# Periods of the closed type_iv orbits: every warped-factor orbit over
# n = 5..10, r = 3..n-2, R in {0.5, 2, 8} and k = k_min + |k_min| (m - 1) with
# m in {1.05, 2, 8}, 189 in all.  The r = 3, m = 8 ones are the most
# eccentric (h_max/h_min about 58).


def _census() -> list:
    cases = []
    for n in range(5, 11):
        for r in range(3, n - 1):
            for R in (0.5, 2.0, 8.0):
                params = WarpingODEParams.warped_factor(n, R, r - 1, 1.0, 1.0, 0.0, (0.0, 1.0))
                p, c1, c0 = params.power, params.linear_coeff, params.forcing
                k_min = _conserved(p, c1, c0, (c0 / c1) ** (1.0 / (p + 1.0)), 0.0)
                for m in (1.05, 2.0, 8.0):
                    k = k_min + abs(k_min) * (m - 1.0)
                    cases.append(pytest.param(params, k, id=f"n{n}-r{r}-R{R:g}-m{m:g}"))
    return cases


CENSUS = _census()
CENSUS_SAMPLE = [c for c in CENSUS if c.id.startswith(tuple(f"n{n}-r3-" for n in range(5, 11)))
                 and c.id.endswith("-m8")]
CENSUS_SAMPLE += random.Random(20240612).sample([c for c in CENSUS if c not in CENSUS_SAMPLE], 12)


class TestOrbitPeriod:
    @pytest.mark.parametrize("params, k", CENSUS)
    def test_census_matches_scipy(self, params, k):
        sol = find_periodic(params, k)
        assert sol.period == pytest.approx(quadrature_period(params, k), rel=1e-13)

    @pytest.mark.parametrize("params, k", CENSUS_SAMPLE)
    def test_matches_richardson_extrapolated_rk4(self, params, k):
        # RK4 return times at steps T/4096, T/8192 and T/12288 fitted by
        # T + a dt^4 + b dt^5; the RK4 times alone are up to 2e-10 long.
        steps = np.array([4096.0, 8192.0, 12288.0])
        times = [rk4_period(params, k, int(n)) for n in steps]
        period = find_periodic(params, k).period
        dt = period / steps
        fit = np.linalg.solve(np.stack([np.ones(3), dt**4, dt**5], axis=1), times)
        assert abs(fit[0] - period) < abs(times[0] - period)
        assert fit[0] == pytest.approx(period, rel=1e-13)

    def test_divided_difference_factors_the_gap(self):
        # The oracle's integrand: k - V(h) = g(h) (h - h_min)(h_max - h) inside
        # the well, where the subtraction k - V(h) loses little.
        rng = random.Random(20240613)
        for _ in range(200):
            p = rng.randint(2, 8)
            params = WarpingODEParams(p, rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0),
                                      1.0, 0.0, (0.0, 1.0))
            c1, c0 = params.linear_coeff, params.forcing
            k = _conserved(p, c1, c0, (c0 / c1) ** (1.0 / (p + 1.0)), 0.0) * rng.uniform(1.1, 50.0)
            a, b = turning_point(params, k, "inner"), turning_point(params, k, "outer")
            h = a + (b - a) * rng.uniform(0.25, 0.75)
            gap = divided_difference(params, a, b, h) * (h - a) * (b - h)
            assert gap == pytest.approx(k - potential(params, h), rel=1e-10)

    @pytest.mark.parametrize("p", [
        pytest.param(2, marks=pytest.mark.xfail(
            raises=BlowUp, strict=True,
            reason="RK4 at period/4096 steps overshoots h_min above about 420 k_min at p = 2",
        )),
        *range(3, 9),
    ])
    def test_every_orbit_of_the_well_closes(self, p):
        # Up to 500 times the well's value every k gives an orbit, whose period
        # matches scipy's; p = 2 stops at the RK4 build, not at the period.
        rng = random.Random(20240614 + p)
        for j in range(12):
            c1, c0 = rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)
            params = WarpingODEParams(p, c1, c0, 1.0, 0.0, (0.0, 1.0))
            k_min = _conserved(p, c1, c0, (c0 / c1) ** (1.0 / (p + 1.0)), 0.0)
            k = k_min * (500.0 if j == 0 else rng.uniform(1.0 + 1e-9, 500.0))
            sol = find_periodic(params, k)
            assert sol.period == pytest.approx(quadrature_period(params, k), rel=1e-13)


# ---------------------------------------------------------------------------
# An exact trajectory: at p = 3 the warping equation is the Ermakov-Pinney
# equation h'' + w^2 h = c0 h^(-3) (Pinney, Proc. AMS 1 (1950) 681).  From the
# maximum (h_max, 0), h^2 = h_max^2 cos^2(w s) + c0/(w^2 h_max^2) sin^2(w s);
# with w = 0, from the inner turning point (h0, 0), h^2 = h0^2 + (c0/h0^2) s^2.


def pinney_case(seed: int) -> dict:
    """type_iv arguments at r = 4 (p = 3); n = 5 leaves a line factor, so R = 0."""
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    R = 0.0 if n == 5 or rng.random() < 0.25 else rng.uniform(0.5, 8.0)
    if R == 0.0:
        return {"n": n, "r": 4, "R": R, "k": rng.uniform(0.5, 4.0)}
    k_min = 2.0 * math.sqrt(R / (4.0 * (n - 1.0)))  # the well's value c1 h^2 + c0 h^-2, c0 = 1
    # At most twice the well's value, as in family_params: on more eccentric
    # orbits the RK4 step's own error is larger (at 6.5 times the well's
    # value, h'' is off by 1.2e-9 of max h at 4096 steps per period).
    return {"n": n, "r": 4, "R": R, "k": k_min * rng.uniform(1.05, 2.0)}


def pinney_rows(args: dict, s: np.ndarray) -> list:
    """h, h' and h'' of the closed form for the type_iv warping with these arguments."""
    c0, k = 1.0, args["k"]
    w2 = args["R"] / (4.0 * (args["n"] - 1.0))
    if w2 == 0.0:
        top = c0 / k  # h0^2: the barrier c0 h^-2 equals k there
        u, du, ddu = top + k * s**2, 2.0 * k * s, np.full_like(s, 2.0 * k)
    else:
        top = (k + math.sqrt(k * k - 4.0 * w2 * c0)) / (2.0 * w2)  # h_max^2: w^2 h^2 + c0 h^-2 = k
        low, w = c0 / (w2 * top), math.sqrt(w2)
        u = top * np.cos(w * s) ** 2 + low * np.sin(w * s) ** 2
        du = (low - top) * w * np.sin(2.0 * w * s)
        ddu = 2.0 * (low - top) * w2 * np.cos(2.0 * w * s)
    h = np.sqrt(u)
    hp = du / (2.0 * h)
    return [h, hp, (0.5 * ddu - hp**2) / h]


class TestErmakovPinney:
    @pytest.mark.parametrize("seed", range(13))
    def test_type_iv_warping_matches_the_closed_form(self, seed):
        args = pinney_case(seed)
        entry = catalog.build_type_iv(**args)
        s = entry.spec.evaluation_grid()
        warping = entry.spec.blocks[0].warping
        want = pinney_rows(args, s)
        scale = float(np.max(want[0]))
        for order in range(3):
            err = np.max(np.abs(warping.derivative(s, order) - want[order])) / scale
            assert err < 1e-9, (args, order, err)


# ---------------------------------------------------------------------------
# The Python-float node kernel against the NumPy-scalar oracle

ODE_FAMILIES = ("example3", "example4", "example5", "type_iv")


def family_params(rng: random.Random, name: str) -> dict:
    """Builder arguments inside the validity conditions of each ODE family."""
    u = rng.uniform
    if name in ("example3", "example4"):
        n, R, a = rng.randint(4, 7), u(10.0, 30.0), u(0.5, 2.0)
        return {"n": n, "R": R, "a": a, "k": k0_threshold(n, R, a) * u(1.05, 1.5)}
    if name == "example5":
        return {"n": rng.randint(4, 7), "a": u(0.5, 2.0), "k": u(0.5, 2.0),
                "length": u(0.8, 1.5)}
    n = rng.randint(6, 8)
    r = rng.randint(3, n - 2)
    R, c0 = rng.choice((1.0, 1.0, -1.0)) * u(2.0, 10.0), u(0.5, 2.0)
    if R < 0.0:
        return {"n": n, "r": r, "R": R, "c0": c0, "k": u(-2.0, 2.0)}
    c1 = WarpingODEParams.warped_factor(n, R, r - 1, c0, 1.0, 0.0, (0.0, 1.0)).linear_coeff
    k_min = _conserved(r - 1, c1, c0, (c0 / c1) ** (1.0 / r), 0.0)
    return {"n": n, "r": r, "R": R, "c0": c0, "k": k_min * u(1.1, 2.0)}


def _ode_builds() -> list:
    """Default and seeded builds of every ODE family, as pytest params."""
    rng = random.Random(20240611)
    cases = [pytest.param(name, {}, id=f"{name}-default") for name in ODE_FAMILIES]
    for j in range(6):
        cases += [
            pytest.param(name, family_params(rng, name), id=f"{name}-{j}")
            for name in ODE_FAMILIES
        ]
    return cases


ODE_BUILDS = _ode_builds()
ORBIT_BUILDS = [c for c in ODE_BUILDS if c.values[0] in ("example4", "type_iv")]


def orbit_proto(name: str, args: dict) -> WarpingODEParams:
    """The parameters a periodic builder hands to find_periodic."""
    if name == "example4":
        return WarpingODEParams.single_fiber(
            args["n"], args["R"], args["a"], 1.0, 0.0, (0.0, 1.0)
        )
    return WarpingODEParams.warped_factor(
        args["n"], args["R"], args["r"] - 1, args["c0"], 1.0, 0.0, (0.0, 1.0)
    )


def assert_same_nodes(profile: OdeBackedProfile, params: WarpingODEParams):
    h, hp, dt = loop_ode_nodes(params)
    assert np.array_equal(profile.h_nodes, h)
    assert np.array_equal(profile.hp_nodes, hp)
    assert profile.dt == dt


def raised(fn) -> tuple[str, float]:
    with pytest.raises(BlowUp) as info:
        fn()
    return str(info.value), info.value.last_valid_s


# Inputs whose trajectories blow up: the three TestBlowUp cases, a stage
# value that lands exactly on zero (0.0 ** -8 has no Python-float value)
# and one whose power overflows.
BLOWUP_INPUTS = [
    WarpingODEParams(2, 0.0, -1.0, 1.0, 0.0, (0.0, 2.0)),
    WarpingODEParams(2, -100.0, 0.0, 1.0, 0.0, (0.0, 3.0)),
    WarpingODEParams(2, 0.0, 1.0, 1e-12, 0.0, (0.0, 1.0)),
    WarpingODEParams(8, 0.0, 1.0, 1e-3, -0.2, (0.0, 1.0), 0.01),
    WarpingODEParams(8, 0.0, 1.0, 1e-3, -0.19999999999999, (0.0, 1.0), 0.01),
]


class TestFloatKernel:
    @pytest.mark.parametrize("name,args", ODE_BUILDS)
    def test_builder_nodes_equal_the_oracle(self, name, args):
        entry = catalog.build_entry(name, **args)
        profile = entry.spec.blocks[0].warping.profile
        assert_same_nodes(profile, profile.params)
        if entry.compact:
            proto, k = orbit_proto(name, entry.params), entry.params["k"]
            assert entry.period == pytest.approx(quadrature_period(proto, k), rel=1e-13)
            assert profile.params == dataclasses.replace(
                proto, h0=turning_point(proto, k, "outer"), domain=(0.0, entry.period)
            )

    @pytest.mark.parametrize("name,args", ORBIT_BUILDS)
    def test_orbit_equals_the_oracle(self, name, args):
        # The orbit is one build from (h_max, 0) over one period.
        args = catalog.build_entry(name, **args).params
        proto, k = orbit_proto(name, args), args["k"]
        sol = find_periodic(proto, k)
        if args["R"] <= 0.0:
            assert sol is None
            return
        h_min, h_max = turning_point(proto, k, "inner"), turning_point(proto, k, "outer")
        assert (sol.h_min, sol.h_max) == (h_min, h_max)
        assert sol.period == pytest.approx(quadrature_period(proto, k), rel=1e-13)
        p, c1, c0 = proto.power, proto.linear_coeff, proto.forcing
        assert_same_nodes(
            sol.warping.profile, WarpingODEParams(p, c1, c0, h_max, 0.0, (0.0, sol.period))
        )

    @pytest.mark.parametrize("step", [None, 0.05, 0.2])
    @pytest.mark.parametrize("k", [1.8, 2.0, 5.0])
    def test_orbit_at_other_steps(self, k, step):
        # An explicit step sets the build's step only; the period is the same.
        proto = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), step)
        sol = find_periodic(proto, k)
        assert sol.period == find_periodic(dataclasses.replace(proto, step=None), k).period
        assert sol.period == pytest.approx(quadrature_period(proto, k), rel=1e-13)
        orbit = WarpingODEParams(4, 1.0, 1.0, sol.h_max, 0.0, (0.0, sol.period), step)
        assert_same_nodes(sol.warping.profile, orbit)
        assert sol.warping.params[5:] == (() if step is None else (step,))

    @pytest.mark.parametrize("c1", [4.0, -4.0, 0.0])
    def test_oscillator_nodes_equal_the_oracle(self, c1):
        params = WarpingODEParams(2, c1, 0.0, -0.5, 1.5, (0.0, 2.0))
        assert_same_nodes(OdeBackedProfile(params), params)

    @pytest.mark.parametrize(
        "params",
        [
            WarpingODEParams(2, 0.0, 0.0, _STATE_CEIL, 0.0, (0.0, 1.0)),
            WarpingODEParams(2, 0.0, 0.0, 0.0, _STATE_CEIL, (0.0, 1e-3)),
        ],
        ids=["h-at-ceiling", "h'-at-ceiling"],
    )
    def test_states_on_the_ceiling_stay_admissible(self, params):
        # With c1 = c0 = 0 a state at rest, or one drifting at constant
        # velocity, keeps its value exactly on the ceiling, which is allowed.
        assert_same_nodes(OdeBackedProfile(params), params)

    @pytest.mark.parametrize("params", BLOWUP_INPUTS)
    def test_blow_up_message_and_position(self, params):
        got = raised(lambda: OdeBackedProfile(params))
        assert got == raised(lambda: loop_ode_nodes(params))

    def test_orbit_build_blow_up(self):
        # At p = 2 and 500 times the well's value (h_max/h_min about 3e4),
        # RK4 at period/4096 steps overshoots the inner turning point.
        proto, k = WarpingODEParams(2, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0)), 1500.0
        h_min, h_max = turning_point(proto, k, "inner"), turning_point(proto, k, "outer")
        period = ode_solver._period(2, 1.0, 1.0, h_min, h_max, k)
        assert period == pytest.approx(quadrature_period(proto, k), rel=1e-13)
        orbit = WarpingODEParams(2, 1.0, 1.0, h_max, 0.0, (0.0, period))
        got = raised(lambda: find_periodic(proto, k))
        assert got == raised(lambda: loop_ode_nodes(orbit))
        assert got[0].startswith("trajectory left the admissible region")

    def test_state_check_equals_the_oracle(self):
        edges = [
            math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0,
            _H_FLOOR, math.nextafter(_H_FLOOR, math.inf),
            _STATE_CEIL, math.nextafter(_STATE_CEIL, math.inf),
            -_STATE_CEIL, math.nextafter(-_STATE_CEIL, -math.inf),
        ]
        for c0 in (0.0, 1.0, -1.0):
            for h in edges:
                for hp in edges:
                    assert _state_ok(c0, h, hp) == loop_state_ok(c0, h, hp)


class TestDenseOutputTie:
    """`_rk4_step`, the dense-output step, must stay the node kernel's twin.

    Called per node it reproduces every stored node bit for bit.  Called on
    whole node arrays it does too when the equation has no power term; with
    one, NumPy's vectorised `power` may round differently from the
    C library's `pow` (on AVX-512 builds about 5% of values differ in the
    last bit), so there h and h' agree to within an ulp of their largest
    values.
    """

    @pytest.mark.parametrize("name,args", ODE_BUILDS)
    def test_step_reproduces_the_nodes(self, name, args):
        entry = catalog.build_entry(name, **args)
        profile = entry.spec.blocks[0].warping.profile
        pr, h, hp = profile.params, profile.h_nodes, profile.hp_nodes
        coeffs = (pr.power, pr.linear_coeff, pr.forcing)
        per_node = [
            _rk4_step(*coeffs, float(a), float(b), profile.dt)
            for a, b in zip(h[:-1], hp[:-1])
        ]
        assert np.array_equal(np.array(per_node), np.stack([h[1:], hp[1:]], axis=1))
        for got, want in zip(_rk4_step(*coeffs, h[:-1], hp[:-1], profile.dt), (h, hp)):
            ulp = np.finfo(float).eps * np.max(np.abs(want))
            np.testing.assert_allclose(got, want[1:], rtol=0.0, atol=ulp)

    @pytest.mark.parametrize("c1", [4.0, -4.0])
    def test_vectorised_step_without_power(self, c1):
        profile = OdeBackedProfile(WarpingODEParams(2, c1, 0.0, -0.5, 1.5, (0.0, 2.0)))
        h, hp = profile.h_nodes, profile.hp_nodes
        h_next, hp_next = _rk4_step(2, c1, 0.0, h[:-1], hp[:-1], profile.dt)
        assert np.array_equal(h_next, h[1:])
        assert np.array_equal(hp_next, hp[1:])


# ---------------------------------------------------------------------------
# The per-grid state: one sin/cos pair, sinh/cosh pair or RK4 step per query grid


GRID_STATE_PROFILES = {
    "trig": lambda: TrigProfile(a_sin=0.7, a_cos=-0.2, omega=1.3, phase=0.4),
    "hyperbolic": lambda: HyperbolicProfile(a_sinh=0.5, a_cosh=1.1, omega=0.8, phase=-0.3),
    "ode": lambda: OdeBackedProfile(
        WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.0, 0.0, (0.0, 1.0))
    ),
}


@pytest.mark.parametrize("kind", sorted(GRID_STATE_PROFILES))
class TestGridStateMemo:
    """A leaf profile keeps the per-grid state of its last query points.

    Every read must give the bits a fresh profile gives on its first read,
    whatever was read before it, and the memo must hold only what the
    last query's points determine.
    """

    @staticmethod
    def fresh(kind, s, order):
        return GRID_STATE_PROFILES[kind]().derivative(s, order)

    def test_interleaved_reads_match_fresh_profiles(self, kind):
        prof = GRID_STATE_PROFILES[kind]()
        grid_a = np.linspace(0.05, 0.95, 33)
        grid_b = np.linspace(0.1, 0.9, 17)
        flat = np.linspace(0.2, 0.8, 12)
        reads = [
            (grid_a, 3), (grid_b, 0), (grid_a, 1), (np.float64(0.4), 2),
            (flat.reshape(2, 6), 4), (flat, 4), (flat.reshape(2, 6), 0),
            (grid_a, 0), (grid_a, 2), (grid_a, 4), (grid_b, 1), (grid_b, 3),
            (0.4, 0), (np.float64(0.4), 1), (flat, 2), (np.array([]), 1),
        ]
        for s, order in reads:
            got = prof.derivative(s, order)
            want = self.fresh(kind, s, order)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want) == np.shape(s)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (np.shape(s), order)

    def test_query_rewritten_in_place_gets_fresh_rows(self, kind):
        prof = GRID_STATE_PROFILES[kind]()
        s = np.linspace(0.05, 0.95, 33)
        prof.derivative(s, 0)
        s[:] = np.linspace(0.1, 0.9, 33)
        for order in range(5):
            assert np.array_equal(prof.derivative(s, order), self.fresh(kind, s, order))

    def test_memo_rows_refuse_writes(self, kind):
        prof = GRID_STATE_PROFILES[kind]()
        s = np.linspace(0.05, 0.95, 33)
        for order in range(5):
            prof.derivative(s, order)
        key, rows = prof._grid_memo
        assert key == (s.shape, s.tobytes())
        for row in rows:
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0
        for order in range(5):
            assert np.array_equal(prof.derivative(s, order), self.fresh(kind, s, order))

    @pytest.mark.parametrize("orders", [(0,), (4,), (0, 1, 2, 3, 4), (4, 2, 0, 3, 1, 4)])
    def test_memo_bytes_per_point(self, kind, orders):
        # The key and two rows; an integrated warping holds four: h to h'''.
        prof = GRID_STATE_PROFILES[kind]()
        s = np.linspace(0.05, 0.95, 1000)
        for order in orders:
            prof.derivative(s, order)
        key, rows = prof._grid_memo
        held = len(key[1]) + sum(row.nbytes for row in rows)
        assert held == (40 if kind == "ode" else 24) * s.size

    def test_order_four_keeps_the_memo_entry(self, kind):
        # Order 4 is computed from the entry's rows and adds none to it.
        prof = GRID_STATE_PROFILES[kind]()
        s = np.linspace(0.05, 0.95, 33)
        prof.derivative(s, 0)
        entry = prof._grid_memo
        assert np.array_equal(prof.derivative(s, 4), self.fresh(kind, s, 4))
        assert prof._grid_memo is entry

    def test_memo_leaves_equality_and_hash_alone(self, kind):
        prof, other = GRID_STATE_PROFILES[kind](), GRID_STATE_PROFILES[kind]()
        prof.derivative(np.linspace(0.05, 0.95, 33), 2)
        if kind == "ode":
            assert prof != other  # compared by identity, as before
        else:
            assert prof == other and hash(prof) == hash(other)
            assert repr(prof) == repr(other)
            with pytest.raises(dataclasses.FrozenInstanceError):
                prof.omega = 2.0

    def test_threads_reading_different_grids(self, kind):
        prof = GRID_STATE_PROFILES[kind]()
        grids = [np.linspace(0.05, 0.95, 257), np.linspace(0.1, 0.9, 129)]
        want = [[self.fresh(kind, g, d) for d in range(5)] for g in grids]
        wrong, done = [], [0, 0]

        def work(i):
            for _ in range(200):
                for d in range(5):
                    if not np.array_equal(prof.derivative(grids[i], d), want[i][d]):
                        wrong.append((i, d))
                done[i] += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert done == [200, 200]
        assert wrong == []


def test_domain_check_runs_on_a_memo_hit():
    prof = GRID_STATE_PROFILES["ode"]()
    s = np.linspace(0.05, 0.95, 33)
    prof.derivative(s, 0)
    s[-1] = 1.5
    with pytest.raises(OutOfDomain, match="outside the integrated domain"):
        prof.derivative(s, 0)
    with pytest.raises(OutOfDomain, match="outside the integrated domain"):
        prof.derivative(s[::-1], 3)


class _CountingNumpy:
    """numpy for `profiles`, logging each sin, cos, sinh and cosh call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("sin", "cos", "sinh", "cosh"):
            return fn

        def counted(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "name", ["round_sphere", "type_ii", "type_iii", "example3", "example4", "type_iv"]
)
def test_one_tower_per_profile_per_grid(monkeypatch, name):
    # Before the per-grid state every derivative call evaluated its own sin
    # and cos (at x + d pi/2), and the equation rows of every order again.
    entry = catalog.build_entry(name)
    spec, lapse = entry.spec, entry.lapse
    counting = _CountingNumpy()
    monkeypatch.setattr(profiles, "np", counting)
    grids = {TrigProfile: set(), HyperbolicProfile: set(), OdeBackedProfile: set()}
    for cls, seen in grids.items():
        read = cls.derivative

        def recorded(self, s, order, read=read, seen=seen):
            seen.add((id(self), np.asarray(s, dtype=float).tobytes()))
            return read(self, s, order)

        monkeypatch.setattr(cls, "derivative", recorded)
    builds = []
    build = OdeBackedProfile._dense_rows

    def dense_rows(self, s):
        builds.append((id(self), s.tobytes()))
        return build(self, s)

    monkeypatch.setattr(OdeBackedProfile, "_dense_rows", dense_rows)
    sv.verify_pair(spec, lapse)
    sv.classify(spec, lapse)
    trig, hyperbolic = len(grids[TrigProfile]), len(grids[HyperbolicProfile])
    assert counting.calls.count("sin") == counting.calls.count("cos") == trig
    assert counting.calls.count("sinh") == counting.calls.count("cosh") == hyperbolic
    assert sorted(builds) == sorted(grids[OdeBackedProfile])
    if name in ("round_sphere", "type_ii"):
        assert trig > 0
    if name == "type_iii":
        assert hyperbolic > 0
    if name in ("example3", "example4", "type_iv"):
        assert builds


@pytest.mark.parametrize("name", ["example3", "example4", "type_iv"])
def test_one_dense_step_per_answer(monkeypatch, name):
    # Before the memo: 7 steps per answer, and 14, 14 and 20 for the audits.
    steps = [0]
    step = ode_solver._rk4_step

    def counting(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(ode_solver, "_rk4_step", counting)
    entry = catalog.build_entry(name)
    spec, lapse = entry.spec, entry.lapse
    steps[0] = 0
    sv.verify_pair(spec, lapse)
    sv.classify(spec, lapse)
    assert steps[0] == 1
    sv.identity_dcw(spec, lapse)
    sv.identity_db(spec, lapse)
    if len(spec.blocks) == 2:
        sv.check_lemma41(spec, lapse)
    assert steps[0] == 1
