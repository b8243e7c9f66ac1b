"""Fixed-step integration of h'' + c1 h = c0 h^(-p) and its helpers.

Independent accuracy oracles used below:

* with c0 = 0 the equation is a harmonic oscillator with a closed-form
  solution, so trajectory errors and the step-halving ratio are exact;
* the conserved quantity k = h'^2 + 2 c0/(p-1) h^(-(p-1)) + c1 h^2 must
  stay flat along every trajectory;
* an orbit period equals 2 * integral dh / sqrt(k - V(h)) between the
  turning points, and the substitution h = h_min + (h_max - h_min)
  sin(theta)^2 removes both endpoint singularities, so adaptive
  quadrature of the transformed integrand is trustworthy to ~1e-13;
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
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from oracle_tools import loop_ode_nodes, loop_orbit_search, loop_state_ok
from staticgeo import catalog, ode_solver
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


def quadrature_period(params, k):
    """Orbit period by singularity-free quadrature between turning points."""
    h_min = turning_point(params, k, "inner")
    h_max = turning_point(params, k, "outer")

    def integrand(theta):
        h = h_min + (h_max - h_min) * math.sin(theta) ** 2
        q = (k - potential(params, h)) / ((h - h_min) * (h_max - h))
        return 2.0 / math.sqrt(q)

    half, err = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return 2.0 * half


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
        assert w.derivative_order == 4
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
        assert f.derivative_order == w.derivative_order - 1
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
    """Seeded RK4 steps across which h' changes sign, as in find_periodic."""
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
        assert sol.period == pytest.approx(
            quadrature_period(fiber_params, K_ORBIT), abs=1e-10
        )

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
        assert sol.period == pytest.approx(2.0 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("name", ["standing", "example4", "type_iv"])
    def test_one_crossing_solve_per_orbit(self, monkeypatch, fiber_params, name):
        # The two turning points take one bisection each, and the return
        # to h_max one more; the pass through h_min needs none.
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
        assert sorted(solves) == ["find_periodic", "turning_point", "turning_point"]

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
            period, _, h_max, _ = loop_orbit_search(
                orbit_proto(name, entry.params), entry.params["k"]
            )
            assert entry.period == period
            assert profile.params.h0 == h_max

    @pytest.mark.parametrize("name,args", ORBIT_BUILDS)
    def test_orbit_search_equals_the_oracle(self, name, args):
        args = catalog.build_entry(name, **args).params
        proto = orbit_proto(name, args)
        sol = find_periodic(proto, args["k"])
        ref = loop_orbit_search(proto, args["k"])
        if args["R"] <= 0.0:
            assert sol is None and ref is None
            return
        period, h_min, h_max, orbit = ref
        assert (sol.period, sol.h_min, sol.h_max) == (period, h_min, h_max)
        assert_same_nodes(sol.warping.profile, orbit)

    @pytest.mark.parametrize("step", [None, 0.05, 0.2])
    @pytest.mark.parametrize("k", [1.8, 2.0, 5.0])
    def test_orbit_search_at_other_steps(self, k, step):
        proto = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), step)
        sol, ref = find_periodic(proto, k), loop_orbit_search(proto, k)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert (sol.period, sol.h_min, sol.h_max) == ref[:3]
            assert_same_nodes(sol.warping.profile, ref[3])

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

    def test_orbit_search_blow_up(self):
        # A step of 0.4 against a linearized period near 2.8 throws the
        # orbit at k = 50 out of the admissible region on the fourth step.
        proto = WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0), 0.4)
        got = raised(lambda: find_periodic(proto, 50.0))
        assert got == raised(lambda: loop_orbit_search(proto, 50.0))
        assert got == ("orbit search left admissible region near s = 1.6", 1.2000000000000002)

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
