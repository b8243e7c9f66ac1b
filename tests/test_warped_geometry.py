"""Profiles, spec construction, validation and the JSON wire format."""

import dataclasses
import json
import math

import numpy as np
import pytest

from staticgeo.catalog import CATALOG_NAMES
from staticgeo.errors import (
    BadRange,
    DerivativeOrderUnavailable,
    NonPositiveSample,
    OutOfDomain,
    TooFewSamples,
    UnsupportedKind,
    ZeroScale,
)
from staticgeo.jets import (
    derivatives_from_jet,
    jconst,
    jder,
    jdiv,
    jet_from_derivatives,
    jet_of,
    jmul,
)
from staticgeo.profiles import (
    _STENCIL_MEMO,
    HyperbolicProfile,
    PolynomialProfile,
    SampledProfile,
    TrigProfile,
    _stencil,
    fd_weights,
)
from staticgeo.ode_solver import (
    DEFAULT_STEPS,
    WarpingODEParams,
    integrate_warping,
    lapse_from_warping,
)
from staticgeo.warped_geometry import (
    DEFAULT_GRID_POINTS,
    GRID_MARGIN_STEPS,
    LAPSE_KINDS,
    WARPING_KINDS,
    FiberBlock,
    LapseFunction,
    WarpedProductSpec,
    WarpingFunction,
    _problem_dict,
    load_problem,
    make_analytic_warping,
    make_lapse,
    make_sampled_warping,
    perturbed_lapse,
    spec_from_dict,
    validate_spec,
)


# ---------------------------------------------------------------------------
# Analytic profiles
# ---------------------------------------------------------------------------


class TestAnalyticProfiles:
    def test_polynomial_derivatives(self):
        # 2 + 3s - s^2 + 0.5 s^3
        p = PolynomialProfile((2.0, 3.0, -1.0, 0.5))
        s = np.array([-1.0, 0.0, 0.7, 2.3])
        np.testing.assert_allclose(
            p.derivative(s, 0), 2 + 3 * s - s**2 + 0.5 * s**3, rtol=1e-15
        )
        np.testing.assert_allclose(
            p.derivative(s, 1), 3 - 2 * s + 1.5 * s**2, rtol=1e-15
        )
        np.testing.assert_allclose(p.derivative(s, 2), -2 + 3 * s, rtol=1e-15)
        np.testing.assert_allclose(p.derivative(s, 3), 3.0 * np.ones_like(s))
        np.testing.assert_allclose(p.derivative(s, 4), np.zeros_like(s))

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_trig_derivative_tower(self, order):
        p = TrigProfile(a_sin=0.7, a_cos=-0.2, omega=1.3, phase=0.4)
        s = np.linspace(-2.0, 2.0, 11)
        # d/ds advances the phase by pi/2 and multiplies by omega.
        x = 1.3 * s + 0.4 + order * math.pi / 2
        expected = 1.3**order * (0.7 * np.sin(x) - 0.2 * np.cos(x))
        np.testing.assert_allclose(p.derivative(s, order), expected, atol=1e-14)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_hyperbolic_derivative_tower(self, order):
        p = HyperbolicProfile(a_sinh=0.5, a_cosh=1.1, omega=0.8, phase=-0.3)
        s = np.linspace(-1.0, 1.5, 7)
        x = 0.8 * s - 0.3
        if order % 2 == 0:
            expected = 0.8**order * (0.5 * np.sinh(x) + 1.1 * np.cosh(x))
        else:
            expected = 0.8**order * (0.5 * np.cosh(x) + 1.1 * np.sinh(x))
        np.testing.assert_allclose(p.derivative(s, order), expected, rtol=1e-13)

    @staticmethod
    def closed_form_draws(seed, cases):
        """(a, b, omega, phase, s): signed zeros, unit and random values, array or scalar s."""
        rng = np.random.default_rng(seed)
        pick = [0.0, -0.0, 1.0, -1.0, 0.5]
        special = np.array([0.0, -0.0, 1.0, -1.0, math.pi, -math.pi / 2, 1e-300, -1e-300])
        for case in range(cases):
            a, b, w, phase = (
                float(rng.choice(pick)) if rng.random() < 0.4 else float(rng.standard_normal())
                for _ in range(4)
            )
            if case % 3 == 0:
                s = np.asarray(float(rng.choice(special)))
            else:
                s = np.concatenate((special, rng.uniform(-4.0, 4.0, 9)))
            yield a, b, w, phase, s

    def test_trig_order_zero_keeps_the_quarter_turn_bits(self):
        # Order 0 is a sin(w s + phase + 0 pi/2) + b cos(...) bit for bit, signed
        # zeros included; orders >= 1 turn (a, b) a quarter instead of the angle.
        for a, b, w, phase, s in self.closed_form_draws(28, 600):
            x = w * s + phase + 0 * (math.pi / 2)
            want = w**0 * (a * np.sin(x) + b * np.cos(x))
            got = TrigProfile(a, b, w, phase).derivative(s, 0)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, b, w, phase, s)

    def test_hyperbolic_rows_keep_their_bits(self):
        for a, b, w, phase, s in self.closed_form_draws(29, 300):
            p = HyperbolicProfile(a, b, w, phase)
            x = w * s + phase
            for order in range(5):
                first, second = (a, b) if order % 2 == 0 else (b, a)
                want = w**order * (first * np.sinh(x) + second * np.cosh(x))
                got = p.derivative(s, order)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_order_above_tower_raises(self):
        p = TrigProfile(a_sin=1.0)
        with pytest.raises(DerivativeOrderUnavailable):
            p.derivative(0.3, 9)

    def test_polynomial_equals_numpy_polynomial_bit_for_bit(self):
        # numpy.polynomial is the reference here; the profile does not import it.
        poly = np.polynomial.polynomial
        rng = np.random.default_rng(21)
        for case in range(2000):
            size = int(rng.integers(1, 9))
            coeffs = tuple(rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size))
            order = int(rng.integers(0, 9))
            if case % 2:
                s = np.asarray(rng.uniform(-3.0, 3.0))
            else:
                s = rng.uniform(-3.0, 3.0, int(rng.integers(1, 6)))
            c = np.asarray(coeffs)
            for _ in range(order):
                c = poly.polyder(c) if c.size > 1 else np.zeros(1)
            expected = poly.polyval(s, c)
            got = PolynomialProfile(coeffs).derivative(s, order)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_profiles_are_immutable(self):
        p = PolynomialProfile((1.0, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.coeffs = (0.0,)


# ---------------------------------------------------------------------------
# Finite-difference machinery
# ---------------------------------------------------------------------------


class TestFdWeights:
    def test_uniform_five_point_first_derivative(self):
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fd_weights(nodes, 0.0, 2)
        np.testing.assert_allclose(
            w[:, 1], [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12], atol=1e-14
        )

    def test_uniform_five_point_second_derivative(self):
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fd_weights(nodes, 0.0, 2)
        np.testing.assert_allclose(
            w[:, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12], atol=1e-14
        )

    def test_exact_on_polynomials(self):
        # Degree-4 polynomial, 5 scattered nodes: derivatives are exact.
        rng = np.random.default_rng(7)
        nodes = np.sort(rng.uniform(-1.0, 1.0, size=5))
        x0 = 0.17
        coeffs = rng.standard_normal(5)
        w = fd_weights(nodes, x0, 3)
        poly = np.polynomial.polynomial
        vals = poly.polyval(nodes, coeffs)
        c = coeffs
        for m in range(4):
            np.testing.assert_allclose(
                w[:, m] @ vals, poly.polyval(x0, c), atol=1e-10
            )
            c = poly.polyder(c)

    @pytest.mark.parametrize("n", [2, 5, 7])
    @pytest.mark.parametrize("max_order", [0, 2, 4])
    def test_broadcast_equals_scalar_calls(self, n, max_order):
        rng = np.random.default_rng(100 * n + max_order)
        nodes = np.sort(rng.uniform(-1.0, 1.0, size=(4, 3, n)), axis=-1)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 3))
        w = fd_weights(nodes, x0, max_order)
        assert w.shape == (4, 3, n, max_order + 1)
        for k in np.ndindex(4, 3):
            np.testing.assert_array_equal(w[k], fd_weights(nodes[k], x0[k], max_order))

    def test_shared_nodes_broadcast_against_query_points(self):
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        x0 = np.array([-0.3, 0.0, 0.45])
        w = fd_weights(nodes, x0, 3)
        assert w.shape == (3, 5, 4)
        for k, x in enumerate(x0):
            np.testing.assert_array_equal(w[k], fd_weights(nodes, x, 3))

    def test_scalar_query_keeps_stencil_shape(self):
        w = fd_weights(np.linspace(0.0, 0.6, 7), 0.25, 4)
        assert w.shape == (7, 5)


# Stencil width per derivative order, written out apart from profiles._STENCIL.
STENCIL_WIDTH = {0: 5, 1: 5, 2: 5, 3: 7, 4: 7}


def per_point_derivative(p, s, order):
    """One stencil per query point, as an independent reference.

    The Python floats of fd_weights times the samples, summed left to right.
    """
    width = STENCIL_WIDTH[order]
    center = int(round((s - p.s_start) / p.step))
    start = min(max(center - width // 2, 0), p.samples.size - width)
    nodes = p.s_start + p.step * np.arange(start, start + width)
    w = fd_weights(nodes, s, order)[:, order].tolist()
    g = p.samples[start : start + width].tolist()
    total = w[0] * g[0]
    for j in range(1, width):
        total = total + w[j] * g[j]
    return total


class TestSampledProfile:
    def make(self, fn, lo=0.0, hi=3.0, num=241):
        s = np.linspace(lo, hi, num)
        return SampledProfile(lo, s[1] - s[0], fn(s))

    def test_reproduces_smooth_function(self):
        p = self.make(np.sin)
        s = np.linspace(0.2, 2.8, 40)  # off-node points included
        np.testing.assert_allclose(p.derivative(s, 0), np.sin(s), atol=1e-7)
        np.testing.assert_allclose(p.derivative(s, 1), np.cos(s), atol=1e-5)
        np.testing.assert_allclose(p.derivative(s, 2), -np.sin(s), atol=1e-4)
        np.testing.assert_allclose(p.derivative(s, 3), -np.cos(s), atol=1e-3)
        np.testing.assert_allclose(p.derivative(s, 4), np.sin(s), atol=1e-2)

    def test_scalar_input_gives_scalar_output(self):
        p = self.make(np.exp)
        out = p.derivative(1.5, 1)
        assert np.ndim(out) == 0
        assert abs(out - math.exp(1.5)) < 1e-5

    def test_margin_enforced_per_order(self):
        p = self.make(np.sin, lo=0.0, hi=3.0, num=31)
        step = 0.1
        # Order 2 needs two steps of margin, order 3 needs three.
        p.derivative(0.0 + 2 * step, 2)
        with pytest.raises(OutOfDomain):
            p.derivative(0.0 + 2 * step, 3)
        with pytest.raises(OutOfDomain):
            p.derivative(3.0, 0)

    @pytest.mark.parametrize("num", [257, 1025, 4097])
    def test_batched_stencils_match_per_point_reference(self, num):
        p = self.make(lambda s: np.sin(s) + 2.0, hi=6.0, num=num)
        rng = np.random.default_rng(num)
        lo, hi = p.s_start + 3 * p.step, p.s_end - 3 * p.step
        # Off-node queries, the two ends where the stencil is clamped, and nodes.
        nodes = p.s_start + p.step * np.arange(3, num - 3, num // 16)
        s = np.concatenate(([lo, hi], rng.uniform(lo, hi, size=200), nodes))
        for order in range(5):
            got = p.derivative(s, order)
            want = np.array([per_point_derivative(p, sv, order) for sv in s.tolist()])
            assert same_bits(got, want), order

    def test_output_shape_follows_input(self):
        p = self.make(np.sin)
        empty = p.derivative(np.array([]), 3)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        grid = np.linspace(0.5, 2.5, 12).reshape(3, 4)
        out = p.derivative(grid, 2)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.ravel(), p.derivative(grid.ravel(), 2))
        assert np.ndim(p.derivative(1.2, 4)) == 0

    @pytest.mark.parametrize("order", range(5))
    def test_margins_per_order_at_both_ends(self, order):
        p = self.make(np.sin, lo=0.0, hi=3.0, num=31)
        margin = (2 if order <= 2 else 3) * 0.1
        inside = np.array([margin, 1.5, 3.0 - margin])
        assert p.derivative(inside, order).shape == (3,)
        for outside in (margin - 0.01, 3.0 - margin + 0.01):
            with pytest.raises(OutOfDomain):
                p.derivative(np.append(inside, outside), order)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SampledProfile(0.0, 0.1, np.ones(8))

    def test_nonpositive_sample_rejected_for_warpings(self):
        vals = np.ones(12)
        vals[5] = -0.25
        with pytest.raises(NonPositiveSample):
            make_sampled_warping(0.0, 0.1, vals)

    def test_order_five_unavailable(self):
        p = self.make(np.sin)
        with pytest.raises(DerivativeOrderUnavailable):
            p.derivative(1.0, 5)


def uncached_derivative(p, s, order):
    """The batched stencil gather and contraction, rebuilt on every call."""
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    width = STENCIL_WIDTH[order]
    center = np.rint((flat - p.s_start) / p.step).astype(int)
    start = np.clip(center - width // 2, 0, p.samples.size - width)
    idx = start[:, None] + np.arange(width)
    w = fd_weights(p.s_start + p.step * idx, flat, order)[..., order]
    g = p.samples[idx]
    out = w[:, 0] * g[:, 0]
    for j in range(1, width):
        out += w[:, j] * g[:, j]
    return out.reshape(s.shape) if s.shape else out[0]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStencilMemo:
    def make(self, lo=0.0, step=0.01, num=301, fn=lambda s: np.sin(s) + 2.0):
        return SampledProfile(lo, step, fn(lo + step * np.arange(num)))

    @pytest.mark.parametrize("num", [257, 1025, 4097])
    def test_memo_hits_and_misses_equal_the_uncached_route(self, num):
        s = np.linspace(0.0, 6.0, num)
        p = SampledProfile(0.0, s[1] - s[0], np.sin(s) + 2.0 + 0.1 * np.cos(3.0 * s))
        rng = np.random.default_rng(num)
        lo, hi = p.s_start + 3 * p.step, p.s_end - 3 * p.step
        queries = (
            0.5 * (lo + hi),
            np.concatenate(([lo, hi], rng.uniform(lo, hi, 100), s[3:-3:7])),
            rng.uniform(lo, hi, (6, 9)),
            rng.uniform(lo, hi, (9, 6)).T,
            np.array([]),
        )
        _stencil.cache_clear()
        for order in range(5):
            for q in queries:
                want = uncached_derivative(p, q, order)
                assert same_bits(p.derivative(q, order), want), (order, np.shape(q))
                assert same_bits(p.derivative(q, order), want), (order, np.shape(q))
        assert _stencil.cache_info().hits > 0

    def test_every_key_field_gets_its_own_entry(self):
        q = np.linspace(0.5, 2.5, 50)
        base = self.make()
        variants = [
            (base, q, 2),
            (self.make(lo=0.003), q, 2),
            (self.make(step=0.0101), q, 2),
            (self.make(num=305), q, 2),
            (base, q, 3),
            (base, q + 0.001, 2),
        ]
        _stencil.cache_clear()
        first = []
        for k, (p, s, order) in enumerate(variants, start=1):
            got = p.derivative(s, order)
            assert same_bits(got, uncached_derivative(p, s, order))
            assert _stencil.cache_info().misses == k
            first.append(got)
        # The longer grid shares the base's samples, so only its values agree.
        for k in (1, 2, 4, 5):
            assert not np.array_equal(first[k], first[0])
        for (p, s, order), got in zip(variants, first):
            assert same_bits(p.derivative(s, order), got)
        assert _stencil.cache_info().misses == len(variants)

    def test_out_of_domain_is_raised_on_a_memo_hit(self):
        p = self.make(step=0.1, num=31)
        outside = np.array([0.15, 1.5])
        key = (p.s_start, p.step, p.samples.size, 2, outside.tobytes())
        _stencil(*key)
        hits = _stencil.cache_info().hits
        with pytest.raises(OutOfDomain):
            p.derivative(outside, 2)
        assert _stencil.cache_info().hits == hits  # refused before the lookup

    def test_entries_are_read_only_and_bounded(self):
        p = self.make()
        q = np.linspace(0.5, 2.5, 10)
        _stencil.cache_clear()
        for k in range(3 * _STENCIL_MEMO):
            p.derivative(q + 0.001 * k, k % 5)
            assert _stencil.cache_info().currsize <= _STENCIL_MEMO
        assert _stencil.cache_info().currsize == _STENCIL_MEMO
        for arr in _stencil(p.s_start, p.step, p.samples.size, 4, q.tobytes()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    @pytest.mark.parametrize("order", range(5))
    def test_entries_keep_only_the_weights_they_read(self, order):
        p = self.make()
        q = np.linspace(0.5, 2.5, 40)
        idx, w = _stencil(p.s_start, p.step, p.samples.size, order, q.tobytes())
        width = STENCIL_WIDTH[order]
        assert w.shape == idx.shape == (q.size, width)
        assert w.flags.c_contiguous and w.flags.owndata
        assert w.nbytes == 8 * q.size * width


# ---------------------------------------------------------------------------
# Jet arithmetic
# ---------------------------------------------------------------------------


class TestJets:
    def test_jet_roundtrip(self):
        p = TrigProfile(a_sin=1.0, omega=2.0)
        s = np.linspace(0.1, 1.0, 5)
        jet = jet_of(p, s, 4)
        der = derivatives_from_jet(jet)
        for d in range(5):
            np.testing.assert_allclose(der[d], p.derivative(s, d), atol=1e-13)

    def test_jmul_matches_product_rule(self):
        a = TrigProfile(a_sin=1.0, omega=1.5)
        b = PolynomialProfile((1.0, 0.5, -0.25))
        s = np.array([0.3, 0.9])
        prod = jmul(jet_of(a, s, 3), jet_of(b, s, 3))
        der = derivatives_from_jet(prod)
        # (ab)'' = a''b + 2a'b' + ab''
        expected = (
            a.derivative(s, 2) * b.derivative(s, 0)
            + 2 * a.derivative(s, 1) * b.derivative(s, 1)
            + a.derivative(s, 0) * b.derivative(s, 2)
        )
        np.testing.assert_allclose(der[2], expected, atol=1e-13)

    def test_jmul_keeps_the_sign_of_a_zero_product(self):
        a = np.array([[-0.0, 0.0, 2.0], [1.0, 1.0, 3.0]])
        b = np.array([[1.0, -1.0, 0.0], [2.0, 0.5, 4.0]])
        prod = jmul(a, b)
        assert list(np.signbit(prod[0])) == [True, True, False]
        np.testing.assert_array_equal(prod[0], a[0] * b[0])

    def test_jmul_nonzero_coefficients_match_a_zero_seeded_sum(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 3, 7))
        b = rng.standard_normal((5, 1, 7))
        reference = np.zeros((5, 3, 7))
        for k in range(5):
            for i in range(k + 1):
                reference[k] += a[i] * b[k - i]
        prod = jmul(a, b)
        assert np.all(prod != 0.0)
        assert prod.tobytes() == reference.tobytes()

    def test_jdiv_inverts_jmul(self):
        rng = np.random.default_rng(11)
        a = jet_from_derivatives(rng.standard_normal((4, 6)))
        b = jet_from_derivatives(rng.standard_normal((4, 6)) + 3.0)
        back = jdiv(jmul(a, b), b)
        np.testing.assert_allclose(back, a, atol=1e-12)

    def test_jder_and_jconst(self):
        p = PolynomialProfile((0.0, 0.0, 1.0))  # s^2
        s = np.array([2.0])
        jet = jet_of(p, s, 3)
        d = derivatives_from_jet(jder(jet))
        np.testing.assert_allclose(d[0], 2 * s)
        np.testing.assert_allclose(d[1], [2.0])
        c = jconst(5.0, 3, like=jet)
        assert c.shape == (4, 1)
        assert c[0, 0] == 5.0 and np.all(c[1:] == 0.0)


# ---------------------------------------------------------------------------
# Warpings, blocks and specs
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_analytic_warping_kinds(self):
        s = np.array([0.4, 1.2])
        w = make_analytic_warping("sin-scaled", (2.0, 3.0))
        np.testing.assert_allclose(w.value(s), 2 * np.sin(3 * s), atol=1e-14)
        w = make_analytic_warping("cosh-scaled", (1.5, 0.5))
        np.testing.assert_allclose(w.value(s), 1.5 * np.cosh(0.5 * s), atol=1e-14)
        w = make_analytic_warping("linear", (2.0, -0.5))
        np.testing.assert_allclose(w.derivative(s, 1), [-0.5, -0.5])

    def test_analytic_warping_bad_params(self):
        with pytest.raises(BadRange):
            make_analytic_warping("constant", (1.0, 2.0))
        with pytest.raises(BadRange):
            make_analytic_warping("sin-scaled", (1.0,))
        with pytest.raises(UnsupportedKind):
            make_analytic_warping("quadratic", (1.0, 2.0, 3.0))

    def test_lapse_kinds(self):
        s = np.array([0.1, 0.8])
        f = make_lapse("sin-cos", (0.5, 1.0, 2.0))
        np.testing.assert_allclose(
            f.value(s), 0.5 * np.sin(2 * s) + np.cos(2 * s), atol=1e-14
        )
        f = make_lapse("poly", (1.0, 0.0, 0.5))
        np.testing.assert_allclose(f.derivative(s, 2), [1.0, 1.0])
        with pytest.raises(BadRange):
            make_lapse("sin-cos", (1.0,))
        with pytest.raises(UnsupportedKind):
            make_lapse("spline", (1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_numbers_are_refused(self, bad):
        w = make_analytic_warping("constant", (1.0,))
        ones = np.ones(12)
        refused = [
            lambda: make_analytic_warping("sin-scaled", (bad, 1.0)),
            lambda: make_lapse("sin-cos", (0.0, 1.0, bad)),
            lambda: make_lapse("sampled", (0.0, 0.1, *ones[:5], bad, *ones[6:])),
            lambda: make_sampled_warping(bad, 0.1, ones),
            lambda: make_sampled_warping(0.0, bad, ones),
            lambda: make_sampled_warping(0.0, 0.1, np.where(np.arange(12) == 5, bad, ones)),
            lambda: FiberBlock(3, w, "space_form", bad),
            lambda: FiberBlock(1, w, "line", bad),
            lambda: WarpedProductSpec((FiberBlock(3, w),), (bad, 1.0)),
            lambda: WarpedProductSpec((FiberBlock(3, w),), (0.0, bad)),
        ]
        for build in refused:
            with pytest.raises(BadRange, match="finite"):
                build()

    def test_require_positive_refuses_nan(self):
        p = SampledProfile(0.0, 0.1, np.where(np.arange(12) == 7, np.nan, 1.0))
        with pytest.raises(NonPositiveSample, match="sample 7 is nan"):
            p.require_positive()

    def test_block_dim_one_normalizes_to_line(self):
        b = FiberBlock(1, make_analytic_warping("constant", (1.0,)),
                       "space_form", 3.0)
        assert b.model == "line"
        assert b.k == 0.0

    def test_block_dimension_must_be_whole(self):
        w = make_analytic_warping("constant", (1.0,))
        with pytest.raises(BadRange, match="block dimension must be an integer"):
            FiberBlock(2.5, w)
        assert type(FiberBlock(3.0, w).dim) is int

    def test_line_model_needs_dim_one(self):
        with pytest.raises(BadRange):
            FiberBlock(2, make_analytic_warping("constant", (1.0,)), "line")

    def test_unknown_fiber_model(self):
        with pytest.raises(UnsupportedKind):
            FiberBlock(2, make_analytic_warping("constant", (1.0,)), "torus")

    def test_spec_counts_dimensions(self):
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                           "space_form", 1.0),
                FiberBlock(3, make_analytic_warping("constant", (2.0,)),
                           "space_form", 0.5),
            ),
            domain=(0.0, 1.0),
        )
        assert spec.n == 6
        assert spec.block_offsets() == (1, 3)
        assert spec.grid_points == DEFAULT_GRID_POINTS

    def test_spec_rejects_empty_domain_and_tiny_grid(self):
        block = (FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                            "space_form", 1.0),)
        with pytest.raises(BadRange):
            WarpedProductSpec(block, domain=(1.0, 1.0))
        with pytest.raises(BadRange):
            WarpedProductSpec(block, domain=(0.0, 1.0), grid_points=8)

    @pytest.mark.parametrize("domain", [(0.0,), (0.0, 1.0, 2.0), ()])
    def test_domain_takes_exactly_two_numbers(self, domain):
        block = (FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                            "space_form", 1.0),)
        with pytest.raises(BadRange, match="domain must be two numbers"):
            WarpedProductSpec(block, domain=domain)

    def test_grid_is_bounded_before_anything_is_allocated(self):
        block = (FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                            "space_form", 1.0),)
        assert WarpedProductSpec(block, (0.0, 1.0), 2**18).grid_points == 2**18
        for grid in (2**18 + 1, 3 * 10**7, 10**13, 1e308):
            with pytest.raises(BadRange, match="at most 262144 points"):
                WarpedProductSpec(block, (0.0, 1.0), grid)

    def test_evaluation_grid_spans_the_domain_less_two_steps(self):
        block = (FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                            "space_form", 1.0),)
        spec = WarpedProductSpec(block, domain=(0.0, 1.0), grid_points=101)
        g = spec.evaluation_grid()
        assert g.size == 101
        assert math.isclose(g[0], 0.02)
        assert math.isclose(g[-1], 0.98)

    @pytest.mark.parametrize("grid", [9, 64, 257, 1024])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_evaluation_grid_ends_are_the_evaluation_domain(self, entry_by_name, name, grid):
        spec = dataclasses.replace(entry_by_name[name].spec, grid_points=grid)
        g = spec.evaluation_grid()
        lo, hi = spec.evaluation_domain
        assert g.shape == (grid,)
        assert g[0] == lo and g[-1] == hi
        assert np.all(np.diff(g) > 0.0)
        margin = GRID_MARGIN_STEPS * spec.step
        assert math.isclose(lo - spec.domain[0], margin) and math.isclose(spec.domain[1] - hi, margin)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda w: WarpedProductSpec((FiberBlock(3, w),), (0.0, 1.0), "64"), "grid"),
            (lambda w: WarpedProductSpec((FiberBlock(3, w),), (0.0, 1.0), True), "grid"),
            (lambda w: WarpedProductSpec((FiberBlock(3, w),), ("0.15", 1.0)), "domain start"),
            (lambda w: WarpedProductSpec((FiberBlock(3, w),), (0.0, False)), "domain end"),
            (lambda w: FiberBlock("4", w), "block dimension"),
            (lambda w: FiberBlock(3, w, "space_form", True), "curvature constant k"),
            (lambda w: FiberBlock(3, w, "space_form", "1.0"), "curvature constant k"),
        ],
    )
    def test_strings_and_booleans_are_not_numbers(self, build, field):
        w = make_analytic_warping("constant", (1.0,))
        with pytest.raises(BadRange, match=f"^{field} must be an? "):
            build(w)

    def test_spec_is_immutable(self):
        block = (FiberBlock(2, make_analytic_warping("constant", (1.0,)),
                            "space_form", 1.0),)
        spec = WarpedProductSpec(block, domain=(0.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.grid_points = 32

    def test_perturbed_lapse_adds_pointwise(self):
        f = make_lapse("linear", (1.0, 2.0))
        g = perturbed_lapse(f, PolynomialProfile((0.0, 0.0, 0.1)))
        s = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(g.value(s), f.value(s) + 0.1 * s**2)
        np.testing.assert_allclose(g.derivative(s, 2), f.derivative(s, 2) + 0.2)

    def test_rescaled_lapse(self):
        f = make_lapse("sin-cos", (1.0, 0.0, 2.0))
        g = f.rescaled(-0.5)
        s = np.array([0.3])
        np.testing.assert_allclose(g.value(s), -0.5 * f.value(s))
        with pytest.raises(ZeroScale):
            f.rescaled(0.0)

    def test_warpings_and_lapses_share_one_record(self):
        names = ["kind", "params", "profile"]
        for cls in (WarpingFunction, LapseFunction):
            assert [f.name for f in dataclasses.fields(cls)] == names
        assert not issubclass(LapseFunction, WarpingFunction)
        assert not hasattr(WarpingFunction, "rescaled")
        profile = PolynomialProfile((1.0,))
        w = WarpingFunction("constant", (1.0,), profile)
        assert w == WarpingFunction("constant", (1.0,), PolynomialProfile((2.0,)))
        assert hash(w) == hash(WarpingFunction("constant", (1.0,), profile))
        assert w != LapseFunction("constant", (1.0,), profile)
        assert repr(w) == "WarpingFunction(kind='constant', params=(1.0,))"
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.kind = "linear"

    def test_derivative_order_is_the_profile_order(self):
        assert make_lapse("poly", (1.0, 2.0)).profile.max_order == 8
        assert make_analytic_warping("sin-scaled", (1.0, 1.0)).profile.max_order == 8
        assert make_lapse("sampled", (0.0, 0.1, *[1.0] * 9)).profile.max_order == 4


# ---------------------------------------------------------------------------
# The kind table, checked through documents
# ---------------------------------------------------------------------------


# The parameter counts each (role, kind) accepts, written out here apart from
# warped_geometry's table: (fewest, most), with most None when unbounded.
COUNTS = {
    ("warping", "constant"): (1, 1),
    ("warping", "linear"): (2, 2),
    ("warping", "sin-scaled"): (2, 3),
    ("warping", "cos-scaled"): (2, 3),
    ("warping", "sinh-scaled"): (2, 3),
    ("warping", "cosh-scaled"): (2, 3),
    ("warping", "sampled"): (3, None),
    ("warping", "ode-backed"): (5, 6),
    ("lapse", "constant"): (1, 1),
    ("lapse", "linear"): (2, 2),
    ("lapse", "poly"): (1, None),
    ("lapse", "sin-cos"): (3, 4),
    ("lapse", "sinh-cosh"): (3, 4),
    ("lapse", "sampled"): (3, None),
    ("lapse", "derived"): (1, 2),
}


def params_for(kind, count):
    """count parameters of kind that build on good_doc()'s domain [0.1, 2.0]."""
    base = {
        "sampled": [0.0, 0.25] + [1.0 + 0.1 * i for i in range(max(count - 2, 0))],
        "ode-backed": [3, 1.0, 1.0, 1.3, 0.0, 0.01],
        "derived": [2.0, 0],
    }.get(kind, [1.0, 0.5, 0.25, 0.125])
    return (base + [0.5] * count)[:count]


def doc_with(role, kind, params):
    doc = good_doc()
    target = doc["blocks"][0]["warping"] if role == "warping" else doc["lapse"]
    target.update(kind=kind, params=params)
    return doc


def built(role, kind, params):
    spec, lapse = load_problem(doc_with(role, kind, params))
    return spec.blocks[0].warping if role == "warping" else lapse


def accepted_counts(role, kind):
    fewest, most = COUNTS[role, kind]
    if kind == "sampled":
        fewest = 11  # SampledProfile itself needs nine samples
    return range(fewest, (most or fewest + 2) + 1)


class TestKindTable:
    def test_kind_sets(self):
        assert WARPING_KINDS == {k for role, k in COUNTS if role == "warping"}
        assert LAPSE_KINDS == {k for role, k in COUNTS if role == "lapse"}

    @pytest.mark.parametrize("role, kind", list(COUNTS))
    def test_every_accepted_count_builds(self, role, kind):
        for count in accepted_counts(role, kind):
            fn = built(role, kind, params_for(kind, count))
            assert fn.kind == kind
            assert np.isfinite(fn.value(1.0))
            if kind != "derived":
                assert fn.params == tuple(float(p) for p in params_for(kind, count))

    @pytest.mark.parametrize("role, kind", list(COUNTS))
    def test_counts_beyond_the_range_are_refused(self, role, kind):
        fewest, most = COUNTS[role, kind]
        for count in [fewest - 1] + ([most + 1] if most else []):
            with pytest.raises(BadRange, match="parameters"):
                built(role, kind, params_for(kind, count))

    @pytest.mark.parametrize("role, kind", list(COUNTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_parameters_are_refused(self, role, kind, bad):
        params = params_for(kind, accepted_counts(role, kind)[0])
        for i in range(len(params)):
            with pytest.raises(BadRange, match=f"parameter {i} is .*finite"):
                built(role, kind, params[:i] + [bad] + params[i + 1:])

    @pytest.mark.parametrize("role", ["warping", "lapse"])
    def test_sampled_kinds_need_nine_samples(self, role):
        for count in range(3, 11):
            with pytest.raises(TooFewSamples):
                built(role, "sampled", params_for("sampled", count))

    @pytest.mark.parametrize(
        "role, kind",
        [("lapse", k) for k in sorted(WARPING_KINDS - LAPSE_KINDS)]
        + [("warping", k) for k in sorted(LAPSE_KINDS - WARPING_KINDS)],
    )
    def test_kinds_of_the_other_role_are_refused(self, role, kind):
        other = "lapse" if role == "warping" else "warping"
        fewest, _ = COUNTS[other, kind]
        with pytest.raises(UnsupportedKind):
            built(role, kind, params_for(kind, fewest))

    def test_builders_refuse_kinds_they_cannot_build(self):
        with pytest.raises(UnsupportedKind):
            make_lapse("sin-scaled", (1.0, 1.0))
        with pytest.raises(UnsupportedKind):
            make_lapse("derived", (1.0,))
        with pytest.raises(UnsupportedKind):
            make_analytic_warping("sin-cos", (1.0, 1.0, 1.0))
        with pytest.raises(UnsupportedKind):
            make_analytic_warping("ode-backed", (3, 1.0, 1.0, 1.3, 0.0))
        with pytest.raises(UnsupportedKind):
            make_analytic_warping("sampled", (0.0, 0.1, *[1.0] * 9))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_positive_spec_is_ok(self):
        spec = WarpedProductSpec(
            blocks=(FiberBlock(3, make_analytic_warping("cosh-scaled", (1.0, 1.0)),
                               "space_form", 1.0),),
            domain=(-1.0, 1.0),
        )
        report = validate_spec(spec)
        assert report.ok
        assert report.violations == ()

    def test_sign_change_is_flagged_with_grid_index(self):
        # sin s goes negative past pi, inside this domain.
        spec = WarpedProductSpec(
            blocks=(FiberBlock(3, make_analytic_warping("sin-scaled", (1.0, 1.0)),
                               "space_form", 1.0),),
            domain=(0.2, 4.0),
            grid_points=128,
        )
        report = validate_spec(spec)
        assert not report.ok
        names = {v[1] for v in report.violations}
        assert names == {"block[0].positivity"}
        assert all(v[0] >= 0 for v in report.violations)

    def test_total_dimension_guard(self):
        spec = WarpedProductSpec(
            blocks=(FiberBlock(1, make_analytic_warping("constant", (1.0,)),),),
            domain=(0.0, 1.0),
        )
        report = validate_spec(spec)
        assert not report.ok
        assert ("total_dim" in {v[1] for v in report.violations})

    def test_dimension_zero_block_is_flagged(self):
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(3, make_analytic_warping("cosh-scaled", (1.0, 1.0)), "space_form", 1.0),
                FiberBlock(0, make_analytic_warping("constant", (1.0,))),
            ),
            domain=(-1.0, 1.0),
        )
        assert validate_spec(spec).violations == ((-1, "block[1].dim", 0.0),)

    def test_short_sampled_warping_is_flagged_as_uncovered(self):
        # The samples reach s = 0.5 of the domain [0, 1]; the library keeps NaN.
        warping = make_sampled_warping(0.0, 1.0 / 64, 1.0 + np.linspace(0.0, 0.5, 33))
        spec = WarpedProductSpec(
            blocks=(FiberBlock(3, warping, "space_form", 1.0),), domain=(0.0, 1.0)
        )
        ((index, name, value),) = validate_spec(spec).violations
        assert (index, name) == (-1, "block[0].coverage") and math.isnan(value)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def good_doc():
    return {
        "n": 4,
        "domain": [0.1, 2.0],
        "grid": 64,
        "blocks": [
            {
                "dim": 3,
                "warping": {"kind": "cos-scaled", "params": [2.0, 0.5]},
                "model": "space_form",
                "k": 1.0,
            }
        ],
        "lapse": {"kind": "linear", "params": [1.0, 0.25]},
    }


# Each document shape or type the wire format refuses, and the words that name its field.
MALFORMED_SHAPES = {
    "blocks object": (lambda d: d.__setitem__("blocks", {"a": 1}), "blocks must be a list"),
    "block string": (lambda d: d["blocks"].__setitem__(0, "x"), "block 0 must be an object"),
    "warping string": (
        lambda d: d["blocks"][0].__setitem__("warping", "x"), "block 0 warping must be an object"
    ),
    "warping list": (
        lambda d: d["blocks"][0].__setitem__("warping", [1.0]),
        "block 0 warping must be an object",
    ),
    "lapse null": (lambda d: d.__setitem__("lapse", None), "lapse must be an object"),
    "one-element domain": (
        lambda d: d.__setitem__("domain", [1.0]), "domain must be two numbers"
    ),
    "string n": (lambda d: d.update(n="4"), "n must be a number, got '4'"),
    "string parameter": (
        lambda d: d["blocks"][0]["warping"]["params"].__setitem__(1, "0.5"),
        "cos-scaled warping parameter 1 must be a number, got '0.5'",
    ),
    "boolean parameter": (
        lambda d: d["lapse"]["params"].__setitem__(0, True),
        "linear lapse parameter 0 must be a number, got True",
    ),
    "boolean block index": (
        lambda d: d["lapse"].update(kind="derived", params=[1.0, False]),
        "derived lapse parameter 1 must be a number, got False",
    ),
    "string of samples": (
        lambda d: d["blocks"][0]["warping"].update(kind="sampled", params="0.1"),
        "sampled warping params must be a list, got str",
    ),
}


class TestWireFormat:
    def test_load_problem_roundtrip(self):
        spec, lapse = load_problem(good_doc())
        assert spec.n == 4
        assert spec.grid_points == 64
        assert spec.blocks[0].k == 1.0
        s = np.array([0.5])
        np.testing.assert_allclose(
            spec.blocks[0].warping.value(s), 2 * np.cos(0.25), atol=1e-14
        )
        np.testing.assert_allclose(lapse.value(s), 1.125, atol=1e-14)

    def test_default_grid_used_when_absent(self):
        doc = good_doc()
        del doc["grid"]
        spec = spec_from_dict(doc, default_grid=256)
        assert spec.grid_points == 256
        spec = spec_from_dict(doc)
        assert spec.grid_points == DEFAULT_GRID_POINTS

    def test_pinned_grid_beats_default(self):
        spec = spec_from_dict(good_doc(), default_grid=999)
        assert spec.grid_points == 64

    def test_declared_dimension_must_match(self):
        doc = good_doc()
        doc["n"] = 7
        with pytest.raises(BadRange):
            spec_from_dict(doc)

    def test_unknown_warping_kind(self):
        doc = good_doc()
        doc["blocks"][0]["warping"]["kind"] = "bessel"
        with pytest.raises(UnsupportedKind):
            spec_from_dict(doc)

    def test_sampled_warping_needs_three_params(self):
        doc = good_doc()
        doc["blocks"][0]["warping"] = {"kind": "sampled", "params": [0.0, 0.1]}
        with pytest.raises(BadRange):
            spec_from_dict(doc)

    def test_ode_backed_param_count(self):
        doc = good_doc()
        doc["blocks"][0]["warping"] = {"kind": "ode-backed", "params": [4, 1.0]}
        with pytest.raises(BadRange):
            spec_from_dict(doc)

    def test_ode_backed_roundtrip(self):
        doc = good_doc()
        doc["blocks"][0]["warping"] = {
            "kind": "ode-backed",
            "params": [3, 1.0, 1.0, 1.3, 0.0],
        }
        spec = spec_from_dict(doc)
        h = spec.blocks[0].warping.value(np.array([0.1]))
        assert np.all(h > 0)

    def test_ode_backed_power_is_not_truncated(self):
        doc = good_doc()
        doc["blocks"][0]["warping"] = {
            "kind": "ode-backed",
            "params": [4.7, 1.0, 1.0, 1.3, 0.0],
        }
        with pytest.raises(BadRange, match="power"):
            spec_from_dict(doc)

    @pytest.mark.parametrize(
        "mangle, field",
        [
            (lambda d: d["blocks"][0].update(dim=3.7), "block dimension"),
            (lambda d: d.update(n=4.7), "n"),
            (lambda d: d.update(grid=300.9), "grid"),
            (lambda d: (d["blocks"][0].update(dim=3.7), d.update(n=4.7, grid=300.9)),
             "block dimension"),
        ],
    )
    def test_fractional_sizes_are_not_truncated(self, mangle, field):
        doc = good_doc()
        mangle(doc)
        with pytest.raises(BadRange, match=f"{field} must be an integer"):
            load_problem(doc)

    def test_integral_float_sizes_are_stored_as_ints(self):
        doc = good_doc()
        doc["blocks"][0]["dim"], doc["n"], doc["grid"] = 3.0, 4.0, 64.0
        spec, lapse = load_problem(doc)
        assert type(spec.blocks[0].dim) is int and spec.blocks[0].dim == 3
        assert type(spec.grid_points) is int and spec.grid_points == 64
        assert _problem_dict(spec, lapse) == _problem_dict(*load_problem(good_doc()))

    def test_derived_lapse_block_index_is_not_truncated(self):
        doc = good_doc()
        doc["lapse"] = {"kind": "derived", "params": [1.0, 0.5]}
        with pytest.raises(BadRange, match="block index"):
            load_problem(doc)

    def test_non_default_step_round_trips(self):
        w = integrate_warping(WarpingODEParams(3, 1.0, 1.0, 1.3, 0.0, (0.0, 1.0), 0.01))
        assert w.params == (3.0, 1.0, 1.0, 1.3, 0.0, 0.01)
        spec = WarpedProductSpec((FiberBlock(3, w, "space_form", 1.0),), (0.0, 1.0), 64)
        doc = json.loads(json.dumps(_problem_dict(spec, lapse_from_warping(w, 1.0))))
        again, lapse = load_problem(doc)
        back = again.blocks[0].warping
        assert back.params == w.params
        assert back.profile.h_nodes.size == 101
        np.testing.assert_array_equal(back.profile.h_nodes, w.profile.h_nodes)
        np.testing.assert_array_equal(back.profile.hp_nodes, w.profile.hp_nodes)
        assert _problem_dict(again, lapse) == doc

    @pytest.mark.parametrize("step", [None, 1.0 / DEFAULT_STEPS])
    def test_default_step_is_not_written(self, step):
        w = integrate_warping(WarpingODEParams(3, 1.0, 1.0, 1.3, 0.0, (0.0, 1.0), step))
        assert w.params == (3.0, 1.0, 1.0, 1.3, 0.0)

    def test_derived_lapse_round_trips_to_its_block(self):
        doc = good_doc()
        doc["n"] = 5
        doc["blocks"].append(
            {"dim": 1, "warping": {"kind": "sinh-scaled", "params": [1.0, 1.0]},
             "model": "line", "k": 0.0}
        )
        doc["lapse"] = {"kind": "derived", "params": [2.0, 1.0]}
        spec, lapse = load_problem(doc)
        s = np.array([0.5, 1.5])
        np.testing.assert_allclose(lapse.value(s), 2.0 * np.cosh(s), rtol=1e-14)
        assert _problem_dict(spec, lapse) == doc
        doc["lapse"]["params"] = [2.0, 0.0]
        assert _problem_dict(*load_problem(doc))["lapse"]["params"] == [2.0]

    def test_derived_lapse_block_index_checked(self):
        doc = good_doc()
        doc["lapse"] = {"kind": "derived", "params": [1.0, 3]}
        with pytest.raises(BadRange):
            load_problem(doc)

    @pytest.mark.parametrize("case", list(MALFORMED_SHAPES))
    def test_malformed_shapes_name_their_field(self, case):
        mangle, field = MALFORMED_SHAPES[case]
        doc = good_doc()
        mangle(doc)
        with pytest.raises(BadRange, match=field):
            load_problem(doc)

    def test_missing_lapse_key(self):
        doc = good_doc()
        del doc["lapse"]
        with pytest.raises(KeyError):
            load_problem(doc)


# ---------------------------------------------------------------------------
# Rescaled and perturbed lapses as documents
# ---------------------------------------------------------------------------


def doc_lapse(kind, params):
    """good_doc's spec with the given lapse, loaded."""
    doc = good_doc()
    doc["lapse"] = {"kind": kind, "params": list(params)}
    return load_problem(doc)


# The lapse kinds of the ten catalog entries, the derived one on a block other
# than the first, and the remaining closed-form and sampled kinds.
RESCALE_CASES = [*CATALOG_NAMES, "derived-block-1", "constant", "poly", "sampled"]


def rescale_case(entry_by_name, case):
    if case in entry_by_name:
        e = entry_by_name[case]
        return e.spec, e.lapse
    if case == "derived-block-1":
        doc = good_doc()
        doc["n"] = 5
        doc["blocks"].append(
            {"dim": 1, "warping": {"kind": "sinh-scaled", "params": [1.0, 1.0]},
             "model": "line", "k": 0.0}
        )
        doc["lapse"] = {"kind": "derived", "params": [2.0, 1.0]}
        return load_problem(doc)
    if case == "sampled":
        s = np.linspace(0.0, 2.1, 211)
        return doc_lapse("sampled", (0.0, 0.01, *(1.5 + np.sin(3.0 * s))))
    return doc_lapse(case, {"constant": (1.5,), "poly": (1.0, -0.5, 0.25)}[case])


class TestRescaledLapse:
    @pytest.mark.parametrize("case", RESCALE_CASES)
    def test_rescaled_is_a_different_lapse(self, entry_by_name, case):
        _, f = rescale_case(entry_by_name, case)
        for c in (2.0, -0.5):
            g = f.rescaled(c)
            assert g != f
            assert g == f.rescaled(c)
            assert g.kind == f.kind
            assert g.profile.max_order == f.profile.max_order

    @pytest.mark.parametrize("case", RESCALE_CASES)
    def test_rescaled_document_reloads_as_the_scaled_lapse(self, entry_by_name, case):
        spec, f = rescale_case(entry_by_name, case)
        s = spec.evaluation_grid()
        for c in (2.0, -0.5):
            g = f.rescaled(c)
            doc = json.loads(json.dumps(_problem_dict(spec, g)))
            again, back = load_problem(doc)
            assert back == g
            assert _problem_dict(again, back) == doc
            for order in range(3):
                want = c * np.asarray(f.derivative(s, order))
                atol = 1e-14 * float(np.max(np.abs(want)))
                for got in (g.derivative(s, order), back.derivative(s, order)):
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=atol)

    def test_rescaled_scales_only_the_amplitudes(self):
        _, f = doc_lapse("sin-cos", (0.5, 1.0, 2.0, 0.25))
        assert f.rescaled(-2.0).params == (-1.0, -2.0, 2.0, 0.25)
        _, f = doc_lapse("sampled", (0.0, 0.5, *range(1, 10)))
        assert f.rescaled(3.0).params == (0.0, 0.5, *(3.0 * v for v in range(1, 10)))

    def test_perturbed_lapse_has_no_document(self):
        spec, f = doc_lapse("linear", (1.0, 0.25))
        bumped = perturbed_lapse(f, PolynomialProfile((0.0, 0.0, 0.1)))
        assert bumped == f
        for lapse in (bumped, bumped.rescaled(2.0)):
            with pytest.raises(BadRange, match="no document"):
                _problem_dict(spec, lapse)
        s = np.array([0.5, 1.5])
        np.testing.assert_allclose(
            bumped.rescaled(2.0).value(s), 2.0 * (f.value(s) + 0.1 * s**2), rtol=1e-15
        )
