"""Curvature operations against two independent oracle layers.

Layer 1 (sympy): coordinate-level curvature of a doubly warped 4-metric,
computed from Christoffel symbols with no frame shortcuts; the engine's
collapsed classes must reproduce it after frame normalization.

Layer 2 (index loops): the tensor-tower formulas evaluated densely with
explicit Python loops, fed by the engine's already-validated Riemann and
Ricci output.

Layer 4 (dense oracles): materialization by index loops and both
divergences as literal einsums, against the engine's index tables and
batched matrix products.
"""

import numpy as np
import pytest

import staticgeo.curvature_engine as ce
from staticgeo import cli
from staticgeo.catalog import CATALOG_NAMES
from staticgeo.errors import (
    BadRange,
    DerivativeOrderUnavailable,
    InsufficientFiberData,
    OutOfDomain,
)
from staticgeo.ode_solver import OdeBackedProfile, WarpingODEParams
from staticgeo.profiles import PolynomialProfile, SampledProfile
from staticgeo.static_verifier import (
    check_lemma41,
    classify,
    identity_db,
    identity_dcw,
    static_pointwise,
    static_residual,
    verify_pair,
)
from staticgeo.warped_geometry import (
    GRID_MARGIN_STEPS,
    FiberBlock,
    LapseFunction,
    WarpedProductSpec,
    WarpingFunction,
    make_analytic_warping,
)

from oracle_tools import (
    coordinate_model,
    einsum_three_tensor_divergence,
    einsum_weyl_divergence,
    frame_normalize,
    loop_bach,
    loop_cotton,
    loop_d_tensor,
    loop_connection,
    loop_div_ricci,
    loop_materialize_full,
    loop_schouten,
    loop_three_divergence,
    loop_weyl,
    reference_lapse,
    reference_spec,
)

SAMPLE_POINTS = np.array([0.37, 0.9, 1.41])
TH = 1.1


def dense_ricci(spec, s):
    return ce.materialize_full(ce.ricci_spectrum(spec, s), spec)


def schouten_prime(spec, s):
    """Exact s-derivative of the dense Schouten tensor."""
    n = spec.n
    d = ce.eigenvalue_derivatives(spec, s, order=1)
    shift = d.scalar[1] / (2.0 * (n - 1.0))
    diag = ce.DiagonalTwoTensor(d.lambda_1[1] - shift, d.lambda_block[1] - shift)
    return ce.materialize_full(diag, spec)


# ---------------------------------------------------------------------------
# Layer 1: coordinate oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return coordinate_model()


@pytest.fixture(scope="module")
def spec4():
    return reference_spec(4)


@pytest.fixture(scope="module")
def spec5():
    return reference_spec(5)


class TestCoordinateOracle:
    def test_metric_diagonal_matches(self, model, spec4):
        for sv in SAMPLE_POINTS:
            md = model["metric_diag"](sv, TH)
            h1 = spec4.blocks[0].warping.value(sv)
            h2 = spec4.blocks[1].warping.value(sv)
            np.testing.assert_allclose(
                md, [1.0, h1**2, h1**2 * np.sin(TH) ** 2, h2**2], rtol=1e-14
            )

    def test_ricci_spectrum_matches_coordinates(self, model, spec4):
        r = ce.ricci_spectrum(spec4, SAMPLE_POINTS)
        for i, sv in enumerate(SAMPLE_POINTS):
            md = model["metric_diag"](sv, TH)
            ric = frame_normalize(model["ricci"](sv, TH), md)
            off = ric - np.diag(np.diag(ric))
            assert np.max(np.abs(off)) < 1e-12
            assert abs(r.lambda_1[i] - ric[0, 0]) < 1e-12
            assert abs(r.lambda_block[0, i] - ric[1, 1]) < 1e-12
            assert abs(r.lambda_block[0, i] - ric[2, 2]) < 1e-12
            assert abs(r.lambda_block[1, i] - ric[3, 3]) < 1e-12

    def test_scalar_matches_coordinates(self, model, spec4):
        scal = ce.scalar_profile(spec4, SAMPLE_POINTS)
        for i, sv in enumerate(SAMPLE_POINTS):
            assert abs(scal[i] - model["scalar"](sv, TH)) < 1e-12

    def test_riemann_dense_matches_coordinates(self, model, spec4):
        riem = ce.materialize_full(ce.riemann_classes(spec4, SAMPLE_POINTS), spec4)
        for i, sv in enumerate(SAMPLE_POINTS):
            md = model["metric_diag"](sv, TH)
            expected = frame_normalize(model["riemann"](sv, TH), md)
            assert np.max(np.abs(riem[i] - expected)) < 1e-12

    def test_schouten_matches_coordinates(self, model, spec4):
        A = ce.materialize_full(ce.schouten_spectrum(spec4, SAMPLE_POINTS), spec4)
        for i, sv in enumerate(SAMPLE_POINTS):
            md = model["metric_diag"](sv, TH)
            ric = frame_normalize(model["ricci"](sv, TH), md)
            expected = ric - model["scalar"](sv, TH) / 6.0 * np.eye(4)
            assert np.max(np.abs(A[i] - expected)) < 1e-12

    def test_cotton_matches_coordinates(self, model, spec4):
        C = ce.materialize_full(ce.cotton_classes(spec4, SAMPLE_POINTS), spec4)
        for i, sv in enumerate(SAMPLE_POINTS):
            md = model["metric_diag"](sv, TH)
            expected = frame_normalize(model["cotton"](sv, TH), md)
            assert np.max(np.abs(C[i] - expected)) < 1e-12
        # The comparison must not be vacuous.
        assert np.max(np.abs(C)) > 1e-3


# ---------------------------------------------------------------------------
# Layer 2: index-loop oracles at n = 4 and n = 5
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[4, 5])
def loop_setup(request):
    """Dense engine quantities at a few points, for the loop comparisons."""
    n = request.param
    spec = reference_spec(n)
    f = reference_lapse()
    s = SAMPLE_POINTS
    der = ce.eigenvalue_derivatives(spec, s, order=1)
    return {
        "n": n,
        "spec": spec,
        "f": f,
        "s": s,
        "ric": dense_ricci(spec, s),
        "scal": der.scalar[0],
        "riem": ce.materialize_full(ce.riemann_classes(spec, s), spec),
        "A": ce.materialize_full(ce.schouten_spectrum(spec, s), spec),
        "A_prime": schouten_prime(spec, s),
        "W": ce.materialize_full(ce.weyl_classes(spec, s), spec),
        "C": ce.materialize_full(ce.cotton_classes(spec, s), spec),
        "D": ce.materialize_full(ce.d_tensor_classes(spec, f, s), spec),
        "B": ce.materialize_full(ce.bach_spectrum(spec, s), spec),
        "G": ce.frame_connection(spec, s),
        "der": der,
    }


class TestLoopOracles:
    def test_schouten_loops(self, loop_setup):
        st = loop_setup
        for i in range(len(st["s"])):
            expected = loop_schouten(st["ric"][i], st["scal"][i], st["n"])
            assert np.max(np.abs(st["A"][i] - expected)) < 1e-12

    def test_weyl_loops(self, loop_setup):
        st = loop_setup
        for i in range(len(st["s"])):
            expected = loop_weyl(st["riem"][i], st["A"][i], st["n"])
            assert np.max(np.abs(st["W"][i] - expected)) < 1e-12

    def test_cotton_loops(self, loop_setup):
        st = loop_setup
        for i in range(len(st["s"])):
            expected = loop_cotton(st["A"][i], st["A_prime"][i], st["G"][i])
            assert np.max(np.abs(st["C"][i] - expected)) < 1e-12

    def test_d_tensor_loops(self, loop_setup):
        st = loop_setup
        fp = st["f"].derivative(st["s"], 1)
        for i in range(len(st["s"])):
            grad_f = np.zeros(st["n"])
            grad_f[0] = fp[i]
            expected = loop_d_tensor(st["ric"][i], st["scal"][i], grad_f, st["n"])
            assert np.max(np.abs(st["D"][i] - expected)) < 1e-12

    def test_bach_loops_with_fd_cotton(self, loop_setup):
        st = loop_setup
        spec = st["spec"]
        delta = 1e-5
        for i, sv in enumerate(st["s"]):
            up = ce.materialize_full(
                ce.cotton_classes(spec, np.array([sv + delta])), spec
            )[0]
            dn = ce.materialize_full(
                ce.cotton_classes(spec, np.array([sv - delta])), spec
            )[0]
            c_prime = (up - dn) / (2.0 * delta)
            expected = loop_bach(
                st["C"][i], c_prime, st["ric"][i], st["W"][i], st["G"][i], st["n"]
            )
            assert np.max(np.abs(st["B"][i] - expected)) < 1e-8

    def test_three_divergence_loops(self, loop_setup):
        st = loop_setup
        spec, f = st["spec"], st["f"]
        d_der = ce.d_tensor_derivatives(spec, f, st["s"], order=1)
        Dp = ce.materialize_full(ce.MixedThreeTensor(d_der[1]), spec)
        div_engine = ce.dense_three_tensor_divergence(st["D"], Dp, st["G"])
        for i in range(len(st["s"])):
            expected = loop_three_divergence(st["D"][i], Dp[i], st["G"][i])
            assert np.max(np.abs(div_engine[i] - expected)) < 1e-12

    def test_contracted_bianchi_loops(self, loop_setup):
        # div Ric = dR/2, with exact eigenvalue derivatives feeding the loop.
        st = loop_setup
        der = st["der"]
        diag_prime = ce.DiagonalTwoTensor(der.lambda_1[1], der.lambda_block[1])
        ric_prime = ce.materialize_full(diag_prime, st["spec"])
        for i in range(len(st["s"])):
            div = loop_div_ricci(st["ric"][i], ric_prime[i], st["G"][i])
            target = np.zeros(st["n"])
            target[0] = der.scalar[1][i] / 2.0
            assert np.max(np.abs(div - target)) < 1e-12

    def test_cotton_against_weyl_divergence_route(self, loop_setup):
        st = loop_setup
        direct = ce.cotton_classes(st["spec"], st["s"]).value_block
        recovered = ce.cotton_from_weyl_divergence(st["spec"], st["s"]).value_block
        assert np.max(np.abs(direct - recovered)) < 1e-8


# ---------------------------------------------------------------------------
# Structure of the dense materialization
# ---------------------------------------------------------------------------


class TestDenseStructure:
    def test_riemann_contracts_to_ricci(self, spec5):
        riem = ce.materialize_full(ce.riemann_classes(spec5, SAMPLE_POINTS), spec5)
        ric = np.einsum("...ikjk->...ij", riem)
        expected = dense_ricci(spec5, SAMPLE_POINTS)
        assert np.max(np.abs(ric - expected)) < 1e-12

    def test_first_bianchi_exact(self, spec5):
        riem = ce.materialize_full(ce.riemann_classes(spec5, SAMPLE_POINTS), spec5)
        cyc = (
            riem
            + np.transpose(riem, (0, 1, 3, 4, 2))
            + np.transpose(riem, (0, 1, 4, 2, 3))
        )
        assert np.all(cyc == 0.0)

    def test_riemann_pair_symmetries(self, spec5):
        riem = ce.materialize_full(ce.riemann_classes(spec5, SAMPLE_POINTS), spec5)
        assert np.all(riem == np.transpose(riem, (0, 3, 4, 1, 2)))
        assert np.all(riem == -np.transpose(riem, (0, 2, 1, 3, 4)))
        assert np.all(riem == -np.transpose(riem, (0, 1, 2, 4, 3)))

    def test_weyl_traces_vanish(self, spec5):
        W = ce.materialize_full(ce.weyl_classes(spec5, SAMPLE_POINTS), spec5)
        assert np.max(np.abs(np.einsum("...ijik->...jk", W))) < 1e-12
        assert np.max(np.abs(np.einsum("...ijki->...jk", W))) < 1e-12
        assert np.max(np.abs(np.einsum("...iijk->...jk", W))) < 1e-12

    def test_mixed_tensor_sparsity(self, spec5):
        f = reference_lapse()
        vals = ce.d_tensor_classes(spec5, f, SAMPLE_POINTS)
        D = ce.materialize_full(vals, spec5)
        offs = spec5.block_offsets()
        mask = np.zeros(D.shape[1:], dtype=bool)
        for j, b in enumerate(spec5.blocks):
            for a in range(offs[j], offs[j] + b.dim):
                mask[a, 0, a] = mask[a, a, 0] = True
                np.testing.assert_allclose(D[:, a, 0, a], vals.value_block[j])
                np.testing.assert_allclose(D[:, a, a, 0], -vals.value_block[j])
        assert np.all(D[:, ~mask] == 0.0)

    def test_xi_profile_closed_form(self, spec5):
        xi = ce.xi_profile(spec5, SAMPLE_POINTS)
        s = SAMPLE_POINTS
        np.testing.assert_allclose(
            xi[0], 0.5 * np.cos(s) / (2.0 + 0.5 * np.sin(s)), atol=1e-14
        )
        np.testing.assert_allclose(xi[1], 0.25 * s / (1.0 + s**2 / 8.0), atol=1e-14)
        np.testing.assert_allclose(xi[2], 0.5 * np.tanh(0.5 * s), atol=1e-14)

    def test_eigenvalue_derivatives_match_fd(self, spec5):
        der = ce.eigenvalue_derivatives(spec5, SAMPLE_POINTS, order=1)
        delta = 1e-6
        up = ce.ricci_spectrum(spec5, SAMPLE_POINTS + delta)
        dn = ce.ricci_spectrum(spec5, SAMPLE_POINTS - delta)
        np.testing.assert_allclose(
            der.lambda_1[1], (up.lambda_1 - dn.lambda_1) / (2 * delta), atol=1e-7
        )
        np.testing.assert_allclose(
            der.lambda_block[1],
            (up.lambda_block - dn.lambda_block) / (2 * delta),
            atol=1e-7,
        )
        np.testing.assert_allclose(
            der.scalar[1], (up.scalar - dn.scalar) / (2 * delta), atol=1e-7
        )

    def test_d_tensor_derivatives_match_fd(self, spec5):
        f = reference_lapse()
        der = ce.d_tensor_derivatives(spec5, f, SAMPLE_POINTS, order=1)
        delta = 1e-6
        up = ce.d_tensor_classes(spec5, f, SAMPLE_POINTS + delta).value_block
        dn = ce.d_tensor_classes(spec5, f, SAMPLE_POINTS - delta).value_block
        np.testing.assert_allclose(der[0], up / 2 + dn / 2, atol=1e-10)
        np.testing.assert_allclose(der[1], (up - dn) / (2 * delta), atol=1e-7)

    def test_sampled_warping_feeds_the_engine(self):
        # The same geometry through a sampled profile stays close to the
        # analytic route.
        analytic = reference_spec(4)
        grid = np.linspace(-0.5, 2.3, 561)
        step = grid[1] - grid[0]
        h1_prof = analytic.blocks[0].warping
        h1 = SampledProfile(grid[0], step, h1_prof.value(grid))
        h2 = SampledProfile(grid[0], step, analytic.blocks[1].warping.value(grid))
        sampled_spec = WarpedProductSpec(
            blocks=(
                FiberBlock(2, WarpingFunction("sampled", (), 4, h1),
                           "space_form", 1.0),
                FiberBlock(1, WarpingFunction("sampled", (), 4, h2)),
            ),
            domain=analytic.domain,
            grid_points=64,
        )
        got = ce.ricci_spectrum(sampled_spec, SAMPLE_POINTS)
        want = ce.ricci_spectrum(analytic, SAMPLE_POINTS)
        np.testing.assert_allclose(got.lambda_1, want.lambda_1, atol=1e-6)
        np.testing.assert_allclose(got.lambda_block, want.lambda_block, atol=1e-6)
        np.testing.assert_allclose(got.scalar, want.scalar, atol=1e-6)


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Layer 4: index tables and matrix products against loops and einsums

# Every class operation, by the kind of class it returns.
CLASS_OPERATIONS = {
    "riemann_classes": lambda spec, lapse, s: ce.riemann_classes(spec, s),
    "weyl_classes": lambda spec, lapse, s: ce.weyl_classes(spec, s),
    "ricci_spectrum": lambda spec, lapse, s: ce.ricci_spectrum(spec, s),
    "schouten_spectrum": lambda spec, lapse, s: ce.schouten_spectrum(spec, s),
    "bach_spectrum": lambda spec, lapse, s: ce.bach_spectrum(spec, s),
    "cotton_classes": lambda spec, lapse, s: ce.cotton_classes(spec, s),
    "d_tensor_classes": ce.d_tensor_classes,
}


def same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def divergence_scale(T, T_prime, G):
    """Size of the largest term a divergence adds up."""
    return float(np.max(np.abs(T)) * np.max(np.abs(G)) + np.max(np.abs(T_prime)))


def grid_and_point(spec):
    s = spec.evaluation_grid()
    return [s, s[s.size // 3]]


class TestDenseOracles:
    @pytest.mark.parametrize("op", list(CLASS_OPERATIONS))
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_materialize_full_is_the_loop(self, entry_by_name, name, op):
        e = entry_by_name[name]
        for s in grid_and_point(e.spec):
            classes = CLASS_OPERATIONS[op](e.spec, e.lapse, s)
            want = loop_materialize_full(classes, e.spec)
            same_bits(ce.materialize_full(classes, e.spec), want)
            if isinstance(classes, ce.RiemannClasses):
                same_bits(ce._first_slot(classes, e.spec), want[..., 0, :, :, :])

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_frame_connection_is_the_loop(self, entry_by_name, name):
        spec = entry_by_name[name].spec
        for s in grid_and_point(spec):
            want = loop_connection(spec, ce.xi_profile(spec, s))
            same_bits(ce.frame_connection(spec, s), want)

    def test_abstract_fiber_refused_by_both(self):
        spec = TestEngineErrors().abstract_spec(3)
        zeros = ce.RiemannClasses(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1, 2)))
        for materialize in (ce.materialize_full, loop_materialize_full, ce._first_slot):
            with pytest.raises(InsufficientFiberData):
                materialize(zeros, spec)

    @pytest.mark.parametrize("grid", [(), (1,), (7,), (2, 5)])
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_divergences_on_random_tensors(self, n, grid):
        rng = np.random.default_rng(1000 * n + len(grid))
        C, Cp, G = (rng.standard_normal(grid + (n, n, n)) for _ in range(3))
        got = ce.dense_three_tensor_divergence(C, Cp, G)
        want = einsum_three_tensor_divergence(C, Cp, G)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * divergence_scale(C, Cp, G)
        W, Wp = (rng.standard_normal(grid + (n, n, n, n)) for _ in range(2))
        got = ce.dense_weyl_divergence(W, Wp, G)
        want = einsum_weyl_divergence(W, Wp, G)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * divergence_scale(W, Wp, G)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_divergences_on_catalog_data(self, entry_by_name, name):
        e = entry_by_name[name]
        spec = e.spec
        s = spec.evaluation_grid()
        G = ce.frame_connection(spec, s)
        d_der = ce.d_tensor_derivatives(spec, e.lapse, s, order=1)
        D, Dp = (ce.materialize_full(ce.MixedThreeTensor(row), spec) for row in d_der)
        got = ce.dense_three_tensor_divergence(D, Dp, G)
        want = einsum_three_tensor_divergence(D, Dp, G)
        assert np.max(np.abs(got - want)) <= 1e-12 * divergence_scale(D, Dp, G)
        W = ce.materialize_full(ce.weyl_classes(spec, s), spec)
        # W' enters only additively, so any tensor of W's shape serves.
        Wp = W * ce.scalar_profile(spec, s)[:, None, None, None, None]
        got = ce.dense_weyl_divergence(W, Wp, G)
        want = einsum_weyl_divergence(W, Wp, G)
        assert np.max(np.abs(got - want)) <= 1e-12 * divergence_scale(W, Wp, G)


def grid_last_outputs(spec, lapse, s):
    """Every public curvature operation at s, each array with the grid axes last."""
    last = tuple(range(-np.ndim(s), 0))

    def grid_last(dense):
        return np.moveaxis(dense, tuple(range(np.ndim(s))), last)

    out = {"xi_profile": ce.xi_profile(spec, s), "scalar_profile": ce.scalar_profile(spec, s)}
    for op, run in CLASS_OPERATIONS.items():
        classes = run(spec, lapse, s)
        out.update({f"{op}.{k}": v for k, v in vars(classes).items()})
        out[f"{op} dense"] = grid_last(ce.materialize_full(classes, spec))
    out.update(vars(ce.eigenvalue_derivatives(spec, s, order=2)))
    out["d_tensor_derivatives"] = ce.d_tensor_derivatives(spec, lapse, s, order=2)
    out["cotton_from_weyl_divergence"] = ce.cotton_from_weyl_divergence(spec, s).value_block
    G = ce.frame_connection(spec, s)
    C = ce.materialize_full(ce.cotton_classes(spec, s), spec)
    W = ce.materialize_full(ce.weyl_classes(spec, s), spec)
    out["frame_connection"] = grid_last(G)
    out["dense_three_tensor_divergence"] = grid_last(ce.dense_three_tensor_divergence(C, C, G))
    out["dense_weyl_divergence"] = grid_last(ce.dense_weyl_divergence(W, W, G))
    return out


@pytest.mark.parametrize("name", ["round_sphere", "type_ii", "type_iv"])
def test_every_operation_on_every_grid_shape(entry_by_name, name):
    # A scalar, a (2, 3) grid and an empty grid give the 1-d grid's values
    # at the same points, in the shape of s.
    e = entry_by_name[name]
    points = e.spec.evaluation_grid()[:6]
    want = grid_last_outputs(e.spec, e.lapse, points)
    for s in (float(points[2]), points.reshape(2, 3), points[:0]):
        got = grid_last_outputs(e.spec, e.lapse, s)
        assert got.keys() == want.keys()
        for key, values in want.items():
            if np.ndim(s) == 0:
                ref = values[..., 2]
            else:
                ref = values[..., : np.size(s)].reshape(values.shape[:-1] + np.shape(s))
            assert np.array_equal(got[key], ref, equal_nan=True), key


FRAME_JETS = ("h", "xi", "lam1", "lam", "scal", "m_class", "p_class", "q_class", "A1", "Ablk")


def frame_jets(frame):
    out = {key: getattr(frame, key) for key in FRAME_JETS}
    out.update(zip(("w_base", "w_intra", "w_cross"), frame.weyl_jets()))
    out["cotton"] = frame.cotton_jets()
    return out


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frame_jets_are_truncations_of_the_next_order(entry_by_name, name):
    # Each jet is cut to the order its reader needs; a frame of one order
    # more must only add rows, never change one.  ODE-backed warpings give
    # derivatives to order 4, so their frames stop at order 2 (warping
    # order 4) and the comparison at k = 1.
    spec = entry_by_name[name].spec
    s = spec.evaluation_grid()
    frames = []
    for k in range(4):
        try:
            frames.append(ce._Frame(spec, s, k))
        except DerivativeOrderUnavailable:
            break
    assert len(frames) >= 3
    for low, high in zip(frames, frames[1:]):
        got, more = frame_jets(low), frame_jets(high)
        for key, jet in got.items():
            assert more[key].shape == (jet.shape[0] + 1,) + jet.shape[1:], key
            assert np.array_equal(jet, more[key][: jet.shape[0]], equal_nan=True), key
        dim_one = (low.dims == 1).reshape(low.B, 1)
        np.testing.assert_array_equal(
            np.isnan(low.p_class), np.broadcast_to(dim_one, low.p_class.shape)
        )
        diagonal = np.eye(low.B, dtype=bool)[:, :, None]
        np.testing.assert_array_equal(
            np.isnan(low.q_class), np.broadcast_to(diagonal, low.q_class.shape)
        )


class TestEngineErrors:
    def abstract_spec(self, dim):
        return WarpedProductSpec(
            blocks=(
                FiberBlock(dim, make_analytic_warping("cosh-scaled", (1.0, 1.0)),
                           "abstract_einstein", 0.5),
            ),
            domain=(0.0, 1.0),
            grid_points=64,
        )

    def test_abstract_einstein_blocks_riemann_output(self):
        spec = self.abstract_spec(3)
        s = np.array([0.5])
        # Ricci-level output is still fine.
        ce.ricci_spectrum(spec, s)
        with pytest.raises(InsufficientFiberData):
            ce.riemann_classes(spec, s)
        with pytest.raises(InsufficientFiberData):
            ce.weyl_classes(spec, s)
        # So are the dense audits that need the full curvature.
        with pytest.raises(InsufficientFiberData):
            ce.cotton_from_weyl_divergence(spec, s)
        with pytest.raises(InsufficientFiberData):
            identity_dcw(spec, reference_lapse())
        with pytest.raises(InsufficientFiberData):
            identity_db(spec, reference_lapse())

    def test_weyl_level_jets_refuse_abstract_fibers(self):
        # The frame itself is Ricci-level; only its Weyl jets, and the Bach
        # values built on them, need the full fiber curvature.
        spec = self.abstract_spec(3)
        s = np.array([0.5])
        frame = ce._Frame(spec, s, 2)
        frame.cotton_jets()
        with pytest.raises(InsufficientFiberData):
            frame.weyl_jets()
        with pytest.raises(InsufficientFiberData):
            frame.bach()
        with pytest.raises(InsufficientFiberData):
            ce.bach_spectrum(spec, s)

    def test_dimension_two_einstein_fiber_is_exempt(self):
        spec = self.abstract_spec(2)
        ce.weyl_classes(spec, np.array([0.5]))

    def test_margin_shrunk_domain_enforced(self):
        spec = reference_spec(4)
        lo, hi = spec.domain
        with pytest.raises(OutOfDomain):
            ce.xi_profile(spec, np.array([lo]))
        with pytest.raises(OutOfDomain):
            ce.ricci_spectrum(spec, np.array([hi]))
        for outside in (np.array([lo]), np.array([0.5 * (lo + hi), hi])):
            with pytest.raises(OutOfDomain):
                ce.cotton_from_weyl_divergence(spec, outside)
            with pytest.raises(OutOfDomain):
                ce.frame_connection(spec, outside)
            with pytest.raises(OutOfDomain):
                ce.bach_spectrum(spec, outside)
            with pytest.raises(OutOfDomain):
                ce.d_tensor_derivatives(spec, reference_lapse(), outside)

    @pytest.mark.parametrize("case", ["frame", "sampled", "ode_backed"])
    def test_domain_slack_is_a_billionth_of_a_step(self, case):
        if case == "frame":
            spec = reference_spec(4)
            margin = GRID_MARGIN_STEPS * spec.step
            lo, hi, step = spec.domain[0] + margin, spec.domain[1] - margin, spec.step

            def read(s):
                return ce.ricci_spectrum(spec, s)
        elif case == "sampled":
            prof = SampledProfile(0.0, 0.1, 2.0 + np.sin(0.1 * np.arange(20)))
            # The order-3 stencil keeps three steps from either end.
            lo, hi, step = prof.s_start + 3 * prof.step, prof.s_end - 3 * prof.step, prof.step

            def read(s):
                return prof.derivative(s, 3)
        else:
            prof = OdeBackedProfile(WarpingODEParams(4, 1.0, 1.0, 1.0, 0.0, (0.0, 1.0)))
            lo, hi, step = prof.s_lo, prof.s_hi, prof.dt

            def read(s):
                return prof.derivative(s, 0)
        read(np.array([lo - 0.5e-9 * step, hi + 0.5e-9 * step]))
        for outside in (lo - 2e-9 * step, hi + 2e-9 * step):
            with pytest.raises(OutOfDomain, match=r"\[.*, .*\]"):
                read(np.array([outside]))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_check_domain_reads_the_evaluation_domain(self, entry_by_name, name):
        spec = entry_by_name[name].spec
        lo, hi = spec.evaluation_domain
        ends = np.array([lo, hi])
        np.testing.assert_array_equal(ce._check_domain(spec, ends), ends)
        np.testing.assert_array_equal(ce._check_domain(spec, spec.evaluation_grid()),
                                      spec.evaluation_grid())
        for outside in (lo - spec.step, hi + spec.step):
            with pytest.raises(OutOfDomain, match="margin-shrunk domain"):
                ce._check_domain(spec, np.array([outside]))

    def test_derivative_tower_limit_surfaces(self):
        grid = np.linspace(-1.0, 3.0, 801)
        prof = SampledProfile(grid[0], grid[1] - grid[0], np.exp(0.1 * grid))

        def spec_with(order, second_block=()):
            return WarpedProductSpec(
                blocks=(FiberBlock(3, WarpingFunction("sampled", (), order, prof),
                                   "space_form", 1.0),) + second_block,
                domain=(0.2, 1.8),
                grid_points=64,
            )

        spec = spec_with(4)
        s = np.array([1.0])
        # Order 1 eigenvalue derivatives need warping order 3: fine.
        ce.eigenvalue_derivatives(spec, s, order=1)
        with pytest.raises(DerivativeOrderUnavailable):
            ce.eigenvalue_derivatives(spec, s, order=3)
        # identity_db reads an order-2 frame (warping order 4), the other
        # audits an order-1 frame (warping order 3).
        identity_db(spec, reference_lapse())
        low = spec_with(3)
        identity_dcw(low, reference_lapse())
        with pytest.raises(DerivativeOrderUnavailable):
            identity_db(low, reference_lapse())
        lower = spec_with(2, (FiberBlock(1, make_analytic_warping("constant", (1.0,))),))
        for audit in (identity_dcw, identity_db, check_lemma41):
            with pytest.raises(DerivativeOrderUnavailable):
                audit(lower, reference_lapse())
        with pytest.raises(DerivativeOrderUnavailable):
            ce.cotton_from_weyl_divergence(lower, s)
        # The lapse: identity_dcw needs it to order 1, identity_db to order 2.
        lapse = reference_lapse()
        first_order = LapseFunction(lapse.kind, lapse.params, 1, lapse.profile)
        identity_dcw(spec, first_order)
        with pytest.raises(DerivativeOrderUnavailable):
            identity_db(spec, first_order)
        values_only = LapseFunction(lapse.kind, lapse.params, 0, lapse.profile)
        for audit in (identity_dcw, identity_db):
            with pytest.raises(DerivativeOrderUnavailable):
                audit(spec, values_only)
        # Every other lapse reader keeps the declared order too: the answers
        # and the report read f'' (order 2), Lemma 4.1 reads f' (order 1).
        second_order = LapseFunction(lapse.kind, lapse.params, 2, lapse.profile)
        verify_pair(spec, second_order)
        for reader in (verify_pair, classify, static_residual, static_pointwise,
                       cli._report_columns):
            with pytest.raises(DerivativeOrderUnavailable):
                reader(spec, first_order)
        two_blocks = spec_with(4, (FiberBlock(1, make_analytic_warping("constant", (1.0,))),))
        check_lemma41(two_blocks, first_order)
        with pytest.raises(DerivativeOrderUnavailable):
            check_lemma41(two_blocks, values_only)
        # A warping read for xi needs order 1.
        for reader in (ce.xi_profile, ce.frame_connection):
            with pytest.raises(DerivativeOrderUnavailable):
                reader(spec_with(0), s)

    def test_weyl_divergence_route_needs_n_at_least_4(self):
        for dim in (1, 2):
            spec = WarpedProductSpec(
                blocks=(FiberBlock(dim, make_analytic_warping("cosh-scaled", (1.0, 1.0)),
                                   "space_form", 1.0),),
                domain=(0.0, 1.0),
                grid_points=64,
            )
            with pytest.raises(BadRange):
                ce.cotton_from_weyl_divergence(spec, np.array([0.5]))

    def test_materialize_rejects_unknown_payload(self):
        spec = reference_spec(4)
        with pytest.raises(TypeError):
            ce.materialize_full(np.zeros(3), spec)
