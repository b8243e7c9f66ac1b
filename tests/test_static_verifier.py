"""Residual channels and structure classification.

Negative controls matter as much as the exact pairs here: every check
gets at least one construction that must fail it loudly, and each
refusal branch of the classifier is pinned to its detail string.

The classifier's structural branches sit behind the residual gate, so
the branch tests open the gate wide (residual tolerance 1e9) and feed
metric-level constructions straight to the clustering logic.
"""

import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from staticgeo import cli, jets, ode_solver, profiles
from staticgeo import curvature_engine as ce
from staticgeo import static_verifier as sv
from staticgeo.catalog import CATALOG_NAMES, build_entry
from staticgeo.errors import DerivativeOrderUnavailable, WrongBlockCount
from staticgeo.ode_solver import (
    WarpingODEParams,
    first_integral,
    integrate_warping,
    lapse_from_warping,
)
from staticgeo.profiles import PolynomialProfile, SumProfile, TrigProfile, fd_weights
from staticgeo.static_verifier import (
    ANALYTIC,
    LABELS,
    ODE_BACKED,
    Channel,
    ResidualReport,
    ToleranceProfile,
    _static_rows,
    check_lemma41,
    classify,
    harmonic_pointwise,
    harmonic_residual,
    identity_db,
    identity_dcw,
    integrability_residual,
    static_pointwise,
    static_residual,
    tier_for,
    verify_pair,
)
from staticgeo.warped_geometry import (
    FiberBlock,
    WarpedProductSpec,
    WarpingFunction,
    _Function,
    load_problem,
    make_analytic_warping,
    make_lapse,
    make_sampled_warping,
    perturbed_lapse,
)

from oracle_tools import oracle_audits

OPEN_GATE = ToleranceProfile(residual=1e9, distinct_rel=1e-6, structure=1e-8)

UNIT_LAPSE = make_lapse("constant", (1.0,))

# Lapse bump used by the sensitivity checks: 0.1 s^2 on top of the exact
# lapse must push static_11 well past any verification tolerance.
BUMP = PolynomialProfile((0.0, 0.0, 0.1))


def rigid_block(dim, k, value=1.0):
    return FiberBlock(
        dim, make_analytic_warping("constant", (value,)), "space_form", k
    )


def sin_shifted_warping():
    """2 + sin(s), positive everywhere, with no closed-form kind."""
    profile = SumProfile(PolynomialProfile((2.0,)), TrigProfile(a_sin=1.0, omega=1.0))
    return WarpingFunction("custom", (), 8, profile)


@pytest.fixture
def adhoc_nonstatic():
    """Sphere slice times a stretching line: harmonic curvature fails."""
    return WarpedProductSpec(
        blocks=(
            FiberBlock(
                2, make_analytic_warping("sin-scaled", (1.0, 1.0)), "space_form", 1.0
            ),
            FiberBlock(1, make_analytic_warping("linear", (2.0, 1.0))),
        ),
        domain=(0.3, 2.4),
    )


# ---------------------------------------------------------------------------
# Tolerance tiers


class TestToleranceTiers:
    def test_pinned_tier_values(self):
        assert ANALYTIC == ToleranceProfile(
            residual=1e-8, distinct_rel=1e-6, structure=1e-8
        )
        assert ODE_BACKED == ToleranceProfile(
            residual=1e-5, distinct_rel=1e-6, structure=1e-5
        )

    def test_analytic_inputs_get_the_tight_tier(self, entry_by_name):
        e = entry_by_name["round_sphere"]
        assert tier_for(e.spec, e.lapse) is ANALYTIC

    def test_trajectory_backed_inputs_get_the_loose_tier(self, entry_by_name):
        e = entry_by_name["example3"]
        assert tier_for(e.spec, e.lapse) is ODE_BACKED

    def test_derived_lapse_alone_loosens_the_tier(self, entry_by_name):
        params = WarpingODEParams.single_fiber(5, 20.0, 1.0, 1.3, 0.0, (0.0, 1.0))
        f = lapse_from_warping(integrate_warping(params), 1.0)
        spec = entry_by_name["round_sphere"].spec
        assert tier_for(spec, f) is ODE_BACKED

    def test_sampled_warping_loosens_the_tier(self):
        s = np.linspace(0.0, 1.0, 33)
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(
                    3,
                    make_sampled_warping(0.0, s[1] - s[0], 2.0 + 0.1 * s),
                    "space_form",
                    1.0,
                ),
            ),
            domain=(0.2, 0.8),
        )
        # A constant lapse is analytic, so the tier comes from the warping alone.
        assert tier_for(spec, make_lapse("constant", (1.0,))) is ODE_BACKED


# ---------------------------------------------------------------------------
# Report plumbing


class TestResidualReport:
    def test_channel_argmax_bookkeeping(self, entry_by_name):
        e = entry_by_name["round_sphere"]
        bumped = perturbed_lapse(e.lapse, BUMP)
        grid = e.spec.evaluation_grid()
        point = static_pointwise(e.spec, bumped, grid)
        report = static_residual(e.spec, bumped)
        for name, ch in report.channels.items():
            i = int(np.argmax(np.abs(point[name])))
            assert ch.argmax_index == i
            assert ch.argmax_s == grid[i]
            assert ch.sup == abs(float(point[name][i]))

    def test_max_sup_and_merge(self, entry_by_name):
        e = entry_by_name["type_ii"]
        static = static_residual(e.spec, e.lapse)
        harmonic = harmonic_residual(e.spec)
        merged = static.merge(harmonic)
        assert set(merged.channels) == set(static.channels) | set(harmonic.channels)
        assert merged.max_sup() == max(static.max_sup(), harmonic.max_sup())
        assert merged.grid is static.grid

    def test_verify_pair_bundles_all_channels(self, entry_by_name):
        e = entry_by_name["type_ii"]
        report = verify_pair(e.spec, e.lapse)
        want = {
            "static_11",
            "static_block[0]",
            "static_block[1]",
            "scalar_drift",
            "harmonic_block[0]",
            "harmonic_block[1]",
            "integrability_block[0]",
            "integrability_block[1]",
        }
        assert set(report.channels) == want

    def test_to_dict_is_sorted_and_complete(self, entry_by_name):
        e = entry_by_name["flat"]
        report = verify_pair(e.spec, e.lapse)
        out = report.to_dict()
        assert list(out) == sorted(report.channels)
        for name, ch in report.channels.items():
            assert out[name] == {
                "sup": ch.sup,
                "argmax_index": ch.argmax_index,
                "argmax_s": ch.argmax_s,
            }

    def test_max_sup_propagates_nan_in_any_position(self):
        grid = np.array([0.0, 0.5])
        finite = Channel(1.0, 0, 0.0)
        nan = Channel(math.nan, 1, 0.5)
        assert math.isnan(ResidualReport({"a": finite, "b": nan}, grid).max_sup())
        assert math.isnan(ResidualReport({"a": nan, "b": finite}, grid).max_sup())
        assert ResidualReport({"a": finite}, grid).max_sup() == 1.0
        assert ResidualReport({}, grid).max_sup() == 0.0

    def test_channels_are_read_only(self, entry_by_name):
        e = entry_by_name["flat"]
        report = static_residual(e.spec, e.lapse)
        with pytest.raises(TypeError):
            report.channels["static_11"] = None


# ---------------------------------------------------------------------------
# Channels on exact pairs and on spoilers


class TestStaticChannels:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_entries_pass_under_their_tier(self, entry_by_name, name):
        e = entry_by_name[name]
        tier = tier_for(e.spec, e.lapse)
        assert verify_pair(e.spec, e.lapse).max_sup() <= tier.residual

    @pytest.mark.parametrize("name", ["round_sphere", "flat", "type_iv"])
    def test_lapse_bump_is_detected(self, entry_by_name, name):
        e = entry_by_name[name]
        bumped = perturbed_lapse(e.lapse, BUMP)
        report = static_residual(e.spec, bumped)
        assert report.channels["static_11"].sup > 0.05

    def test_wrong_lapse_on_the_round_sphere(self, entry_by_name):
        # A constant lapse on the round sphere misses the Hessian term by
        # exactly f (lambda_1 - R/(n-1)) = 1.
        e = entry_by_name["round_sphere"]
        report = static_residual(e.spec, UNIT_LAPSE)
        assert report.channels["static_11"].sup == pytest.approx(1.0, rel=1e-9)

    def test_pointwise_channels_are_signed_arrays(self, entry_by_name):
        e = entry_by_name["type_ii"]
        grid = e.spec.evaluation_grid()
        plus = static_pointwise(e.spec, perturbed_lapse(e.lapse, BUMP), grid)
        assert set(plus) == {"static_11", "static_block[0]", "static_block[1]"}
        for values in plus.values():
            assert values.shape == grid.shape
        # The channels are linear in the lapse and vanish on the exact
        # pair, so opposite bumps must give opposite signed residuals;
        # a rectified channel would break this.
        neg_bump = PolynomialProfile((0.0, 0.0, -0.1))
        minus = static_pointwise(e.spec, perturbed_lapse(e.lapse, neg_bump), grid)
        for name in plus:
            np.testing.assert_allclose(plus[name], -minus[name], atol=1e-12)


class TestHarmonicChannels:
    def test_adhoc_two_block_spec_fails_loudly(self, adhoc_nonstatic):
        report = harmonic_residual(adhoc_nonstatic)
        assert report.max_sup() >= 1e-2
        for ch in report.channels.values():
            assert ch.sup >= 1e-2

    def test_pointwise_keys(self, adhoc_nonstatic):
        point = harmonic_pointwise(adhoc_nonstatic)
        assert set(point) == {
            "scalar_drift",
            "harmonic_block[0]",
            "harmonic_block[1]",
        }


class TestIntegrability:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_ties_radial_curvature_to_eigenvalues(self, entry_by_name, name):
        e = entry_by_name[name]
        tier = tier_for(e.spec, e.lapse)
        report = integrability_residual(e.spec)
        assert set(report.channels) == {
            f"integrability_block[{j}]" for j in range(len(e.spec.blocks))
        }
        assert report.max_sup() <= tier.residual


class TestTensorIdentities:
    @pytest.mark.parametrize("name", ["round_sphere", "type_ii", "type_iv"])
    def test_cotton_weyl_coupling(self, entry_by_name, name):
        e = entry_by_name[name]
        tier = tier_for(e.spec, e.lapse)
        report = identity_dcw(e.spec, e.lapse)
        assert set(report.channels) == {
            f"dcw_block[{j}]" for j in range(len(e.spec.blocks))
        }
        assert report.max_sup() <= max(1e-8, tier.residual)

    @pytest.mark.parametrize("name", ["round_sphere", "type_ii", "type_iv"])
    def test_bach_coupling(self, entry_by_name, name):
        e = entry_by_name[name]
        report = identity_db(e.spec, e.lapse)
        names = {f"db_block[{j}]" for j in range(len(e.spec.blocks))}
        assert set(report.channels) == names | {"db_11"}
        assert report.max_sup() <= 1e-6

    @pytest.mark.parametrize("name", ["type_ii", "type_iii", "type_iv"])
    def test_two_block_identities_hold(self, entry_by_name, name):
        e = entry_by_name[name]
        report = check_lemma41(e.spec, e.lapse)
        assert set(report.channels) == {"lemma41_46", "lemma41_47"}
        assert report.max_sup() <= 1e-8

    def test_two_block_identities_need_two_blocks(self, entry_by_name):
        e = entry_by_name["round_sphere"]
        with pytest.raises(WrongBlockCount):
            check_lemma41(e.spec, e.lapse)


# ---------------------------------------------------------------------------
# Classification: positive details


class TestClassifyDetails:
    @pytest.mark.parametrize(
        "name, label, detail_part",
        [
            ("round_sphere", "Einstein", "shared with the interval"),
            ("example3", "DFlat_TypeI", "distinct from lambda_1"),
            ("type_ii", "TypeII", "R > 0"),
            ("type_iii", "TypeIII", "R < 0"),
            ("type_iv", "TypeIV", "product-family equation"),
        ],
    )
    def test_labels_and_details(self, entry_by_name, name, label, detail_part):
        got = classify(entry_by_name[name].spec, entry_by_name[name].lapse)
        assert got.label == label
        assert detail_part in got.detail
        assert got.label in LABELS

    def test_two_block_diagnostics(self, entry_by_name):
        e = entry_by_name["type_ii"]
        got = classify(e.spec, e.lapse)
        assert got.distinct_count == 2
        assert got.multiplicities == (1, e.spec.n - 2)
        assert got.xi_product_sup <= 1e-8
        assert got.d_sup >= 1e-3

    def test_single_block_diagnostics(self, entry_by_name):
        e = entry_by_name["example3"]
        got = classify(e.spec, e.lapse)
        assert got.distinct_count == 1
        assert got.multiplicities == (e.spec.n - 1,)
        assert got.xi_product_sup == 0.0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_d_sup_reads_the_public_d_classes(self, entry_by_name, name):
        # classify, the CLI report's rows and d_tensor_classes share one
        # D formula, so all three agree bit for bit, signed zeros included.
        e = entry_by_name[name]
        s = e.spec.evaluation_grid()
        public = ce.d_tensor_classes(e.spec, e.lapse, s).value_block
        rows = _static_rows(e.spec, e.lapse, s)[3]
        assert np.array_equal(rows, public)
        assert np.array_equal(np.signbit(rows), np.signbit(public))
        # The jet product keeps the sign of f' times the factor, -0.0 included.
        r, n = ce.ricci_spectrum(e.spec, s), e.spec.n
        factor = ((n - 1.0) * r.lambda_block - r.scalar + r.lambda_1) / (n - 2.0)
        direct = e.lapse.derivative(s, 1) * factor
        assert np.array_equal(public, direct)
        assert np.array_equal(np.signbit(public), np.signbit(direct))
        assert classify(e.spec, e.lapse).d_sup == float(np.max(np.abs(public)))

    def test_conservation_profile_is_the_first_integral(self, monkeypatch, entry_by_name):
        # classify's product-family check reads k through ode_solver's formula,
        # so on type_iv's rows it equals first_integral bit for bit.
        e = entry_by_name["type_iv"]
        calls = []

        def recorded(p, c1, c0, h, hp, conserved=ode_solver._conserved):
            calls.append((p, c1, c0, h, hp, conserved(p, c1, c0, h, hp)))
            return calls[-1][-1]

        monkeypatch.setattr(ode_solver, "_conserved", recorded)
        assert classify(e.spec, e.lapse).label == "TypeIV"
        monkeypatch.undo()
        [(p, c1, c0, h, hp, k_profile)] = calls
        warping = e.spec.blocks[0].warping
        s = e.spec.evaluation_grid()
        assert np.array_equal(h, warping.value(s))
        assert np.array_equal(hp, warping.derivative(s, 1))
        params = WarpingODEParams(p, c1, c0, 1.0, 0.0, (0.0, 1.0))
        assert first_integral(params, h, hp).value.tobytes() == k_profile.tobytes()

    def test_to_dict_round_trip(self, entry_by_name):
        e = entry_by_name["type_iv"]
        got = classify(e.spec, e.lapse)
        out = got.to_dict()
        assert out["label"] == got.label
        assert out["distinct_count"] == got.distinct_count
        assert out["multiplicities"] == list(got.multiplicities)
        assert out["xi_product_sup"] == got.xi_product_sup
        assert out["d_sup"] == got.d_sup
        assert out["detail"] == got.detail


# ---------------------------------------------------------------------------
# Classification: entries that arrive as samples


def resampled(entry, num, grid=256):
    """The entry's warpings and lapse sampled at num points over its domain.

    The spec's domain is trimmed by three sample steps per side so that
    the order-4 stencils fit.
    """
    lo, hi = entry.spec.domain
    s = np.linspace(lo, hi, num)
    ds = float(s[1] - s[0])

    def samples(fn):
        return np.broadcast_to(fn.value(s), s.shape)

    blocks = tuple(
        FiberBlock(
            b.dim, make_sampled_warping(lo, ds, samples(b.warping)), b.model, b.k
        )
        for b in entry.spec.blocks
    )
    lapse = make_lapse("sampled", (lo, ds, *samples(entry.lapse)))
    return WarpedProductSpec(blocks, (lo + 3 * ds, hi - 3 * ds), grid), lapse


class TestSampledEntries:
    @pytest.mark.parametrize("num", [513, 1025])
    @pytest.mark.parametrize("name", ["round_sphere", "example1"])
    def test_resampled_entry_keeps_its_label(self, entry_by_name, name, num):
        e = entry_by_name[name]
        spec, lapse = resampled(e, num)
        tier = tier_for(spec, lapse)
        assert tier is ODE_BACKED
        assert verify_pair(spec, lapse).max_sup() <= tier.residual
        assert classify(spec, lapse).label == e.expected_label

    @pytest.mark.parametrize("name", ["round_sphere", "type_ii"])
    def test_one_stencil_build_per_grid_and_order(self, entry_by_name, monkeypatch, name):
        # Before the stencil memo: 14 builds for round_sphere, 22 for type_ii.
        spec, lapse = resampled(entry_by_name[name], 513)
        orders = []

        def counting(nodes, x0, max_order):
            orders.append(max_order)
            return fd_weights(nodes, x0, max_order)

        monkeypatch.setattr(profiles, "fd_weights", counting)
        profiles._stencil.cache_clear()
        verify_pair(spec, lapse)
        classify(spec, lapse)
        assert sorted(orders) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# One spectrum evaluation per answer


def merged_families(spec, lapse):
    return (
        static_residual(spec, lapse)
        .merge(harmonic_residual(spec))
        .merge(integrability_residual(spec))
    )


class TestOneFrame:
    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_verify_pair_equals_the_merged_families(self, entry_by_name, name, grid):
        e = entry_by_name[name]
        spec = replace(e.spec, grid_points=grid)
        got = verify_pair(spec, e.lapse)
        want = merged_families(spec, e.lapse)
        assert list(got.channels) == list(want.channels)
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("name, num", [("round_sphere", 513), ("type_ii", 1025)])
    def test_resampled_verify_pair_equals_the_merged_families(
        self, entry_by_name, name, num
    ):
        spec, lapse = resampled(entry_by_name[name], num)
        got = verify_pair(spec, lapse)
        want = merged_families(spec, lapse)
        assert list(got.channels) == list(want.channels)
        assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_frame_per_answer(self, entry_by_name, frame_builds, name):
        e = entry_by_name[name]
        verify_pair(e.spec, e.lapse)
        assert len(frame_builds) == 1
        classify(e.spec, e.lapse)
        assert len(frame_builds) == 1
        # classify released the stored report: a fresh pair builds one frame.
        classify(e.spec, e.lapse)
        assert len(frame_builds) == 2

    def test_label_carries_the_report_it_gated_on(self, entry_by_name):
        e = entry_by_name["type_iv"]
        got = classify(e.spec, e.lapse)
        assert got.report.to_dict() == verify_pair(e.spec, e.lapse).to_dict()
        assert "report" not in got.to_dict()
        assert "report" not in repr(got)
        assert got == replace(got, report=static_residual(e.spec, e.lapse))


# The ten entries and two resampled documents, as (entry, samples or None).
ANSWER_PAIRS = [(name, None) for name in CATALOG_NAMES] + [
    ("round_sphere", 513), ("type_ii", 1025)
]


def answer_pair(entry_by_name, name, num):
    e = entry_by_name[name]
    return (e.spec, e.lapse) if num is None else resampled(e, num)


class TestVerifyThenClassify:
    """classify reuses the report verify_pair just built for the same objects."""

    @pytest.mark.parametrize("name, num", ANSWER_PAIRS)
    def test_classify_reuses_the_report(self, entry_by_name, frame_builds, name, num):
        spec, lapse = answer_pair(entry_by_name, name, num)
        report = verify_pair(spec, lapse)
        label = classify(spec, lapse)
        assert len(frame_builds) == 1
        assert label.report is report
        fresh = classify(spec, lapse)
        assert len(frame_builds) == 2
        assert fresh.report is not report
        assert label.to_dict() == fresh.to_dict()
        assert report.to_dict() == fresh.report.to_dict()

    @pytest.mark.parametrize("name", ["example1", "type_iv"])
    def test_the_key_is_identity(self, entry_by_name, frame_builds, name):
        e = entry_by_name[name]
        for spec, lapse in ((replace(e.spec), e.lapse), (e.spec, e.lapse.rescaled(1.0))):
            assert (spec, lapse) == (e.spec, e.lapse)
            report = verify_pair(e.spec, e.lapse)
            built = len(frame_builds)
            label = classify(spec, lapse)
            assert len(frame_builds) == built + 1
            assert label.report is not report
            assert label.report.to_dict() == report.to_dict()

    def test_interleaved_pairs_miss(self, entry_by_name, frame_builds):
        a, b = entry_by_name["example1"], entry_by_name["type_ii"]
        report_a = verify_pair(a.spec, a.lapse)
        verify_pair(b.spec, b.lapse)
        label = classify(a.spec, a.lapse)
        assert len(frame_builds) == 3
        assert label.report is not report_a
        assert label.report.to_dict() == report_a.to_dict()
        classify(b.spec, b.lapse)
        assert len(frame_builds) == 4

    def test_a_failed_call_stores_nothing(self, entry_by_name):
        e = entry_by_name["type_ii"]
        report = verify_pair(e.spec, e.lapse)
        short = replace(e.lapse, derivative_order=1)
        with pytest.raises(DerivativeOrderUnavailable):
            verify_pair(e.spec, short)
        assert classify(e.spec, e.lapse).report is report

    def test_threads_get_their_own_pair(self, entry_by_name):
        # Four threads share the slot, and each must always get its own
        # pair's report; round_sphere and type_ii have value-equal lapses.
        names = ["round_sphere", "type_ii", "example1", "type_iii"]
        pairs = [
            (replace(entry_by_name[n].spec, grid_points=64), entry_by_name[n].lapse)
            for n in names
        ]
        want = [classify(*p).report.to_dict() for p in pairs]
        wrong, done = [], [0] * len(pairs)

        def work(i):
            for _ in range(30):
                got = verify_pair(*pairs[i]).to_dict(), classify(*pairs[i]).report.to_dict()
                if got != (want[i], want[i]):
                    wrong.append(names[i])
                done[i] += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pairs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert done == [30] * len(pairs)
        assert wrong == []

    @pytest.mark.parametrize("name", ["example1", "type_iv"])
    def test_classify_reads_the_stored_d_classes(self, entry_by_name, monkeypatch, name):
        e = entry_by_name[name]
        calls = []
        d_jet = ce._d_jet

        def counted(*args):
            calls.append(args)
            return d_jet(*args)

        monkeypatch.setattr(ce, "_d_jet", counted)
        report = verify_pair(e.spec, e.lapse)
        assert len(calls) == 1
        label = classify(e.spec, e.lapse)
        assert len(calls) == 1 and label.report is report
        assert label.d_sup == float(np.max(np.abs(report._evaluation[2])))

    def test_stored_arrays_are_read_only(self, entry_by_name):
        e = entry_by_name["type_iv"]
        report = verify_pair(e.spec, e.lapse)
        d, fs, dc = report._evaluation
        arrays = [report.grid, *fs, dc, d.lambda_1, d.lambda_block, d.scalar, d.xi, d.h]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0
        assert classify(e.spec, e.lapse).report is report


def reversed_blocks(doc):
    """The document with its blocks in reverse order; a derived lapse keeps its block."""
    doc = json.loads(json.dumps(doc))
    last = len(doc["blocks"]) - 1
    doc["blocks"].reverse()
    lapse = doc["lapse"]
    if lapse["kind"] == "derived":
        index = lapse["params"][1] if len(lapse["params"]) == 2 else 0.0
        lapse["params"] = [lapse["params"][0], float(last - index)]
    return doc


class TestBlockOrder:
    """Reordering the fiber blocks is a symmetry: the answers keep their bits."""

    @pytest.mark.parametrize("name", ["type_ii", "type_iii", "type_iv"])
    def test_reversed_blocks_give_the_same_answer(self, entry_by_name, name):
        doc = entry_by_name[name].to_problem_dict()
        flipped = reversed_blocks(doc)
        assert flipped["blocks"] != doc["blocks"]
        answers = []
        for spec, lapse in (load_problem(doc), load_problem(flipped)):
            label = classify(spec, lapse)
            answers.append((
                label.label, label.multiplicities, label.d_sup,
                verify_pair(spec, lapse).max_sup(),
            ))
        assert answers[0] == answers[1]
        assert answers[0][0] == entry_by_name[name].expected_label


# ---------------------------------------------------------------------------
# One curvature frame per dense audit


def reference_audits(spec, lapse):
    """identity_dcw and identity_db rebuilt from the public class operations.

    Each tensor comes from its own public call (so from its own frame),
    and the connection from frame_connection's xi_profile path.
    """
    s = spec.evaluation_grid()
    n = spec.n
    owner = np.repeat(np.arange(-1, len(spec.blocks)), [1] + [b.dim for b in spec.blocks])
    f0 = np.asarray(lapse.value(s), dtype=float)
    f1 = np.asarray(lapse.derivative(s, 1), dtype=float)

    def channel(values):
        flat = np.abs(values)
        i = int(np.argmax(flat))
        return Channel(float(flat[i]), i, float(s[i]))

    def per_block(prefix, res):
        return {
            f"{prefix}[{j}]": channel(
                np.max(np.abs(res[:, owner == j]), axis=tuple(range(1, res.ndim)))
            )
            for j in range(len(spec.blocks))
        }

    C = ce.materialize_full(ce.cotton_classes(spec, s), spec)
    W = ce.materialize_full(ce.weyl_classes(spec, s), spec)
    D = ce.materialize_full(ce.d_tensor_classes(spec, lapse, s), spec)
    dcw = f0[:, None, None, None] * C - f1[:, None, None, None] * W[:, 0] - D

    B = ce.materialize_full(ce.bach_spectrum(spec, s), spec)
    d_der = ce.d_tensor_derivatives(spec, lapse, s, order=1)
    D, Dp = (ce.materialize_full(ce.MixedThreeTensor(row), spec) for row in d_der)
    div_d = ce.dense_three_tensor_divergence(D, Dp, ce.frame_connection(spec, s))
    mix = C[..., 0] + (n - 3.0) / (n - 2.0) * np.swapaxes(C, 1, 2)[..., 0]
    db = (n - 2.0) * f0[:, None, None] * B - div_d + f1[:, None, None] * mix
    db_channels = {"db_11": channel(db[:, 0, 0]), **per_block("db_block", db)}
    return (
        ResidualReport(per_block("dcw_block", dcw), s),
        ResidualReport(db_channels, s),
    )


def weyl_route(spec, lapse):
    return ce.cotton_from_weyl_divergence(spec, spec.evaluation_grid())


AUDITS = {
    "identity_dcw": identity_dcw,
    "identity_db": identity_db,
    "check_lemma41": check_lemma41,
    "cotton_from_weyl_divergence": weyl_route,
}


def audit_cases():
    for name in CATALOG_NAMES:
        for audit in AUDITS:
            if audit != "check_lemma41" or name in ("type_ii", "type_iii", "type_iv"):
                yield name, audit


@pytest.fixture
def warping_calls(monkeypatch):
    """One flag per warping evaluation while the test runs: True inside a frame build."""
    calls = []
    inside = []
    init = ce._Frame.__init__

    def framed(self, *args, **kwargs):
        inside.append(True)
        try:
            init(self, *args, **kwargs)
        finally:
            inside.pop()

    def recording(method):
        def call(self, *args):
            calls.append(bool(inside))
            return method(self, *args)

        return call

    monkeypatch.setattr(ce._Frame, "__init__", framed)
    for name in ("value", "derivative"):
        monkeypatch.setattr(WarpingFunction, name, recording(getattr(WarpingFunction, name)))
    return calls


@pytest.fixture
def reader_calls(monkeypatch):
    """One flag per warping or lapse read while the test runs: True inside jets._rows."""
    calls, inside = [], []
    rows = jets._rows

    def reading(*args):
        inside.append(True)
        try:
            return rows(*args)
        finally:
            inside.pop()

    for module in list(sys.modules.values()):
        if module.__name__.startswith("staticgeo") and vars(module).get("_rows") is rows:
            monkeypatch.setattr(module, "_rows", reading)
    derivative = _Function.derivative

    def recording(self, s, order):
        calls.append(bool(inside))
        return derivative(self, s, order)

    monkeypatch.setattr(_Function, "derivative", recording)
    return calls


READERS = {
    "verify_pair": verify_pair,
    "classify": classify,
    "identity_dcw": identity_dcw,
    "identity_db": identity_db,
    "check_lemma41": check_lemma41,
    "d_tensor_derivatives": lambda spec, f: ce.d_tensor_derivatives(
        spec, f, spec.evaluation_grid(), 2
    ),
    "static_pointwise": static_pointwise,
    "report_columns": cli._report_columns,
}


@pytest.mark.parametrize("name", ["type_ii", "type_iv"])
@pytest.mark.parametrize("reader", list(READERS))
def test_every_read_comes_through_the_row_reader(entry_by_name, reader_calls, name, reader):
    e = entry_by_name[name]
    READERS[reader](e.spec, e.lapse)
    assert reader_calls and all(reader_calls)


class TestOneFramePerAudit:
    @pytest.mark.parametrize("name, audit", list(audit_cases()))
    def test_one_frame_and_no_xi_profile_pass(
        self, entry_by_name, frame_builds, monkeypatch, name, audit
    ):
        xi_calls = []
        xi_profile = ce.xi_profile
        monkeypatch.setattr(
            ce, "xi_profile", lambda *args: xi_calls.append(args) or xi_profile(*args)
        )
        e = entry_by_name[name]
        AUDITS[audit](e.spec, e.lapse)
        assert len(frame_builds) == 1
        assert xi_calls == []

    @pytest.mark.parametrize("answer", [classify, check_lemma41])
    def test_warping_rows_come_from_the_frame(self, entry_by_name, warping_calls, answer):
        e = entry_by_name["type_iv"]
        answer(e.spec, e.lapse)
        assert warping_calls and all(warping_calls)

    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_audits_equal_the_reference_route(self, entry_by_name, name, grid):
        e = entry_by_name[name]
        spec = replace(e.spec, grid_points=grid)
        want_dcw, want_db = reference_audits(spec, e.lapse)
        got_dcw, got_db = identity_dcw(spec, e.lapse), identity_db(spec, e.lapse)
        assert list(got_dcw.channels) == list(want_dcw.channels)
        assert got_dcw.to_dict() == want_dcw.to_dict()
        assert list(got_db.channels) == list(want_db.channels)
        assert got_db.to_dict() == want_db.to_dict()

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_warping_rows_are_the_warpings_own(self, entry_by_name, name, order):
        spec = entry_by_name[name].spec
        s = spec.evaluation_grid()
        h = ce.eigenvalue_derivatives(spec, s, order).h
        assert h.shape == (order + 2, len(spec.blocks)) + s.shape
        for j, b in enumerate(spec.blocks):
            for d in range(order + 2):
                want = np.broadcast_to(b.warping.derivative(s, d), s.shape)
                assert np.array_equal(h[d, j], want)


@pytest.fixture
def jet_calls(monkeypatch):
    """Calls of the jet product and quotient made by the curvature engine."""
    calls = {"jmul": 0, "jdiv": 0}
    for name in calls:

        def counting(*args, _name=name, _op=getattr(ce, name)):
            calls[_name] += 1
            return _op(*args)

        monkeypatch.setattr(ce, name, counting)
    return calls


@pytest.mark.parametrize("name", ["round_sphere", "type_ii", "type_iv"])
def test_an_answer_builds_only_the_ricci_jets(entry_by_name, jet_calls, name):
    # An answer reads the Ricci jets and the D classes; the sectional and
    # Weyl classes are built only when a dense audit reads them.
    e = entry_by_name[name]
    verify_pair(e.spec, e.lapse)
    classify(e.spec, e.lapse)
    assert jet_calls == {"jmul": 4, "jdiv": 2}
    jet_calls.update(jmul=0, jdiv=0)
    identity_dcw(e.spec, e.lapse)
    identity_db(e.spec, e.lapse)
    assert jet_calls == {"jmul": 17, "jdiv": 4}


# ---------------------------------------------------------------------------
# Dense audits: index tables, matrix products and chunks against the oracle


def audits(spec, lapse):
    return identity_dcw(spec, lapse), identity_db(spec, lapse)


class TestDenseAudits:
    @pytest.mark.parametrize("grid", [256, 1024, 4096])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_audits_match_the_oracle_route(self, entry_by_name, name, grid):
        e = entry_by_name[name]
        spec = replace(e.spec, grid_points=grid)
        want_dcw, want_db, db_scale = oracle_audits(spec, e.lapse)
        got_dcw, got_db = audits(spec, e.lapse)
        assert list(got_dcw.channels) == list(want_dcw.channels)
        assert got_dcw.to_dict() == want_dcw.to_dict()
        assert list(got_db.channels) == list(want_db.channels)
        for channel, want in want_db.channels.items():
            assert abs(got_db.channels[channel].sup - want.sup) <= 1e-12 * db_scale

    # Margin-shrunk grids of 253, 996 and 4097 points: 996 and 4097 are not
    # multiples of 7 and of the default 2048.
    @pytest.mark.parametrize("chunk, grid", [(1, 257), (7, 1000), (10**9, 4101)])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_results_do_not_depend_on_the_chunk(
        self, entry_by_name, monkeypatch, name, chunk, grid
    ):
        e = entry_by_name[name]
        spec = replace(e.spec, grid_points=grid)
        want = [report.to_dict() for report in audits(spec, e.lapse)]
        monkeypatch.setattr(sv, "_CHUNK_POINTS", chunk)
        row_sups, seen = sv._row_sups, []
        monkeypatch.setattr(sv, "_row_sups", lambda res: seen.append(len(res)) or row_sups(res))
        assert [report.to_dict() for report in audits(spec, e.lapse)] == want
        # Each audit scans every grid point once, in chunks of the patched size.
        points = spec.evaluation_grid().size
        sizes = [min(chunk, points - i) for i in range(0, points, chunk)]
        assert seen == sizes + sizes

    @pytest.mark.parametrize("audit", [identity_dcw, identity_db])
    def test_memory_stays_bounded_on_a_fine_grid(self, entry_by_name, audit):
        e = entry_by_name["type_iv"]
        spec = replace(e.spec, grid_points=16384)
        tracemalloc.start()
        try:
            audit(spec, e.lapse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Classification: refusal branches


class TestClassifyRefusals:
    def test_residual_gate(self, entry_by_name):
        e = entry_by_name["round_sphere"]
        got = classify(e.spec, UNIT_LAPSE)
        assert got.label == "Invalid"
        assert got.detail.startswith("residual gate failed: static_11")

    def test_nan_residual_fails_the_gate(self):
        # The warping vanishes at s = 0, so the spectrum there is NaN.
        w = make_analytic_warping("sin-scaled", (1.0, 1.0))
        spec = WarpedProductSpec(
            blocks=(FiberBlock(4, w, "space_form", 1.0),),
            domain=(-1.0, 1.0),
            grid_points=1025,
        )
        with np.errstate(all="ignore"):
            got = classify(spec, make_lapse("sin-cos", (0.0, 1.0, 1.0)))
        assert math.isnan(got.report.max_sup())
        assert got.label == "Invalid"
        assert got.detail.startswith("residual gate failed")
        assert got.detail.endswith("sup nan")

    def test_three_distinct_rigid_blocks(self):
        spec = WarpedProductSpec(
            blocks=(rigid_block(2, 1.0), rigid_block(2, 2.0), rigid_block(2, -3.0)),
            domain=(0.0, 1.0),
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "ViolatesThm42"
        assert got.distinct_count == 3
        assert got.multiplicities == (2, 2, 2)

    def test_two_clusters_both_warping(self, adhoc_nonstatic):
        got = classify(adhoc_nonstatic, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "two eigenvalue clusters but both warp"

    def test_two_clusters_neither_warping(self):
        spec = WarpedProductSpec(
            blocks=(rigid_block(2, 1.0), rigid_block(2, 2.0)), domain=(0.0, 1.0)
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "two eigenvalue clusters but neither warps"

    def test_warping_cluster_spanning_two_blocks(self):
        w = make_analytic_warping("sin-scaled", (1.0, 1.0))
        spec = WarpedProductSpec(
            blocks=(FiberBlock(1, w), FiberBlock(1, w), rigid_block(2, 1.0)),
            domain=(0.3, 2.4),
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "warping cluster spans several blocks"

    def test_circle_over_a_curved_rigid_fiber(self):
        # A linear circle factor keeps lambda_1 = 0, so the rigid fiber
        # eigenvalue k = 1 cannot equal R/(n-1) = 2/3.
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(1, make_analytic_warping("linear", (2.0, 1.0))),
                rigid_block(2, 1.0),
            ),
            domain=(0.0, 1.0),
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "constant cluster eigenvalue is not R/(n-1)"

    def test_circle_needs_nonzero_scalar(self):
        # h = 2 + sin over a full period makes the median scalar vanish
        # while the circle direction still warps.
        spec = WarpedProductSpec(
            blocks=(FiberBlock(1, sin_shifted_warping()), rigid_block(2, 0.0)),
            domain=(0.0, 2.0 * math.pi),
        )
        loose = ToleranceProfile(residual=1e9, distinct_rel=0.1, structure=0.05)
        got = classify(spec, UNIT_LAPSE, loose)
        assert got.label == "Invalid"
        assert got.detail == "one warped circle direction needs R != 0"

    def test_line_factor_needs_zero_scalar(self):
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(
                    2,
                    make_analytic_warping("sin-scaled", (1.0, 1.0)),
                    "space_form",
                    1.0,
                ),
                FiberBlock(1, make_analytic_warping("constant", (1.0,))),
            ),
            domain=(0.2, math.pi - 0.2),
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "line-type constant factor needs R = 0"

    def test_warped_factor_off_the_product_family(self):
        spec = WarpedProductSpec(
            blocks=(
                FiberBlock(2, sin_shifted_warping(), "space_form", 1.0),
                rigid_block(2, 0.0),
            ),
            domain=(0.3, 2.4),
        )
        got = classify(spec, UNIT_LAPSE, OPEN_GATE)
        assert got.label == "Invalid"
        assert got.detail == "warped factor does not follow the product-family equation"
