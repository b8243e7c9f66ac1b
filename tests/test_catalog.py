"""Reference catalog: construction, metadata, and end-to-end behavior.

Several builder outputs have closed forms that the constructions must
hit exactly: the example5 start value is the real root of
2a/3 = k h^3, the type_iv turning points solve a biquadratic with roots
2 +/- sqrt(2), and the rigid-fiber period is 2 pi / sqrt((n-2) k).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from staticgeo.catalog import (
    BUILDERS,
    CATALOG_NAMES,
    EXPECTED_LABELS,
    build_entry,
    build_example1,
    build_example2,
    build_example4,
    build_flat,
    build_round_sphere,
    build_type_ii,
    build_type_iii,
    build_type_iv,
)
from staticgeo.errors import BadRange, NonPositiveInput, WrongSign, ZeroK
from staticgeo.ode_solver import WarpingODEParams, first_integral
from staticgeo.static_verifier import classify, tier_for
from staticgeo.warped_geometry import _problem_dict, load_problem, validate_spec

# Values produced by these builders and frozen as regression anchors.
EXAMPLE4_PERIOD = 2.8383764512400584
ODE_ENTRY_NAMES = ("example3", "example4", "example5", "type_iv")


# ---------------------------------------------------------------------------
# Catalog-wide contracts


class TestCatalogContracts:
    def test_name_tables_agree(self):
        assert CATALOG_NAMES == tuple(BUILDERS)
        assert set(EXPECTED_LABELS) == set(CATALOG_NAMES)
        assert len(CATALOG_NAMES) == 10

    def test_entry_names_and_labels(self, catalog_entries):
        assert tuple(e.name for e in catalog_entries) == CATALOG_NAMES
        for e in catalog_entries:
            assert e.expected_label == EXPECTED_LABELS[e.name]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_specs_validate(self, entry_by_name, name):
        assert validate_spec(entry_by_name[name].spec).ok

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_classification_matches_the_expected_label(self, entry_by_name, name):
        e = entry_by_name[name]
        got = classify(e.spec, e.lapse)
        assert got.label == e.expected_label, got.detail

    def test_entries_are_frozen(self, catalog_entries):
        with pytest.raises(dataclasses.FrozenInstanceError):
            catalog_entries[0].name = "renamed"


# The ten defaults plus the variants that take the other branch of a builder.
ENTRY_RULE_CASES = [(name, {}) for name in CATALOG_NAMES] + [
    ("type_iv", {"R": -5.0}),
    ("type_iv", {"r": 5, "R": 0.0}),
    ("example5", {"length": 1.0}),
]


class TestEntryRule:
    """Every builder returns through one entry constructor."""

    @pytest.fixture(scope="class", params=ENTRY_RULE_CASES,
                    ids=lambda c: c[0] + "".join(f"-{k}={v}" for k, v in c[1].items()))
    def entry(self, request):
        name, overrides = request.param
        return build_entry(name, **overrides)

    def test_compact_iff_it_has_a_period(self, entry):
        assert entry.compact == (entry.period is not None)

    def test_compact_domain_is_one_period(self, entry):
        if entry.compact:
            assert entry.spec.domain == (0.0, entry.period)

    def test_ode_lapse_is_derived_from_block_zero(self, entry):
        if entry.name not in ODE_ENTRY_NAMES:
            return
        warping = entry.spec.blocks[0].warping
        assert warping.kind == "ode-backed"
        assert entry.lapse.kind == "derived"
        assert entry.lapse.params == (1.0,)
        assert entry.lapse.profile.base is warping.profile
        s = entry.spec.evaluation_grid()
        np.testing.assert_array_equal(entry.lapse.value(s), warping.derivative(s, 1))


# ---------------------------------------------------------------------------
# Wire format round trips


class TestWireRoundTrip:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_entries_survive_json(self, entry_by_name, name):
        e = entry_by_name[name]
        doc = json.loads(json.dumps(e.to_problem_dict()))
        spec, lapse = load_problem(doc)
        assert spec.n == e.spec.n
        assert spec.domain == e.spec.domain
        assert spec.grid_points == e.spec.grid_points
        s = e.spec.evaluation_grid()
        for original, rebuilt in zip(e.spec.blocks, spec.blocks):
            assert rebuilt.dim == original.dim
            assert rebuilt.model == original.model
            assert rebuilt.k == original.k
            assert rebuilt.warping.kind == original.warping.kind
            np.testing.assert_array_equal(
                rebuilt.warping.value(s), original.warping.value(s)
            )
        assert lapse.kind == e.lapse.kind
        np.testing.assert_array_equal(lapse.value(s), e.lapse.value(s))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_documents_keep_their_fields(self, entry_by_name, name):
        e = entry_by_name[name]
        spec, lapse = e.spec, e.lapse
        fields = {
            "n": spec.n,
            "domain": list(spec.domain),
            "grid": spec.grid_points,
            "blocks": [
                {
                    "dim": b.dim,
                    "warping": {"kind": b.warping.kind, "params": list(b.warping.params)},
                    "model": b.model,
                    "k": b.k,
                }
                for b in spec.blocks
            ],
            "lapse": {"kind": lapse.kind, "params": list(lapse.params)},
        }
        dumped = json.dumps(e.to_problem_dict(), indent=2, sort_keys=True)
        assert dumped == json.dumps(fields, indent=2, sort_keys=True)
        # Default entries integrate at the default step, which is not written.
        for b in spec.blocks:
            if b.warping.kind == "ode-backed":
                assert len(b.warping.params) == 5

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_documents_are_fixed_points_of_a_reload(self, entry_by_name, name):
        doc = json.loads(json.dumps(entry_by_name[name].to_problem_dict()))
        assert _problem_dict(*load_problem(doc)) == doc

    # Integer overrides, as `catalog build --set k=2` passes them: the
    # document is compared as text, where 2 and 2.0 differ.
    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("example1", {"k": 1}), ("example2", {"k": 1}), ("example3", {"k": 2}),
            ("example3", {"a": 1}), ("example4", {"a": 1}), ("example5", {"a": 1}),
            ("type_iv", {"c0": 1}), ("type_iv", {"k": 3}),
        ],
    )
    def test_integer_overrides_write_stable_documents(self, name, overrides):
        dumped = json.dumps(build_entry(name, **overrides).to_problem_dict(), sort_keys=True)
        reloaded = _problem_dict(*load_problem(json.loads(dumped)))
        assert json.dumps(reloaded, sort_keys=True) == dumped

    def test_problem_dict_shape(self, entry_by_name):
        doc = entry_by_name["type_ii"].to_problem_dict()
        assert set(doc) == {"n", "domain", "grid", "blocks", "lapse"}
        assert [b["dim"] for b in doc["blocks"]] == [1, 3]
        assert doc["lapse"]["kind"] == "sin-cos"


# ---------------------------------------------------------------------------
# Structure pinned by closed forms


class TestBuiltStructure:
    def test_round_sphere_blocks(self, entry_by_name):
        e = entry_by_name["round_sphere"]
        assert e.spec.n == 5
        assert e.spec.blocks[0].k == 1.0
        assert not e.compact and e.period is None

    def test_rigid_fiber_period(self, entry_by_name):
        # f'' = -(n-2) k f at n = 5, k = 1/2 oscillates with omega^2 = 3/2.
        e = entry_by_name["example2"]
        assert e.compact
        assert e.period == 2.0 * math.pi / math.sqrt(1.5)
        assert e.spec.domain == (0.0, e.period)

    def test_example1_is_open(self, entry_by_name):
        e = entry_by_name["example1"]
        assert not e.compact and e.period is None

    def test_example3_starts_at_the_outer_turning_point(self, entry_by_name):
        tag = entry_by_name["example3"].spec.blocks[0].warping.params
        assert tag == (4.0, 1.0, 1.0, pytest.approx(1.303438047363767, abs=5e-14), 0.0)

    def test_example4_period_regression(self, entry_by_name):
        e = entry_by_name["example4"]
        assert e.compact
        assert e.period == pytest.approx(EXAMPLE4_PERIOD, abs=1e-10)
        assert e.spec.domain == (0.0, e.period)

    def test_example5_starts_at_the_barrier_root(self, entry_by_name):
        # With R = 0 the potential is 2a/3 h^(-3); at k = 1 the barrier
        # sits exactly at h = (2/3)^(1/3).
        tag = entry_by_name["example5"].spec.blocks[0].warping.params
        assert tag[0] == 4.0 and tag[1] == 0.0
        assert tag[3] == pytest.approx((2.0 / 3.0) ** (1.0 / 3.0), abs=1e-14)

    @pytest.mark.parametrize(
        "name, fiber_k", [("type_ii", 1.0), ("type_iii", -1.0)]
    )
    def test_circle_over_fiber_curvature(self, entry_by_name, name, fiber_k):
        # R/((n-1)(n-3)) at n = 5, R = +/-8 lands exactly on +/-1.
        e = entry_by_name[name]
        assert e.spec.blocks[0].dim == 1
        assert e.spec.blocks[1].k == fiber_k

    def test_type_iv_structure(self, entry_by_name):
        e = entry_by_name["type_iv"]
        assert e.compact
        # p = 3 with c1 = 1/4 is the isochronous family: period 2 pi.
        assert e.period == pytest.approx(2.0 * math.pi, rel=1e-14)
        tag = e.spec.blocks[0].warping.params
        assert tag[:3] == (3.0, 0.25, 1.0)
        # k = 3 makes the turning points roots of h^4/4 - 3 h^2 + 1 = 0.
        assert tag[3] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-13)
        # Rigid factor curvature R/((n-1)(n-r-1)) = 5/(5*1) at n=6, r=4.
        assert e.spec.blocks[1].k == 1.0

    @pytest.mark.parametrize("name", ODE_ENTRY_NAMES)
    def test_fiber_curvature_equals_the_conserved_quantity(
        self, entry_by_name, name
    ):
        # The warped block's space-form constant must equal the first
        # integral of its trajectory, pointwise along the grid.
        e = entry_by_name[name]
        block = e.spec.blocks[0]
        tag = block.warping.params
        params = WarpingODEParams(
            int(tag[0]), tag[1], tag[2], tag[3], tag[4], e.spec.domain
        )
        s = e.spec.evaluation_grid()
        k = first_integral(
            params, block.warping.value(s), block.warping.derivative(s, 1)
        ).value
        np.testing.assert_allclose(k, block.k, atol=1e-8)

    @pytest.mark.parametrize("name", ODE_ENTRY_NAMES)
    def test_ode_entries_use_the_loose_tier(self, entry_by_name, name):
        e = entry_by_name[name]
        assert tier_for(e.spec, e.lapse).residual == 1e-5


# ---------------------------------------------------------------------------
# Builder refusals


class TestBuilderRefusals:
    def test_build_entry_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            build_entry("klein_bottle")

    def test_build_entry_passes_overrides(self):
        e = build_entry("round_sphere", n=4)
        assert e.spec.n == 4

    @pytest.mark.parametrize("builder", [build_round_sphere, build_flat])
    def test_low_dimension(self, builder):
        with pytest.raises(BadRange, match="n >= 3"):
            builder(n=2)

    @pytest.mark.parametrize("builder", [build_type_ii, build_type_iii])
    def test_circle_over_fiber_needs_four_dimensions(self, builder):
        with pytest.raises(BadRange, match="need n >= 4"):
            builder(n=3)

    def test_rigid_fiber_needs_curvature(self):
        with pytest.raises(ZeroK):
            build_example1(k=0.0)

    def test_closed_rigid_fiber_needs_positive_curvature(self):
        with pytest.raises(WrongSign):
            build_example2(k=-0.5)

    def test_no_closed_orbit_below_the_threshold(self):
        # k_0 = 5/3 at the default n = 5, R = 20, a = 1.
        with pytest.raises(BadRange, match="no closed orbit"):
            build_example4(k=1.0)

    @pytest.mark.parametrize("R", [0.0, -8.0])
    def test_type_ii_sign_guard(self, R):
        with pytest.raises(WrongSign, match="R > 0"):
            build_type_ii(R=R)

    @pytest.mark.parametrize("R", [0.0, 8.0])
    def test_type_iii_sign_guard(self, R):
        with pytest.raises(WrongSign, match="R < 0"):
            build_type_iii(R=R)

    @pytest.mark.parametrize("r", [2, 6])
    def test_type_iv_factor_dimension_bounds(self, r):
        with pytest.raises(BadRange, match="3 <= r <= n-1"):
            build_type_iv(n=6, r=r)

    def test_type_iv_line_factor_forces_zero_scalar(self):
        with pytest.raises(BadRange, match="forces R = 0"):
            build_type_iv(n=6, r=5, R=5.0)

    @pytest.mark.parametrize("c0", [0.0, -1.0])
    def test_type_iv_needs_positive_forcing(self, c0):
        with pytest.raises(NonPositiveInput):
            build_type_iv(c0=c0)


# ---------------------------------------------------------------------------
# Non-default parameter excursions


class TestParameterExcursions:
    def test_type_iv_line_factor_variant(self):
        # r = n-1 with R = 0 is legitimate: open trajectory, line factor.
        e = build_type_iv(n=6, r=5, R=0.0, c0=1.0, k=3.0)
        assert e.spec.blocks[1].dim == 1
        assert e.spec.blocks[1].model == "line"
        assert not e.compact
        got = classify(e.spec, e.lapse)
        assert got.label == "TypeIV", got.detail

    def test_negative_scalar_type_iv_variant(self):
        e = build_type_iv(n=6, r=4, R=-5.0, c0=1.0, k=3.0)
        assert not e.compact and e.period is None
        got = classify(e.spec, e.lapse)
        assert got.label == "TypeIV", got.detail

    def test_negative_curvature_rigid_fiber(self):
        e = build_example1(k=-0.25)
        assert e.lapse.kind == "sinh-cosh"
        got = classify(e.spec, e.lapse)
        assert got.label == "DFlat_TypeI", got.detail

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_round_sphere_dimension_sweep(self, n):
        e = build_round_sphere(n=n)
        assert e.spec.n == n
        got = classify(e.spec, e.lapse)
        assert got.label == "Einstein", got.detail
