"""Command line driver: exit codes, JSON output, and determinism.

Every invocation goes through main(argv) in process, so exit codes and
emitted documents are asserted directly; files land in tmp_path.
"""

import copy
import filecmp
import json
import math
import os
import platform
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import staticgeo
from oracle_tools import loop_write_report
from staticgeo import cli
from staticgeo.catalog import CATALOG_NAMES, EXPECTED_LABELS, build_entry
from staticgeo.cli import main
from staticgeo.warped_geometry import load_problem


def write_json(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def flat_doc(grid=64):
    doc = build_entry("flat").to_problem_dict()
    doc["grid"] = grid
    return doc


def broken_lapse_doc(grid=64):
    """Flat spec with a lapse that misses the static equation by 0.2."""
    doc = flat_doc(grid)
    doc["lapse"] = {"kind": "poly", "params": [1.0, 0.0, 0.1]}
    return doc


def sampled_doc(name="round_sphere", samples=513):
    """The entry with its warpings and lapse resampled, trimmed three steps a side."""
    doc = build_entry(name).to_problem_dict()
    spec, lapse = load_problem(doc)
    lo, hi = spec.domain
    s = np.linspace(lo, hi, samples)
    ds = float(s[1] - s[0])

    def sampled(fn):
        values = np.broadcast_to(fn.value(s), s.shape).tolist()
        return {"kind": "sampled", "params": [lo, ds, *values]}

    for block, b in zip(doc["blocks"], spec.blocks):
        block["warping"] = sampled(b.warping)
    doc["lapse"] = sampled(lapse)
    doc["domain"] = [lo + 3 * ds, hi - 3 * ds]
    doc["grid"] = 64
    return doc


def vanishing_doc(n, domain, grid=64):
    """One (n-1)-block warped by sin(s) over domain, which reaches sin(s) <= 0."""
    return {
        "n": n,
        "domain": list(domain),
        "grid": grid,
        "blocks": [
            {
                "dim": n - 1,
                "model": "space_form",
                "k": 1.0,
                "warping": {"kind": "sin-scaled", "params": [1.0, 1.0]},
            }
        ],
        "lapse": {"kind": "sin-cos", "params": [0.0, 1.0, 1.0]},
    }


def half_covered_doc():
    """round_sphere with a sampled warping that covers only the first half of the domain."""
    doc = build_entry("round_sphere").to_problem_dict()
    lo, hi = doc["domain"]
    s = np.linspace(lo, (lo + hi) / 2.0, 129)
    params = [lo, float(s[1] - s[0]), *np.sin(s).tolist()]
    doc["blocks"][0]["warping"] = {"kind": "sampled", "params": params}
    return doc


def zero_dim_block_doc():
    """The flat document with a second, zero-dimensional block."""
    doc = flat_doc()
    doc["blocks"].append(
        {"dim": 0, "model": "space_form", "k": 0.0,
         "warping": {"kind": "constant", "params": [1.0]}}
    )
    return doc


def strict_json(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        path = write_json(tmp_path, flat_doc())
        code, out, _ = run(capsys, ["verify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["tolerance"] == 1e-8
        assert doc["max_sup"] <= 1e-8
        assert "static_11" in doc["channels"]
        assert set(doc["channels"]["static_11"]) == {
            "sup", "argmax_index", "argmax_s",
        }

    def test_residual_failure(self, tmp_path, capsys):
        path = write_json(tmp_path, broken_lapse_doc())
        code, out, _ = run(capsys, ["verify", path])
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["channels"]["static_11"]["sup"] == pytest.approx(0.2, rel=1e-12)

    def test_tolerance_override(self, tmp_path, capsys):
        path = write_json(tmp_path, broken_lapse_doc())
        code, out, _ = run(capsys, ["verify", path, "--tol", "0.5"])
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.5

    def test_invalid_spec_reports_violations(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        unit_lapse = {"kind": "constant", "params": [1.0]}
        for doc in (
            dict(vanishing_doc(4, (0.0, 6.0)), lapse=unit_lapse),
            vanishing_doc(5, (-1.0, 1.0)),
        ):
            for command in ("verify", "classify", "report"):
                argv = [command, write_json(tmp_path, doc)]
                argv += [str(target)] if command == "report" else []
                code, out, _ = run(capsys, argv)
                assert code == 1, command
                emitted = json.loads(out)
                assert emitted["valid"] is False
                assert any(v[1] == "block[0].positivity" for v in emitted["violations"])
                assert not target.exists()

    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    @pytest.mark.parametrize(
        "make, violation",
        [
            (half_covered_doc, [-1, "block[0].coverage", None]),
            (zero_dim_block_doc, [-1, "block[1].dim", 0.0]),
        ],
        ids=["coverage", "dim"],
    )
    def test_refusals_print_strict_json(self, tmp_path, capsys, command, make, violation):
        # A coverage violation carries no value: it prints as null, not NaN.
        target = tmp_path / "out.csv"
        argv = [command, write_json(tmp_path, make())]
        code, out, _ = run(capsys, argv + ([str(target)] if command == "report" else []))
        assert code == 1
        assert strict_json(out) == {"valid": False, "violations": [violation]}
        assert not target.exists()

    @pytest.mark.parametrize("step", [0.0, -0.01])
    @pytest.mark.parametrize("role", ["warping", "lapse"])
    def test_non_positive_sample_step_is_bad_input(self, tmp_path, capsys, role, step):
        doc = sampled_doc()
        fn = doc["blocks"][0]["warping"] if role == "warping" else doc["lapse"]
        fn["params"][1] = step
        code, out, err = run(capsys, ["verify", write_json(tmp_path, doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("bad input") and "sample step must be positive" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_bad_input(self, tmp_path, capsys, tol):
        path = write_json(tmp_path, flat_doc())
        code, out, err = run(capsys, ["verify", path, f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert err.startswith("bad input") and "--tol must be finite" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["verify", str(tmp_path / "absent.json")])
        assert code == 3
        assert "i/o error" in err

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("lapse"),
            lambda d: d.pop("blocks"),
            lambda d: d["blocks"][0]["warping"].update(kind="spline"),
            lambda d: d.update(n=9),
            lambda d: d.update(grid=1e400),
            lambda d: d["lapse"].update(params=[10**400, 0.5]),
        ],
    )
    def test_schema_errors(self, tmp_path, capsys, mangle):
        doc = flat_doc()
        mangle(doc)
        path = write_json(tmp_path, doc)
        code, _, err = run(capsys, ["verify", path])
        assert code == 2
        assert "bad input" in err

    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    def test_constant_lapse_without_a_value(self, tmp_path, capsys, command):
        doc = flat_doc()
        doc["lapse"] = {"kind": "constant", "params": []}
        path = write_json(tmp_path, doc)
        argv = [command, path] + ([str(tmp_path / "out.csv")] if command == "report" else [])
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("bad input") and "Traceback" not in err

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d["lapse"].update(params=[1.0, 0.5, 0.25]),
            lambda d: d["lapse"].update(kind="constant"),
            lambda d: d["blocks"][0]["warping"].update(
                kind="ode-backed", params=[4.7, 1.0, 1.0, 1.3, 0.0]
            ),
            lambda d: d.update(lapse={"kind": "derived", "params": [1.0, 0.5]}),
            lambda d: d["blocks"][0].update(dim=3.7),
            lambda d: d.update(n=4.7),
            lambda d: d.update(grid=64.9),
            lambda d: (d["blocks"][0].update(dim=3.7), d.update(n=4.7, grid=64.9)),
        ],
    )
    def test_parameters_are_never_dropped_or_truncated(self, tmp_path, capsys, mangle):
        doc = flat_doc()
        mangle(doc)
        code, _, err = run(capsys, ["verify", write_json(tmp_path, doc)])
        assert code == 2
        assert "bad input" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "garbled.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == 2
        assert "bad input" in err


# Each place a document can carry a number that is not finite: the document
# it starts from and where the number goes.
NON_FINITE_PLACES = {
    "lapse sample": (sampled_doc, lambda d, x: d["lapse"]["params"].__setitem__(100, x)),
    "sample step": (sampled_doc, lambda d, x: d["lapse"]["params"].__setitem__(1, x)),
    "warping sample": (
        sampled_doc, lambda d, x: d["blocks"][0]["warping"]["params"].__setitem__(100, x)
    ),
    "warping parameter": (
        lambda: build_entry("round_sphere").to_problem_dict(),
        lambda d, x: d["blocks"][0]["warping"]["params"].__setitem__(0, x),
    ),
    "domain start": (sampled_doc, lambda d, x: d["domain"].__setitem__(0, x)),
    "domain end": (sampled_doc, lambda d, x: d["domain"].__setitem__(1, x)),
    "k": (sampled_doc, lambda d, x: d["blocks"][0].__setitem__("k", x)),
}


@pytest.mark.filterwarnings("error")
class TestNonFiniteNumbers:
    def test_the_sampled_document_itself_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["verify", write_json(tmp_path, sampled_doc())])
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("place", list(NON_FINITE_PLACES))
    def test_refused_as_bad_input(self, tmp_path, capsys, command, bad, place):
        make, mangle = NON_FINITE_PLACES[place]
        doc = make()
        mangle(doc, bad)
        target = tmp_path / "out.csv"
        argv = [command, write_json(tmp_path, doc)]
        code, out, err = run(capsys, argv + ([str(target)] if command == "report" else []))
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("bad input") and "finite" in err


# A string, a boolean or an int too large for a float where a number belongs,
# a number where a list belongs and a list or an object where a kind name
# belongs, in the round_sphere document, and the words of the refusal that
# name the field.
NON_NUMBER_PLACES = {
    "grid": (lambda d: d.__setitem__("grid", "64"), "grid must be a number, got '64'"),
    "dim": (lambda d: d["blocks"][0].__setitem__("dim", "4"),
            "block dimension must be a number, got '4'"),
    "k": (lambda d: d["blocks"][0].__setitem__("k", True),
          "curvature constant k must be a number, got True"),
    "domain start": (lambda d: d["domain"].__setitem__(0, "0.15"),
                     "domain start must be a number, got '0.15'"),
    "warping parameter": (lambda d: d["blocks"][0]["warping"]["params"].__setitem__(0, "1.0"),
                          "sin-scaled warping parameter 0 must be a number, got '1.0'"),
    "lapse parameter": (lambda d: d["lapse"]["params"].__setitem__(2, False),
                        "sin-cos lapse parameter 2 must be a number, got False"),
    "warping params": (lambda d: d["blocks"][0]["warping"].__setitem__("params", 5),
                       "sin-scaled warping params must be a list, got int"),
    "lapse params": (lambda d: d["lapse"].__setitem__("params", 5),
                     "sin-cos lapse params must be a list, got int"),
    "list lapse kind": (lambda d: d["lapse"].__setitem__("kind", ["sin-cos"]),
                        "unknown lapse kind ['sin-cos']"),
    "object lapse kind": (lambda d: d["lapse"].__setitem__("kind", {"sin-cos": 1}),
                          "unknown lapse kind {'sin-cos': 1}"),
    "huge grid": (lambda d: d.__setitem__("grid", 10**400), "grid is too large for a float"),
    "huge n": (lambda d: d.__setitem__("n", 10**400), "n is too large for a float"),
    "huge k": (lambda d: d["blocks"][0].__setitem__("k", 10**400),
               "curvature constant k is too large for a float"),
    "huge lapse parameter": (lambda d: d["lapse"]["params"].__setitem__(1, 10**400),
                             "sin-cos lapse parameter 1 is too large for a float"),
}


class TestNonNumbers:
    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    @pytest.mark.parametrize("place", list(NON_NUMBER_PLACES))
    def test_refused_as_bad_input(self, tmp_path, capsys, command, place):
        mangle, words = NON_NUMBER_PLACES[place]
        doc = build_entry("round_sphere").to_problem_dict() | {"grid": 64}
        mangle(doc)
        target = tmp_path / "out.csv"
        argv = [command, write_json(tmp_path, doc)]
        code, out, err = run(capsys, argv + ([str(target)] if command == "report" else []))
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("bad input") and words in err


def overflowing_doc():
    """round_sphere at 64 points with a warping amplitude of 1e308: the residuals overflow."""
    doc = build_entry("round_sphere").to_problem_dict() | {"grid": 64}
    doc["blocks"][0]["warping"]["params"][0] = 1e308
    return doc


class TestNonFiniteAnswers:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_print_as_null(self, tmp_path, capsys, command):
        code, out, _ = run(capsys, [command, write_json(tmp_path, overflowing_doc())])
        assert code == 1
        doc = strict_json(out)
        if command == "verify":
            assert doc["pass"] is False and doc["max_sup"] is None
            assert all(c["sup"] is None for c in doc["channels"].values())
        else:
            assert doc["label"] == "Invalid" and doc["diagnostics"]["d_sup"] is None

    def test_emit_prints_every_non_finite_float_as_null(self, capsys):
        cli._emit({"a": [1.5, math.nan, (math.inf, {"b": -math.inf})], "c": 2, "d": True,
                   "e": "NaN", "f": None, "g": -0.0})
        assert strict_json(capsys.readouterr().out) == {
            "a": [1.5, None, [None, {"b": None}]], "c": 2, "d": True, "e": "NaN", "f": None,
            "g": -0.0,
        }


# ---------------------------------------------------------------------------
# classify


class TestClassify:
    @pytest.mark.parametrize(
        "name, label", [("flat", "Einstein"), ("type_iii", "TypeIII")]
    )
    def test_good_labels(self, tmp_path, capsys, name, label):
        path = write_json(tmp_path, build_entry(name).to_problem_dict())
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == label
        assert doc["diagnostics"]["detail"]

    def test_invalid_exits_one(self, tmp_path, capsys):
        path = write_json(tmp_path, broken_lapse_doc())
        code, out, _ = run(capsys, ["classify", path])
        assert code == 1
        doc = json.loads(out)
        assert doc["label"] == "Invalid"
        assert doc["diagnostics"]["detail"].startswith("residual gate failed")

    def test_nan_residual_exits_one(self, tmp_path, capsys):
        # The warping vanishes at s = 0, so validation refuses the document.
        path = write_json(tmp_path, vanishing_doc(5, (-1.0, 1.0), grid=1025))
        with np.errstate(all="ignore"):
            code, out, _ = run(capsys, ["classify", path])
        assert code == 1
        assert json.loads(out)["valid"] is False


# ---------------------------------------------------------------------------
# solve-ode


class TestSolveOde:
    def test_integration_summary(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve-ode", "--power", "2", "--linear-coeff", "4.0",
                "--forcing", "0.0", "--h0", "1.0", "--domain", "0", "2",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["blow_up"] is False
        assert doc["h_end"] == pytest.approx(math.cos(4.0), abs=1e-10)
        assert doc["first_integral"] == pytest.approx(4.0, rel=1e-12)
        assert doc["first_integral_drift"] < 1e-11

    def test_blow_up_summary(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve-ode", "--power", "2", "--linear-coeff", "0.0",
                "--forcing", "-1.0", "--domain", "0", "2",
            ],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["blow_up"] is True
        assert 1.0 < doc["last_valid_s"] < 1.2

    def test_periodic_orbit(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve-ode", "--power", "4", "--linear-coeff", "1.0",
                "--forcing", "1.0", "--periodic", "--k", "2.0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["periodic"] is True
        assert doc["period"] == pytest.approx(2.8383764512400584, abs=1e-10)
        assert doc["h_min"] < 1.0 < doc["h_max"]
        assert doc["k"] == 2.0

    def test_no_orbit_below_threshold(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve-ode", "--power", "4", "--linear-coeff", "1.0",
                "--forcing", "1.0", "--periodic", "--k", "1.0",
            ],
        )
        assert code == 1
        assert json.loads(out) == {"periodic": False}

    def test_periodic_needs_k(self, capsys):
        code, _, err = run(
            capsys,
            [
                "solve-ode", "--power", "4", "--linear-coeff", "1.0",
                "--forcing", "1.0", "--periodic",
            ],
        )
        assert code == 2
        assert "--periodic needs --k" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--h0-prime", "nan"], "h0_prime"),
            (["--domain", "0", "inf"], "domain"),
            (["--step", "inf"], "step"),
            (["--periodic", "--k", "nan"], "k"),
        ],
    )
    def test_non_finite_input_is_bad_input(self, capsys, flags, field):
        code, out, err = run(
            capsys,
            ["solve-ode", "--power", "4", "--linear-coeff", "1.0", "--forcing", "1.0"] + flags,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("bad input") and field in err and "finite" in err

    def test_bad_power(self, capsys):
        code, _, err = run(
            capsys,
            [
                "solve-ode", "--power", "1", "--linear-coeff", "1.0",
                "--forcing", "1.0",
            ],
        )
        assert code == 2
        assert "bad input" in err

    @pytest.mark.parametrize(
        "flags", [["--step", "1e-300"], ["--periodic", "--k", "2", "--step", "1e-9"]],
        ids=["integrate", "periodic"],
    )
    def test_too_many_steps_is_bad_input(self, capsys, flags):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["solve-ode", "--power", "4", "--linear-coeff", "1.0", "--forcing", "1.0"] + flags,
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert err.startswith("bad input: step") and "more than 1048576" in err

    def test_document_step_with_too_many_steps_is_bad_input(self, tmp_path, capsys):
        doc = build_entry("type_iv").to_problem_dict()
        warping = doc["blocks"][0]["warping"]
        assert warping["kind"] == "ode-backed"
        warping["params"] = warping["params"][:5] + [1e-300]
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", write_json(tmp_path, doc)])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert err.startswith("bad input: step 1e-300") and "more than 1048576" in err


# ---------------------------------------------------------------------------
# catalog


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["catalog", "list"])
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [e["name"] for e in entries] == list(CATALOG_NAMES)
        for e in entries:
            assert e["expected_label"] == EXPECTED_LABELS[e["name"]]

    def test_list_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["catalog", "list"])
        _, second, _ = run(capsys, ["catalog", "list"])
        assert first == second

    def test_build(self, capsys):
        code, out, _ = run(capsys, ["catalog", "build", "round_sphere"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["label"] == "Einstein"
        assert doc["max_sup"] <= doc["tolerance"]
        assert doc["compact"] is False and doc["period"] is None

    def test_build_compact_entry(self, capsys):
        code, out, _ = run(capsys, ["catalog", "build", "example4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["period"] == pytest.approx(2.8383764512400584, abs=1e-10)

    def test_build_evaluates_one_frame(self, frame_builds, capsys):
        code, _, _ = run(capsys, ["catalog", "build", "type_iv"])
        assert code == 0
        assert len(frame_builds) == 1

    def test_build_needs_a_name(self, capsys):
        code, _, err = run(capsys, ["catalog", "build"])
        assert code == 2
        assert "catalog build needs an entry name" in err

    def test_build_unknown_name(self, capsys):
        code, _, err = run(capsys, ["catalog", "build", "klein_bottle"])
        assert code == 2
        assert "bad input" in err

    def test_build_with_overrides(self, capsys):
        code, out, _ = run(
            capsys, ["catalog", "build", "round_sphere", "--set", "n=7"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 7 and doc["pass"] is True

    def test_build_with_float_override(self, capsys):
        code, out, _ = run(
            capsys, ["catalog", "build", "type_ii", "--set", "R=12.5"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_bad_override_syntax(self, capsys):
        code, _, err = run(
            capsys, ["catalog", "build", "flat", "--set", "n:4"]
        )
        assert code == 2
        assert "key=value" in err

    def test_builder_refusal_maps_to_schema_error(self, capsys):
        code, _, err = run(
            capsys, ["catalog", "build", "example4", "--set", "k=1.0"]
        )
        assert code == 2
        assert "no closed orbit" in err

    def test_fractional_dimension_is_refused(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        code, out, err = run(capsys, [
            "catalog", "build", "round_sphere", "--set", "n=5.5", "--out", str(target),
        ])
        assert code == 2 and out == ""
        assert err.startswith("bad input") and "must be an integer" in err
        assert not target.exists()

    def test_integral_float_override_builds(self, tmp_path, capsys):
        target = tmp_path / "type_iv.json"
        code, out, _ = run(capsys, [
            "catalog", "build", "type_iv", "--set", "r=4.0", "--out", str(target),
        ])
        assert code == 0 and json.loads(out)["pass"] is True
        written = json.loads(target.read_text(encoding="utf-8"))
        assert written["n"] == 6 and [b["dim"] for b in written["blocks"]] == [3, 2]
        assert '"dim": 3,' in target.read_text(encoding="utf-8")

    def test_out_file_round_trips(self, tmp_path, capsys):
        target = tmp_path / "type_ii.json"
        code, out, _ = run(
            capsys, ["catalog", "build", "type_ii", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(out)["written"] == str(target)
        written = json.loads(target.read_text(encoding="utf-8"))
        spec, lapse = load_problem(written)
        assert spec.n == 5 and lapse.kind == "sin-cos"
        code, out, _ = run(capsys, ["verify", str(target)])
        assert code == 0
        assert json.loads(out)["pass"] is True


# ---------------------------------------------------------------------------
# report


FLAT_HEADER = "s,h_0,xi_0,lambda1,lambda_0,R,f,static_11,static_0,D_0"


class TestReport:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_argmax_index_is_a_report_row(self, tmp_path, capsys, name):
        doc = build_entry(name).to_problem_dict() | {"grid": 257}
        code, out, _ = run(capsys, ["verify", write_json(tmp_path, doc)])
        assert code == 0
        s = dict(cli._report_columns(*load_problem(doc)))["s"]
        assert s.shape == (257,)
        for channel in json.loads(out)["channels"].values():
            assert s[channel["argmax_index"]] == channel["argmax_s"]

    def test_csv_shape_and_header(self, tmp_path, capsys):
        path = write_json(tmp_path, flat_doc(grid=64))
        target = tmp_path / "profile.csv"
        code, _, _ = run(capsys, ["report", path, str(target)])
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == FLAT_HEADER
        assert len(lines) == 1 + 64

    def test_csv_is_byte_identical_across_runs(self, tmp_path, capsys):
        path = write_json(tmp_path, build_entry("type_ii").to_problem_dict())
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert run(capsys, ["report", path, str(first)])[0] == 0
        assert run(capsys, ["report", path, str(second)])[0] == 0
        assert filecmp.cmp(first, second, shallow=False)

    def test_two_block_columns(self, tmp_path, capsys):
        doc = build_entry("type_ii").to_problem_dict()
        doc["grid"] = 32
        path = write_json(tmp_path, doc)
        target = tmp_path / "profile.csv"
        assert run(capsys, ["report", path, str(target)])[0] == 0
        header = target.read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "s,h_0,h_1,xi_0,xi_1,lambda1,lambda_0,lambda_1,R,f,"
            "static_11,static_0,static_1,D_0,D_1"
        )

    def test_json_format(self, tmp_path, capsys):
        path = write_json(tmp_path, flat_doc(grid=48))
        target = tmp_path / "profile.json"
        code, _, _ = run(
            capsys, ["report", path, str(target), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["columns"] == FLAT_HEADER.split(",")
        assert len(doc["rows"]) == 48
        assert all(len(row) == len(doc["columns"]) for row in doc["rows"])

    def test_unwritable_target(self, tmp_path, capsys):
        path = write_json(tmp_path, flat_doc())
        target = tmp_path / "absent" / "profile.csv"
        code, _, err = run(capsys, ["report", path, str(target)])
        assert code == 3
        assert "i/o error" in err


BLOCK = cli._REPORT_BLOCK_ROWS


class TestReportBytes:
    """The block writer against the row-by-row writer in oracle_tools."""

    @staticmethod
    def both(tmp_path, capsys, doc, fmt):
        expected, target = tmp_path / "rows.out", tmp_path / "blocks.out"
        loop_write_report(cli._report_columns(*load_problem(doc)), expected, fmt)
        argv = ["report", write_json(tmp_path, doc), str(target), "--format", fmt]
        assert run(capsys, argv)[0] == 0
        return expected.read_bytes(), target.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", [9, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("name", ["round_sphere", "type_ii"])
    def test_same_bytes_as_the_row_writer(self, tmp_path, capsys, name, grid, fmt):
        doc = build_entry(name).to_problem_dict()
        doc["grid"] = grid
        expected, written = self.both(tmp_path, capsys, doc, fmt)
        assert written == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_values(self, tmp_path, capsys, monkeypatch, fmt):
        specials = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3])
        x = np.resize(specials, BLOCK + 1)
        cols = [("s", np.linspace(0.0, 1.0, BLOCK + 1)), ("x", x), ("y", -x[::-1])]
        monkeypatch.setattr(cli, "_report_columns", lambda spec, lapse: cols)
        expected, written = self.both(tmp_path, capsys, flat_doc(), fmt)
        assert written == expected
        tokens = {
            "csv": [b"nan", b"-inf", b"-0,", b"4.9406564584124654e-324",
                    b"1.0000000000000001e+300"],
            "json": [b"NaN", b"-Infinity", b"-0.0", b"5e-324", b"1e+300"],
        }[fmt]
        assert all(t in written for t in tokens)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_file(self, tmp_path, capsys, fmt):
        # The row-by-row writer peaked at 13.7 MiB (JSON) and 16.8 MiB (CSV) on this report.
        doc = build_entry("type_iv").to_problem_dict()
        doc["grid"] = 16384
        argv = ["report", write_json(tmp_path, doc), str(tmp_path / "out"), "--format", fmt]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# grid environment override


class TestGridEnvironment:
    def test_overrides_the_default_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STATICGEO_GRID", "72")
        doc = flat_doc()
        del doc["grid"]
        path = write_json(tmp_path, doc)
        target = tmp_path / "profile.csv"
        assert run(capsys, ["report", path, str(target)])[0] == 0
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1 + 72

    def test_file_pins_beat_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STATICGEO_GRID", "72")
        path = write_json(tmp_path, flat_doc(grid=48))
        target = tmp_path / "profile.csv"
        assert run(capsys, ["report", path, str(target)])[0] == 0
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1 + 48

    def test_catalog_build_honors_the_environment(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("STATICGEO_GRID", "256")
        target = tmp_path / "flat.json"
        code, out, _ = run(
            capsys, ["catalog", "build", "flat", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True
        written = json.loads(target.read_text(encoding="utf-8"))
        assert written["grid"] == 256

    def test_rejects_non_integers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STATICGEO_GRID", "plenty")
        path = write_json(tmp_path, flat_doc())
        code, _, err = run(capsys, ["verify", path])
        assert code == 2
        assert "must be an integer" in err

    def test_rejects_tiny_grids(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STATICGEO_GRID", "8")
        path = write_json(tmp_path, flat_doc())
        code, _, err = run(capsys, ["verify", path])
        assert code == 2
        assert "too small" in err

    @pytest.mark.parametrize(
        "argv", [["verify"], ["catalog", "build", "flat"]], ids=["verify", "catalog-build"]
    )
    def test_rejects_grids_above_the_bound_at_once(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("STATICGEO_GRID", str(10**13))
        doc = flat_doc()
        del doc["grid"]
        if argv == ["verify"]:
            argv = argv + [write_json(tmp_path, doc)]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err.startswith("bad input:") and "at most 262144 points" in err


# ---------------------------------------------------------------------------
# Malformed documents: bad input (exit 2), never a traceback


# Document shapes that are bad input: where the document comes from, and how it is broken.
MALFORMED_PLACES = {
    "warping string": (flat_doc, lambda d: d["blocks"][0].__setitem__("warping", "x")),
    "lapse string": (flat_doc, lambda d: d.__setitem__("lapse", "x")),
    "blocks object": (flat_doc, lambda d: d.__setitem__("blocks", {"a": 1})),
    "one-element domain": (flat_doc, lambda d: d.__setitem__("domain", [1.0])),
    "grid 10^13": (flat_doc, lambda d: d.__setitem__("grid", 10**13)),
    # The default ODE step, domain length / 4096, rounds to zero.
    "underflowing ode step": (
        lambda: build_entry("type_iv").to_problem_dict(),
        lambda d: d.__setitem__("domain", [0.0, 1e-320]),
    ),
}


FUZZ_ENTRIES = ["round_sphere", "flat", "example1", "example3", "type_ii", "type_iv"]
FUZZ_VALUES = [
    None, True, "x", [], [1.0], {}, {"a": 1}, 1e308, -1e308, 1e-320, 10**13, 3 * 10**7, 0, -1,
]


def fields(node, path=()):
    """Paths of every field below node; a list's items count if it holds at most 8."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and len(node) <= 8:
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from fields(child, path + (key,))


def mutated(rng, doc):
    """doc with one or two fields replaced by a FUZZ_VALUES entry, or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        paths = list(fields(doc))
        if not paths:
            break
        *parent, key = rng.choice(paths)
        holder = doc
        for step in parent:
            holder = holder[step]
        if rng.random() < 0.2:
            del holder[key]
        else:
            holder[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


class TestMalformedDocuments:
    @pytest.mark.parametrize("place", list(MALFORMED_PLACES))
    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    def test_refused_as_bad_input(self, tmp_path, capsys, command, place):
        make, mangle = MALFORMED_PLACES[place]
        doc = make()
        mangle(doc)
        target = tmp_path / "out.csv"
        argv = [command, write_json(tmp_path, doc)]
        start = time.perf_counter()
        code, out, err = run(capsys, argv + ([str(target)] if command == "report" else []))
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("bad input:")

    # Huge numbers overflow in the residuals; their answers are still printed,
    # and main lets no RuntimeWarning out.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seeded_mutations_never_escape_main(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STATICGEO_GRID", raising=False)
        bases = {name: build_entry(name).to_problem_dict() | {"grid": 64} for name in FUZZ_ENTRIES}
        rng = random.Random(11)
        for i in range(300):
            doc = mutated(rng, bases[rng.choice(FUZZ_ENTRIES)])
            command = rng.choice(["verify", "classify", "report"])
            argv = [command, write_json(tmp_path, doc)]
            if command == "report":
                argv.append(str(tmp_path / "out.csv"))
            where = f"mutation {i}: {command} {json.dumps(doc)[:300]}"
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{where}\n{exc!r} escaped main")
            took = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert took < 5.0, where
            assert code in (0, 1, 2), where
            if code == 2:
                assert err.startswith("bad input:"), where
            elif command != "report" or code == 1:
                strict_json(out)


# ---------------------------------------------------------------------------
# Fresh processes: pytest has already imported scipy in this one, and OpenBLAS
# and NumPy choose their kernels once per process, so these guards run their
# probe in a new interpreter.


def run_fresh(code, **variables):
    """code's stdout in a new interpreter; variables set (None: unset) in its environment."""
    env = {k: v for k, v in (os.environ | variables).items() if v is not None}
    src = str(Path(staticgeo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.partition(":")[2].split())
    return set()


def numeric_settings() -> dict[str, dict[str, str]]:
    """Each BLAS kernel and NumPy SIMD path this CPU can run, as environment variables.

    A kernel the CPU lacks would die with SIGILL, so only present ones are named.
    """
    flags = cpu_flags()
    settings = {"default": {}, "Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
    if {"avx2", "fma"} <= flags:
        settings["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if "avx512f" in flags:
        settings["SkylakeX"] = {"OPENBLAS_CORETYPE": "SkylakeX"}
        settings["no AVX-512"] = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    return settings


class TestFreshProcess:
    @pytest.mark.skipif(
        platform.system() != "Linux" or platform.machine() != "x86_64",
        reason="OpenBLAS core types and NumPy CPU features of Linux on x86-64",
    )
    def test_sampled_answers_are_the_same_bytes_under_every_kernel(self, tmp_path):
        specs = []
        for name in ("round_sphere", "type_ii"):
            doc = sampled_doc(name, samples=1025) | {"grid": 256}
            specs.append(write_json(tmp_path, doc, f"{name}.json"))
        report = str(tmp_path / "report.csv")
        code = f"""
            from staticgeo.cli import main
            for spec in {specs!r}:
                for argv in (["verify", spec], ["classify", spec], ["report", spec, {report!r}]):
                    print(argv[0], main(argv))
                with open({report!r}, encoding="utf-8") as fh:
                    print(fh.read())
        """
        unset = {"OPENBLAS_CORETYPE": None, "NPY_DISABLE_CPU_FEATURES": None}
        outputs = {
            setting: run_fresh(code, **(unset | variables))
            for setting, variables in numeric_settings().items()
        }
        assert outputs["default"].count("verify 0") == 2
        for setting, out in outputs.items():
            assert out == outputs["default"], setting

    def test_cli_import_loads_no_scipy(self):
        out = run_fresh("""
            import sys
            import staticgeo.cli
            print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
        """)
        assert out.strip() == "[]"

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds"
    )
    @pytest.mark.parametrize("name", ["type_ii", "type_iv"])
    def test_requests_do_not_fault_their_temporaries_back_in(self, name):
        # Without a large block freed at import, glibc returns each request's
        # temporaries to the kernel and faults them back in on the next one.
        out = run_fresh(f"""
            import resource
            from staticgeo.catalog import build_entry
            from staticgeo.static_verifier import classify, verify_pair

            def request():
                e = build_entry({name!r})
                verify_pair(e.spec, e.lapse)
                classify(e.spec, e.lapse)

            for _ in range(3):
                request()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(10):
                request()
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
        """)
        assert float(out) < 50.0
