"""Self-tests of the benchmark: seeded inputs, metric names, output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_requests(name):
    make = wl.WORKLOADS[name]
    first = wl.request_list(make(), 3, 60)
    assert first == wl.request_list(make(), 3, 60)
    assert first != wl.request_list(make(), 4, 60)


def test_workloads_match_benchmark_json():
    assert set(wl.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_short_run_passes_its_checks(name):
    done = _run(name, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", ["cli_cold", "fine_grid"])
def test_traced_run_prints_every_layer_metric(name):
    done = _run(name, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exact_counts_repeat():
    first = run.exact_counts()
    assert first == run.exact_counts()
    assert all(v == int(v) and v > 0 for v in first.values())


def test_sampled_probe_repeats():
    first = wl.sampled_probe()
    assert first == wl.sampled_probe()
    assert 0 < first <= len(wl.PROBE_FAMILIES) * len(wl.PROBE_COUNTS)


def test_install_restores_originals():
    from staticgeo import catalog, curvature_engine, jets, profiles

    before = (catalog.integrate_warping, curvature_engine.jmul, jets.jmul,
              profiles.TrigProfile.derivative)
    t = tr.Tracer()
    undo = tr.install(t)
    assert catalog.integrate_warping is not before[0]
    assert curvature_engine.jmul is not before[1]
    try:
        catalog.build_entry("example3")
    finally:
        tr.uninstall(undo)
    names = {span[1] for span in t.spans}
    assert {"catalog.build_entry", "ode_solver.integrate_warping",
            "ode_solver.turning_point"} <= names
    after = (catalog.integrate_warping, curvature_engine.jmul, jets.jmul,
             profiles.TrigProfile.derivative)
    assert after == before


def test_self_time_excludes_children():
    spans = [
        (0, "a", 0, 100, -1, None),
        (0, "b", 10, 40, 0, None),
        (0, "c", 50, 60, 0, None),
        (0, "d", 12, 20, 1, None),
    ]
    assert tr.self_times(spans) == [60, 22, 10, 8]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("catalog_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
