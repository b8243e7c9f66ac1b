"""Run one staticgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/staticgeo`.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, measured by wrappers installed
around each layer (see tracer.py), plus the tracing overhead.  The lines
before it give each metric with its unit and sample count and the
environment; perfbench/out/ keeps the full record and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

SETUP_CHILDREN = 4


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit (used internally)")
    return p.parse_args(argv)


def timed_setup(workload: wl.Workload) -> tuple[float, float]:
    """Import the package, then build the workload's fixtures.

    Returns (set-up seconds, import seconds).
    """
    t0 = time.perf_counter()
    import staticgeo.cli  # noqa: F401

    t1 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0, t1 - t0


def child_setups(args) -> list[float]:
    """Set-up times of fresh interpreters, each importing from scratch."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def execute(run_one, req) -> tuple:
    """One request: (req, result, error, latency in s)."""
    t0 = time.perf_counter()
    try:
        result, error = run_one(req), None
    except Exception as exc:  # a raising request is a failed request
        result, error = None, f"{type(exc).__name__}: {exc}"
    return req, result, error, time.perf_counter() - t0


def measure(workload, decks, seconds: float) -> tuple[list, float]:
    """Closed loop over whole decks for about `seconds`.

    Returns (records, wall seconds).  A run ends at a deck boundary, so it
    holds the workload's mix exactly and the percentiles do not move with
    how far the last deck got.  Another deck starts while the run, ending
    half a mean deck later, would still end before `seconds`.
    """
    records = []
    start = time.perf_counter()
    for done, deck in enumerate(decks, 1):
        for req in deck:
            records.append(execute(workload.execute, req))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            return records, elapsed


def check_all(workload, records) -> tuple[int, list[str]]:
    """Failed-request count and the inconsistencies found.

    Misses count as failed requests and make the run incorrect: every
    workload deals only inputs the program is expected to answer.
    """
    failed, issues = 0, []
    for i, (req, result, error, _) in enumerate(records):
        what = f"request {i} {json.dumps(req, sort_keys=True)}"
        missed, bad = (True, None) if error is not None else workload.check(req, result)
        failed += bool(missed)
        if bad:
            issues.append(f"{what}: {bad}")
        if missed:
            issues.append(f"{what}: failed{': ' + error if error else ''}")
    return failed, issues


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def exact_counts() -> dict[str, float]:
    """Profile evaluations, frame builds and verify_pair calls of one classify.

    Counted on the default catalog entries, so they repeat exactly.
    """
    from staticgeo import catalog, static_verifier

    out = {}
    for name in ("example3", "type_iv"):
        entry = catalog.build_entry(name)
        t = tr.Tracer()
        t.request = 0
        undo = tr.install(t)
        try:
            static_verifier.classify(entry.spec, entry.lapse)
        finally:
            tr.uninstall(undo)
        m = tr.layer_metrics(t.spans, 1)
        leaf = sum(m[f"profiles.eval_calls.{k}"] for k in tr.LEAF_KINDS)
        base = f"counts.classify_{name}"
        out[f"{base}.profile_evals"] = leaf + m["profiles.eval_calls.derived"]
        out[f"{base}.leaf_evals"] = leaf
        out[f"{base}.ode_backed_evals"] = m["profiles.eval_calls.ode_backed"]
        out[f"{base}.frame_builds"] = m["curvature_engine.frame_builds"]
        out[f"{base}.verify_pair_calls"] = m["static_verifier.verify_pair_calls"]
    return out


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("request,index,parent,name,start_ns,end_ns\n")
        for i, (req, name, t0, t1, parent, _) in enumerate(spans):
            fh.write(f"{req},{i},{parent},{name},{t0},{t1}\n")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = None
    if (wl.ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                                  capture_output=True, text=True, timeout=10)
            rev = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "staticgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    try:
        import scipy
    except ImportError:
        scipy = None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy and scipy.__version__,
        "threads": {v: os.environ.get(v) for v in wl.THREAD_VARS},
    }


def end_to_end(workload, records, wall, setups) -> tuple[dict, dict]:
    lat_ms = [r[3] * 1e3 for r in records]
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 90),
        "requests_per_s": len(records) / wall,
        "peak_rss_mb": workload.peak_rss_mb(records),
    }
    units = unit_table()
    metrics = {k: (v, units[k]) for k, v in values.items()}
    samples = {
        "setup_s": len(setups),
        "latency_p50_ms": len(lat_ms),
        "latency_p90_ms": len(lat_ms),
        "requests_per_s": len(records),
        "peak_rss_mb": len(records) if isinstance(workload, wl.CliCold) else 1,
    }
    return metrics, samples


def run(args) -> int:
    wl.OUT.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload]()
    setups = child_setups(args)
    setup_s, import_s = timed_setup(workload)
    setups.append(setup_s)
    try:
        if not args.trace:
            records, wall = measure(workload, workload.decks(args.seed), args.seconds)
            failed, issues = check_all(workload, records)
            metrics, samples = end_to_end(workload, records, wall, setups)
            extra = {}
        else:
            records, failed, issues, metrics, samples, extra = traced_run(
                workload, workload.requests(args.seed), args, import_s
            )
    finally:
        workload.close()

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} requests, {failed} failed "
          f"(fail ratio {failed / len(records):.4g}), {len(issues)} issues")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:14s} (n={samples[name]})")
    for issue in issues[:20]:
        print(f"  issue: {issue}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not issues,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    latencies = [{"request": r[0], "ms": r[3] * 1e3, "error": r[2]} for r in records]
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, samples=samples, env=env, issues=issues,
                  setup_runs_s=setups, requests=latencies, **extra)
    (wl.OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def traced_run(workload, stream, args, import_s):
    """Each request twice, untraced and traced, in alternating order.

    Pairing the two runs of a request keeps warm-up drift out of the
    tracing overhead; the per-layer figures come from the traced runs.
    """
    tracer = tr.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        req = next(stream)
        for with_tracing in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_tracing:
                tracer.request = len(traced)
                traced.append(execute(lambda r: workload.execute_traced(r, tracer), req))
            else:
                plain.append(execute(workload.execute, req))
    spans = tracer.spans
    records = plain + traced
    failed, issues = check_all(workload, records)
    layers = tr.layer_metrics(spans, len(traced))
    if not isinstance(workload, wl.CliCold):
        layers["cli.import_ms"] = import_s * 1e3  # the one import of set-up
    layers.update(exact_counts())
    layers["profiles.sampled_probe_passes"] = wl.sampled_probe()
    base = [r[3] * 1e3 for r in plain]
    with_tracing = [r[3] * 1e3 for r in traced]
    layers["tracing.overhead_p50_ms"] = (
        statistics.median(with_tracing) - statistics.median(base)
    )
    layers["tracing.overhead_p90_ms"] = (
        percentile(with_tracing, 90) - percentile(base, 90)
    )
    units = unit_table()
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    samples = {k: len(traced) for k in layers}
    write_spans(wl.OUT / f"{args.workload}.spans.csv", spans)
    return records, failed, issues, metrics, samples, {"spans": len(spans)}


def unit_table() -> dict[str, str]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = _args(argv)
    for var in wl.THREAD_VARS:
        os.environ[var] = "1"
    if not (wl.SRC / "staticgeo" / "cli.py").is_file():
        print(f"error: no staticgeo sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    if args.setup_only:
        workload = wl.WORKLOADS[args.workload]()
        try:
            setup_s, _ = timed_setup(workload)
        finally:
            workload.close()
        print(f"setup_s {setup_s!r}")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
