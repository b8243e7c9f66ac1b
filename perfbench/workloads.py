"""The four benchmark workloads: seeded requests, set-up, execution, checks.

Each workload turns a seed into an endless stream of decks: a deck holds
every combination the workload covers once, in seeded order, and a timed
run plays whole decks.  The inputs depend on the seed only, never on the
program under test.

`execute` is the timed part of a request.  `check` compares its result
with what the benchmark expects and returns (missed, inconsistency).  A
miss (a wrong verdict, a wrong exit code, an exception) is a failed
request; no request of any workload is expected to fail.  An
inconsistency is output the benchmark cannot account for, such as a
command-line answer that differs from the library's answer on the same
document, or a malformed report.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The benchmark's own answer key, kept apart from the program's tables.
EXPECTED_LABELS = {
    "round_sphere": "Einstein",
    "flat": "Einstein",
    "example1": "DFlat_TypeI",
    "example2": "DFlat_TypeI",
    "example3": "DFlat_TypeI",
    "example4": "DFlat_TypeI",
    "example5": "DFlat_TypeI",
    "type_ii": "TypeII",
    "type_iii": "TypeIII",
    "type_iv": "TypeIV",
}
FAMILIES = tuple(EXPECTED_LABELS)
ODE_FAMILIES = ("example3", "example4", "example5", "type_iv")
ANALYTIC_FAMILIES = tuple(f for f in FAMILIES if f not in ODE_FAMILIES)
SAMPLED_FAMILIES = ("round_sphere", "example1", "example2", "type_ii", "type_iii")
# Resamplings that miss their label today because of the stencils'
# truncation and roundoff error (ROADMAP item 4) are kept out of the timed
# mix, where every request must pass; `sampled_probe` measures them.
PROBE_FAMILIES = ("round_sphere", "flat", "example1", "example2", "type_ii", "type_iii")
PROBE_COUNTS = (257, 1025, 4097)

# Acceptance bounds of the dense identity audits (tests/test_acceptance.py).
DCW_BOUND = 1e-8
DB_BOUND = 1e-6

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _potential_min(power: int, c1: float, c0: float) -> float:
    """Least value of the warping equation's conserved quantity."""
    h_star = (c0 / c1) ** (1.0 / (power + 1.0))
    return 2.0 * c0 / (power - 1.0) * h_star ** (-(power - 1.0)) + c1 * h_star**2


def family_params(rng: random.Random, name: str) -> dict:
    """Builder overrides drawn inside each builder's validity conditions.

    Closed orbits and outer turning points need R > 0 and a conserved value
    above the potential minimum; the draws keep a margin above it.
    """
    u = rng.uniform
    if name in ("round_sphere", "flat"):
        return {"n": rng.randint(3, 8)}
    if name in ("example1", "example2"):
        sign = rng.choice((-1.0, 1.0)) if name == "example1" else 1.0
        return {"n": rng.randint(3, 7), "k": sign * u(0.1, 2.0),
                "c1": u(-1.0, 1.0), "c2": u(0.5, 1.5)}
    if name in ("example3", "example4"):
        n, R, a = rng.randint(4, 7), u(10.0, 30.0), u(0.5, 2.0)
        k0 = _potential_min(n - 1, R / (n * (n - 1.0)), a)
        return {"n": n, "R": R, "a": a, "k": k0 * u(1.05, 1.5)}
    if name == "example5":
        return {"n": rng.randint(4, 7), "a": u(0.5, 2.0), "k": u(0.5, 2.0),
                "length": u(0.8, 1.5)}
    if name == "type_ii":
        return {"n": rng.randint(4, 7), "R": u(2.0, 16.0)}
    if name == "type_iii":
        return {"n": rng.randint(4, 7), "R": -u(2.0, 16.0)}
    if name == "type_iv":
        n = rng.randint(6, 8)
        r = rng.randint(3, n - 2)
        R, c0 = u(2.0, 10.0), u(0.5, 2.0)
        k_min = _potential_min(r - 1, R / ((n - 1.0) * r), c0)
        return {"n": n, "r": r, "R": R, "c0": c0, "k": k_min * u(1.1, 2.0)}
    raise KeyError(name)


class Workload:
    """One closed-loop client issuing one request at a time."""

    name = ""

    def deck(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def setup(self) -> None:
        """Import the program and build fixtures (timed as set-up)."""

    def execute(self, req: dict):
        raise NotImplementedError

    def check(self, req: dict, result) -> tuple[bool, str | None]:
        raise NotImplementedError

    def peak_rss_mb(self, records) -> float:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def execute_traced(self, req: dict, tracer: tr.Tracer):
        """`execute` with the layer wrappers installed."""
        undo = tr.install(tracer)
        try:
            return self.execute(req)
        finally:
            tr.uninstall(undo)

    def close(self) -> None:
        """Release what set-up made."""

    def decks(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.deck(rng)

    def requests(self, seed: int):
        return itertools.chain.from_iterable(self.decks(seed))


def request_list(workload: Workload, seed: int, count: int) -> list[dict]:
    stream = workload.requests(seed)
    return [next(stream) for _ in range(count)]


def _verdict(sv, spec, lapse):
    report = sv.verify_pair(spec, lapse)
    label = sv.classify(spec, lapse)
    tol = sv.tier_for(spec, lapse).residual
    return label.label, report.max_sup(), tol


def _check_verdict(name: str, result) -> tuple[bool, str | None]:
    label, max_sup, tol = result
    return label != EXPECTED_LABELS[name] or not max_sup <= tol, None


class CatalogSweep(Workload):
    """Build one catalog family from seeded parameters, verify and classify."""

    name = "catalog_sweep"

    def deck(self, rng):
        names = list(FAMILIES)
        rng.shuffle(names)
        return [{"entry": n, "params": family_params(rng, n)} for n in names]

    def setup(self):
        from staticgeo import catalog, static_verifier

        self.catalog, self.sv = catalog, static_verifier

    def execute(self, req):
        entry = self.catalog.build_entry(req["entry"], **req["params"])
        return _verdict(self.sv, entry.spec, entry.lapse)

    def check(self, req, result):
        return _check_verdict(req["entry"], result)


class FineGrid(Workload):
    """Answers (verify + classify) and dense audits at 4096 and 16384 points."""

    name = "fine_grid"

    def deck(self, rng):
        # Eight slots per entry: four answers at 4096 points, two at 16384
        # and one audit at each grid, so answers outnumber audits 3:1.  The
        # heavier weight on the small grid puts the median inside the dense
        # run of cheap answers instead of on the edge of a gap.  Each of the
        # eight rounds holds every entry once, entry e taking slot
        # (e + round) % 8, so any prefix of the deck keeps close to the mix.
        slots = [(4096, "answer")] * 4 + [(16384, "answer")] * 2 + [
            (4096, "audit"), (16384, "audit")]
        names = list(FAMILIES)
        rng.shuffle(slots)
        rng.shuffle(names)
        cards = []
        for r in range(len(slots)):
            round_ = []
            for e, name in enumerate(names):
                grid, kind = slots[(e + r) % len(slots)]
                round_.append({"kind": kind, "entry": name, "grid": grid})
            rng.shuffle(round_)
            cards += round_
        return cards

    def setup(self):
        from dataclasses import replace

        from staticgeo import catalog, static_verifier

        self.sv = static_verifier
        self.fixtures = {}
        for name in FAMILIES:
            entry = catalog.build_entry(name)
            for grid in (4096, 16384):
                spec = replace(entry.spec, grid_points=grid)
                self.fixtures[name, grid] = (spec, entry.lapse)

    def execute(self, req):
        spec, lapse = self.fixtures[req["entry"], req["grid"]]
        if req["kind"] == "answer":
            return _verdict(self.sv, spec, lapse)
        dcw = self.sv.identity_dcw(spec, lapse).max_sup()
        db = self.sv.identity_db(spec, lapse).max_sup()
        lemma = (
            self.sv.check_lemma41(spec, lapse).max_sup()
            if len(spec.blocks) == 2 else 0.0
        )
        return dcw, db, lemma, self.sv.tier_for(spec, lapse).residual

    def check(self, req, result):
        if req["kind"] == "answer":
            return _check_verdict(req["entry"], result)
        dcw, db, lemma, tol = result
        return not (dcw <= DCW_BOUND and db <= DB_BOUND and lemma <= tol), None


class SampledData(Workload):
    """Closed-form entries resampled at 513 or 1025 points.

    Only resamplings that get their label today are dealt; `sampled_probe`
    covers the ones the stencil error makes miss.
    """

    name = "sampled_data"
    counts = (513, 1025)
    grid = 256

    def deck(self, rng):
        # Latin arrangement: every (entry, count) pair once, and each run
        # of five requests holds every entry once.
        names = list(SAMPLED_FAMILIES)
        counts = list(self.counts)
        rng.shuffle(names)
        rng.shuffle(counts)
        return [
            {"entry": names[i % 5], "samples": counts[(i % 5 + i // 5) % 2],
             "grid": self.grid}
            for i in range(10)
        ]

    def setup(self):
        from staticgeo import catalog, static_verifier, warped_geometry

        self.sv, self.wg = static_verifier, warped_geometry
        self.entries = {n: catalog.build_entry(n) for n in PROBE_FAMILIES}

    def execute(self, req):
        import numpy as np

        wg = self.wg
        entry = self.entries[req["entry"]]
        lo, hi = entry.spec.domain
        s = np.linspace(lo, hi, req["samples"])
        ds = float(s[1] - s[0])
        blocks = tuple(
            wg.FiberBlock(
                b.dim,
                wg.make_sampled_warping(lo, ds, np.broadcast_to(b.warping.value(s), s.shape)),
                b.model,
                b.k,
            )
            for b in entry.spec.blocks
        )
        lapse = wg.make_lapse(
            "sampled", (lo, ds, *np.broadcast_to(entry.lapse.value(s), s.shape))
        )
        # Trim three sample steps per side so the order-4 stencil fits.
        spec = wg.WarpedProductSpec(blocks, (lo + 3 * ds, hi - 3 * ds), req["grid"])
        return _verdict(self.sv, spec, lapse)

    def check(self, req, result):
        return _check_verdict(req["entry"], result)


def sampled_probe() -> int:
    """Resamplings of PROBE_FAMILIES at PROBE_COUNTS that get their label.

    Untimed and the same on every run: 9 of the 18 pass today, and a fix of
    the stencil error (ROADMAP item 4) shows as a higher count.
    """
    workload = SampledData()
    workload.setup()
    return sum(
        not _check_verdict(name, workload.execute(
            {"entry": name, "samples": count, "grid": workload.grid}))[0]
        for name in PROBE_FAMILIES for count in PROBE_COUNTS
    )


class CliCold(Workload):
    """One cold `python -m staticgeo.cli` process per request.

    A deck of ten: verify and classify on one analytic and one ode-backed
    document each, one `catalog build` with jittered parameters, one
    `solve-ode` (plain or `--periodic`), one small report, one 16384-row
    CSV report and two 16384-row JSON reports.  The JSON reports are the
    slowest fifth of the deck, so latency_p90_ms sits inside them and
    tracks report formatting, while latency_p50_ms tracks process start-up.
    """

    name = "cli_cold"
    grids = (1024, 2048, 4096, 8192, 16384)
    big = 16384

    def deck(self, rng):
        grids = list(self.grids)
        rng.shuffle(grids)
        g = iter(grids)
        analytic = rng.choice(ANALYTIC_FAMILIES)
        ode = rng.choice(ODE_FAMILIES)
        cards = [
            {"kind": "verify", "entry": analytic, "grid": next(g)},
            {"kind": "verify", "entry": ode, "grid": next(g)},
            {"kind": "classify", "entry": analytic, "grid": next(g)},
            {"kind": "classify", "entry": ode, "grid": next(g)},
            {"kind": "report", "entry": rng.choice(FAMILIES), "grid": next(g),
             "format": rng.choice(("csv", "json"))},
            {"kind": "report", "entry": rng.choice(FAMILIES), "grid": self.big,
             "format": "csv"},
            {"kind": "report", "entry": rng.choice(FAMILIES), "grid": self.big,
             "format": "json"},
            {"kind": "report", "entry": rng.choice(FAMILIES), "grid": self.big,
             "format": "json"},
        ]
        name = rng.choice(FAMILIES)
        cards.append({"kind": "catalog", "entry": name,
                      "params": family_params(rng, name)})
        cards.append(self._solve_card(rng, periodic=rng.random() < 0.5))
        rng.shuffle(cards)
        return cards

    @staticmethod
    def _solve_card(rng, periodic: bool) -> dict:
        power = rng.randint(2, 6)
        c1, c0 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        card = {"kind": "solve", "power": power, "linear_coeff": c1, "forcing": c0}
        if periodic:
            card["k"] = _potential_min(power, c1, c0) * rng.uniform(1.1, 2.0)
        else:
            # A confining potential keeps the trajectory bounded away from 0.
            card.update(h0=rng.uniform(0.8, 1.5), h0_prime=rng.uniform(-0.3, 0.3),
                        length=rng.uniform(1.0, 4.0))
        return card

    def setup(self):
        import tempfile

        from staticgeo import catalog, ode_solver, static_verifier, warped_geometry

        self.sv, self.wg, self.ode = static_verifier, warped_geometry, ode_solver
        self.catalog = catalog
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in THREAD_VARS})
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.env.pop("STATICGEO_GRID", None)
        self.docs = {}
        for name in FAMILIES:
            entry = catalog.build_entry(name)
            doc = entry.to_problem_dict()
            for grid in self.grids:
                doc["grid"] = grid
                path = self.tmp / f"{name}-{grid}.json"
                path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
                self.docs[name, grid] = path
        self.serial = 0
        # Untimed warm-up, so bytecode caches exist before the timed calls.
        self._spawn(["catalog", "list"])

    def close(self):
        import shutil

        shutil.rmtree(self.tmp, ignore_errors=True)

    def argv(self, req: dict, out: Path) -> list[str]:
        kind = req["kind"]
        if kind in ("verify", "classify"):
            return [kind, str(self.docs[req["entry"], req["grid"]])]
        if kind == "report":
            return ["report", str(self.docs[req["entry"], req["grid"]]), str(out),
                    "--format", req["format"]]
        if kind == "catalog":
            argv = ["catalog", "build", req["entry"]]
            for key, value in req["params"].items():
                argv += ["--set", f"{key}={value!r}"]
            return argv
        argv = ["solve-ode", "--power", str(req["power"]),
                "--linear-coeff", repr(req["linear_coeff"]),
                "--forcing", repr(req["forcing"])]
        if "k" in req:
            return argv + ["--periodic", "--k", repr(req["k"])]
        return argv + ["--h0", repr(req["h0"]), "--h0-prime", repr(req["h0_prime"]),
                       "--domain", "0", repr(req["length"])]

    def _spawn(self, argv: list[str], spans: Path | None = None):
        """Run one child; returns (exit code, stdout, peak RSS in MB)."""
        if spans is None:
            cmd = [sys.executable, "-m", "staticgeo.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env, cwd=self.tmp)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 rather than wait: it also returns the child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0

    def execute(self, req):
        return self._request(req, None)

    def peak_rss_mb(self, records):
        """The largest child's peak resident memory."""
        return max((r[1]["rss_mb"] for r in records if r[1] is not None), default=0.0)

    def execute_traced(self, req, tracer):
        """Run the request in `cli_traced.py` and adopt the spans it wrote."""
        result = self._request(req, self.tmp / f"spans-{self.serial + 1}.json")
        base = len(tracer.spans)
        for _, name, t0, t1, parent, extra in json.loads(result["spans"].read_text()):
            if name.startswith("profiles."):
                kind, points, (ident, order, grid) = extra
                extra = (kind, points, (ident, order, tuple(grid)))
            parent = parent + base if parent >= 0 else -1
            tracer.spans.append((tracer.request, name, t0, t1, parent, extra))
        result["spans"].unlink()
        return result

    def _request(self, req, spans: Path | None):
        self.serial += 1
        out = self.tmp / f"report-{self.serial}.{req.get('format', 'txt')}"
        code, stdout, rss = self._spawn(self.argv(req, out), spans)
        return {"code": code, "stdout": stdout, "rss_mb": rss, "out": out, "spans": spans}

    # -- checks ---------------------------------------------------------

    def check(self, req, result):
        code, stdout = result["code"], result["stdout"]
        kind = req["kind"]
        if kind == "report":
            missed = code != 0
            bad = None if missed else self._check_report(req, result["out"])
            result["out"].unlink(missing_ok=True)
            return missed, bad
        try:
            got = json.loads(stdout)
        except ValueError:
            return True, None
        expected_code, reference = self._reference(req)
        missed = code != expected_code
        if kind == "verify":
            missed |= not got.get("pass", False)
        elif kind == "classify":
            missed |= got.get("label") != EXPECTED_LABELS[req["entry"]]
        elif kind == "catalog":
            missed |= not got.get("pass", False)
            missed |= got.get("label") != EXPECTED_LABELS[req["entry"]]
        elif kind == "solve":
            missed |= got.get("periodic" if "k" in req else "blow_up") != ("k" in req)
        if _canon(got) != _canon(reference):
            return missed, f"{kind} output differs from the library result"
        return missed, None

    def _reference(self, req):
        """Exit code and JSON fields the library gives for the same input."""
        sv, ode = self.sv, self.ode
        kind = req["kind"]
        if kind in ("verify", "classify"):
            doc = json.loads(self.docs[req["entry"], req["grid"]].read_text())
            spec, lapse = self.wg.load_problem(doc)
        if kind == "verify":
            report = sv.verify_pair(spec, lapse)
            tol = sv.tier_for(spec, lapse).residual
            ok = report.max_sup() <= tol
            return (0 if ok else 1), {"channels": report.to_dict(),
                                      "max_sup": report.max_sup(),
                                      "tolerance": tol, "pass": ok}
        if kind == "classify":
            label = sv.classify(spec, lapse)
            code = 1 if label.label in ("Invalid", "ViolatesThm42") else 0
            return code, {"label": label.label, "diagnostics": label.to_dict()}
        if kind == "catalog":
            entry = self.catalog.build_entry(req["entry"], **req["params"])
            report = sv.verify_pair(entry.spec, entry.lapse)
            label = sv.classify(entry.spec, entry.lapse)
            tol = sv.tier_for(entry.spec, entry.lapse).residual
            ok = label.label == entry.expected_label and report.max_sup() <= tol
            return (0 if ok else 1), {
                "name": entry.name, "n": entry.spec.n,
                "expected_label": entry.expected_label, "label": label.label,
                "max_sup": report.max_sup(), "tolerance": tol,
                "compact": entry.compact, "period": entry.period, "pass": ok,
            }
        domain = (0.0, req.get("length", 1.0))
        params = ode.WarpingODEParams(
            req["power"], req["linear_coeff"], req["forcing"],
            req.get("h0", 1.0), req.get("h0_prime", 0.0), domain,
        )
        if "k" in req:
            sol = ode.find_periodic(params, req["k"])
            if sol is None:
                return 1, {"periodic": False}
            return 0, {"periodic": True, "period": sol.period, "h_min": sol.h_min,
                       "h_max": sol.h_max, "k": sol.k}
        import numpy as np

        warping = ode.integrate_warping(params)
        ends = np.array(domain)
        h, hp = warping.value(ends), warping.derivative(ends, 1)
        k = np.asarray(ode.first_integral(params, h, hp).value)
        return 0, {"blow_up": False, "h_end": float(h[1]), "h_prime_end": float(hp[1]),
                   "first_integral": float(k[0]),
                   "first_integral_drift": float(abs(k[1] - k[0]))}

    def _check_report(self, req, path: Path) -> str | None:
        """Row count, header width and the s column of a written report."""
        import numpy as np

        doc = json.loads(self.docs[req["entry"], req["grid"]].read_text())
        spec, _ = self.wg.load_problem(doc)
        # s, lambda1, R, f, static_11, and h, xi, lambda, static, D per block.
        width = 5 + 5 * len(spec.blocks)
        lo, hi = spec.domain
        s = np.linspace(lo + 2 * spec.step, hi - 2 * spec.step, spec.grid_points)
        try:
            if req["format"] == "csv":
                with open(path, encoding="utf-8") as fh:
                    names = fh.readline().rstrip("\n").split(",")
                    rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            else:
                table = json.loads(path.read_text(encoding="utf-8"))
                names, rows = table["columns"], np.array(table["rows"], dtype=float)
        except (OSError, ValueError, KeyError, IndexError):
            return "report file unreadable"
        if len(names) != width or rows.shape != (spec.grid_points, width):
            return f"report shape {rows.shape} with {len(names)} columns"
        if names[0] != "s" or not np.allclose(rows[:, 0], s, rtol=0.0, atol=1e-12 * (hi - lo)):
            return "report s column differs from the evaluation points"
        if not np.all(np.isfinite(rows)):
            return "report holds non-finite values"
        return None


def _canon(obj) -> str:
    """JSON text of a result, so NaN and float round trips compare exactly."""
    return json.dumps(json.loads(json.dumps(obj)), sort_keys=True)


WORKLOADS = {
    "cli_cold": CliCold,
    "catalog_sweep": CatalogSweep,
    "fine_grid": FineGrid,
    "sampled_data": SampledData,
}

