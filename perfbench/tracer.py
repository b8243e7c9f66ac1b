"""Spans around staticgeo's layers, recorded from outside the package.

`install` replaces each traced function with a timing wrapper wherever a
staticgeo module binds it, so the copies that `from ... import` made are
traced too, and wraps `derivative` on every Profile subclass.  `uninstall`
puts the originals back.  Spans stay in memory as tuples

    (request, name, start_ns, end_ns, parent, extra)

where `parent` is the index of the enclosing span (-1 at top level) and
`extra` carries profile-evaluation facts or the bytes of a dense result.
Self time is a span's duration minus its direct children's durations; the
program is single-threaded, so children never overlap.

Only the standard library is imported here: the traced command-line child
loads this module before it imports staticgeo.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Traced functions per layer.  The cli entries are the JSON/CSV I/O
# boundaries; the rest are the public operations of each module.
FUNCTIONS = {
    "cli": ("_load", "_emit", "_cmd_report", "_report_columns"),
    "warped_geometry": ("load_problem", "validate_spec"),
    "catalog": ("build_entry",),
    "ode_solver": ("integrate_warping", "find_periodic", "turning_point"),
    "jets": (
        "jmul", "jdiv", "jder", "jconst", "jet_of",
        "jet_from_derivatives", "derivatives_from_jet",
    ),
    "curvature_engine": (
        "xi_profile", "ricci_spectrum", "eigenvalue_derivatives",
        "d_tensor_derivatives", "scalar_profile", "riemann_classes",
        "schouten_spectrum", "weyl_classes", "cotton_classes",
        "cotton_from_weyl_divergence", "d_tensor_classes", "bach_spectrum",
        "materialize_full", "frame_connection",
        "dense_three_tensor_divergence", "dense_weyl_divergence",
    ),
    "static_verifier": (
        "tier_for", "static_pointwise", "static_residual",
        "harmonic_pointwise", "harmonic_residual", "integrability_residual",
        "identity_dcw", "identity_db", "check_lemma41", "verify_pair",
        "classify",
    ),
}

# Functions that build dense frame tensors; their result sizes are recorded.
DENSE = frozenset(
    {
        "curvature_engine.materialize_full",
        "curvature_engine.frame_connection",
        "curvature_engine.dense_three_tensor_divergence",
        "curvature_engine.dense_weyl_divergence",
    }
)

# Profile subclasses by the kind of data behind them.
PROFILE_KINDS = {
    ("profiles", "PolynomialProfile"): "analytic",
    ("profiles", "TrigProfile"): "analytic",
    ("profiles", "HyperbolicProfile"): "analytic",
    ("profiles", "SampledProfile"): "sampled",
    ("ode_solver", "OdeBackedProfile"): "ode_backed",
    ("profiles", "ScaledDerivativeProfile"): "derived",
    ("profiles", "ScaledProfile"): "derived",
    ("profiles", "SumProfile"): "derived",
}
LEAF_KINDS = ("analytic", "sampled", "ode_backed")


class Tracer:
    """In-memory span log; `request` tags the spans of the current request."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1

    def begin(self) -> tuple[int, int]:
        """Open a span; returns its index and its parent's."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def end(self, idx: int, parent: int, name: str, t0: int, extra=None) -> None:
        """Close the span opened by `begin` that started at `t0`."""
        t1 = time.perf_counter_ns()
        self.stack.pop()
        self.spans[idx] = (self.request, name, t0, t1, parent, extra)

    def record(self, name: str, t0: int, t1: int, extra=None) -> None:
        """A span timed by the caller, outside any wrapper."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((self.request, name, t0, t1, parent, extra))


def _wrap_function(tracer: Tracer, name: str, fn):
    dense = name in DENSE

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx, parent = tracer.begin()
        t0 = time.perf_counter_ns()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            extra = int(getattr(out, "nbytes", 0)) if dense else None
            tracer.end(idx, parent, name, t0, extra)

    return traced


def _grid_key(s):
    """Cheap fingerprint of an evaluation point set: size and three samples.

    Grids here are linspaces, so size, first, middle and last value pick
    one out without hashing every point.
    """
    size = getattr(s, "size", None)
    if size is None:
        return (1, float(s))
    if size == 0:
        return (0,)
    flat = s.reshape(-1)
    return (size, float(flat[0]), float(flat[size // 2]), float(flat[-1]))


def _wrap_derivative(tracer: Tracer, name: str, kind: str, fn):
    @functools.wraps(fn)
    def traced(self, s, order):
        idx, parent = tracer.begin()
        t0 = time.perf_counter_ns()
        try:
            return fn(self, s, order)
        finally:
            extra = (kind, int(getattr(s, "size", 1)), (id(self), order, _grid_key(s)))
            tracer.end(idx, parent, name, t0, extra)

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every traced callable; returns the undo log for `uninstall`."""
    mods = {
        layer: importlib.import_module(f"staticgeo.{layer}")
        for layer in set(FUNCTIONS) | {layer for layer, _ in PROFILE_KINDS}
    }
    every = [m for name, m in list(sys.modules.items())
             if m is not None and name.split(".")[0] == "staticgeo"]
    undo = []
    for layer, names in FUNCTIONS.items():
        mod = mods[layer]
        for fname in names:
            original = getattr(mod, fname)
            wrapper = _wrap_function(tracer, f"{layer}.{fname}", original)
            for m in every:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, attr, original))
                        setattr(m, attr, wrapper)
    frame = mods["curvature_engine"]._Frame
    undo.append((frame, "__init__", frame.__dict__["__init__"]))
    frame.__init__ = _wrap_function(
        tracer, "curvature_engine._Frame", frame.__dict__["__init__"]
    )
    for (layer, cls_name), kind in PROFILE_KINDS.items():
        cls = getattr(mods[layer], cls_name)
        original = cls.__dict__["derivative"]
        undo.append((cls, "derivative", original))
        cls.derivative = _wrap_derivative(
            tracer, f"profiles.{kind}.{cls_name}", kind, original
        )
    return undo


def uninstall(undo: list) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


def self_times(spans: list) -> list[int]:
    """Per-span duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_metrics(spans: list, requests: int) -> dict[str, float]:
    """Per-request layer figures from the spans of `requests` requests.

    Times are in ms and counts are calls; both are divided by the number
    of requests.  `profiles.distinct_eval_ratio` is distinct (profile,
    order, grid) evaluations within a request over all evaluations.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_self_ns: dict[str, int] = defaultdict(int)
    kind_calls: dict[str, int] = defaultdict(int)
    kind_self_ns: dict[str, int] = defaultdict(int)
    points = 0
    distinct: set = set()
    evals = 0
    dense_bytes = 0
    for i, (req, name, t0, t1, _parent, extra) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += t1 - t0
        self_ns[name] += own[i]
        layer_self_ns[name.split(".")[0]] += own[i]
        if name.startswith("profiles."):
            kind, npts, key = extra
            kind_calls[kind] += 1
            kind_self_ns[kind] += own[i]
            if kind in LEAF_KINDS:
                points += npts
            evals += 1
            distinct.add((req, key))
        elif name in DENSE:
            dense_bytes += extra or 0

    def per(value: float) -> float:
        return value / requests if requests else 0.0

    def ms(ns: float) -> float:
        return per(ns) / 1e6

    def total(*names: str) -> int:
        return sum(total_ns[n] for n in names)

    ce_calls = sum(
        c for n, c in calls.items()
        if n.startswith("curvature_engine.") and n != "curvature_engine._Frame"
    )
    json_io_ns = (
        self_ns["cli._load"] + total_ns["cli._emit"] + self_ns["cli._cmd_report"]
    )
    return {
        "cli.import_ms": ms(total_ns["cli.import"]),
        "cli.main_ms": ms(total_ns["cli.main"]),
        "cli.json_io_ms": ms(json_io_ns),
        "warped_geometry.load_problem_ms": ms(total_ns["warped_geometry.load_problem"]),
        "warped_geometry.validate_spec_ms": ms(total_ns["warped_geometry.validate_spec"]),
        "catalog.build_entry_calls": per(calls["catalog.build_entry"]),
        "catalog.build_entry_ms": ms(total_ns["catalog.build_entry"]),
        "ode_solver.integrate_warping_calls": per(calls["ode_solver.integrate_warping"]),
        "ode_solver.integrate_warping_ms": ms(total_ns["ode_solver.integrate_warping"]),
        "ode_solver.find_periodic_calls": per(calls["ode_solver.find_periodic"]),
        "ode_solver.find_periodic_ms": ms(total_ns["ode_solver.find_periodic"]),
        "ode_solver.turning_point_calls": per(calls["ode_solver.turning_point"]),
        "ode_solver.turning_point_ms": ms(total_ns["ode_solver.turning_point"]),
        "profiles.eval_calls.analytic": per(kind_calls["analytic"]),
        "profiles.eval_calls.ode_backed": per(kind_calls["ode_backed"]),
        "profiles.eval_calls.sampled": per(kind_calls["sampled"]),
        "profiles.eval_calls.derived": per(kind_calls["derived"]),
        "profiles.eval_points": per(points),
        "profiles.distinct_eval_ratio": len(distinct) / evals if evals else 0.0,
        "profiles.sampled_ms": ms(kind_self_ns["sampled"]),
        "profiles.ode_backed_ms": ms(kind_self_ns["ode_backed"]),
        "profiles.analytic_ms": ms(kind_self_ns["analytic"]),
        "jets.jmul_calls": per(calls["jets.jmul"]),
        "jets.jdiv_calls": per(calls["jets.jdiv"]),
        "jets.self_ms": ms(layer_self_ns["jets"]),
        "curvature_engine.calls": per(ce_calls),
        "curvature_engine.frame_builds": per(calls["curvature_engine._Frame"]),
        "curvature_engine.self_ms": ms(layer_self_ns["curvature_engine"]),
        "curvature_engine.dense_ms": ms(total(*DENSE)),
        "curvature_engine.dense_bytes": per(dense_bytes),
        "static_verifier.verify_pair_calls": per(calls["static_verifier.verify_pair"]),
        "static_verifier.verify_pair_ms": ms(total_ns["static_verifier.verify_pair"]),
        "static_verifier.classify_self_ms": ms(self_ns["static_verifier.classify"]),
        "static_verifier.identity_ms": ms(
            total(
                "static_verifier.identity_dcw",
                "static_verifier.identity_db",
                "static_verifier.check_lemma41",
            )
        ),
    }
