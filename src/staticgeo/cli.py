"""Command line front end.

Subcommands:

  verify SPEC.json        residual channels as JSON, exit 1 when over tier
  classify SPEC.json      structure label as JSON, exit 1 for bad labels
  solve-ode ...           integrate the warping equation or hunt an orbit
  catalog list|build      reference entries, verified on build
  report SPEC.json OUT    per-grid-point CSV or JSON profile

report writes one row per point of the spec's evaluation grid, the points
verify and classify read, so a channel's argmax_index is a report row.
report formats its rows in fixed blocks and writes each block as it goes,
so its memory does not grow with the file; the bytes are those of
formatting every value with %.17g (CSV) or of one json.dump of the whole
document (JSON), NaN and infinities included.  Everything else is printed
by _emit, which writes a non-finite float as null; main runs the command
with NumPy's overflow, invalid and divide warnings off, since that null and
the exit code already report them.

verify, classify and report load through one step that runs validate_spec:
a warping not positive on the grid prints verify's {"valid": false, ...}
and exits 1, and report writes no file.  A non-finite --tol or solve-ode
number is bad input, and so is a string or boolean where a document wants
a number, a malformed document shape (blocks not a list, a block, warping
or lapse not an object, a domain not two numbers) or a grid above 2^18
points, from the document or STATICGEO_GRID.  Exit codes:
0 success, 1 residual or classification failure, 2 parse or schema error,
3 I/O error.  Output is deterministic: sorted JSON keys and fixed float
formatting, no timestamps.

The STATICGEO_GRID environment variable overrides the default grid size
for specs that do not pin one; it is read here and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import static_verifier as sv
from .catalog import CATALOG_NAMES, EXPECTED_LABELS, build_entry
from .errors import BlowUp, StaticGeoError
from .jets import _rows
from .ode_solver import WarpingODEParams, find_periodic, first_integral, integrate_warping
from .warped_geometry import (
    DEFAULT_GRID_POINTS,
    _finite,
    load_problem,
    validate_spec,
)

__all__ = ["main"]

# Rows formatted per write by report.  The file's bytes do not depend on it;
# the text held in memory at once is one block's, not the whole file's.
_REPORT_BLOCK_ROWS = 1024


def _default_grid() -> int:
    raw = os.environ.get("STATICGEO_GRID")
    if raw is None:
        return DEFAULT_GRID_POINTS
    try:
        grid = int(raw)
    except ValueError as exc:
        raise StaticGeoError(f"STATICGEO_GRID must be an integer, got {raw!r}") from exc
    if grid < 16:
        raise StaticGeoError(f"STATICGEO_GRID too small: {grid}")
    return grid


class _InvalidSpec(Exception):
    """Raised by _load once it has printed validate_spec's refusal; main exits 1."""


def _json_safe(obj):
    """obj with every non-finite float replaced by None, so that it prints as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _emit(obj, fh=None) -> None:
    print(json.dumps(_json_safe(obj), indent=2, sort_keys=True), file=fh)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spec, lapse = load_problem(doc, _default_grid())
    bad = validate_spec(spec)
    if not bad.ok:
        _emit({"valid": False, "violations": bad.violations[:16]})
        raise _InvalidSpec
    return spec, lapse


def _cmd_verify(args) -> int:
    if args.tol is not None:
        _finite("--tol", args.tol)
    spec, lapse = _load(args.spec)
    tol = args.tol if args.tol is not None else sv.tier_for(spec, lapse).residual
    report = sv.verify_pair(spec, lapse)
    ok = report.max_sup() <= tol
    _emit(
        {
            "channels": report.to_dict(),
            "max_sup": report.max_sup(),
            "tolerance": tol,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    spec, lapse = _load(args.spec)
    label = sv.classify(spec, lapse)
    _emit({"label": label.label, "diagnostics": label.to_dict()})
    return 0 if label.label not in ("Invalid", "ViolatesThm42") else 1


def _cmd_solve_ode(args) -> int:
    params = WarpingODEParams(
        args.power, args.linear_coeff, args.forcing, args.h0, args.h0_prime, args.domain,
        args.step,
    )
    if args.periodic and args.k is None:
        raise StaticGeoError("--periodic needs --k")
    try:
        sol = find_periodic(params, args.k) if args.periodic else integrate_warping(params)
    except BlowUp as exc:
        _emit({"blow_up": True, "last_valid_s": exc.last_valid_s})
        return 1
    if args.periodic:
        if sol is None:
            _emit({"periodic": False})
            return 1
        _emit({"periodic": True, "period": sol.period, "h_min": sol.h_min,
               "h_max": sol.h_max, "k": sol.k})
        return 0
    h, hp = _rows(sol, np.array(params.domain), (0, 1))
    k = first_integral(params, h, hp).value
    _emit(
        {
            "blow_up": False,
            "h_end": float(h[1]),
            "h_prime_end": float(hp[1]),
            "first_integral": float(k[0]),
            "first_integral_drift": float(abs(k[1] - k[0])),
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(
            {
                "entries": [
                    {"name": name, "expected_label": EXPECTED_LABELS[name]}
                    for name in CATALOG_NAMES
                ]
            }
        )
        return 0
    overrides = {}
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise StaticGeoError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = int(raw)
        except ValueError:
            overrides[key] = float(raw)
    entry = build_entry(args.name, **overrides)
    entry = replace(entry, spec=replace(entry.spec, grid_points=_default_grid()))
    # classify gates on the same tier, so an over-tier residual is never the expected label.
    label = sv.classify(entry.spec, entry.lapse)
    ok = label.label == entry.expected_label
    out = {
        "name": entry.name,
        "n": entry.spec.n,
        "expected_label": entry.expected_label,
        "label": label.label,
        "max_sup": label.report.max_sup(),
        "tolerance": sv.tier_for(entry.spec, entry.lapse).residual,
        "compact": entry.compact,
        "period": entry.period,
        "pass": ok,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit(entry.to_problem_dict(), fh)
        out["written"] = args.out
    _emit(out)
    return 0 if ok else 1


def _report_columns(spec, lapse):
    s = spec.evaluation_grid()
    d, fs, stat, d_tensor = sv._static_rows(spec, lapse, s)

    def per_block(prefix, rows):
        return [(f"{prefix}_{j}", row) for j, row in enumerate(rows)]

    return (
        [("s", s)] + per_block("h", d.h[0]) + per_block("xi", d.xi[0])
        + [("lambda1", d.lambda_1[0])] + per_block("lambda", d.lambda_block[0])
        + [("R", d.scalar[0]), ("f", fs[0]), ("static_11", stat["static_11"])]
        + per_block("static", [stat[f"static_block[{j}]"] for j in range(len(d_tensor))])
        + per_block("D", d_tensor)
    )


def _cmd_report(args) -> int:
    spec, lapse = _load(args.spec)
    cols = _report_columns(spec, lapse)
    names = [name for name, _ in cols]
    data = np.column_stack([values for _, values in cols])
    starts = range(0, len(data), _REPORT_BLOCK_ROWS)
    if args.format == "csv":
        row = ",".join(["%.17g"] * len(names)) + "\n"
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for i in starts:
                block = data[i:i + _REPORT_BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    else:
        # The bytes of json.dump({"columns": names, "rows": rows}, fh,
        # sort_keys=True), with each block's rows encoded by json.dumps.
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write('{"columns": %s, "rows": [' % json.dumps(names))
            for i in starts:
                fh.write(", " if i else "")
                fh.write(json.dumps(data[i:i + _REPORT_BLOCK_ROWS].tolist())[1:-1])
            fh.write("]}\n")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="staticgeo",
        description="Verification toolkit for static warped-product geometries.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="residual report for a spec file")
    v.add_argument("spec")
    v.add_argument("--tol", type=float, default=None,
                   help="sup tolerance (default: tier by data source)")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify", help="structure label for a spec file")
    c.add_argument("spec")
    c.set_defaults(func=_cmd_classify)

    o = sub.add_parser("solve-ode", help="integrate the warping equation")
    o.add_argument("--power", type=int, required=True)
    o.add_argument("--linear-coeff", type=float, required=True)
    o.add_argument("--forcing", type=float, required=True)
    o.add_argument("--h0", type=float, default=1.0)
    o.add_argument("--h0-prime", type=float, default=0.0)
    o.add_argument("--domain", type=float, nargs=2, default=(0.0, 1.0))
    o.add_argument("--step", type=float, default=None)
    o.add_argument("--periodic", action="store_true",
                   help="search for a closed orbit instead of integrating")
    o.add_argument("--k", type=float, default=None,
                   help="conserved value for --periodic")
    o.set_defaults(func=_cmd_solve_ode)

    g = sub.add_parser("catalog", help="list or build reference entries")
    g.add_argument("action", choices=("list", "build"))
    g.add_argument("name", nargs="?", default=None)
    g.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="builder parameter override, repeatable")
    g.add_argument("--out", default=None,
                   help="also write the entry as a spec file")
    g.set_defaults(func=_cmd_catalog)

    r = sub.add_parser("report", help="per-grid-point profile to CSV or JSON")
    r.add_argument("spec")
    r.add_argument("out")
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "catalog" and args.action == "build" and not args.name:
        print("catalog build needs an entry name", file=sys.stderr)
        return 2
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _InvalidSpec:
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, OverflowError, TypeError, StaticGeoError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
