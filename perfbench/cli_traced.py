"""Traced stand-in for `python -m staticgeo.cli`.

    python3 perfbench/cli_traced.py SPANS_JSON ARGS...

Times the package import, installs the layer wrappers, runs the command
line with ARGS and writes the spans to SPANS_JSON.  Exit code and output
are those of the command line itself.
"""

import json
import sys
import time

import tracer as tr


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tr.Tracer()
    t.request = 0
    t0 = time.perf_counter_ns()
    import staticgeo.cli as cli

    t.record("cli.import", t0, time.perf_counter_ns())
    tr.install(t)
    idx, parent = t.begin()
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    finally:
        t.end(idx, parent, "cli.main", t0)
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(t.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
