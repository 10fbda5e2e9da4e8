"""One workload process: set up, run the certify path once, report.

``run.py`` starts this file in a fresh interpreter for every set-up sample
and every round, so each round pays its own imports and starts with cold
caches, as a user's ``tensorcert certify`` does.

    python -I perfbench/child.py --workload W --seed S --mode setup|run|trace
                                 [--trace-out FILE]

``setup`` imports the package and builds the workload's inputs, then exits.
``run`` also times ``run_suite`` plus ``emit_report`` and prints one JSON
line with the wall time, the peak resident memory and the report text.
``trace`` does the same with the layer wrappers of ``layertrace.py`` installed,
adds the per-layer metrics and writes the spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from workloads import WORKLOADS, suite_call  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import tensorcert

    if not os.path.abspath(tensorcert.__file__).startswith(SRC + os.sep):
        print(f"tensorcert was imported from {tensorcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tensorcert.cli import run_suite
    from tensorcert.fleet import build_fleet
    from tensorcert.report import emit_report
    from tensorcert.xyz import Signature

    suite, n_max, texts = suite_call(args.workload, args.seed)
    if texts is None:
        build_fleet()  # the shipped fleet is this workload's input
        signatures = None
    else:
        signatures = [Signature.parse(t) for t in texts]
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.install()
    started = time.perf_counter()
    report = run_suite(suite, n_max, signatures, workers=1)
    emit_started = time.perf_counter()
    text = emit_report(report, "json")
    ended = time.perf_counter()
    out = {
        "wall_s": ended - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report": text,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(
            wall_s=ended - started, emit_s=ended - emit_started, json_bytes=len(text)
        )
        if args.trace_out:
            tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
    sys.stdout.write(json.dumps(out))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
