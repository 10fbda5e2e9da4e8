"""Benchmark of tensorcert's certify path: one workload, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  A round is one fresh workload process (``child.py``) running
``run_suite`` plus ``emit_report`` serially, as one closed-loop caller.
Rounds repeat until ``--seconds`` of rounds have run (at least one), and
each round's report is checked (``checks.py``) outside the timed section.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (median round), ``setup_s`` (median of several fresh set-up
launches, half before and half after the rounds) and ``peak_rss_mb``
(largest round).  With ``--trace 1`` the rounds run with ``layertrace.py``
wrappers installed, the line carries the per-layer metrics (median over
rounds) and the spans go to ``perfbench/out/``.
A line before it gives a fixed pure-Python probe time, taken before and
after the rounds, to tell a slow phase of the machine from a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# set-up samples are taken before and again after the rounds: the machine
# has slow and fast stretches of several seconds, and one burst of launches
# can fall inside a single stretch
SETUP_LAUNCHES_EACH_SIDE = 5
CHILD_TIMEOUT_S = 170


def _child(workload: str, seed: int, mode: str, *extra: str) -> tuple[float, str]:
    """Run child.py in a fresh isolated interpreter; (wall seconds, stdout)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stdout


def probe() -> float:
    """A fixed pure-Python loop: integer arithmetic and dict traffic."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for k in range(400_000):
        acc = (acc * 31 + k) % 1_000_003
        table[acc & 1023] = table.get(acc & 1023, 0) + k
    return time.perf_counter() - started


def _setup_samples(args) -> list[float]:
    if args.trace:
        return []
    return [_child(args.workload, args.seed, "setup")[0] for _ in range(SETUP_LAUNCHES_EACH_SIDE)]


def check_round(workload: str, seed: int, report: dict, fleet: dict, cache: dict):
    """(cases attempted, ids of failed cases, ids of cases the program
    reported as passing whose output the checks refute)."""
    import checks

    suite, _, texts = WORKLOADS[workload]
    if texts is None:
        expected = {f"tensoriality/{name}" for name in fleet} | {"tensoriality/unit-fails"}
    else:
        expected = {f"{suite}/N{len(s)}/{s}" for s in texts}
    cases = {c["case_id"]: c for c in report["cases"]}
    listed = [cases[i] for i in sorted(expected & cases.keys())]
    reported = {i for i, c in cases.items() if c["status"] != "pass"}
    refuted = expected - cases.keys()
    if report["summary"]["total"] != len(cases) or len(cases) != len(expected):
        refuted |= expected
    if workload == "genset-n4":
        refuted.update(checks.check_genset(listed, cache))
    elif workload == "oracle-n3":
        refuted.update(checks.check_oracle(listed))
        if "membership" not in cache:
            sig = random.Random(f"perfbench:spot:{seed}").choice(texts)
            cache["membership"] = (sig, checks.membership_spot_check(sig, seed))
        sig, ok = cache["membership"]
        if not ok:
            refuted.add(f"{suite}/N{len(sig)}/{sig}")
    else:
        refuted.update(checks.check_tensor(listed, fleet))
        if "action" not in cache:
            cache["action"] = {
                f"tensoriality/{name}": checks.action_spot_check(entry, seed)
                for name, entry in fleet.items()
            }
            cache["action"]["tensoriality/unit-fails"] = checks.unit_spot_check(fleet, seed)
        refuted.update(case_id for case_id, ok in cache["action"].items() if not ok)
    return len(expected), reported | refuted, refuted - reported


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tensorcert", "__init__.py")):
        print(f"no tensorcert sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    fleet = {}
    if args.workload == "tensor-fleet":
        from tensorcert.fleet import build_fleet

        n_max = WORKLOADS[args.workload][1]
        fleet = {e.name: e for e in build_fleet() if e.family.signature.n <= n_max}

    probe_before = probe()
    setup = _setup_samples(args)

    mode = "trace" if args.trace else "run"
    out_dir = os.path.join(HERE, "out")
    rounds: list[dict] = []
    attempted = 0
    failed = 0
    correct = True
    cache: dict = {}
    spent = 0.0
    while not rounds or spent < args.seconds:
        extra = ()
        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
            name = f"trace-{args.workload}-seed{args.seed}-round{len(rounds)}.json"
            extra = ("--trace-out", os.path.join(out_dir, name))
        elapsed, stdout = _child(args.workload, args.seed, mode, *extra)
        spent += elapsed
        result = json.loads(stdout.strip().splitlines()[-1])
        report = json.loads(result["report"])
        count, bad, wrong = check_round(args.workload, args.seed, report, fleet, cache)
        attempted += count
        failed += len(bad)
        correct = correct and not wrong
        rounds.append(result)
    setup += _setup_samples(args)
    probe_after = probe()

    if args.trace:
        metrics = {
            name: {
                "value": statistics.median(r["layers"][name]["value"] for r in rounds),
                "unit": rounds[0]["layers"][name]["unit"],
            }
            for name in rounds[0]["layers"]
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MiB"},
        }
    print(
        f"probe_s before={probe_before:.4f} after={probe_after:.4f} rounds={len(rounds)} "
        f"round_s={[round(r['wall_s'], 3) for r in rounds]}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
