"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile|concert|edge --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1``
the workload runs twice on the same seed, untraced and then traced, for
``S/2`` seconds each and each in a fresh process; the metrics are every per-layer metric, taken from
the traced run, plus ``overhead.<metric>``: how much each end-to-end
metric moved under tracing, in percent of the untraced value, and
``tail.*``: the tail latencies of the untraced run.  The two
runs must report identical work counts (reactions, pump calls, word
instants, demotions by cause, mailbox decisions), or no per-layer
numbers are published.

Any failed correctness, fidelity or validity check exits with status 1
and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from common import BenchError, read_json  # noqa: E402

WORKLOADS = {"compile": "wl_compile", "concert": "wl_concert", "edge": "wl_edge"}


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing {sorted(missing)}, "
                         f"unexpected {sorted(extra)}")
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(units)},
    }


def _pass(args: argparse.Namespace, traced: bool) -> dict:
    """One run of the workload in a fresh process (``--pass``)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
           "--pass", "traced" if traced else "untraced"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode or not lines:
        raise BenchError(f"the {cmd[-1]} pass failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", choices=("untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = importlib.import_module(WORKLOADS[args.workload])
    # imports are part of set-up; the workload times the rest
    import_s = time.perf_counter() - STARTED

    try:
        if args.one_pass or not args.trace:
            run = workload.run(args.seed, args.seconds, args.one_pass == "traced")
            # a workload that gives its times at the calibration speed
            # gives the import time so too, at its first speed reading
            run["metrics"]["setup_s"] += import_s * run.get("speed_scale", 1.0)
            if args.one_pass:
                print(json.dumps(run))
                return 0
            result = _result(True, run["attempted"], run["failed"], run["metrics"], e2e)
        else:
            base = _pass(args, traced=False)
            traced = _pass(args, traced=True)
            if base["counts"] != traced["counts"]:
                raise BenchError(
                    "trace fidelity: the traced run did different work than the untraced "
                    f"run of the same seed:\n untraced {base['counts']}\n traced   {traced['counts']}"
                )
            metrics = dict(traced["layers"])
            for name in e2e:
                before, after = base["metrics"][name], traced["metrics"][name]
                metrics[f"overhead.{name}"] = (after - before) / before * 100.0
            for name, value in base["tails"].items():
                metrics[f"tail.{name}_ms"] = value
            result = _result(True, traced["attempted"], traced["failed"], metrics, per_layer)
    except BenchError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
