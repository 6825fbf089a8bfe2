#!/usr/bin/env python3
"""Repeat benchmark runs, summarise their spread, and record references.

    python3 bench/collect.py runs --workload small-batch --seeds 1-10
    python3 bench/collect.py runs --workload small-batch --seeds 1-10 --baseline
    python3 bench/collect.py digests

`runs` starts bench/run.py once per seed, one run at a time, and prints the
median, quartiles and quartile spread (as a share of the median) of every
metric; with --baseline it also stores them in bench/baseline.json.
`digests` records the output digests of the default seed's first passes
into bench/digests.json, which every later run is checked against: record
them only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, pass_queries  # noqa: E402

BASELINE = BENCH / "baseline.json"
DIGEST_PASSES = 24


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect_runs(workload: str, seeds: list, trace: int) -> dict:
    """Run bench/run.py once per seed; returns metric -> list of values."""
    values: dict = {}
    for seed in seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(run.bench_seconds()),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} of "
                             f"{result['attempted']} calls failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    return values


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def record_digests() -> None:
    package = run.load_package()
    tally = run.Tally()
    workloads = {}
    for name, w in WORKLOADS.items():
        workloads[name] = [
            run.run_pass(package.cli, pass_queries(w, DEFAULT_SEED, i), tally)[2]
            for i in range(DIGEST_PASSES)]
    if tally.failed:
        raise SystemExit(f"{tally.failed} of {tally.attempted} outputs failed their checks")
    run.DIGESTS.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "passes": DIGEST_PASSES, "diffprod": package.__version__,
         "workloads": workloads},
        indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs", help="repeat runs and report their spread")
    runs.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    runs.add_argument("--seeds", type=seed_range, default="1-10",
                      help="inclusive range such as 1-10")
    runs.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runs.add_argument("--baseline", action="store_true",
                      help=f"store the summary in {BASELINE.name}")
    sub.add_parser("digests", help=f"record {run.DIGESTS.name}")
    args = parser.parse_args()

    if args.command == "digests":
        record_digests()
        return 0
    summary = {name: spread(v) for name, v in
               collect_runs(args.workload, args.seeds, args.trace).items()}
    for name, s in summary.items():
        print(f"{name:45} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
    if args.baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        data["python"] = platform.python_version()
        data.setdefault("workloads", {}).setdefault(args.workload, {}).update({
            "inputs": dataclasses.asdict(WORKLOADS[args.workload]),
            "trace" if args.trace else "end_to_end": {
                "seeds": [args.seeds[0], args.seeds[-1]], "metrics": summary},
        })
        BASELINE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
