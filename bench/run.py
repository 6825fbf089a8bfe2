#!/usr/bin/env python3
"""diffprod benchmark: runs the CLI in-process on seeded node sets.

    python3 bench/run.py --workload table-wide --seed 0 --seconds 55 --trace 0

With --trace 0 it reports the end-to-end metrics with tracing off; with
--trace 1 the per-layer metrics of a traced run (see bench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Standard library only; one
process, plus the short `python -m diffprod` launches behind setup_s,
which run one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Query, pass_queries  # noqa: E402

DIGESTS = BENCH / "digests.json"
SETUP_LAUNCHES = 2  # after every pass of the end-to-end run
SETUP_ARGV = ("weights", "1 2 3")

END_TO_END_UNITS = {
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
COUNTED = (
    "nodes.diff_products", "nodes.euler_sum", "symmetric.elementary_all",
    "symmetric.homogeneous_brute_force", "partfrac.decompose",
    "partfrac.reconstruct", "exactpoly.poly_mul", "exactpoly.poly_from_roots",
    "exactpoly.poly_divide_linear", "cli.run",
)
SELF_TIMED = (
    "nodes.diff_products", "nodes.euler_sum", "nodes.expected_euler_sum",
    "nodes.alternating_display", "symmetric.homogeneous_via_elementary",
    "symmetric.homogeneous_brute_force", "partfrac.decompose",
    "partfrac.reconstruct", "partfrac.euler_sum_via_decomposition",
    "exactpoly.poly_mul", "exactpoly.poly_add", "cli.parse_nodes",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "nodes.diff_products.calls_per_set": "ratio",
    "nodes.diff_products.max_bits": "bits",
    "symmetric.brute_force.compared_frac": "ratio",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the sources are missing)."""


def bench_seconds() -> int:
    """The measuring budget of one run, `run_seconds` in BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def load_package():
    """Import diffprod from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "diffprod" / "__init__.py").is_file():
        raise BenchError(f"no diffprod sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("diffprod")
    importlib.import_module("diffprod.cli")
    if Path(package.__file__).resolve().parent != src / "diffprod":
        raise BenchError(f"imported diffprod from {package.__file__}, not {src}")
    return package


# --- output checks ---------------------------------------------------------

def known_sum(m: int, n: int):
    """Value of the sum known a priori: 0 for n <= m-2, 1 at n = m-1."""
    if n <= m - 2:
        return "0"
    if n == m - 1:
        return "1"
    return None


def _table_ok(q, out) -> bool:
    if q.fmt == "json":
        rows = [(r["n"], r["sum"], r["match"]) for r in json.loads(out)["rows"]]
    else:
        rows = [(int(n), s, flag == "yes")
                for n, s, _, flag in (line.split() for line in out.splitlines()[2:])]
    return len(rows) == q.n + 1 and all(
        match and known_sum(q.m, n) in (None, s) for n, s, match in rows)


def _weights_ok(q, out) -> bool:
    if q.fmt == "json":
        total = json.loads(out)["sum"]
    else:
        total = out.splitlines()[-1].rsplit(" = ", 1)[1]
    return total == known_sum(q.m, q.n)


def _decompose_ok(q, out) -> bool:
    if q.fmt == "json":
        return json.loads(out)["decomposition"]["reconstructed"] is True
    return "reconstruction check: ok" in out.splitlines()


def _symmetric_ok(q, out) -> bool:
    if q.fmt == "json":
        agreement = json.loads(out)["agreement"]
        return agreement["h_triple"] is True and agreement["newton_round_trip"] is True
    lines = out.splitlines()
    return "h paths agree: yes" in lines and "newton round trip: yes" in lines


def _verify_ok(q, out) -> bool:
    if q.fmt == "json":
        res = json.loads(out)
        return res["all_identities_hold"] is True and all(c["ok"] for c in res["checks"])
    lines = out.splitlines()
    return lines[-1] == "all identities hold" and not any(
        line.startswith("FAIL") for line in lines)


CHECKS = {
    "weights": _weights_ok,
    "table": _table_ok,
    "decompose": _decompose_ok,
    "symmetric": _symmetric_ok,
    "verify": _verify_ok,
}


def output_ok(q, rc, out: str) -> bool:
    """Exit code 0 and every value the output states that is known a priori
    or is the program's own verdict on an identity."""
    if rc != 0:
        return False
    try:
        return CHECKS[q.verb](q, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def recorded_digests(workload: str, seed: int) -> list:
    """Per-pass lists of output digests recorded from the seed commit; empty
    for seeds other than the recorded one."""
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return data["workloads"].get(workload, []) if seed == data["seed"] else []


# --- running passes --------------------------------------------------------

class Tally:
    """Calls attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def call(cli, q):
    """One in-process CLI call; returns (exit code or None, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(q.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the run goes on; the call counts as failed
        traceback.print_exc()
        rc = None
    return rc, out.getvalue(), time.perf_counter() - start


def run_pass(cli, queries, tally, expected=None):
    """Run one pass and check its outputs after the clock stops.

    Returns (pass seconds, per-call seconds, output digests, output bytes).
    `expected` holds digests the outputs must equal, when known.
    """
    results = []
    start = time.perf_counter()
    for q in queries:
        results.append(call(cli, q))
    wall = time.perf_counter() - start
    digests = [digest(out) for _, out, _ in results]
    for i, (q, (rc, out, _)) in enumerate(zip(queries, results)):
        tally.count(output_ok(q, rc, out)
                    and (expected is None or digests[i] == expected[i]))
    out_bytes = sum(len(out.encode("utf-8")) for _, out, _ in results)
    return wall, [seconds for _, _, seconds in results], digests, out_bytes


def setup_launch(tally) -> float:
    """Wall seconds of one fresh `python -m diffprod weights "1 2 3"`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "diffprod", *SETUP_ARGV],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
    except subprocess.TimeoutExpired:
        tally.count(False)
    else:
        query = Query(SETUP_ARGV, "weights", 3, "text", 0)
        tally.count(output_ok(query, proc.returncode, proc.stdout))
    return time.perf_counter() - start


def _stop(start: float, last: float, seconds: float) -> bool:
    """True once another step of `last` seconds would end past the budget."""
    return time.perf_counter() - start + last > seconds


def p90(values: list) -> float:
    """90th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def measure_end_to_end(package, w, seed, seconds, tally) -> dict:
    """Tracing off: fresh passes until the budget is spent, each followed
    by SETUP_LAUNCHES timed launches, so that set-up is timed all through
    the run and not in one stretch of the host's CPU speed.

    Pass and call times are reported at their 90th percentile, not their
    median: on a host whose CPU speed switches between two levels for
    seconds at a time, a median mixes the levels in a share that changes
    from run to run, while the 90th percentile stays with the slower one.
    For the median call, that is the 90th percentile of the passes' median
    calls.  Set-up time is the median launch.
    """
    setup_launch(tally)  # untimed: warms the file caches
    recorded = recorded_digests(w.name, seed)
    walls, pass_p50s, latencies, setup = [], [], [], []
    start = time.perf_counter()
    while not walls or not _stop(
            start, statistics.median(walls) + SETUP_LAUNCHES * statistics.median(setup),
            seconds):
        index = len(walls)
        queries = pass_queries(w, seed, index)
        expected = recorded[index] if index < len(recorded) else None
        wall, lat, _, _ = run_pass(package.cli, queries, tally, expected)
        walls.append(wall)
        pass_p50s.append(statistics.median(lat))
        latencies.extend(lat)
        setup.extend(setup_launch(tally) for _ in range(SETUP_LAUNCHES))
    print(f"{w.name}: {len(walls)} passes, {len(latencies)} calls, "
          f"{len(setup)} set-up launches", file=sys.stderr)
    return {
        "wall_s": p90(walls),
        "call_p50_ms": p90(pass_p50s) * 1e3,
        "call_p90_ms": p90(latencies) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class PassStats:
    """What the observers see during one traced pass."""

    def __init__(self):
        self.node_sets = set()  # distinct node sets passed to diff_products
        self.max_bits = 0  # largest numerator/denominator bit length returned
        self.h_checked = 0  # h values the CLI computes to check them


def measure_layers(package, w, seed, seconds, tally, spans_path=None) -> dict:
    """Traced run: pass 0 of the seed, repeated untraced and traced in
    alternating order until the budget is spent.  Counts come from the
    first traced pass; self times are medians over the traced passes."""
    stats: list = []

    def on_diff_products(args, result, parent):
        stats[-1].node_sets.add(args[0])
        stats[-1].max_bits = max(stats[-1].max_bits, *(
            max(A.numerator.bit_length(), A.denominator.bit_length()) for A in result))

    def on_homogeneous(args, result, parent):
        if parent == "cli.run":
            stats[-1].h_checked += len(result)

    tracer = Tracer(package, {
        "nodes.diff_products": on_diff_products,
        "symmetric.homogeneous_via_elementary": on_homogeneous,
    })
    queries = pass_queries(w, seed, 0)
    recorded = recorded_digests(w.name, seed)
    expected = recorded[0] if recorded else None
    walls = {False: [], True: []}
    summaries, out_bytes = [], 0
    start = time.perf_counter()
    while not summaries or not _stop(start, walls[False][-1] + walls[True][-1], seconds):
        order = (False, True) if len(summaries) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                stats.append(PassStats())
                mark = tracer.mark()
                with tracer:
                    wall, _, digests, out_bytes = run_pass(package.cli, queries, tally, expected)
                summaries.append(tracer.summary(mark))
            else:
                wall, _, digests, out_bytes = run_pass(package.cli, queries, tally, expected)
            expected = expected or digests  # every later pass must repeat the first
            walls[traced].append(wall)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)

    first, st = summaries[0], stats[0]
    calls = first["calls"]

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    print(f"{w.name}: {len(summaries)} traced passes of {len(queries)} calls, "
          f"{tracer.mark()} spans, max_bits {st.max_bits}", file=sys.stderr)
    return {
        **{f"{layer}.self_s": statistics.median(s["layer_self_s"][layer] for s in summaries)
           for layer in LAYERS},
        **{f"{name}.calls": calls.get(name, 0) for name in COUNTED},
        **{f"{name}.self_s": self_s(name) for name in SELF_TIMED},
        "nodes.diff_products.calls_per_set":
            calls.get("nodes.diff_products", 0) / max(len(st.node_sets), 1),
        "nodes.diff_products.max_bits": st.max_bits,
        "symmetric.brute_force.compared_frac":
            calls.get("symmetric.homogeneous_brute_force", 0) / max(st.h_checked, 1),
        "cli.output_bytes": out_bytes,
        "trace.overhead_frac":
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench_seconds(),
                        help="time budget of the measured passes "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    args = parser.parse_args(argv)
    try:
        package = load_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    w, tally = WORKLOADS[args.workload], Tally()
    if args.trace:
        spans = BENCH / "out" / f"spans-{w.name}-seed{args.seed}.json.gz"
        values = measure_layers(package, w, args.seed, args.seconds, tally, spans)
        units = PER_LAYER_UNITS
    else:
        values = measure_end_to_end(package, w, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
