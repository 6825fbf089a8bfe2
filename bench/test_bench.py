"""Tests of the benchmark itself (not of diffprod).

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, pass_node_sets, pass_queries  # noqa: E402

PACKAGE = run.load_package()

# Same verbs as small-batch on sets small enough for a quick test.
TINY = Workload(name="tiny", why="test", sets_per_pass=2, m_values=(3, 4),
                numerators=5, denominators=3,
                verbs=("weights", "table", "decompose", "symmetric", "verify"))


def bindings() -> dict:
    mods = [PACKAGE, *(getattr(PACKAGE, layer) for layer in LAYERS)]
    return {(mod.__name__, attr): value for mod in mods
            for attr, value in vars(mod).items() if inspect.isfunction(value)}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS.values():
            self.assertEqual(pass_queries(w, 7, 2), pass_queries(w, 7, 2))
            self.assertNotEqual(pass_node_sets(w, 7, 2), pass_node_sets(w, 8, 2))
            self.assertNotEqual(pass_node_sets(w, 7, 2), pass_node_sets(w, 7, 3))

    def test_sets_follow_the_workload(self):
        for w in WORKLOADS.values():
            sets = pass_node_sets(w, 3, 0)
            self.assertEqual(len(sets), w.sets_per_pass)
            self.assertEqual(sorted(len(s) for s in sets),
                             sorted(w.m_values * (w.sets_per_pass // len(w.m_values))))
            for values in sets:
                self.assertEqual(len(set(values)), len(values))
                for v in values:
                    self.assertLessEqual(abs(v.numerator), w.numerators)
                    self.assertLessEqual(v.denominator, w.denominators)

    def test_formats_alternate_across_passes(self):
        w = WORKLOADS["small-batch"]  # 35 calls per pass
        self.assertEqual([pass_queries(w, 1, i)[0].fmt for i in range(3)],
                         ["json", "text", "json"])
        self.assertEqual([q.fmt for q in pass_queries(w, 1, 0)[:3]],
                         ["json", "text", "json"])


class MetricsTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match_the_benchmark_definition(self):
        self.assertEqual([(w["name"], w["why"]) for w in self.spec["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])

    def test_units_match_the_benchmark_definition(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in self.spec[key]}, units)

    def test_every_metric_is_emitted(self):
        e2e_tally, layer_tally = run.Tally(), run.Tally()
        e2e = run.measure_end_to_end(PACKAGE, TINY, 1, 0.2, e2e_tally)
        layers = run.measure_layers(PACKAGE, TINY, 1, 0.2, layer_tally)
        self.assertEqual(set(e2e), set(run.END_TO_END_UNITS))
        self.assertEqual(set(layers), set(run.PER_LAYER_UNITS))
        self.assertTrue(all(v > 0 for v in e2e.values()))
        self.assertEqual(layers["cli.run.calls"], 10)
        self.assertEqual(layers["symmetric.brute_force.compared_frac"], 1.0)
        self.assertEqual(e2e_tally.failed + layer_tally.failed, 0)
        # one warm-up launch, then passes of 10 calls, each followed by launches
        self.assertEqual((e2e_tally.attempted - 1) % (10 + run.SETUP_LAUNCHES), 0)
        self.assertGreaterEqual(e2e_tally.attempted, 1 + 10 + run.SETUP_LAUNCHES)
        # at least an untraced and a traced pass
        self.assertGreaterEqual(layer_tally.attempted, 20)
        self.assertEqual(layer_tally.attempted % 10, 0)


class TracerTest(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        before = bindings()
        tracer = Tracer(PACKAGE)
        with tracer:
            inside = bindings()
            for binding in (("diffprod.cli", "euler_sum"),
                            ("diffprod.partfrac", "diff_products"),
                            ("diffprod", "poly_mul"),
                            ("diffprod.nodes", "poly_from_roots")):
                self.assertIsNot(inside[binding], before[binding])
            self.assertIs(inside[("diffprod.cli", "_run_table")],
                          before[("diffprod.cli", "_run_table")])
            run.call(PACKAGE.cli, pass_queries(TINY, 1, 0)[1])
        after = bindings()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        calls = tracer.summary()["calls"]
        self.assertEqual(calls["cli.run"], 1)
        self.assertEqual(calls["nodes.euler_sum"], 8)  # table at m=3: n = 0..7

    def test_self_time_excludes_children(self):
        tracer = Tracer(PACKAGE)
        with tracer:
            run.call(PACKAGE.cli, pass_queries(TINY, 1, 0)[4])
        s = tracer.summary()
        total = sum(tracer.ends[i] - tracer.starts[i]
                    for i in range(tracer.mark()) if tracer.parents[i] < 0) / 1e9
        self.assertAlmostEqual(sum(s["layer_self_s"].values()), total, places=6)


class CorruptionTest(unittest.TestCase):
    """Faked bad outputs, made here and never in the package, must be counted."""

    def run_corrupted(self, queries, corrupt, expected=None) -> run.Tally:
        original = PACKAGE.cli.run

        def fake(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = original(argv)
            rc, out = corrupt(argv, rc, buf.getvalue())
            sys.stdout.write(out)
            return rc

        tally = run.Tally()
        with mock.patch.object(PACKAGE.cli, "run", fake):
            run.run_pass(PACKAGE.cli, queries, tally, expected)
        return tally

    def test_corrupted_outputs_are_failures(self):
        queries = pass_queries(TINY, 1, 0)  # json and text alternate
        digests = run.run_pass(PACKAGE.cli, queries, run.Tally())[2]

        def wrong_sum(argv, rc, out):
            if argv[0] != "table":
                return rc, out
            if argv[-1] == "json":
                res = json.loads(out)
                res["rows"][0]["sum"] = "1"  # n = 0 must give 0
                return rc, json.dumps(res)
            return rc, out.replace("yes", "NO", 1)

        cases = {
            "exit code": (lambda argv, rc, out: (1 if argv[0] == "weights" else rc, out), 2),
            "known sum": (wrong_sum, 2),
            "verdict": (lambda argv, rc, out: (rc, out.replace(
                '"ok": true' if argv[-1] == "json" else "ok  ",
                '"ok": false' if argv[-1] == "json" else "FAIL", 1)
                if argv[0] == "verify" else out), 2),
        }
        for name, (corrupt, bad) in cases.items():
            with self.subTest(name):
                tally = self.run_corrupted(queries, corrupt)
                self.assertEqual((tally.attempted, tally.failed), (len(queries), bad))
        with self.subTest("digest"):
            extra_space = lambda argv, rc, out: (rc, out + " " if argv[0] == "symmetric" else out)
            tally = self.run_corrupted(queries, extra_space, digests)
            self.assertEqual(tally.failed, 2)
            self.assertEqual(self.run_corrupted(queries, extra_space).failed, 0)


if __name__ == "__main__":
    unittest.main()
