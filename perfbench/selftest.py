"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import FREECONV_POINTS, WORKLOADS, operations  # noqa: E402

SEEDS = range(20)


class TestWorkloads(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(operations(workload, seed), operations(workload, seed))

    def test_seed_changes_inputs(self):
        for workload in ("exact", "ed"):  # numeric has no seeded input
            variants = {json.dumps(operations(workload, seed)) for seed in SEEDS}
            self.assertGreater(len(variants), 1, workload)

    def test_cost_does_not_vary_with_seed(self):
        for workload in WORKLOADS:
            shapes = {tuple((op["name"], op["kind"], op["cost"]) for op in operations(workload, s))
                      for s in SEEDS}
            self.assertEqual(len(shapes), 1, workload)

    def test_seeded_values_keep_their_shape(self):
        for seed in SEEDS:
            for op in operations("exact", seed):
                if op["check"] == "mixed":
                    word = checks._argv_value(op, "--word")
                    arcs = sorted(len(a) for a in (word + word).split("d")[1:5])
                    self.assertEqual((word.count("x"), word.count("d"), arcs),
                                     (12, 4, [2, 3, 3, 4]))
            freeconv = [op for op in operations("numeric", seed) if op["check"] == "freeconv"]
            self.assertEqual([(checks._argv_value(op, "--r"), checks._argv_value(op, "--theta"))
                              for op in freeconv], list(FREECONV_POINTS))
            self.assertEqual(self._unseeded(operations("ed", seed)),
                             self._unseeded(operations("ed", 0)))

    @staticmethod
    def _unseeded(ops):
        return [[a for i, a in enumerate(op["argv"]) if op["argv"][i - 1] != "--seed"]
                for op in ops]

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)


class TestSpans(unittest.TestCase):
    # a(0..10) -> b(1..4) -> b(2..3);  a -> c(5..9)
    SPANS = [["a", 0.0, 10.0, None, None], ["b", 1.0, 4.0, 0, "x"], ["b", 2.0, 3.0, 1, "y"],
             ["c", 5.0, 9.0, 0, None]]

    def test_self_time(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0])

    def test_recursion_counted_once(self):
        self.assertEqual(tracing.outermost(self.SPANS), [True, True, False, True])
        m = tracing.op_metrics(self.SPANS, {"k": 7})
        self.assertEqual((m["a_s"], m["b_s"], m["b_calls"], m["b_s.x"], m["k"]),
                         (10.0, 3.0, 2, 3.0, 7))
        self.assertNotIn("b_s.y", m)

    def test_cli_self_time(self):
        spans = [["cli.main", 0.0, 10.0, None, None], ["cli.ed", 1.0, 9.0, 0, None],
                 ["edlab.sample_spectra", 2.0, 8.0, 1, None]]
        self.assertEqual(tracing.op_metrics(spans, {})["cli.self_s"], 4.0)

    def test_wrappers_follow_from_imports_and_are_removed(self):
        from dssyklab import moments, qcore, qhermite
        original = qhermite.linearization
        tracer = tracing.Tracer().install()
        try:
            self.assertIsNot(moments.linearization, original)
            self.assertIs(moments.linearization, qhermite.linearization)
            moments.linearization([2, 1, 1])
            qcore.MultiPoly.one() * 2
        finally:
            tracer.uninstall()
        self.assertIs(moments.linearization, original)
        self.assertEqual(tracer.missing, [])
        self.assertGreater(tracer.counters["qhermite.linearization_calls"], 0)
        self.assertGreater(tracer.counters["qcore.mul_calls"], 0)
        self.assertEqual(tracer.counters["qhermite.linearization_unique"],
                         len(tracer.linearization_keys))


class TestChecks(unittest.TestCase):
    @staticmethod
    def _run(argv):
        import dssyklab.cli as cli
        op = {"kind": "cli", "argv": argv + ["--deterministic"],
              "check": {"ed": "spectrum", "moments": "moments_symbolic"}[argv[0]]}
        rc, text, _ = worker._run_cli(cli, op["argv"])
        return op, rc, text, sys.modules["dssyklab"]

    def test_spectrum(self):
        op, rc, text, lab = self._run(["ed", "--N", "8", "--theta", "5", "--samples", "2"])
        self.assertEqual(checks.check(op, rc, text, None, lab), [])
        lines = text.splitlines()
        last = lines[-1].split(",")
        shifted = lines[:-1] + [f"{last[0]},{float(last[1]) + 0.5}"]
        self.assertTrue(checks.check(op, rc, "\n".join(shifted), None, lab))
        nan = lines[:-1] + [f"{last[0]},nan"]
        self.assertTrue(checks.check(op, rc, "\n".join(nan), None, lab))
        self.assertTrue(checks.check(op, rc, "\n".join(lines[:-1]), None, lab))
        self.assertTrue(checks.check(op, 4, text, None, lab))

    def test_symbolic_moments(self):
        op, rc, text, lab = self._run(["moments", "--n", "6", "--symbolic"])
        self.assertEqual(checks.check(op, rc, text, None, lab), [])
        obj = json.loads(text)
        obj["moments"]["6"][0]["num"] = str(int(obj["moments"]["6"][0]["num"]) + 1)
        self.assertTrue(checks.check(op, rc, json.dumps(obj), None, lab))
        self.assertTrue(checks.check(op, rc, text[: len(text) // 2], None, lab))

    def test_api_identity_failure(self):
        op = {"kind": "api", "api": "routes_gf", "check": "api_ok"}
        self.assertEqual(checks.check(op, 0, "", (True, "", []), None), [])
        self.assertTrue(checks.check(op, 0, "", (False, "m_3 differs", []), None))


class TestWorker(unittest.TestCase):
    def test_cold_operation_record(self):
        env = run.worker_env()
        op = {"name": "tiny", "kind": "cli", "check": "spectrum", "cost": "",
              "argv": ["ed", "--N", "8", "--theta", "5", "--deterministic"]}
        rec = run.run_op(op, False, env, deadline=run.perf_counter() + 60)
        self.assertEqual(rec["problems"], [])
        self.assertEqual(checks.check(op, rec["rc"], rec["output"], None, run.load_lab()), [])
        self.assertGreater(rec["setup_s"], 0.0)
        self.assertGreater(rec["peak_rss_mb"], 0.0)
        bad = dict(op, argv=["ed", "--N", "7", "--deterministic"])
        rec = run.run_op(bad, False, env, deadline=run.perf_counter() + 60)
        self.assertTrue(checks.check(bad, rec["rc"], rec["output"], None, run.load_lab()))

    def test_digest_change_fails_the_operation(self):
        op = {"name": "tiny", "kind": "cli", "check": "spectrum", "cost": "",
              "argv": ["ed", "--N", "8", "--theta", "5", "--deterministic"]}
        digests = {json.dumps(["tiny", op["argv"], None]): "0" * 64}
        (rec,) = run.run_pass([op], False, run.worker_env(), run.perf_counter() + 60, digests,
                              run.load_lab())
        self.assertIn("output digest differs from an earlier repetition of this seed",
                      rec["problems"])


if __name__ == "__main__":
    unittest.main()
