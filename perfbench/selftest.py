"""Self-tests of the benchmark harness.

Run from the root of a checkout (takes about half a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.jobs import SweepJob  # noqa: E402
from tracer import Target, Tracer, aggregate  # noqa: E402


class TinyGrid(workloads.Fig14Grid):
    """The fig14-grid workload shrunk to a few seconds."""

    distances = (3, 5)
    shots = 8
    warm_seconds = 0.01


class TinyService(workloads.ServiceLoop):
    submissions = 2


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        root = ["root", 0.0, 10.0, None, 1]
        first = ["a", 1.0, 4.0, root, 1]
        second = ["b", 5.0, 9.0, root, 1]
        nested = ["a", 6.0, 7.0, second, 1]
        elsewhere = ["x", 2.0, 3.0, None, 2]
        times = aggregate([root, first, second, nested, elsewhere], main_thread=1)
        self.assertAlmostEqual(times.self_time["root"], 3.0)
        self.assertAlmostEqual(times.self_time["a"], 4.0)
        self.assertAlmostEqual(times.self_time["b"], 3.0)
        self.assertAlmostEqual(times.total["a"], 4.0)
        self.assertEqual(times.count["a"], 2)
        self.assertAlmostEqual(times.top_level, 10.0)
        self.assertNotIn("x", times.main_self)
        self.assertAlmostEqual(times.self_time["x"], 1.0)

    def test_missing_target_reads_as_zero_time(self):
        tracer = Tracer()
        tracer.install([
            Target("gone.run", "repro.no_such_module", "Thing.run"),
            Target("gone.run", "repro.experiments.jobs", "SweepJob.no_such_method"),
        ])
        self.assertEqual(len(tracer.missing), 2)
        metrics = layers.derive(aggregate([]), {}, 1.0)
        self.assertEqual(metrics["sim.run_s"], 0.0)
        self.assertEqual(metrics["decoder.match_s"], 0.0)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(cls.name, cls.why) for cls in workloads.WORKLOADS.values()],
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(metric) for metric in layers.METRICS],
        )


class TracedWorkloads(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        self.tracer = Tracer()
        self.tracer.install(layers.TARGETS)
        layers.install_counters(self.tracer)

    def tearDown(self):
        self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def traced_pass(self, workload, seed):
        mark = len(self.tracer.spans)
        self.tracer.counts.clear()
        self.tracer.enabled = True
        try:
            result = workload.run_pass(seed, replica=1)
        finally:
            self.tracer.enabled = False
        return result, aggregate(self.tracer.spans[mark:])

    def test_wrappers_leave_results_bit_identical(self):
        workload = TinyGrid(self.workdir, self.tracer)
        plain = workload.run_pass(7)
        traced, times = self.traced_pass(workload, 7)
        self.assertEqual(plain.digest, traced.digest)
        self.assertTrue(all(plain.checks.values()), plain.checks)
        self.assertGreater(times.count["decoder.match"], 0)
        self.assertFalse(self.tracer.missing, self.tracer.missing)

    def test_uninstall_restores_the_program(self):
        wrapped = SweepJob.run_chunk
        self.tracer.uninstall()
        self.assertIsNot(SweepJob.run_chunk, wrapped)
        self.assertFalse(hasattr(SweepJob.run_chunk, "__wrapped_by_perfbench__"))

    def test_decoder_counters_reconcile_with_the_plan(self):
        workload = TinyGrid(self.workdir, self.tracer)
        plan = workload.plan(11)
        _, times = self.traced_pass(workload, 11)
        counts = self.tracer.counts
        self.assertEqual(counts["decoder.shots"], plan.total_shots)
        self.assertEqual(times.count["executor.chunk"], plan.total_chunks)
        self.assertEqual(counts["sim.shot_rounds"], sum(j.shots * j.rounds for j in plan))
        self.assertEqual(times.count["decoder.setup"], len(plan))

    def test_service_chunk_counts_match_the_plan(self):
        workload = TinyService(self.workdir, self.tracer)
        workload.setup(5, replicas=2)
        try:
            plain = workload.run_pass(13, replica=0)
            traced, times = self.traced_pass(workload, 13)
        finally:
            workload.close()
        for result in (plain, traced):
            self.assertTrue(all(result.checks.values()), result.checks)
            self.assertEqual(result.failed, 0)
        self.assertEqual(plain.digest, traced.digest)
        self.assertEqual(
            times.count["service.submit"],
            (1 + TinyService.resubmissions) * TinyService.submissions,
        )
        self.assertGreater(traced.layer["service.chunk_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
