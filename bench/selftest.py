"""Fast self-test of the benchmark harness, on tiny instances.

    python3 bench/selftest.py

Checks that the result line carries exactly the metric names and units of
BENCHMARK.json, that negative controls are caught (and that a verifier
which accepts everything would be flagged), that span self times add up
to their parents, and that the benchmark refuses to run without sources.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kocover import cover  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


class ResultLine(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_workload_both_modes(self):
        for workload in workloads.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    rc, lines = bench(workload, trace)
                    self.assertEqual(rc, 0, "\n".join(lines[-20:]))
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, table)
                    ops = [json.loads(line[len("# op "):]) for line in lines
                           if line.startswith("# op ")]
                    self.assertTrue(any(r["kind"] == "control" and r["ok"] for r in ops))
                    insts = [json.loads(line[len("# instance "):]) for line in lines
                             if line.startswith("# instance ")]
                    self.assertTrue(insts)
                    for r in insts:
                        self.assertTrue(r["ok"])
                        self.assertEqual({"build_s", "verify_s", "rss_mb", "bytes"} - set(r),
                                         set())
                    if trace:
                        m = {k: v["value"] for k, v in res["metrics"].items()}
                        expect = {"signature-walk": 1.0, "wheel-crack": 2.0}.get(workload)
                        if expect is not None:
                            self.assertEqual(m["certify.verifies_per_certificate"], expect)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            rc, lines = bench("signature-walk", 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Controls(unittest.TestCase):
    def run_plan(self, workload: str) -> list[workloads.OpResult]:
        plan = workloads.make_plan(workload, 3, tiny=True)
        cxs = {i.spec: workloads.kocover.builtin(i.spec) for i in plan.instances}
        ops: list[workloads.OpResult] = []
        workloads.run_inprocess(plan, cxs, ops)
        return ops

    def test_controls_caught(self):
        for workload in ("signature-walk", "wheel-crack"):
            ops = self.run_plan(workload)
            self.assertTrue(all(o.ok for o in ops), [vars(o) for o in ops if not o.ok])
            self.assertEqual(sum(o.kind == "control" for o in ops), 2)

    def test_lenient_verifier_is_flagged(self):
        real = cover.verify_cover_bundle
        cover.verify_cover_bundle = lambda bundle: cover.CoverReport()  # accepts all
        try:
            ops = self.run_plan("signature-walk")
        finally:
            cover.verify_cover_bundle = real
        bad = [o.name for o in ops if not o.ok]
        self.assertEqual(len(bad), 1)
        self.assertTrue(bad[0].startswith("control:drop-element"))

    def test_cli_controls(self):
        work = ROOT / ".bench_work" / "selftest-cli"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            ops = [o for o in workloads.make_plan("cli-roundtrip", 3, tiny=True).cli_ops
                   if o.kind in ("build", "control") and not o.name.startswith("product")]
            results: list[workloads.OpResult] = []
            written = workloads.run_cli(ops, work, results, env=None)
            self.assertTrue(all(r.ok for r in results), [vars(r) for r in results])
            self.assertEqual(written, sum(r.bytes for r in results))
            # a verdict that differs from the known answer is counted as failed
            wrong = [workloads.CliOp("wrong", ["cover", "verify", "--in", "malformed.json"],
                                     "control", expect_rc=0)]
            results.clear()
            workloads.run_cli(wrong, work, results, env=None)
            self.assertFalse(results[0].ok)
            # as subprocesses, a verify repeats and only its median time counts
            verify = [o for o in workloads.make_plan("cli-roundtrip", 3, tiny=True).cli_ops
                      if o.name == "cover-verify:arc"]
            results.clear()
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            workloads.run_cli(verify, work, results, env=env)
            self.assertTrue(results[0].ok, vars(results[0]))
            self.assertGreater(results[0].extra_s, results[0].seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Reference(unittest.TestCase):
    def test_factor_is_reference_speed(self):
        clock = reference.HostClock(enabled=False)
        clock.maybe_sample()
        self.assertEqual((clock.samples, clock.factor()), ([], 1.0))
        clock = reference.HostClock()
        helper = clock.proc
        try:
            clock.samples = [(0.0, 2 * reference.REFERENCE_S),
                             (1.0, 2 * reference.REFERENCE_S),
                             (2.0, 9 * reference.REFERENCE_S)]   # one slow outlier
            self.assertAlmostEqual(clock.factor(), 0.5)
            clock.maybe_sample()                 # the last sample is long past
            self.assertEqual(len(clock.samples), 4)
            self.assertGreater(clock.spent, 0.0)
        finally:
            clock.close()
        self.assertIsNotNone(helper.poll())      # the helper has ended


class Spans(unittest.TestCase):
    def test_self_times_add_up(self):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            plan = workloads.make_plan("wheel-crack", 3, tiny=True)
            cxs = {i.spec: workloads.kocover.builtin(i.spec) for i in plan.instances}
            ops: list[workloads.OpResult] = []
            workloads.run_inprocess(plan, cxs, ops,
                                    op_span=lambda kind: tracer.span("bench.op", kind=kind))
        finally:
            uninstall()
        self.assertTrue(all(o.ok for o in ops))
        self.assertTrue(tracing.self_time_consistent(tracer))
        for s in tracer.spans:
            self.assertGreaterEqual(s.self_time, -1e-9, s.name)
        m = tracing.layer_metrics(tracer)
        self.assertEqual(m["certify.verifies_per_certificate"], 2.0)
        self.assertEqual(m["tower.cells_materialized"],
                         sum(m[f"tower.cells_materialized.l{t}"] for t in range(1, 5)))
        # the patches are gone again
        self.assertFalse(hasattr(cover.build_cover, "__wrapped__"))

    def test_nested_accounting(self):
        tracer = tracing.Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        tracer.leave()
        tracer.leave()
        inner = tracer.spans[1]
        self.assertIs(inner.parent, outer)
        self.assertAlmostEqual(outer.total, outer.self_time + inner.total, places=9)


def tearDownModule():
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass  # absent, or a benchmark run is using it


if __name__ == "__main__":
    os.environ["KO_COVER_MAX_LEVEL"] = "4"
    unittest.main()
