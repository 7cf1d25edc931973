"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that the correctness gate fails on corrupted output, that
the span tree of a traced pass is well formed, that the workload seed
moves only what it should, and that the launcher keeps its output
contract. Together they take about a minute.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import unittest

import common

if "numpy" not in sys.modules:
    common.pin_threads()
sys.path.insert(0, str(common.SRC))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

from qromlab import cli, qsim  # noqa: E402


def launch(*args: str, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170, check=False)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        common.OUT.mkdir(exist_ok=True)
        cls.reference = workloads.load_reference()
        cls.item = workloads.Experiment("three-round")
        cls.item.prepare()
        cls.rc, _ = cls.item.call()
        cls.report = json.loads(cls.item.path.read_bytes())
        cls.ref = cls.reference["experiments"][cls.item.id]

    def failures(self, report: dict, rc: int = 0) -> list[str]:
        return gate.experiment_failures(rc, json.dumps(report).encode(), self.ref)

    def test_reference_report_passes(self) -> None:
        self.assertEqual(self.rc, 0)
        self.assertEqual(self.failures(self.report), [])

    def test_corrupted_reports_fail(self) -> None:
        def flip_verdict(r):
            r["checks"][0]["pass"] = False

        def rename_check(r):
            r["checks"][1]["name"] += "-renamed"

        def drop_check(r):
            r["checks"].pop()

        def nudge_decision(r):
            r["decision"]["yes"][0] += 1e-9

        def lose_gap(r):
            r["decision"]["gap"] = None

        def drop_decision(r):
            del r["decision"]

        for corrupt in (flip_verdict, rename_check, drop_check, nudge_decision,
                        lose_gap, drop_decision):
            report = json.loads(json.dumps(self.report))
            corrupt(report)
            with self.subTest(corrupt.__name__):
                self.assertNotEqual(self.failures(report), [])
        self.assertNotEqual(self.failures(self.report, rc=1), [])
        self.assertNotEqual(gate.experiment_failures(0, b'{"checks": [', self.ref), [])
        self.assertNotEqual(gate.experiment_failures(0, None, self.ref), [])

    def test_runner_counts_a_corrupted_reference_as_failed(self) -> None:
        reference = json.loads(json.dumps(self.reference))
        reference["experiments"][self.item.id]["decision"]["no"][0] += 1e-6
        workload = workloads.Workload("one", (self.item,))
        runner = Runner(workload, 0, reference)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertIn("decision no values", err.getvalue())
        runner = Runner(workload, 0, self.reference)
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed), (1, 0))

    def test_demo_verdicts(self) -> None:
        self.assertEqual(gate.demo_failures(0, "swap: pass  ok\n", "swap"), [])
        self.assertNotEqual(gate.demo_failures(0, "swap: FAIL  x\n", "swap"), [])
        self.assertNotEqual(gate.demo_failures(1, "swap: pass  ok\n", "swap"), [])
        self.assertNotEqual(gate.demo_failures(0, "", "swap"), [])

    def test_adjuster_limits(self) -> None:
        good = {"exact_unitarity": 1e-16, "exact_td": 1e-16, "eff_unitarity": 1e-16,
                "eff_td": 1e-16, "flagged": 49}
        self.assertEqual(gate.adjuster_failures(good, 49), [])
        for key, bad in (("eff_td", 2e-9), ("exact_unitarity", float("nan")),
                         ("flagged", 48)):
            with self.subTest(key):
                self.assertNotEqual(gate.adjuster_failures({**good, key: bad}, 49), [])

    def test_repeats_must_be_byte_identical(self) -> None:
        log = gate.RepeatLog()
        self.assertEqual(log.failures("a", b"x"), [])
        self.assertEqual(log.failures("a", b"x"), [])
        self.assertNotEqual(log.failures("a", b"y"), [])


class SpanTest(unittest.TestCase):
    def test_nested_self_time_is_exact(self) -> None:
        tracer = spans.Tracer()

        def inner():
            return sum(range(1000))

        inner_t = tracer.wrap("m.inner", inner)
        outer_t = tracer.wrap("m.outer", lambda: [inner_t() for _ in range(3)])
        outer_t()
        outer, inner_s = tracer.stats["m.outer"], tracer.stats["m.inner"]
        self.assertEqual((outer.calls, inner_s.calls), (1, 3))
        self.assertEqual(outer.self_ns, outer.incl_ns - inner_s.incl_ns)
        self.assertEqual(tracer.open_spans, 0)

    def test_traced_pass_is_well_formed(self) -> None:
        workload = workloads.build("lemma-sweep", seed=5)
        runner = Runner(workload, 5, workloads.load_reference())
        original = qsim.apply_unitary
        tracer = spans.Tracer()
        tracer.install()
        try:
            import qromlab
            from qromlab import adversary, oracle

            for ns in (qromlab, qsim, oracle, adversary):
                self.assertIs(ns.apply_unitary.__wrapped__, original)
            self.assertTrue(hasattr(cli.main, "__wrapped__"))
            done = runner.run_pass(normalise=False)
            tracer.end_pass()
        finally:
            tracer.uninstall()
        self.assertIs(qsim.apply_unitary, original)
        self.assertEqual(runner.failed, 0)
        self.assertEqual(tracer.open_spans, 0)
        for name, st in tracer.stats.items():
            with self.subTest(name):
                self.assertGreaterEqual(st.self_ns, 0)
                self.assertLessEqual(st.self_ns, st.incl_ns)
        layers = spans.layer_metrics(tracer, passes=1)
        self.assertLessEqual(sum(layers[f"{m}.self_s"] for m in common.MODULES),
                             sum(done.raw))
        for name, _ in common.PER_LAYER:
            if name != "trace.overhead_s":
                self.assertIn(name, layers)
        self.assertEqual(layers["cli.main.calls"], len(workloads.DEMOS))
        self.assertGreater(layers["qsim.apply_unitary.calls"], 0)
        self.assertGreater(layers["oracle.quantum_query.amps"], 0)


    def test_functools_wrappers_are_traced(self) -> None:
        import importlib

        import qromlab

        namespaces = [qromlab, *(importlib.import_module(f"qromlab.{m}")
                                 for m in common.MODULES)]
        original = namespaces[0].adversary.build_verifier
        cached = functools.lru_cache(maxsize=None)(original)
        owners = [ns for ns in namespaces
                  if getattr(ns, "build_verifier", None) is original]
        for ns in owners:
            ns.build_verifier = cached
        tracer = spans.Tracer()
        try:
            tracer.install()
            traced = [ns.build_verifier for ns in owners]
        finally:
            tracer.uninstall()
            restored = [ns.build_verifier for ns in owners]
            for ns in owners:
                ns.build_verifier = original
        self.assertIn(qromlab.adversary, owners)
        for fn in traced:
            self.assertIs(fn.__wrapped__, cached)
        self.assertEqual(restored, [cached] * len(owners))
        self.assertIn("adversary.build_verifier", tracer.stats)

    def test_an_unmeasured_metric_is_an_error(self) -> None:
        table = (("a.calls", "count"), ("b.self_s", "s"))
        self.assertEqual(run.pick_metrics(table, {"a.calls": 0, "b.self_s": 0.5}),
                         {"a.calls": {"value": 0, "unit": "count"},
                          "b.self_s": {"value": 0.5, "unit": "s"}})
        with self.assertRaises(run.WorkerError):
            run.pick_metrics(table, {"a.calls": 3})


class SeedTest(unittest.TestCase):
    def test_seed_moves_demo_inputs_and_order(self) -> None:
        one, two = (workloads.build("lemma-sweep", s) for s in (1, 2))
        self.assertNotEqual([i.argv for i in one.items], [i.argv for i in two.items])
        gens = (one.orders(1), two.orders(2))
        orders = [[[i.id for i in next(g)] for _ in range(3)] for g in gens]
        self.assertNotEqual(*orders)
        swap = [workloads._cli(["verify-lemma", "swap", "--seed", s])[1]
                for s in ("1", "2")]
        self.assertNotEqual(*swap)

    def test_seed_moves_no_experiment_report(self) -> None:
        a, b = (workloads.build("classical-decision", s) for s in (1, 2))
        self.assertEqual([i.id for i in a.items], [i.id for i in b.items])
        path = common.OUT / "seed-test.json"
        for theorem in ("constant-round", "public-coin", "three-round"):
            reports = []
            for seed in ("1", "2"):
                workloads._cli(["run", theorem, "--seed", seed, "--out", str(path)])
                reports.append(path.read_bytes())
            with self.subTest(theorem):
                self.assertEqual(*reports)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_code_metrics(self) -> None:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), common.WORKLOADS)
        self.assertEqual(tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
                         common.END_TO_END)
        self.assertEqual(tuple((m["name"], m["unit"]) for m in spec["per_layer"]),
                         common.PER_LAYER)

    def test_untraced_run_prints_end_to_end_metrics_and_loads_no_wrappers(self) -> None:
        done = launch("--workload", "lemma-sweep", "--seed", "3", "--seconds", "1",
                      "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(list(last["metrics"]), [m for m, _ in common.END_TO_END])
        result = json.loads(
            (common.OUT / "result-lemma-sweep-seed3-trace0.json").read_text())
        self.assertFalse(result["detail"]["wrappers_loaded"])
        self.assertEqual(result["detail"]["fingerprint"]["workload_seed"], 3)

    def test_traced_run_prints_per_layer_metrics(self) -> None:
        done = launch("--workload", "classical-decision", "--seed", "3",
                      "--seconds", "1", "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(last["correct"])
        self.assertEqual(list(last["metrics"]), [m for m, _ in common.PER_LAYER])
        self.assertGreater(last["metrics"]["pipeline.fs_forgery_exact.calls"]["value"], 0)

    def test_refuses_to_run_without_the_program(self) -> None:
        bare = common.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(common.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        try:
            done = launch("--workload", "lemma-sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
