"""Self-tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test runs one pass of every workload on two seeds (about two
minutes) and checks that the answers are identical.
"""

import json
import random
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cayleykit  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SpanArithmetic(unittest.TestCase):
    def test_self_time_excludes_directly_nested_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def leaf():
            clock.advance(2.0)

        def middle():
            clock.advance(1.0)
            inner()
            inner()
            clock.advance(0.5)

        def outer():
            clock.advance(3.0)
            mid()

        inner = tracer.wrap("perm.contains", leaf)
        mid = tracer.wrap("ci.babai_check", middle)
        tracer.wrap("cli.main", outer)()

        self.assertEqual(tracer.self_s["perm.contains"], 4.0)
        self.assertEqual(tracer.self_s["ci.babai_check"], 1.5)
        self.assertEqual(tracer.self_s["cli.main"], 3.0)
        self.assertEqual(tracer.calls["perm.contains"], 2)
        metrics = tracer.metrics()
        self.assertEqual(metrics["perm.self_s"], 4.0)
        self.assertEqual(metrics["ci.self_s"], 1.5)
        self.assertEqual(metrics["cli.self_s"], 3.0)
        # self times partition the outermost span
        self.assertEqual(sum(metrics[f"{layer}.self_s"]
                             for layer in tracing.LAYERS), clock())

    def test_escaping_exception_counts_one_error_per_span(self):
        tracer = tracing.Tracer(FakeClock())

        def boom():
            raise ValueError("no")

        with self.assertRaises(ValueError):
            tracer.wrap("zoo.inner_holomorph", boom)()
        self.assertEqual(tracer.metrics()["zoo.errors"], 1)
        self.assertEqual(tracer.calls["zoo.inner_holomorph"], 1)

    def test_counter_counts_without_advancing_on_read(self):
        tracer = tracing.Tracer(FakeClock())
        double = tracer.counter("perm.mul.count", lambda x: 2 * x)
        for i in range(5):
            self.assertEqual(double(i), 2 * i)
        self.assertEqual(tracer.metrics()["perm.mul.count"], 5)
        self.assertEqual(tracer.metrics()["perm.mul.count"], 5)


class OracleNesting(unittest.TestCase):
    def test_nested_oracle_counts_once(self):
        clock = FakeClock()
        timer = tracing.OracleTimer(clock)

        def lattice():
            clock.advance(4.0)

        inner = timer.wrap(lattice)

        def scan():
            clock.advance(1.0)
            inner()
            clock.advance(1.0)

        outer = timer.wrap(scan)
        outer()
        self.assertEqual(timer.total, 6.0)
        clock.advance(10.0)  # time outside any oracle is not counted
        inner()
        self.assertEqual(timer.total, 10.0)

    def test_oracle_time_survives_an_exception(self):
        clock = FakeClock()
        timer = tracing.OracleTimer(clock)

        def fails():
            clock.advance(2.0)
            raise RuntimeError

        with self.assertRaises(RuntimeError):
            timer.wrap(fails)()
        self.assertEqual(timer.total, 2.0)
        timer.wrap(lambda: clock.advance(1.0))()
        self.assertEqual(timer.total, 3.0)


class Rebinding(unittest.TestCase):
    def test_rebind_reaches_every_importing_module(self):
        def normalizer():
            return "orig"

        perm = types.ModuleType("perm")
        ci = types.ModuleType("ci")
        other = types.ModuleType("other")
        perm.normalizer = normalizer
        ci.normalizer = normalizer  # as "from .perm import normalizer"
        ci.alias = normalizer
        other.normalizer = lambda: "unrelated"
        tracer = tracing.Tracer(FakeClock())
        wrapped = tracer.wrap("perm.normalizer", normalizer)
        tracing.rebind([perm, ci, other], normalizer, wrapped)
        self.assertIs(perm.normalizer, wrapped)
        self.assertIs(ci.normalizer, wrapped)
        self.assertIs(ci.alias, wrapped)
        self.assertEqual(other.normalizer(), "unrelated")
        ci.normalizer()
        self.assertEqual(tracer.calls["perm.normalizer"], 1)


class Relabeling(unittest.TestCase):
    def test_relabel_keeps_order_and_conjugates(self):
        rng = random.Random(7)
        spec = cayleykit.GroupSpec
        groups = [cayleykit.PermGroup.symmetric(6),
                  cayleykit.inner_holomorph(spec.frobenius(5, 4)),
                  cayleykit.regular_representation(spec.dicyclic(3)).group]
        for G in groups:
            c = workloads.relabeling(cayleykit, rng, G.degree)
            H = G.conjugate(c)
            self.assertEqual(H.order, G.order)
            cinv = c.inverse()
            for g in G.generators:
                self.assertTrue(H.contains(cinv * g * c))
            self.assertEqual(
                workloads.relabel(cayleykit, G, rng).order, G.order)

    def test_relabel_gens_generate_a_group_of_the_same_order(self):
        rng = random.Random(3)
        gens = workloads._wreath_gens(cayleykit, 2, 3)
        c = workloads.relabeling(cayleykit, rng, 6)
        moved = workloads.relabel_gens(gens, c)
        self.assertNotEqual(moved, gens)
        self.assertEqual(cayleykit.PermGroup(6, moved).order,
                         cayleykit.PermGroup(6, gens).order)

    def test_chain_group_orders_match_their_formulas(self):
        for name, n, make, order, _alt, _count in workloads.CHAIN_GROUPS:
            with self.subTest(name):
                self.assertEqual(
                    cayleykit.PermGroup(n, make(cayleykit)).order, order)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.per_layer_metrics())
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(workloads.WORKLOADS))

    def test_pass_seeds_start_at_the_run_seed(self):
        self.assertEqual(run.pass_seed(5, 0), 5)
        self.assertEqual(len({run.pass_seed(5, i) for i in range(8)}), 8)


class SeedIndependence(unittest.TestCase):
    def test_two_seeds_give_identical_answers(self):
        for workload in workloads.WORKLOADS:
            digests = []
            for seed in (1, 2):
                out = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), "--workload",
                     workload, "--seed", str(seed), "--mode", "pass"],
                    capture_output=True, text=True, check=True,
                    cwd=HERE.parent, timeout=300).stdout
                records = [json.loads(line) for line in out.splitlines()]
                summary = run.summarize(records, False, 0.0)
                self.assertEqual(summary["failed"], 0, (workload, seed))
                digests.append(summary["answers_sha256"])
            self.assertEqual(digests[0], digests[1], workload)


if __name__ == "__main__":
    unittest.main()
