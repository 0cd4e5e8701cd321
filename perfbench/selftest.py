"""Self-tests of the benchmark harness (not of qetkd).

    python3 perfbench/selftest.py

Covers the self-time arithmetic on a synthetic span tree, the metric
names and units against BENCHMARK.json and the naming grammar, and that
every qetkd attribute the tracer wraps is the original again afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def span(name, parent, start, end, error=False, **attrs):
    return tr.Span(name, parent, start, end, error, attrs)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span("cli.main", -1, 0.0, 10.0),                   # 0
            span("protocol.prepare", 0, 1.0, 4.0),             # 1
            span("spinops.assemble", 1, 1.5, 2.5),             # 2
            span("spinops.eigendecompose", 1, 2.5, 3.0),       # 3
            span("protocol.ensemble_for_state", 0, 5.0, 6.0),  # 4
            span("cli.main", -1, 11.0, 12.0, error=True),      # 5
        ]
        got = tr.self_times(spans)
        want = [10.0 - 3.0 - 1.0, 3.0 - 1.0 - 0.5, 1.0, 0.5, 1.0, 1.0]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w, places=12)
        agg = tr.aggregate(spans)
        self.assertEqual(agg["cli.main.calls"], 2)
        self.assertEqual(agg["cli.main.errors"], 1)
        self.assertAlmostEqual(agg["cli.main.self_s"], 7.0)
        self.assertAlmostEqual(tr.root_time(spans), 11.0)

    def test_overlapping_children_count_once(self):
        spans = [span("qkd.run_session", -1, 0.0, 10.0, rounds=4),
                 span("protocol.prepare", 0, 1.0, 5.0),
                 span("protocol.prepare", 0, 3.0, 7.0)]
        self.assertAlmostEqual(tr.self_times(spans)[0], 4.0)
        self.assertAlmostEqual(tr.aggregate(spans)["qkd.prepare_per_round"], 0.5)

    def test_counts_under_a_scan(self):
        spans = [span("noise.threshold_scan", -1, 0.0, 4.0),
                 span("protocol.ensemble_for_state", 0, 0.0, 1.0),
                 span("spinops.eigendecompose", 1, 0.2, 0.4, dim=8),
                 span("protocol.ensemble_for_state", 0, 1.0, 2.0),
                 span("protocol.ensemble_for_state", -1, 5.0, 6.0),
                 span("spinops.eigendecompose", -1, 6.0, 7.0, dim=64)]
        agg = tr.aggregate(spans)
        self.assertEqual(agg["noise.evals_per_scan"], 2)
        self.assertEqual(agg["noise.eigh_per_scan"], 1)
        self.assertEqual(agg["spinops.eigendecompose.dim_max"], 64)


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_grammar(self):
        names = list(run.END_TO_END) + tr.per_layer_names()
        self.assertEqual(len(names), len(set(names)))
        for name in names + list(wl.WORKLOADS):
            self.assertRegex(name, tr.METRIC_NAME)
        for name in tr.per_layer_names():
            self.assertRegex(tr.metric_unit(name), tr.UNIT)
        for unit in run.END_TO_END.values():
            self.assertRegex(unit, tr.UNIT)

    def test_benchmark_json_matches_the_harness(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(wl.WORKLOADS))
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertIn("setup_s", e2e)
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        layer = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(layer, [(n, tr.metric_unit(n)) for n in tr.per_layer_names()])


class RestoreTest(unittest.TestCase):
    def test_wrapped_attributes_are_restored(self):
        import qetkd.cli  # noqa: F401
        from qetkd import protocol, spinops

        modules = [m for n, m in sys.modules.items()
                   if n == "qetkd" or n.startswith("qetkd.")]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        tracer = tr.Tracer()
        tracer.install()
        try:
            patched = {(m.__name__, a) for m, a, _ in tracer.bindings()}
            for mod in ("qetkd", "qetkd.protocol", "qetkd.noise", "qetkd.qkd", "qetkd.cli"):
                self.assertIn((mod, "prepare"), patched)
            self.assertIsNot(protocol.prepare, before[("qetkd.protocol", "prepare")])
            with contextlib.redirect_stdout(io.StringIO()):
                qetkd.cli.main(["qet", "--model", "star", "--N", "1", "--J", "1"])
                qetkd.cli.main(["session", "--model", "chain3", "--J", "1",
                                "--rounds", "16", "--verify-bits", "8"])
            with self.assertRaises(ValueError):
                spinops.pauli_on_site("Q", 0, 1)
            agg = tr.aggregate(tracer.take())
        finally:
            tracer.uninstall()
        with tracer.installed():
            protocol.ground_state(qetkd.models.chain3(1.0)[0])
        self.assertEqual(tr.aggregate(tracer.take())["protocol.ground_state.calls"], 1)
        self.assertEqual(agg["cli.main.calls"], 2)
        self.assertGreater(agg["protocol.prepare.calls"], 0)
        self.assertEqual(agg["spinops.pauli_on_site.errors"], 1)
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class SummaryTest(unittest.TestCase):
    def test_tail_only_with_ten_samples_beyond(self):
        self.assertNotIn("p90", run.summarize([1.0] * 99))
        self.assertIn("p90", run.summarize([1.0] * 100))
        self.assertIn("p99", run.summarize([1.0] * 1000))


if __name__ == "__main__":
    unittest.main()
