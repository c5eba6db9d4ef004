#!/usr/bin/env python3
"""Unit tests for benchmark/run.py: statistics, compare verdicts, the
BENCHMARK.json schema, and the metric derivations.

Run: python3 benchmark/test_run.py
"""

import json
import re
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def summary(samples, **kwargs):
    return run.summarize(samples, **kwargs)


def fake_run(ops=1000, wall=2.0):
    hist = {"p50_ms": 10.0, "p99_ms": 20.0, "n": 5000}
    return {
        "setup": {"setup_s": 0.05, "replica_map_s": 0.01, "tree_solve_s": 0.03,
                  "cluster_s": 0.01},
        "run_wall_s": wall,
        "peak_rss_mb": 30.0,
        "allocs": 50,
        "alloc_bytes": 4000,
        "slice_wall_s": [wall / 4] * 4,
        "sim": {
            "executed_events": 7000, "ops": ops, "attempted": ops, "failed": 0,
            "shed": 0, "update_share": 0.1, "mean_replication_degree": 7.0,
            "throughput_ops": 500.0, "visibility": hist, "op_latency": hist,
            "attach_latency": {"p50_ms": 0, "p99_ms": 0, "n": 0}, "queue_wait": hist,
            "net_messages": 5000, "net_bytes": 300000,
            "wire_bytes": {"client": 1000, "bulk": 2000, "metadata_labels": 3000,
                           "metadata_acks": 10, "chain": 0, "control": 0},
            "tree_labels_routed": 600, "link_retransmissions": 0,
        },
    }


def fake_traced(slices=(0.55, 0.55, 0.55, 0.55)):
    return {
        "run_wall_s": sum(slices), "slice_wall_s": list(slices), "measure_slice": 1,
        "drain_slice": 3, "heap_depth": 900, "executed_events": 7000,
        "attribution_samples": 4000,
        "attribution_p99_ms": {"commit_sink": 1.0, "serializer": 50.0, "tree": 150.0,
                               "buffer": 0.0, "stability": 2.0},
    }


def fake_probes():
    names = ["sim.ns_per_event", "net.ns_per_send", "codec.ns_per_label_encode",
             "codec.ns_per_label_decode", "serializer.ns_per_label", "kvstore.ns_per_get",
             "kvstore.ns_per_put", "workload.ns_per_op_generated",
             "workload.ns_per_friends_of", "workload.ns_per_replicas_of",
             "stats.ns_per_record"]
    return {name: 50.0 + i for i, name in enumerate(names)}


class StatsTest(unittest.TestCase):
    def test_value_spread_and_range(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        s = summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["value"], 3.0)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["iqr"], q3 - q1)
        self.assertAlmostEqual(s["rel_iqr"], (q3 - q1) / 3.0)
        self.assertEqual((s["min"], s["max"]), (1.0, 5.0))

    def test_spread_is_run_to_run(self):
        # Three repeats: the IQR spans them all, whatever the value.
        self.assertAlmostEqual(summary([90.0, 100.0, 110.0])["rel_iqr"], 0.2)

    def test_single_and_constant_samples_have_no_spread(self):
        self.assertEqual(summary([7.0])["rel_iqr"], 0.0)
        self.assertEqual(summary([2.0, 2.0, 2.0])["iqr"], 0.0)

    def test_given_value(self):
        s = summary([1.0, 2.0, 9.0], value=10.0)
        self.assertEqual(s["value"], 10.0)
        self.assertAlmostEqual(s["rel_iqr"], 0.8)
        self.assertEqual(s["max"], 9.0)

    def test_empty_samples_rejected(self):
        with self.assertRaises(ValueError):
            summary([])


class VerdictTest(unittest.TestCase):
    def test_within_bound(self):
        base, cand = summary([100, 101, 99]), summary([103, 104, 102])
        self.assertEqual(run.verdict(base, cand, "lower", 0.08), "within bound")

    def test_worse_beyond_bound_lower_is_better(self):
        base, cand = summary([100, 101, 99]), summary([120, 121, 119])
        self.assertEqual(run.verdict(base, cand, "lower", 0.08), "worse")

    def test_direction_higher_is_better(self):
        base, cand = summary([100, 101, 99]), summary([120, 121, 119])
        self.assertEqual(run.verdict(base, cand, "higher", 0.08), "better")
        self.assertEqual(run.verdict(cand, base, "higher", 0.08), "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        base, cand = summary([80, 100, 120, 90, 110]), summary([85, 100, 118, 95, 105])
        self.assertEqual(run.verdict(base, cand, "lower", 0.05), "unresolved")

    def test_wide_spread_but_every_candidate_run_better(self):
        base, cand = summary([200, 260, 300]), summary([100, 130, 150])
        self.assertEqual(run.verdict(base, cand, "lower", 0.05), "better")

    def test_deterministic_metric_small_change(self):
        base, cand = summary([178.2] * 3), summary([179.0] * 3)
        self.assertEqual(run.verdict(base, cand, "lower", 0.03), "within bound")

    def test_noise_floor(self):
        base, cand = summary([0.0010, 0.0012, 0.0020]), summary([0.0019, 0.0018, 0.0021])
        self.assertEqual(run.verdict(base, cand, "lower", 0.25), "unresolved")
        self.assertEqual(run.verdict(base, cand, "lower", 0.25, floor=0.010), "within bound")
        self.assertEqual(run.verdict(summary([0.05] * 3), summary([0.07] * 3), "lower", 0.25,
                                     floor=0.010), "worse")

    def test_zero_base(self):
        self.assertEqual(run.verdict(summary([0, 0]), summary([0, 0]), "lower", 0.01),
                         "within bound")
        self.assertEqual(run.verdict(summary([0, 0]), summary([1, 1]), "lower", 0.01), "worse")


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.moves = run.load_moves()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(self.spec)), 64 * 1024)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        self.assertTrue(all(isinstance(a, str) and len(a) <= 200 for a in command))
        self.assertTrue(all(not a.startswith("/") and ".." not in a for a in command))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertTrue((run.ROOT / p).is_dir())
        self.assertIn("benchmark/run.py", command)

    def test_run_seconds(self):
        seconds = self.spec["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        self.assertEqual(tuple(w["name"] for w in workloads), run.WORKLOADS)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metric_entries(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        names = [m["name"] for m in e2e + layers]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_s_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_every_layer_metric_names_what_it_moves(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layers = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(self.moves), layers)
        for name, entry in self.moves.items():
            self.assertTrue(entry["moves"], name)
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(entry["workloads"], name)
            self.assertTrue(set(entry["workloads"]) <= set(run.WORKLOADS), name)


class DerivationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def test_end_to_end_produces_every_metric(self):
        runs = [fake_run(wall=w) for w in (2.0, 2.1, 1.9)]
        metrics = run.end_to_end(runs, [0.05, 0.06, 0.04, 0.05])
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["end_to_end"]})
        throughput = metrics["sim_ops_per_wall_s"]
        self.assertAlmostEqual(throughput["value"], 1000 / 1.9)
        self.assertEqual(throughput["samples"], [500.0, 1000 / 2.1, 1000 / 1.9])
        self.assertAlmostEqual(throughput["iqr"], 1000 / 1.9 - 1000 / 2.1)
        self.assertEqual(metrics["setup_s"]["value"], 0.05)
        self.assertEqual(metrics["served_op_frac"]["value"], 1.0)
        self.assertEqual(metrics["visibility_p99_ms"]["n"], 5000)

    def test_slice_min_wall_takes_the_fastest_repeat_of_each_slice(self):
        runs = [{"slice_wall_s": [1.0, 5.0, 1.0]}, {"slice_wall_s": [3.0, 1.0, 1.5]},
                {"slice_wall_s": [2.0, 2.0, 0.5]}]
        self.assertAlmostEqual(run.slice_min_wall(runs), 2.5)

    def test_nondeterministic_repeats_are_a_problem(self):
        a, b = fake_run(), fake_run()
        self.assertEqual(run.e2e_problems([a, b]), [])
        b["sim"]["executed_events"] += 1
        self.assertTrue(run.e2e_problems([a, b]))

    def test_thin_percentiles_are_a_problem(self):
        r = fake_run()
        r["sim"]["visibility"] = {"p50_ms": 1.0, "p99_ms": 2.0, "n": 999}
        self.assertTrue(any("visibility p99" in p for p in run.e2e_problems([r])))

    def test_repeat_count_depends_on_seconds_only(self):
        self.assertEqual(run.repeat_count(0), run.MIN_REPEATS)
        self.assertEqual(run.repeat_count(12), 3)
        self.assertEqual(run.repeat_count(20), 5)

    def test_per_layer_produces_every_metric_and_shares_sum_to_one(self):
        r = fake_run()
        layers = run.per_layer([r], [fake_traced()], fake_probes(), [r["setup"]], batching=True)
        self.assertEqual(set(layers), {m["name"] for m in self.spec["per_layer"]})
        shares = [v for k, v in layers.items() if k.endswith(".share_est")]
        self.assertAlmostEqual(sum(shares) + layers["unattributed_share"], 1.0)
        self.assertAlmostEqual(layers["sim.events_per_op"], 7.0)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 10.0)
        self.assertAlmostEqual(layers["run.measure_wall_s"], 1.1)
        unbatched = run.per_layer([r], [fake_traced()], fake_probes(), [r["setup"]],
                                  batching=False)
        self.assertEqual(unbatched["codec.share_est"], 0.0)

    def test_per_layer_walls_are_slice_minimums(self):
        # A burst in one repeat of each kind leaves the walls untouched.
        slow, fast = fake_run(), fake_run()
        slow["slice_wall_s"] = [0.5, 3.0, 0.5, 0.5]
        slow_traced = fake_traced((0.55, 0.55, 0.55, 9.0))
        layers = run.per_layer([slow, fast], [fake_traced(), slow_traced], fake_probes(),
                               [fast["setup"]], batching=True)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 10.0)
        self.assertAlmostEqual(layers["run.drain_wall_s"], 0.55)
        baseline = run.per_layer([fast], [fake_traced()], fake_probes(), [fast["setup"]],
                                 batching=True)
        self.assertAlmostEqual(layers["sim.share_est"], baseline["sim.share_est"])


class SpansTest(unittest.TestCase):
    def test_merged_spans_pass_trace_check(self):
        def span_file(path, name):
            events = [
                {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                 "args": {"name": "saturn_bench"}},
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0, "args": {"name": name}},
                {"ph": "b", "cat": "span", "id": 0, "name": "run", "ts": 10, "pid": 1,
                 "tid": 0, "args": {"parent": -1, "run": name}},
                {"ph": "b", "cat": "span", "id": 1, "name": "run.measure", "ts": 12, "pid": 1,
                 "tid": 0, "args": {"parent": 0, "run": name}},
                {"ph": "e", "cat": "span", "id": 1, "name": "run.measure", "ts": 15, "pid": 1,
                 "tid": 0, "args": {"parent": 0, "run": name}},
                {"ph": "e", "cat": "span", "id": 0, "name": "run", "ts": 20, "pid": 1,
                 "tid": 0, "args": {"parent": -1, "run": name}},
            ]
            path.write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))
            return path

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            merged = run.merge_spans([span_file(tmp / "a.json", "a"),
                                      span_file(tmp / "b.json", "b")], tmp / "m.json")
            doc = json.loads(merged.read_text())
            ids = {ev["id"] for ev in doc["traceEvents"] if ev["ph"] == "b"}
            self.assertEqual(len(ids), 4)
            ok, output = run.check_spans(merged)
            self.assertTrue(ok, output)


if __name__ == "__main__":
    unittest.main()
