"""Tests for perfbench's own helpers and for its agreement with BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import perfstats  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, layer="kernels"):
    return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end,
            "layer": layer, "name": "x", "request": 0}


def window(rps, lat=1.0, n=200):
    per = {c: [lat + 0.001 * i for i in range(n)] for c in perfstats.SERVER_CLASSES}
    return {"rps": rps, "seconds": 1.0, "sent": n * 4, "backlog_end": 0,
            "rejected": 0, "shed": 0, "deadline_exceeded": 0,
            "latency_ms": per, "service_ms": per,
            "queue_ms": [0.1] * n, "lag_ms": [0.01] * n, "submit_us": [2.0] * n}


COUNTERS = {k: 1 for k in (
    "tasks_created", "tasks_deferred", "tasks_executed", "tasks_discarded",
    "tasks_if_inlined", "tasks_cutoff_inlined", "tasks_stolen",
    "steal_attempts", "steal_hits", "tsc_parked", "pool_fresh", "pool_reuse",
    "range_tasks", "range_splits", "deps_edges", "edges_resolved",
    "graphs_recorded", "graphs_replayed", "graph_requests", "cpu_s",
    "team_wall_s")}


def ladder():
    series = {"%s.%s" % (r, t): [10.0, 20.0]
              for r in ("fork_join_ns", "spawn_taskwait_ns", "inline_spawn_ns",
                        "range_ns_per_iter") for t in ("t1", "tN")}
    series.update({"serial_ms." + a: [1.0] for a in perfstats.APPS})
    for k in ("edge_ns", "record_ns_per_task", "replay_ns_per_task",
              "fib_armed_ns_per_task", "fib_disarmed_ns_per_task"):
        series[k] = [5.0]
    series["fib_t1_s"] = [2.0]
    series["fib_serial_s"] = [1.0]
    return {"series": series,
            "scalars": {"fib_tasks_deferred": 1e6, "fib_tasks_inlined": 1e3},
            "probe": {"serial_ms": {}, "windows": [window(300)]}}


def batch_raw():
    ops = [{"kind": "fib", "serial_s": [1.0, 1.2, 1.1], "serial_metric": [0, 0, 0],
            "measured_s": [0.5, 0.6, 0.4], "measured_metric": [0, 0, 0]},
           {"kind": "floorplan", "serial_s": [1.0], "serial_metric": [100.0],
            "measured_s": [2.0], "measured_metric": [400.0]}]
    return {"workload": "fig3-nproc", "attempted": 10, "failed": 0,
            "setup_s": [0.3, 0.1, 0.2], "ops": ops,
            "server": {"serial_ms": {}, "windows": []},
            "counters": COUNTERS, "ladder": ladder()}


def server_raw():
    windows = [window(r, lat=0.5 * (i + 1))
               for i, r in enumerate((1000, 2000, 3000, 4000))]
    return {"workload": "server-open", "attempted": 10, "failed": 0,
            "setup_s": [0.1, 0.1, 0.1], "ops": [],
            "server": {"serial_ms": {c: [0.25] for c in perfstats.SERVER_CLASSES},
                       "windows": windows},
            "counters": COUNTERS, "ladder": ladder()}


class QuantileTest(unittest.TestCase):
    def test_linear_between_ranks(self):
        self.assertEqual(perfstats.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perfstats.quantile([1, 2, 3, 4], 0.0), 1)
        self.assertEqual(perfstats.quantile([1, 2, 3, 4], 1.0), 4)
        xs = list(range(1, 102))
        self.assertAlmostEqual(perfstats.quantile(xs, 0.99), 100.0)

    def test_median_and_single_value(self):
        self.assertEqual(perfstats.median([3, 1, 2]), 2)
        self.assertEqual(perfstats.median([7]), 7)

    def test_quartiles_match_statistics(self):
        xs = [0.9, 1.4, 1.0, 1.1, 1.3, 1.2, 0.95, 1.05, 1.15, 1.25]
        self.assertEqual(perfstats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual(perfstats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            perfstats.quantile([], 0.5)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(perfstats.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(perfstats.geomean([2, 2, 2]), 2.0)
        self.assertAlmostEqual(perfstats.geomean([0.5, 2]), 1.0)

    def test_non_positive_is_an_error(self):
        for bad in ([], [1, 0], [1, -2]):
            with self.assertRaises(ValueError):
                perfstats.geomean(bad)


class SelfTimeTest(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(perfstats.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(perfstats.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(perfstats.union_length([]), 0)

    def test_self_time_subtracts_children_once(self):
        spans = [span(1, 0, 0, 100, "server"),
                 span(2, 1, 10, 50, "scheduler"),
                 span(3, 1, 40, 70, "scheduler"),   # overlaps span 2
                 span(4, 2, 20, 30, "kernels")]
        t = perfstats.self_times(spans)
        self.assertEqual(t["server"], (1, 100, 100 - 60))
        # span 2: 40 - 10 covered by its child; span 3: 30, no children.
        self.assertEqual(t["scheduler"], (2, 70, 30 + 30))
        self.assertEqual(t["kernels"], (1, 10, 10))

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 5, 30), span(3, 1, 50, 60)]
        self.assertEqual(perfstats.self_times(spans)["kernels"], (3, 45, 5 + 25 + 10))


class MetricTest(unittest.TestCase):
    def test_batch_end_to_end(self):
        m = perfstats.end_to_end(batch_raw(), None, None)
        self.assertEqual(m["setup_s"], (0.2, "s"))
        # fib: 1.1 / 0.5; floorplan: nodes/s 400 / 100.
        self.assertAlmostEqual(m["speedup_geomean"][0], math.sqrt(2.2 * 4.0))
        self.assertAlmostEqual(m["wall_s"][0], 0.5 + 2.0)

    def test_server_end_to_end(self):
        raw = server_raw()
        m = perfstats.end_to_end(raw, run.LOW_RATE, run.HIGH_RATE)
        ws = raw["server"]["windows"]
        low = perfstats.median(perfstats.window_at(ws, run.LOW_RATE)["latency_ms"]["fib"])
        high = perfstats.median(perfstats.window_at(ws, run.HIGH_RATE)["latency_ms"]["fib"])
        self.assertAlmostEqual(m["speedup_geomean"][0], 0.25 / low)
        self.assertAlmostEqual(m["wall_s"][0], 4 * high / 1e3)

    def test_max_rps(self):
        ws = [window(100, lat=1.0), window(200, lat=5.0), window(300, lat=50.0)]
        self.assertEqual(perfstats.max_rps(ws, 10.0), 200)
        ws[1]["backlog_end"] = 10  # more than 200/s x 10 ms could clear
        self.assertEqual(perfstats.max_rps(ws, 10.0), 100)

    def test_windows_at_one_rate_merge(self):
        a, b = window(100, lat=1.0, n=10), window(100, lat=3.0, n=30)
        b["backlog_end"] = 4
        m = perfstats.window_at([a, window(200), b], 100)
        self.assertEqual(m["sent"], 160)
        self.assertEqual(m["backlog_end"], 4)
        self.assertEqual(len(m["latency_ms"]["fib"]), 40)
        self.assertEqual(len(m["queue_ms"]), 40)
        with self.assertRaises(KeyError):
            perfstats.window_at([a], 300)

    def test_details_name_the_per_workload_metrics(self):
        d = perfstats.details(server_raw(), run.P99_LIMIT_MS)
        for r in (run.LOW_RATE, run.HIGH_RATE):
            self.assertIn("lat_p50_ms.%g" % r, d)
            self.assertIn("lat_p99_ms.%g" % r, d)
        self.assertIn("max_rps", d)
        self.assertEqual(d["failed_frac"], (0.0, "ratio"))


class BenchmarkJsonTest(unittest.TestCase):
    """Every workload and metric BENCHMARK.json names is produced."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics_on_every_workload(self):
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for raw in (batch_raw(), server_raw()):
            got = perfstats.end_to_end(raw, run.LOW_RATE, run.HIGH_RATE)
            self.assertEqual({k: u for k, (_, u) in got.items()}, want)
            self.assertTrue(all(v > 0 for v, _ in got.values()))

    def test_per_layer_metrics_on_every_workload(self):
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for raw in (batch_raw(), server_raw()):
            got = perfstats.per_layer(raw, run.HIGH_RATE)
            self.assertEqual({k: u for k, (_, u) in got.items()}, want)


if __name__ == "__main__":
    unittest.main()
