#!/usr/bin/env python3
"""Self-tests for perfbench/run.py's helpers (no build, no harness run).

  python3 perfbench/selftest.py

`python3 perfbench/run.py --smoke` is the end-to-end counterpart: it builds
the harness and runs tiny scenarios through both modes of every workload.
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        value, n = run.percentile(range(1, 101), 50)
        self.assertAlmostEqual(value, 50.5)
        self.assertEqual(n, 100)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        run.percentile(range(100), 90)  # exactly 10 beyond
        with self.assertRaises(run.TooFewSamples):
            run.percentile(range(99), 90)
        with self.assertRaises(run.TooFewSamples):
            run.percentile(range(19), 50)
        with self.assertRaises(run.TooFewSamples):
            run.percentile([], 50, min_beyond=0)

    def test_interpolates_between_ranks(self):
        value, _ = run.percentile([0.0, 10.0], 50, min_beyond=1)
        self.assertAlmostEqual(value, 5.0)

    def test_spread_matches_statistics_quantiles(self):
        med, q1, q3, s = run.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(s, 1.0)


def fake_raw(trace):
    record = {"scenario": 0, "setup_s": 0.5, "slots": 101, "users": 10,
              "total_observed": 202.0, "messages": 5050, "conflicts": 0,
              "winners": 300, "abstained": 0, "fingerprint": "ab",
              "slot_ms": [float(i) for i in range(1, 101)]}
    raw = {"context": {}, "peak_rss_mb": 12.5, "records": [record],
           "checks": []}
    if trace:
        raw["layers"] = {n: 1.0 for n, _, _ in run.PER_LAYER}
        raw["decide_ms"] = [float(i) for i in range(100)]
        raw["step_ms"] = []
    return raw


class ResultTest(unittest.TestCase):
    def test_end_to_end_metrics_from_records(self):
        values, samples = run.end_to_end_metrics(fake_raw(False), 1)
        self.assertEqual(set(values), {n for n, *_ in run.END_TO_END})
        self.assertAlmostEqual(values["observed_per_slot"], 2.0)
        self.assertAlmostEqual(values["msgs_per_node_round"], 5.0)
        self.assertAlmostEqual(values["slots_per_s"], 1000 / 50.5)
        self.assertEqual(values["clean_round_frac"], 1.0)
        self.assertEqual(samples["round_ms_p90"], 100)

    def test_decision_metrics_come_from_the_reference_scenarios(self):
        raw = fake_raw(False)
        seeded = dict(raw["records"][0], scenario=1, total_observed=909.0,
                      messages=1, conflicts=50, abstained=300)
        raw["records"].append(seeded)
        values, samples = run.end_to_end_metrics(raw, 1)
        self.assertAlmostEqual(values["observed_per_slot"], 2.0)
        self.assertAlmostEqual(values["msgs_per_node_round"], 5.0)
        self.assertEqual(values["clean_round_frac"], 1.0)
        self.assertEqual(values["tx_commit_frac"], 1.0)
        self.assertEqual(samples["round_ms_p50"], 200)  # timing: every one

    def test_reference_scenarios_do_not_depend_on_the_seed(self):
        for workload, spec in run.WORKLOADS.items():
            a = run.scenario_seeds(workload, 1)
            b = run.scenario_seeds(workload, 2)
            k = spec["reference"]
            self.assertEqual(a[:k], b[:k])
            self.assertTrue(set(a[k:]).isdisjoint(b[k:]))
            self.assertEqual(len(a), k + spec["instances"])

    def test_per_layer_percentiles_follow_the_sample_rule(self):
        values, samples = run.per_layer_metrics(fake_raw(True))
        self.assertEqual(samples["mwis.decide_ms_p90"], 100)
        self.assertEqual(values["net.step_ms_p50"], 0.0)
        raw = fake_raw(True)
        raw["decide_ms"] = raw["decide_ms"][:99]
        with self.assertRaises(run.TooFewSamples):
            run.per_layer_metrics(raw)

    def test_result_line_parses_back(self):
        values, _ = run.end_to_end_metrics(fake_raw(False), 1)
        result = {"correct": True, "attempted": 101, "failed": 0,
                  "metrics": {n: {"value": values[n], "unit": u}
                              for n, u, _, _ in run.END_TO_END}}
        line = run.format_result_line(result)
        self.assertNotIn("\n", line)
        back = json.loads(line)
        self.assertEqual(back, result)
        self.assertEqual(list(back),
                         ["correct", "attempted", "failed", "metrics"])
        for m in back["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_generated_from_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.benchmark_json())

    def test_spec_limits(self):
        spec = run.benchmark_json()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(len(n) <= 64 for n in names))
        self.assertTrue(all(m["bound"] <= 0.25 for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            if m["name"] in ("observed_per_slot", "msgs_per_node_round",
                             "clean_round_frac", "tx_commit_frac"):
                self.assertEqual(m["bound"], 0.01)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(all(len(w["why"]) <= 200 for w in spec["workloads"]))


class CompareTest(unittest.TestCase):
    def write(self, d, name, context):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            json.dump({"context": context, "workload": "w",
                       "result": {"metrics": {
                           "setup_s": {"value": 1.0, "unit": "s"}}}}, f)
        return path

    def test_refuses_different_contexts(self):
        ctx = {k: "x" for k in run.CONTEXT_KEYS}
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", ctx)
            b = self.write(d, "b.json", dict(ctx, simd="scalar"))
            self.assertEqual(run.compare(a, b), 2)
            self.assertEqual(run.compare(a, a), 0)


if __name__ == "__main__":
    unittest.main()
