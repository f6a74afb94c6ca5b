"""Tests of the benchmark's own aggregation and result wiring.

    python3 -m unittest discover -s hostbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import aggregate as agg
import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(agg.nearest_rank(samples, 50), 50)
        self.assertEqual(agg.nearest_rank(samples, 99), 99)
        self.assertEqual(agg.nearest_rank(samples, 100), 100)
        self.assertEqual(agg.nearest_rank(samples, 0), 1)
        with self.assertRaises(ValueError):
            agg.nearest_rank([], 50)

    def test_ten_samples_beyond(self):
        self.assertEqual(agg.samples_beyond(1000, 99), 10)
        self.assertTrue(agg.supports(1000, 99))
        self.assertEqual(agg.samples_beyond(999, 99), 9)
        self.assertFalse(agg.supports(999, 99))

    def test_highest_supported_percentile(self):
        self.assertIsNone(agg.tail_percentile(15))
        self.assertEqual(agg.tail_percentile(20), 50.0)
        self.assertEqual(agg.tail_percentile(100), 90.0)
        self.assertEqual(agg.tail_percentile(1000), 99.0)
        self.assertEqual(agg.tail_percentile(9999), 99.0)
        self.assertEqual(agg.tail_percentile(10000), 99.9)

    def test_pooled_latency_is_sorted_union(self):
        self.assertEqual(agg.pooled_latency([[3, 5], [1, 4], []]),
                         [1, 3, 4, 5])


class Ratios(unittest.TestCase):
    def test_value_and_base(self):
        r = agg.Ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.text("hits", "lookups"),
                         "0.75 (hits 3 / lookups 4)")

    def test_empty_base(self):
        r = agg.Ratio(0, 0)
        self.assertEqual(r.value, 0.0)
        self.assertEqual(r.text("hits", "lookups"),
                         "n/a (hits 0 / lookups 0)")


class FailureAccounting(unittest.TestCase):
    RECORDS = [
        {"submitted": 100, "accepted": 98, "correct": True},
        {"submitted": 50, "accepted": 50, "correct": False},
    ]

    def test_counts(self):
        r = agg.Requests(self.RECORDS)
        self.assertEqual((r.attempted, r.unaccepted, r.gate_failed),
                         (150, 2, 50))

    def test_fail_ratio_counts_failed_runs_whole(self):
        fail = agg.Requests(self.RECORDS).fail_ratio()
        self.assertEqual((fail.num, fail.den), (2 + 50, 150))
        accept = agg.Requests(self.RECORDS).accept_ratio()
        self.assertEqual((accept.num, accept.den), (98, 150))

    def test_no_requests(self):
        r = agg.Requests([])
        self.assertEqual(r.fail_ratio().text("unaccepted", "submitted"),
                         "n/a (unaccepted 0 / submitted 0)")


class HostTime(unittest.TestCase):
    def test_spread(self):
        self.assertEqual(agg.spread([7.0]), (7.0, 7.0, 7.0))
        q1, med, q3 = agg.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)

    def test_host_seconds_is_median_of_repeats(self):
        records = [record(1, scale=x) for x in (1.0, 3.0, 2.0)]
        self.assertAlmostEqual(run.host_seconds(records), 0.031 * 2.0)


def record(seed, mode="untraced", fingerprint="f", scale=1.0):
    """A synthetic repeat record shaped like the binary's output."""
    r = {
        "mode": mode, "workload": "commit_path", "seed": seed,
        "build": {"valid": True}, "correct": True, "failed_checks": "",
        "fingerprint": fingerprint,
        "host": {"setup_ms": 0.2, "run_ms": 30 * scale, "export_ms": 1.0,
                 "safety_check_ms": 0.5, "host_s": 0.031 * scale,
                 "peak_rss_mb": 12.0, "setup_samples_ms": [0.1, 0.2]},
        "sim": {"commits": 10, "events": 1000, "submitted": 2000,
                "accepted": 1990, "total_energy_mj": 500.0,
                "bytes_transmitted": 4000, "sim_seconds": 2.0,
                "max_stall_ms": 80.0,
                "latency_ms": [float(i) for i in range(1990)]},
    }
    if mode == "traced":
        r["host"].update(on_deliver_ms=12.0, on_deliver_calls=90,
                         commit_chain_ms=6.0, commit_chain_calls=12)
        r["layer"] = {k: 1 for k in (
            "events_net_deliver", "events_channel_timeout",
            "events_view_change", "transmissions", "bytes_transmitted",
            "flood_dedup_tail_max", "bytes_copy_saved", "encode_bytes",
            "decode_bytes", "signs", "verifies", "sig_cache_hits",
            "spec_join_hits", "spec_join_misses", "retained_log_max",
            "store_blocks_max", "view_changes", "checkpoints_taken",
            "state_transfers", "max_recovery_ms", "retransmissions",
            "rate_limited")}
        r["layer"]["events_commit_timer"] = 10
        r["probe"] = {k: 1.0 for k in (
            "block_hash_us", "block_encode_us", "block_decode_us", "sign_us",
            "verify_us", "sha256_64B_ns", "schedule_fire_ns")}
        r["probe"]["probe_blocks"] = 10
    return r


class ResultWiring(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        rep = run.Report()
        self.assertTrue(run.end_to_end(rep, [record(1), record(2)]))
        self.assertEqual(set(rep.metrics),
                         {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertEqual(rep.metrics[m["name"]]["unit"], m["unit"])

    def test_per_layer_names_match_benchmark_json(self):
        rep = run.Report()
        run.per_layer(rep, [record(1)], [record(1, "traced")])
        self.assertEqual(set(rep.metrics),
                         {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual(rep.metrics[m["name"]]["unit"], m["unit"])

    def test_nested_commit_chain_time_is_not_counted_twice(self):
        rep = run.Report()
        run.per_layer(rep, [record(1)], [record(1, "traced")])
        # 12 commit_chain calls against 10 commit-timer events: 2 ran
        # inside on_deliver, so 10/12 of the 6 ms is top-level.
        self.assertAlmostEqual(rep.metrics["smr.handler_share"]["value"],
                               (12.0 + 5.0) / 30.0)
        self.assertAlmostEqual(rep.metrics["harness.run_self_ms"]["value"],
                               30.0 - 17.0)

    def test_pooled_sim_metrics_count_each_seed_once(self):
        rep = run.Report()
        run.end_to_end(rep, [record(1), record(2), record(1)])
        self.assertIn("2 seed(s)", "\n".join(rep.lines))
        self.assertEqual(rep.metrics["sim_goodput_rps"]["value"],
                         (1990 + 1990) / 4.0)

    def test_determinism_check(self):
        self.assertEqual(run.determinism_errors([record(1), record(1)]), [])
        self.assertTrue(run.determinism_errors([record(1), record(2)]))
        self.assertTrue(run.determinism_errors(
            [record(1), record(1, "traced", fingerprint="g")]))

    def test_derived_seeds(self):
        seeds = run.derive_seeds(11, 8)
        self.assertEqual(seeds[0], 11)
        self.assertEqual(len(set(seeds)), 8)
        self.assertEqual(seeds, run.derive_seeds(11, 8))
        self.assertFalse(set(seeds[1:]) & set(run.derive_seeds(12, 8)))


class BenchmarkSpec(unittest.TestCase):
    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_names_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_predictions_name_known_metrics(self):
        names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertNotIn(PREDICTIONS["held_out_seed"], (11,))
        for p in PREDICTIONS["predictions"]:
            self.assertLessEqual(set(p["metrics"]) | set(p["moves"]), names)
            self.assertLessEqual(set(p["workloads"]), workloads)


if __name__ == "__main__":
    unittest.main()
