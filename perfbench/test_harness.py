#!/usr/bin/env python3
"""Self-tests for the benchmark's arithmetic, on synthetic samples.

    python3 perfbench/test_harness.py
"""

import json
import tempfile
import unittest
from pathlib import Path

import compare
import harness


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsInstance(harness.percentile(list(range(1, 100)), 90),
                              harness.NA)
        self.assertEqual(harness.percentile(list(range(1, 101)), 90), 90)

    def test_p50_needs_twenty_samples(self):
        self.assertIsInstance(harness.percentile(list(range(19)), 50),
                              harness.NA)
        self.assertEqual(harness.percentile(list(range(1, 21)), 50), 10)

    def test_unsorted_input_and_reason(self):
        values = list(range(200, 0, -1))
        self.assertEqual(harness.percentile(values, 50), 100)
        self.assertIn("needs at least 100", repr(harness.percentile([1], 90)))

    def test_empty(self):
        self.assertIsInstance(harness.percentile([], 50), harness.NA)


class RatioTest(unittest.TestCase):
    def test_hit_ratio_carries_base(self):
        r = harness.hit_ratio(3, 1)
        self.assertEqual((r.value, r.num, r.base), (0.75, 3, 4))
        self.assertIn("(3/4)", str(r))

    def test_hit_ratio_without_lookups_reads_zero_with_base_zero(self):
        r = harness.hit_ratio(0, 0)
        self.assertEqual((r.value, r.base), (0.0, 0))
        self.assertIn("(0/0)", str(r))


class SelfTimeTest(unittest.TestCase):
    def test_children_overlap_and_overhang(self):
        spans = [
            {"name": "query", "id": 1, "parent": 0, "start_ms": 0.0,
             "end_ms": 10.0},
            {"name": "submit", "id": 2, "parent": 1, "start_ms": 1.0,
             "end_ms": 3.0},
            {"name": "wait", "id": 3, "parent": 1, "start_ms": 2.0,
             "end_ms": 5.0},
            {"name": "wait", "id": 4, "parent": 1, "start_ms": 8.0,
             "end_ms": 12.0},
        ]
        t = harness.self_times(spans)
        self.assertAlmostEqual(t["query"][0], 10.0 - 4.0 - 2.0)
        self.assertEqual(t["submit"], [2.0])
        self.assertEqual(sorted(t["wait"]), [3.0, 4.0])


PARENT = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.5, 100.0]


class VerdictTest(unittest.TestCase):
    def test_claim_met_when_change_wins_nine_of_ten(self):
        change = [p - 10 for p in PARENT]
        change[3] = 200.0  # one lost pair still meets 9 in 10
        self.assertEqual(harness.claim(PARENT, change, "lower"),
                         (True, 9, 10))
        self.assertEqual(harness.verdict(PARENT, change, "lower", 0.1),
                         "better")

    def test_claim_not_met_at_eight_of_ten(self):
        change = [p - 10 for p in PARENT]
        change[3] = change[4] = 200.0
        met, wins, pairs = harness.claim(PARENT, change, "lower")
        self.assertFalse(met)
        self.assertEqual((wins, pairs), (8, 10))

    def test_claim_needs_gap_beyond_parent_iqr(self):
        change = [p - 0.1 for p in PARENT]  # wins every pair, tiny gap
        self.assertFalse(harness.claim(PARENT, change, "lower")[0])
        self.assertEqual(harness.verdict(PARENT, change, "lower", 0.1),
                         "unchanged")

    def test_claim_needs_ten_pairs(self):
        for n in (1, 9):
            parent, change = PARENT[:n], [p - 10 for p in PARENT[:n]]
            self.assertEqual(harness.claim(parent, change, "lower"),
                             (False, n, n))
            self.assertEqual(harness.verdict(parent, change, "lower", 0.1),
                             "unresolved")
            self.assertEqual(harness.verdict(parent, change, "lower", None),
                             "unresolved")

    def test_claim_refuses_unequal_run_counts(self):
        with self.assertRaises(ValueError):
            harness.claim(PARENT, PARENT[:9], "lower")

    def test_ties_count_for_neither(self):
        self.assertEqual(harness.claim(PARENT, PARENT, "lower")[1], 0)

    def test_worse_beyond_bound(self):
        change = [p * 1.2 for p in PARENT]
        self.assertEqual(harness.verdict(PARENT, change, "lower", 0.1),
                         "worse")
        self.assertEqual(harness.verdict(PARENT, change, "higher", 0.1),
                         "better")

    def test_within_bound_is_unchanged(self):
        change = [p * 1.05 for p in PARENT]
        self.assertEqual(harness.verdict(PARENT, change, "lower", 0.1),
                         "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        self.assertGreater(harness.spread(noisy), 0.1)
        self.assertEqual(harness.verdict(PARENT, noisy, "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        noisy = [10.0, 30.0, 12.0, 28.0, 20.0, 14.0, 26.0, 18.0, 22.0, 20.0]
        self.assertEqual(harness.verdict(PARENT, noisy, "lower", 0.1),
                         "better")

    def test_no_bound_uses_claim_rule_both_ways(self):
        up = [p + 10 for p in PARENT]
        self.assertEqual(harness.verdict(PARENT, up, "lower", None), "worse")
        self.assertEqual(harness.verdict(PARENT, up, "higher", None), "better")
        self.assertEqual(harness.verdict(PARENT, PARENT, "lower", None),
                         "unchanged")


def write_runs(directory, name, runs):
    path = Path(directory) / name
    path.write_text("".join(
        json.dumps({"workload": w, "seed": seed, "trace": 0, "correct": True,
                    "attempted": 1, "failed": 0,
                    "metrics": {"qps": {"value": v, "unit": "1/s"}}}) + "\n"
        for w, seed, v in runs))
    return compare.load_runs(path)


class CompareTest(unittest.TestCase):
    def test_runs_pair_by_seed_not_file_order(self):
        with tempfile.TemporaryDirectory() as d:
            parent = write_runs(d, "p", [("w", 1, 10.0), ("w", 2, 20.0)])
            change = write_runs(d, "c", [("w", 2, 21.0), ("w", 1, 11.0)])
            paired = compare.pair_runs(parent, change)
        self.assertEqual(paired[("w", "qps")], ([10.0, 20.0], [11.0, 21.0]))

    def test_mismatched_seeds_or_counts_are_refused(self):
        with tempfile.TemporaryDirectory() as d:
            parent = write_runs(d, "p", [("w", 1, 10.0), ("w", 2, 20.0)])
            other_seed = write_runs(d, "c1", [("w", 1, 10.0), ("w", 7, 20.0)])
            fewer = write_runs(d, "c2", [("w", 1, 10.0)])
            other_workload = write_runs(d, "c3", [("v", 1, 10.0),
                                                  ("v", 2, 20.0)])
        for change in (other_seed, fewer, other_workload):
            with self.assertRaises(ValueError):
                compare.pair_runs(parent, change)

    def test_na_pairs_are_left_out(self):
        with tempfile.TemporaryDirectory() as d:
            parent = write_runs(d, "p", [("w", 1, harness.NA_VALUE),
                                         ("w", 2, 20.0)])
            change = write_runs(d, "c", [("w", 1, 11.0), ("w", 2, 21.0)])
            paired = compare.pair_runs(parent, change)
        self.assertEqual(paired[("w", "qps")], ([20.0], [21.0]))


if __name__ == "__main__":
    unittest.main()
