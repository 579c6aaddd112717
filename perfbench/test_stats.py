#!/usr/bin/env python3
"""Tests for the benchmark driver's own arithmetic.

    python3 perfbench/test_stats.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def span(start, end, parent=-1):
    return {"start": start, "end": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1.0, 3.5)]), [2.5])

    def test_back_to_back_children(self):
        spans = [span(0, 10), span(1, 4, 0), span(4, 9, 0)]
        self.assertEqual(stats.self_times(spans), [2, 3, 5])

    def test_nested_children_count_once(self):
        # root > world > {setup, run}: the root loses only world's interval.
        spans = [span(0, 10), span(2, 8, 0), span(2, 3, 1), span(3, 7, 1)]
        self.assertEqual(stats.self_times(spans), [4, 1, 1, 4])

    def test_self_times_tile_the_root(self):
        spans = [span(0, 10), span(2, 8, 0), span(2, 3, 1), span(3, 7, 1), span(8.5, 9, 0)]
        self.assertAlmostEqual(sum(stats.self_times(spans)), 10)

    def test_overlapping_children_are_not_double_counted(self):
        spans = [span(0, 10), span(1, 6, 0), span(4, 8, 0)]
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 5), span(4, 7, 0)]
        self.assertEqual(stats.self_times(spans)[0], 4)


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))

    def test_quartiles_of_ten(self):
        # Exclusive method: positions (n+1)/4 = 2.75 and 3(n+1)/4 = 8.25.
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 8.25))

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0)


class FailRatioTest(unittest.TestCase):
    def test_base_is_units_not_repetitions(self):
        reps = [{"units": 49, "failed_units": 0}, {"units": 49, "failed_units": 2}]
        self.assertEqual(stats.failures(reps), (2, 98))

    def test_failed_process_counts_all_units(self):
        reps = [{"units": 1, "failed_units": 1}, {"units": 1, "failed_units": 0},
                {"units": 1, "failed_units": 0}, {"units": 1, "failed_units": 0}]
        self.assertEqual(stats.failures(reps), (1, 4))

    def test_no_failures(self):
        self.assertEqual(stats.failures([{"units": 1, "failed_units": 0}]), (0, 1))


if __name__ == "__main__":
    unittest.main()
