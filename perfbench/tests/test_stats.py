"""python3 -m unittest discover -s perfbench/tests"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation_between_ranks(self):
        xs = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(stats.percentile(xs, 0), 10.0)
        self.assertEqual(stats.percentile(xs, 50), 30.0)
        self.assertEqual(stats.percentile(xs, 100), 50.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 46.0)
        self.assertAlmostEqual(stats.percentile(xs, 25), 20.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_single_and_empty(self):
        self.assertEqual(stats.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(106, 90), 11)
        self.assertEqual(stats.samples_beyond(99, 90), 10)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 6.0, 4.0, 10.0]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))

    def test_spread_is_iqr_over_median(self):
        xs = [9.0, 10.0, 10.0, 11.0, 10.0, 9.0, 11.0, 10.0, 10.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
