"""Tests for the run-agreement helpers in spread.py.

Run from the repository root: python3 -m unittest discover stationbench
"""

import unittest

from spread import agree, parse_seeds, spread, worse_by


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [9, 10, 10, 10, 11]
        # statistics.quantiles (exclusive): q1 = 9.5, q3 = 10.5.
        self.assertAlmostEqual(spread(values), 0.1)
        self.assertEqual(spread([5, 5, 5, 5]), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(worse_by([10, 10, 10], [11, 11, 11], "lower"), 0.1)
        self.assertAlmostEqual(worse_by([10, 10, 10], [11, 11, 11], "higher"), -0.1)
        self.assertAlmostEqual(worse_by([10, 10, 10], [9, 9, 9], "higher"), 0.1)

    def test_agree_within_bound_only(self):
        base = [100.0, 101.0, 99.0]
        self.assertTrue(agree(base, [104.0, 105.0, 103.0], "lower", 0.05))
        self.assertFalse(agree(base, [106.0, 107.0, 105.0], "lower", 0.05))
        self.assertTrue(agree(base, [96.0, 97.0, 95.0], "lower", 0.05))
        self.assertFalse(agree(base, [50.0, 50.0, 50.0], "lower", 0.05),
                         "same code much better is unsteady too")
        self.assertFalse(agree(base, [94.0, 94.0, 94.0], "higher", 0.05))
        self.assertTrue(agree(base, [96.0, 96.0, 96.0], "higher", 0.05))
        self.assertFalse(agree(base, [106.0, 106.0, 106.0], "higher", 0.05))

    def test_parse_seeds(self):
        self.assertEqual(parse_seeds("1-3,7"), [1, 2, 3, 7])
        self.assertEqual(parse_seeds("5"), [5])


if __name__ == "__main__":
    unittest.main()
