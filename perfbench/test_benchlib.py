"""Unit tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench
"""

import unittest

import benchlib


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_rung_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        p, value = benchlib.tail_percentile(values)
        self.assertEqual(p, 90)  # 10 beyond p90; p95 has only 5
        self.assertAlmostEqual(value, benchlib.percentile(values, 90))

    def test_rung_boundaries(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        self.assertEqual(benchlib.tail_percentile(list(range(20)))[0], 50)
        self.assertEqual(benchlib.tail_percentile(list(range(39)))[0], 50)
        self.assertEqual(benchlib.tail_percentile(list(range(40)))[0], 75)
        self.assertEqual(benchlib.tail_percentile(list(range(99)))[0], 75)
        self.assertEqual(benchlib.tail_percentile(list(range(1000)))[0], 99)
        self.assertEqual(
            benchlib.tail_percentile(list(range(10000)))[0], 99.9)

    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchlib.percentile([5], 99), 5)


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            ("root", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),   # overlaps b: 30..40 counted once
            ("b", 30, 60, 0, 0),
            ("c", 15, 20, 1, 0),   # grandchild: only a's self time
        ]
        self.assertEqual(benchlib.self_times(spans), [50, 25, 30, 5])

    def test_child_outside_parent_is_clipped(self):
        spans = [("root", 0, 10, -1, 0), ("late", 5, 30, 0, 0)]
        self.assertEqual(benchlib.self_times(spans), [5, 25])

    def test_uncovered_wall(self):
        spans = [("x", 0, 10, -1, 0), ("y", 5, 20, -1, 0),
                 ("z", 1, 2, 0, 0), ("w", 30, 40, -1, 0)]
        self.assertEqual(benchlib.uncovered(spans, 50), 20)


class OutputCheckTest(unittest.TestCase):
    observed = {"exit": 3, "reports": 2, "bundles": ["{a}\n", "{b}\n"]}

    def test_matching_reference_passes(self):
        self.assertEqual(
            benchlib.check_replay(self.observed, dict(self.observed)), [])

    def test_wrong_expected_verdict_is_flagged(self):
        clean = {"exit": 0, "reports": 0, "bundles": []}
        errors = benchlib.check_replay(self.observed, clean)
        self.assertEqual(len(errors), 3)
        self.assertIn("exit 3, expected 0", errors[0])

    def test_changed_bundle_is_flagged(self):
        expected = dict(self.observed, bundles=["{a}\n", "{c}\n"])
        self.assertEqual(len(benchlib.check_replay(self.observed,
                                                   expected)), 1)

    def test_parse_reference(self):
        ref = benchlib.parse_reference(
            "exit 3\nevents 10\nreports 2\nclass heap-anomaly\n"
            "class heap-anomaly\n")
        self.assertEqual((ref["exit"], ref["reports"], ref["events"]),
                         (3, 2, 10))
        self.assertEqual(len(ref["classes"]), 2)

    def test_monitor_incident_before_onset_is_flagged(self):
        onsets = [1000, 2000]
        self.assertEqual(
            benchlib.check_monitor(onsets, [1010, 2020], 2, slack=4), [])
        errors = benchlib.check_monitor(onsets, [900, 1010, 2020], 3,
                                        slack=4)
        self.assertEqual(errors, ["1 incident(s) before the first onset"])
        errors = benchlib.check_monitor(onsets, [1010], 1, slack=4)
        self.assertEqual(errors, ["no incident after onset 1"])
        errors = benchlib.check_monitor(onsets, [1010, 2020], 3, slack=4)
        self.assertEqual(len(errors), 1)

    def test_detect_latency_per_window(self):
        self.assertEqual(
            benchlib.detect_latencies([1000, 2000], [1010, 1500, 2030],
                                      slack=4),
            [10, 30])


class LatenessTest(unittest.TestCase):
    def test_measured_from_due_times(self):
        # Ticks due every 10; tick 2 stalls until 50 and the ticks
        # behind it run back to back.  Measured from their due times
        # all three are late, though each started only 5 after the
        # previous one was sent.
        actual = [0, 10, 50, 55, 60]
        self.assertEqual(benchlib.lateness(actual, 10), [0, 0, 30, 25, 20])

    def test_early_ticks_are_not_negative(self):
        self.assertEqual(benchlib.lateness([0, 9, 20], 10), [0, 0, 0])


if __name__ == "__main__":
    unittest.main()
