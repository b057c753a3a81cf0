import os
import sys
import unittest
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads  # noqa: E402


def lines(name, seed):
    return [j.line() for j in workloads.WORKLOADS[name].sequence(seed)]


class SequenceTest(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(lines(name, 42), lines(name, 42), name)

    def test_other_seed_other_order(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(lines(name, 1)[:40], lines(name, 2)[:40], name)

    def test_flow_rounds_are_permutations_of_the_design_set(self):
        for name, designs in [("flow-commercial", workloads.COMMERCIAL_DESIGNS),
                              ("flow-teaching", workloads.TEACHING_DESIGNS)]:
            jobs = workloads.WORKLOADS[name].sequence(9)
            n = len(designs)
            for r in range(0, len(jobs), n):
                self.assertEqual(sorted(j.design for j in jobs[r:r + n]), sorted(designs))

    def test_serve_mix_and_uniqueness(self):
        w = workloads.WORKLOADS["serve-course"]
        jobs = w.sequence(5)
        warm = {j.spec for j in w.warm}
        for b in range(0, 2000, 25):
            counts = Counter(j.cls for j in jobs[b:b + 25])
            self.assertEqual(counts, Counter(repeat=20, edit=3, cold=2))
        self.assertTrue({j.spec for j in jobs} <= warm)
        # each edit is a job no earlier request ran: its (spec, clock) is new
        edits = [(j.spec, j.clock_ps) for j in jobs if j.cls == "edit"]
        colds = [j.fault_seed for j in jobs if j.cls == "cold"]
        self.assertEqual(len(edits), len(set(edits)))
        self.assertEqual(len(colds), len(set(colds)))
        self.assertNotIn(1, colds)
        for j in jobs:
            if j.cls == "repeat":
                self.assertEqual((j.clock_ps, j.fault_seed), (None, 1))

    def test_serve_classes_deal_every_spec_evenly(self):
        jobs = workloads.WORKLOADS["serve-course"].sequence(3)
        n = len(workloads.SERVE_DESIGNS) * len(workloads.SERVE_PRESETS)
        for cls in ("repeat", "edit", "cold"):
            specs = [j.spec for j in jobs if j.cls == cls]
            for d in range(0, len(specs) - n + 1, n):
                self.assertEqual(len(set(specs[d:d + n])), n, cls)

    def test_warm_set_does_not_depend_on_the_seed(self):
        for w in workloads.WORKLOADS.values():
            self.assertTrue(w.warm)
            self.assertTrue(all(j.cls == "warm" for j in w.warm))

    def test_job_line_round_trip_fields(self):
        j = workloads.Job("edit", "alu8", "open", "course-b", 2275.5, 1)
        self.assertEqual(j.line(), "edit alu8 open course-b 2275.5 1")
        self.assertEqual(workloads.Job("flow", "mult8", "teaching").line(),
                         "flow mult8 teaching course-a - 1")


if __name__ == "__main__":
    unittest.main()
