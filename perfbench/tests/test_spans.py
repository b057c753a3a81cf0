import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


def flow_job(i=0):
    # elaboration 0..2, then steps ending at 5, 9, 9.5; result in hand at 10
    return {"i": i, "t0_us": 0.0, "t1_us": 10.0,
            "marks": [["rtl.elab", 2.0, 100], ["synth", 5.0, 300],
                      ["place", 9.0, 700], ["gds", 9.5, 710]]}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        b = spans.SpanLog()
        root = b.add("a", 0.0, 10.0)
        b.add("b", 1.0, 4.0, root)
        b.add("c", 6.0, 8.0, root)
        selfs = spans.self_times(b.spans)
        self.assertEqual(selfs, {0: 5.0, 1: 3.0, 2: 2.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        b = spans.SpanLog()
        root = b.add("a", 0.0, 10.0)
        b.add("b", 2.0, 6.0, root)
        b.add("c", 4.0, 7.0, root)
        b.add("d", 9.0, 12.0, root)
        self.assertEqual(spans.self_times(b.spans)[root], 10.0 - 5.0 - 1.0)

    def test_flow_job_self_times_sum_to_latency(self):
        b = spans.SpanLog()
        spans.flow_job(b, flow_job())
        selfs = spans.self_times(b.spans)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)
        by_name = {s["name"]: selfs[s["id"]] for s in b.spans}
        self.assertEqual(by_name, {"job": 0.0, "rtl.elab": 2.0, "flow.run": 0.5,
                                   "synth": 3.0, "place": 4.0, "gds": 0.5})

    def test_unattributed_is_the_tail_after_the_last_step(self):
        b = spans.SpanLog()
        spans.flow_job(b, flow_job(4))
        self.assertEqual(spans.unattributed(b.spans), {4: (0.5, 10.0)})

    def test_layer_table_shares(self):
        b = spans.SpanLog()
        spans.flow_job(b, flow_job(0))
        spans.flow_job(b, flow_job(1))
        rows = spans.layer_table(b.spans)
        self.assertEqual(rows[0][0], "place")
        self.assertEqual(rows[0][1], 2)
        self.assertAlmostEqual(rows[0][2], 8.0 / 1e3)
        self.assertAlmostEqual(sum(r[3] for r in rows), 1.0)

    def test_replay_spans_nest_artifact_calls_in_flow_run(self):
        b = spans.SpanLog()
        spans.replay_job(b, {"i": 3, "t0_us": 0.0, "t1_us": 10.0, "spans": [
            ["sched.cache_lookup", 0.0, 1.0], ["flow.run", 1.0, 9.0],
            ["artifact.decode", 1.0, 2.0, "synthesis"], ["artifact.encode", 7.0, 9.0, "gds"],
            ["journal.append", 9.0, 10.0]]})
        parent = {s["name"]: b.spans[s["parent"]]["name"] for s in b.spans if s["parent"] is not None}
        self.assertEqual(parent["artifact.decode"], "flow.run")
        self.assertEqual(parent["sched.cache_lookup"], "replay.job")
        run = next(s["id"] for s in b.spans if s["name"] == "flow.run")
        self.assertEqual(spans.self_times(b.spans)[run], 8.0 - 3.0)


class ChromeTraceTest(unittest.TestCase):
    def test_concurrent_requests_get_their_own_lanes(self):
        roots = [{"id": 0, "t0": 0, "t1": 5}, {"id": 1, "t0": 1, "t1": 3},
                 {"id": 2, "t0": 5, "t1": 6}, {"id": 3, "t0": 3, "t1": 4}]
        self.assertEqual(spans.lanes(roots), {0: 0, 1: 1, 3: 1, 2: 0})

    def test_written_trace_loads_as_complete_events(self):
        b = spans.SpanLog()
        spans.flow_job(b, flow_job())
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            spans.write_chrome_trace(path, [("flow jobs", b.spans)])
            with open(path) as f:
                trace = json.load(f)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(xs), len(b.spans))
        self.assertTrue(all(e["tid"] == 1 and e["pid"] == 1 for e in xs))
        self.assertEqual({e["name"] for e in trace["traceEvents"] if e["ph"] == "M"},
                         {"process_name"})


if __name__ == "__main__":
    unittest.main()
