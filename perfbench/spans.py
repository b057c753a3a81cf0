"""Spans of a traced run: built from the harness's timestamps, reduced to
self time per layer, and written as a Chrome trace that Perfetto loads.

A span is a dict with keys id, parent (None for a root), name, req (the
request it belongs to), t0 and t1 (monotonic microseconds). A layer's
self time is its span's duration minus the part of that interval its
child spans cover.
"""

import json


class SpanLog:
    def __init__(self):
        self.spans = []

    def add(self, name, t0, t1, parent=None, req=None):
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "req": req, "t0": t0, "t1": t1}
        self.spans.append(span)
        return span["id"]


def flow_job(b, job):
    """job -> rtl.elab, then flow.run -> one span per step. Each step runs
    from the previous boundary to the moment the memo hook saw its end."""
    req = job["i"]
    root = b.add("job", job["t0_us"], job["t1_us"], req=req)
    marks = job["marks"]  # [layer, t_end_us, minor words]; marks[0] is rtl.elab
    elab_end = marks[0][1]
    b.add("rtl.elab", job["t0_us"], elab_end, root, req)
    run = b.add("flow.run", elab_end, job["t1_us"], root, req)
    prev = elab_end
    for layer, t, _ in marks[1:]:
        b.add(layer, prev, t, run, req)
        prev = t
    return root


def serve_job(b, job):
    """request -> client.submit, client.await."""
    req = job["i"]
    root = b.add("request", job["t0_us"], job["t1_us"], req=req)
    b.add("client.submit", job["t0_us"], job["t_submit_us"], root, req)
    b.add("client.await", job["t_submit_us"], job["t1_us"], root, req)
    return root


def replay_job(b, job):
    """replay.job -> the store, journal and flow calls it made; artifact
    probes and saves nest inside flow.run."""
    req = job["i"]
    root = b.add("replay.job", job["t0_us"], job["t1_us"], req=req)
    run = None
    inner = []
    for entry in job["spans"]:
        name, t0, t1 = entry[0], entry[1], entry[2]
        if name == "flow.run":
            run = b.add(name, t0, t1, root, req)
        elif name.startswith("artifact."):
            inner.append((name, t0, t1))
        else:
            b.add(name, t0, t1, root, req)
    for name, t0, t1 in inner:
        b.add(name, t0, t1, run if run is not None else root, req)
    return root


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """span id -> self time (us)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"])
            - _covered(children.get(s["id"], []), s["t0"], s["t1"])
            for s in spans}


def unattributed(spans):
    """request -> (self time of its job and flow.run spans, job latency),
    in us: the part of a flow job that elaboration and no step covers."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if s["name"] in ("job", "flow.run"):
            u, lat = out.get(s["req"], (0.0, 0.0))
            if s["name"] == "job":
                lat = s["t1"] - s["t0"]
            out[s["req"]] = (u + selfs[s["id"]], lat)
    return out


def layer_table(spans):
    """Rows (layer, spans, self ms, share of all self time), largest first."""
    selfs = self_times(spans)
    by = {}
    for s in spans:
        count, total = by.get(s["name"], (0, 0.0))
        by[s["name"]] = (count + 1, total + selfs[s["id"]])
    grand = sum(t for _, t in by.values()) or 1.0
    rows = [(name, count, total / 1e3, total / grand)
            for name, (count, total) in by.items()]
    return sorted(rows, key=lambda r: -r[2])


def format_table(title, rows):
    lines = [title, f"{'layer':<22}{'spans':>8}{'self ms':>14}{'share':>9}"]
    for name, count, ms, share in rows:
        lines.append(f"{name:<22}{count:>8}{ms:>14.3f}{share * 100:>8.2f}%")
    return "\n".join(lines) + "\n"


def lanes(roots):
    """Give each root span the lowest lane free at its start, so requests
    that ran concurrently land on different Perfetto tracks."""
    ends = []
    lane_of = {}
    for s in sorted(roots, key=lambda s: s["t0"]):
        for lane, end in enumerate(ends):
            if end <= s["t0"]:
                ends[lane] = s["t1"]
                break
        else:
            lane = len(ends)
            ends.append(s["t1"])
        lane_of[s["id"]] = lane
    return lane_of


def chrome_trace(groups):
    """groups: [(process name, spans)] -> Chrome trace-event JSON object."""
    events = []
    for pid, (process, spans) in enumerate(groups, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": process}})
        by_id = {s["id"]: s for s in spans}
        lane_of = lanes([s for s in spans if s["parent"] is None])

        def root_of(s):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
            return s["id"]
        for s in spans:
            events.append({"name": s["name"], "cat": "perfbench", "ph": "X",
                           "ts": s["t0"], "dur": max(0.0, s["t1"] - s["t0"]),
                           "pid": pid, "tid": lane_of[root_of(s)] + 1,
                           "args": {"req": s["req"], "span": s["id"],
                                    "parent": s["parent"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, groups):
    with open(path, "w") as f:
        json.dump(chrome_trace(groups), f)
