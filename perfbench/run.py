#!/usr/bin/env python3
"""The repository's benchmark: builds the harness and the daemons from
source, runs one workload in fresh processes, checks every result, and
prints one JSON line with the metrics named in BENCHMARK.json.

  python3 perfbench/run.py --workload flow-teaching --seed 7 --seconds 30 --trace 0
  python3 perfbench/run.py --workload serve-course --repeat 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload with
its layers timed and prints the per-layer metrics, a Chrome trace and a
self-time table (written under perfbench/_out/). --repeat N runs the
workload N times, one fresh process each, and prints each metric's
median, quartiles and spread against its bound. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")
BIN = os.path.join("_build", "default", "bin")

# Fresh harness processes whose start-up is timed, per flow run; the
# median is setup_s.
SETUPS = 9
HARNESS_TIMEOUT_S = 150
# Every harness process, and the daemons it starts, runs on this one CPU.
# A workload is one closed loop, so a second core would only add wake-ups
# across cores, which on a shared host cost whatever its hypervisor
# makes them cost; on one core a request's hand-offs are plain context
# switches that scale with CPU speed like the flow work does.
BENCH_CPU = max(os.sched_getaffinity(0))
# A traced flow job fails if more than this share of its latency falls
# outside elaboration and every flow step.
UNATTRIBUTED_MAX = 0.01

STEP_METRICS = {
    "rtl.elab": "rtl.elab_ms", "synth": "synth.ms", "flow.sizing": "flow.sizing_ms",
    "synth.buffering": "synth.buffering_ms", "place": "place.ms", "cts": "cts.ms",
    "route": "route.ms", "timing.sta": "timing.sta_ms", "power": "power.ms",
    "drc": "drc.ms", "gds": "gds.ms",
}
ALLOC_METRICS = {
    "place": "place.alloc_mwords", "route": "route.alloc_mwords",
    "flow.sizing": "flow.sizing_alloc_mwords", "timing.sta": "timing.sta_alloc_mwords",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- processes

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise BenchError(f"{ROOT} holds no repository source to build")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/harness.exe",
         f"./{BIN}/eduserved.exe", f"./{BIN}/eduroute.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed")


def _group_gone(pgid, wait_s):
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def run_harness(args, timeout=HARNESS_TIMEOUT_S):
    """Run the harness in its own process group; returns (events, seconds
    from spawn to its "ready" line or None). Whatever the harness left
    running (daemons, if it died) is killed and waited for."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([HARNESS] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, process_group=0,
                            preexec_fn=lambda: os.sched_setaffinity(0, {BENCH_CPU}))
    timer = threading.Timer(timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    events = []
    ready = None
    try:
        for line in proc.stdout:
            ev = json.loads(line)
            if ev["ev"] == "ready" and ready is None:
                ready = time.monotonic() - t_spawn
            events.append(ev)
        code = proc.wait()
    finally:
        timer.cancel()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if not _group_gone(proc.pid, 10.0):
            raise BenchError("harness processes survived SIGKILL")
    if code != 0:
        raise BenchError(f"harness {' '.join(args[:1])} exited with {code}")
    return events, ready


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


# ------------------------------------------------------------------ runs

def run_workload(w, seed, seconds, traced, run_dir):
    jobs_path = os.path.join(run_dir, "jobs.txt")
    warm_path = os.path.join(run_dir, "warm.txt")
    workloads.write_jobs(jobs_path, w.sequence(seed))
    workloads.write_jobs(warm_path, w.warm)
    common = ["--jobs", os.path.relpath(jobs_path, ROOT),
              "--warm", os.path.relpath(warm_path, ROOT),
              "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if w.kind == "flow":
        common += ["--round", str(w.round)]

        def setup_only():
            return run_harness(["flow"] + common + ["--setup-only"])[1]
        # set-up samples before and after the measured window, so a
        # passing host state at either end does not set the median
        setups = [setup_only() for _ in range(SETUPS // 2)]
        events, ready = run_harness(["flow"] + common)
        setups += [ready] + [setup_only() for _ in range(SETUPS // 2)]
    else:
        events, _ = run_harness(
            ["serve"] + common
            + ["--bin", BIN, "--dir", os.path.relpath(os.path.join(run_dir, "serve"), ROOT)])
        setups = [e["s"] for e in events if e["ev"] == "setup"]
    if any(s is None for s in setups) or not setups:
        raise BenchError("a set-up did not report ready")
    return events, setups


# ------------------------------------------------------------- correctness

def judge(events):
    """Verdicts and checks -> (failed request ids, failed checks that name
    no request, problems)."""
    jobs = [e for e in events if e["ev"] == "job"]
    failed = set()
    problems = []
    for j in jobs:
        ppa = j.get("ppa")
        preset = j["spec"].split("/")[1]
        if j.get("verdict") != "ok" or ppa is None:
            failed.add(j["i"])
            problems.append(f"request {j['i']} {j['spec']}: verdict {j.get('verdict')}")
        elif not ppa["drc_clean"] and preset != "teaching":
            failed.add(j["i"])
            problems.append(f"request {j['i']} {j['spec']}: not DRC-clean")
    unattributed = 0
    for e in (e for e in events if e["ev"] == "warm"):
        if e.get("verdict") != "ok" or "ppa" not in e:
            problems.append(f"warm-up {e['spec']}: verdict {e.get('verdict')}")
            unattributed += 1
    for c in (e for e in events if e["ev"] == "check"):
        if c.get("ok", False):
            continue
        problems.append(f"check failed: {c['name']} {c.get('detail', '')}".strip())
        if c.get("failed_reqs"):
            failed.update(c["failed_reqs"])
        elif c.get("spec"):
            failed.update(j["i"] for j in jobs if j["spec"] == c["spec"])
        else:
            unattributed += 1
    return failed, unattributed, problems


def fingerprints(w, events):
    """Per-spec results that must repeat exactly, in any run of any seed:
    PPA and DRC, and for traced flow jobs the allocation and kernel work
    counts. Returns them and the drifts: (request, what differed)."""
    per_spec = {}
    drift = []
    if w.kind == "flow":
        for j in (e for e in events if e["ev"] == "job"):
            fp = {"ppa": j.get("ppa"), "drc_violations": j.get("drc_violations")}
            if j.get("marks"):
                fp["alloc_words"] = j["alloc_words"]
                fp["step_words"] = step_words(j)
                fp["counters"] = j["counters"]
            have = per_spec.get(j["spec"])
            if have is None:
                per_spec[j["spec"]] = fp
                continue
            for k, v in fp.items():
                if k not in have:
                    have[k] = v
                elif have[k] != v:
                    drift.append((j["i"], f"{j['spec']}: {k} of request {j['i']} differs"))
    else:
        for e in (e for e in events if e["ev"] == "warm"):
            per_spec[e["spec"]] = {"ppa": e.get("ppa")}
    return per_spec, drift


def step_words(job):
    """Minor-heap words allocated within each flow step of a traced job."""
    words = {}
    prev = job["marks"][0][2]
    for layer, _, w in job["marks"][1:]:
        words[layer] = w - prev
        prev = w
    return words


# ----------------------------------------------------------------- metrics

def latency_ms(j):
    return (j["t1_us"] - j["t0_us"]) / 1e3


def end_to_end(w, events, setups, failed, unattributed, per_spec):
    jobs = [e for e in events if e["ev"] == "job"]
    ok = [j for j in jobs if j["i"] not in failed]
    if not ok:
        raise BenchError("no request completed correctly")
    lat = [latency_ms(j) for j in ok]
    # first submit to last result, summed over serve-course's segments
    segments = {}
    for j in jobs:
        segments.setdefault(j.get("segment"), []).append(j)
    window_s = sum(max(j["t1_us"] for j in js) - min(j["t0_us"] for j in js)
                   for js in segments.values()) / 1e6
    end = next(e for e in events if e["ev"] == "end")
    p50 = stats.percentile(lat, 50)
    ppas = [fp["ppa"] for fp in per_spec.values() if fp.get("ppa")]

    def class_p50(cls):
        if w.kind == "flow":
            return p50  # every flow job takes the full path; see README.md
        xs = [latency_ms(j) for j in ok if j["class"] == cls]
        if not xs:
            raise BenchError(f"no {cls} request completed")
        return stats.percentile(xs, 50)

    return {
        "setup_s": stats.median(setups),
        "jobs_per_s": len(ok) / window_s,
        "latency_ms_p50": p50,
        "latency_ms_p90": stats.percentile(lat, 90),
        "peak_rss_mb": end["rss_kb"] / 1024.0,
        "ok_frac": max(0.0, (len(jobs) - len(failed) - unattributed) / len(jobs)),
        "qor_wirelength_um": sum(p["wirelength_um"] for p in ppas) / len(ppas),
        "qor_fmax_mhz": sum(p["fmax_mhz"] for p in ppas) / len(ppas),
        "edit_latency_ms_p50": class_p50("edit"),
        "cold_latency_ms_p50": class_p50("cold"),
    }


def _med(xs):
    return stats.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(w, events, per_spec, names):
    """Per-layer metrics of a traced run, and its spans grouped for the
    trace. A layer the workload does not run reads 0 (README.md lists
    which run where)."""
    m = {n: 0.0 for n in names}
    jobs = [e for e in events if e["ev"] == "job"]
    layers = flow_layers if w.kind == "flow" else serve_layers
    return m, layers(m, events, jobs, per_spec)


def flow_layers(m, events, jobs, per_spec):
    b = spans.SpanLog()
    traced = [j for j in jobs if j.get("marks")]
    for j in traced:
        spans.flow_job(b, j)
    for layer, metric in STEP_METRICS.items():
        m[metric] = _med([(s["t1"] - s["t0"]) / 1e3 for s in b.spans if s["name"] == layer])
    m["flow.unattributed_ms"] = _med([u / 1e3 for u, _ in spans.unattributed(b.spans).values()])
    specs = [fp for fp in per_spec.values() if "alloc_words" in fp]
    m["flow.alloc_mwords"] = _mean([fp["alloc_words"] / 1e6 for fp in specs])
    for layer, metric in ALLOC_METRICS.items():
        m[metric] = _mean([fp["step_words"].get(layer, 0) / 1e6 for fp in specs])
    m["gc.major_collections"] = _med([j["major_collections"] for j in traced])
    c = [fp["counters"] for fp in specs]
    m["place.moves"] = _mean([x["place.moves_accepted"] + x["place.moves_rejected"] for x in c])
    m["route.nets_ripped"] = _mean([x["route.nets_ripped"] for x in c])
    m["synth.cells_upsized"] = _mean([x["synth.cells_upsized"] for x in c])
    m["drc.violations"] = _mean([fp["drc_violations"] for fp in per_spec.values()])
    # overhead: per spec, traced vs untraced median latency
    ratios, tr, un = [], [], []
    for spec in per_spec:
        t = [latency_ms(j) for j in jobs if j["spec"] == spec and j.get("marks")]
        u = [latency_ms(j) for j in jobs if j["spec"] == spec and not j.get("marks")]
        tr += t
        un += u
        if t and u:
            ratios.append(stats.median(t) / stats.median(u))
    if ratios:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        m["trace.overhead_pct"] = (geo - 1.0) * 100.0
    m["trace.jobs_per_s_traced"] = len(tr) / (sum(tr) / 1e3) if tr else 0.0
    m["trace.jobs_per_s_untraced"] = len(un) / (sum(un) / 1e3) if un else 0.0
    return [("flow jobs", b.spans)]


def serve_layers(m, events, jobs, per_spec):
    b = spans.SpanLog()
    for j in jobs:
        spans.serve_job(b, j)
    m["hit_latency_ms_p50"] = _med([latency_ms(j) for j in jobs if j["class"] == "repeat"])
    m["client.submit_ms"] = _med([(j["t_submit_us"] - j["t0_us"]) / 1e3 for j in jobs])
    m["client.await_ms"] = _med([(j["t1_us"] - j["t_submit_us"]) / 1e3 for j in jobs])
    # over the jobs a replica's worker ran; a cache hit has neither
    executed = [j for j in jobs if "exec_ms" in j and not j["from_cache"]]
    m["serve.queue_wait_ms"] = _med([j["wait_ms"] for j in executed])
    m["serve.exec_ms"] = _med([j["exec_ms"] for j in executed])
    for e in (e for e in events if e["ev"] == "layer"):
        m[e["name"]] = e["value"]
    rb = spans.SpanLog()
    replay = [e for e in events if e["ev"] == "replay"]
    for r in replay:
        spans.replay_job(rb, r)

    def durations(name, step=None):
        return [(s[2] - s[1]) / 1e3 for r in replay for s in r["spans"]
                if s[0] == name and (step is None or s[3] == step)]

    def per_job_sum(name):
        sums = [sum((s[2] - s[1]) / 1e3 for s in r["spans"] if s[0] == name)
                for r in replay]
        return [x for x in sums if x > 0]

    m["sched.cache_lookup_ms"] = _med(durations("sched.cache_lookup"))
    m["sched.cache_store_ms"] = _med(durations("sched.cache_store"))
    m["journal.append_ms"] = _med(durations("journal.append"))
    m["artifact.decode_ms"] = _med(per_job_sum("artifact.decode"))
    m["artifact.encode_ms"] = _med(per_job_sum("artifact.encode"))
    m["artifact.encode_ms.gds"] = _med(durations("artifact.encode", "gds"))
    m["artifact.replayed_steps"] = sum(r["replayed_steps"] for r in replay)
    m["artifact.bytes_written"] = sum(r["bytes_written"] for r in replay)
    m["replay.cache_hits"] = sum(1 for r in replay if r["hit"])
    probes = sum(r["probes"] for r in replay)
    m["artifact.hit_ratio"] = m["artifact.replayed_steps"] / probes if probes else 0.0
    lat = sum(latency_ms(j) for j in jobs)
    m["trace.jobs_per_s_traced"] = m["trace.jobs_per_s_untraced"] = (
        len(jobs) / (lat / 1e3) if lat else 0.0)
    return [("requests", b.spans), ("in-process replay", rb.spans)]


def check_unattributed(w, groups):
    """A traced flow job's elaboration and step spans must cover all but
    UNATTRIBUTED_MAX of its latency."""
    if w.kind != "flow":
        return []
    return [f"request {req}: {u:.1f} us of {lat:.1f} us outside every step"
            for req, (u, lat) in sorted(spans.unattributed(groups[0][1]).items())
            if u > UNATTRIBUTED_MAX * lat]


# --------------------------------------------------------------- one run

def one_run(args):
    spec = load_spec()
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        raise BenchError(f"unknown workload {args.workload}; "
                         f"have {', '.join(workloads.WORKLOADS)}")
    build()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    steal0 = steal_ticks()
    t0 = time.monotonic()
    try:
        events, setups = run_workload(w, args.seed, args.seconds, args.trace == 1, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal = steal_ticks() - steal0
    failed, unattributed, problems = judge(events)
    per_spec, drift = fingerprints(w, events)
    failed.update(i for i, _ in drift)
    nondet = [msg for _, msg in drift]
    jobs = [e for e in events if e["ev"] == "job"]
    result_metrics = end_to_end(w, events, setups, failed, unattributed, per_spec)
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seeded = {}
    if args.trace == 1:
        layers, groups = per_layer(w, events, per_spec, names)
        bad = check_unattributed(w, groups)
        problems += bad
        unattributed += len(bad)
        result_metrics = layers
        spans.write_chrome_trace(os.path.join(OUT, f"trace-{w.name}-s{args.seed}.json"), groups)
        table = "".join(spans.format_table(f"{w.name} seed {args.seed}: {title}",
                                           spans.layer_table(group))
                        for title, group in groups)
        with open(os.path.join(OUT, f"layers-{w.name}-s{args.seed}.txt"), "w") as f:
            f.write(table)
        log(table)
        if w.kind == "serve":
            seeded = {k: layers[k] for k in ("replay.cache_hits", "artifact.bytes_written",
                                             "artifact.replayed_steps")}
    n_failed = len(failed) + unattributed
    correct = n_failed == 0
    lat_n = sum(1 for j in jobs if j["i"] not in failed)
    diagnostics = {
        "nproc": os.cpu_count(),
        "steal_ticks": steal,
        "wall_s": time.monotonic() - t0,
        "setups_s": setups,
        "latency_samples": lat_n,
        "p90_samples_beyond": stats.samples_beyond(lat_n, 90),
        "class_samples": {c: sum(1 for j in jobs if j["class"] == c and j["i"] not in failed)
                          for c in sorted({j["class"] for j in jobs})},
        "problems": problems,
        "nondeterminism": nondet,
    }
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct, "attempted": len(jobs),
              "failed": n_failed, "metrics": result_metrics,
              "diagnostics": diagnostics, "per_spec": per_spec, "seeded": seeded}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for name, value in result_metrics.items():
        log(f"  {name:<28}{value:>16.6g} {units.get(name, '')}")
    log(f"  samples {lat_n} (p90 has {diagnostics['p90_samples_beyond']} beyond), "
        f"nproc {diagnostics['nproc']}, steal ticks {steal}")
    for p in problems + nondet:
        log(f"  PROBLEM: {p}")
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result_metrics.items()},
    }))
    return 0 if correct else 1


# ------------------------------------------------------------ repeat mode

def repeat(args):
    """Run the workload N times, each in a fresh process, and report every
    metric's median, quartiles and spread against its bound, plus any
    deterministic result that differed between runs."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    runs = []
    for k in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + k
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            raise BenchError(f"run {k + 1} (seed {seed}) failed with {r.returncode}")
        out = json.loads(lines[-1])
        with open(os.path.join(OUT, f"result-{args.workload}-s{seed}-t{args.trace}.json")) as f:
            runs.append(json.load(f))
        for name, mv in out["metrics"].items():
            values.setdefault(name, []).append(mv["value"])
    print(f"{args.workload}: {args.repeat} runs, seeds "
          f"{sorted({r['seed'] for r in runs})}, --seconds {args.seconds}")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    medians = {}
    for name, xs in values.items():
        q1, q2, q3 = stats.quartiles(xs)
        medians[name] = q2
        sp = stats.spread(xs)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = " ok" if sp <= bound / 3 else (" within bound" if sp <= bound else " NOISY")
        print(f"{name:<28}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp * 100:>8.2f}%"
              f"{'' if bound is None else f'{bound * 100:>7.1f}%'}{flag}")
    path = os.path.join(OUT, f"repeat-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seeds": [r["seed"] for r in runs],
                   "medians": medians}, f, indent=1)
    print(f"medians written to {os.path.relpath(path, ROOT)}")
    regressed = compare(spec, medians, args.against) if args.against else False
    # determinism: per-spec results must agree across every run; seeded
    # counts only between runs of the same seed
    drift = []
    base = runs[0]["per_spec"]
    for r in runs[1:]:
        for s, fp in r["per_spec"].items():
            for k, v in fp.items():
                if s in base and k in base[s] and base[s][k] != v:
                    drift.append(f"{s} {k}: seed {runs[0]['seed']} vs seed {r['seed']}")
    by_seed = {}
    for r in runs:
        if r["seeded"]:
            first = by_seed.setdefault(r["seed"], r["seeded"])
            if first != r["seeded"]:
                drift.append(f"seed {r['seed']}: {first} vs {r['seeded']}")
    for r in runs:
        drift += [f"seed {r['seed']}: {p}" for p in r["diagnostics"]["nondeterminism"]]
    print("determinism: " + ("no drift" if not drift else "DRIFT"))
    for d in drift:
        print("  " + d)
    steal = [r["diagnostics"]["steal_ticks"] for r in runs]
    print(f"nproc {runs[0]['diagnostics']['nproc']}, steal ticks per run {steal}")
    return 0 if not drift and not regressed and all(r["correct"] for r in runs) else 1


def compare(spec, medians, against):
    """Print how far each end-to-end median moved in its worse direction
    from the medians of an earlier --repeat set; True if any moved by
    more than its bound."""
    with open(against) as f:
        first = json.load(f)
    print(f"against {against} (seeds {first['seeds']}):")
    regressed = False
    for m in spec["end_to_end"]:
        a, b = first["medians"].get(m["name"]), medians.get(m["name"])
        if a is None or b is None:
            continue
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "ok" if worse <= m["bound"] else "WORSE"
        regressed |= worse > m["bound"]
        print(f"  {m['name']:<26}{a:>14.6g} -> {b:<14.6g}{worse * 100:>+8.2f}% worse"
              f"  (bound {m['bound'] * 100:.1f}%) {flag}")
    return regressed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times (seeds SEED, SEED+1, ...) and report spreads")
    p.add_argument("--same-seed", action="store_true",
                   help="with --repeat: reuse SEED, to compare seeded counts")
    p.add_argument("--against", metavar="FILE",
                   help="with --repeat: compare the medians with an earlier set's "
                        "perfbench/_out/repeat-*.json")
    args = p.parse_args()
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return repeat(args) if args.repeat else one_run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
