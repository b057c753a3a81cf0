"""The benchmark's workloads and their seeded request sequences.

A workload's sequence is a pure function of its seed, so two commits run
identical work. Every sequence draws from a fixed set of specs (design,
preset): the seed decides the order and, for serve-course, each request's
class, tenant and unique clock or fault seed. Per-spec results (QoR,
allocation and kernel work counts) therefore do not depend on the seed.
See README.md for why each workload was chosen.
"""

import random

COMMERCIAL_DESIGNS = ["adder8", "mult4", "alu8", "cmp16", "fir4x8", "acc_cpu8",
                      "uart_tx", "bshift16", "xbar4x8"]
TEACHING_DESIGNS = ["mult8", "xbar4x8", "alu8", "acc_cpu8", "bshift16"]

# serve-course: small and mid-size designs, each under both course presets.
SERVE_DESIGNS = ["adder8", "mult4", "counter", "uart_tx",
                 "alu8", "fir4x8", "acc_cpu8", "cmp16"]
SERVE_PRESETS = ["open", "teaching"]
TENANTS = ["course-a", "course-b", "course-c"]

# Per block of 25 requests: 20 repeats (80%), 3 edits (12%), 2 cold (8%).
# The median of all requests is then the repeats' 62nd percentile, where
# they are dense, and p90 the median of the edits and cold jobs. With 60%
# repeats it was their 83rd percentile, in the thin tail that host steal
# fills first (see README.md, "Steadiness").
CLASS_BLOCK = ["repeat"] * 20 + ["edit"] * 3 + ["cold"] * 2

# Flow.config's default clock at edu130 (open) and three times it
# (teaching), in ps; an edit moves it by a request-unique half-picosecond
# step so every edit is a distinct job that still resumes at sta.
BASE_CLOCK_PS = {"open": 2275.0, "teaching": 6825.0}

FLOW_ROUNDS = 400
SERVE_REQUESTS = 20000


class Job:
    """One request: a line of the harness's job file."""

    __slots__ = ("cls", "design", "preset", "tenant", "clock_ps", "fault_seed")

    def __init__(self, cls, design, preset, tenant="course-a", clock_ps=None,
                 fault_seed=1):
        self.cls = cls
        self.design = design
        self.preset = preset
        self.tenant = tenant
        self.clock_ps = clock_ps
        self.fault_seed = fault_seed

    @property
    def spec(self):
        return f"{self.design}/{self.preset}"

    def line(self):
        clock = "-" if self.clock_ps is None else repr(self.clock_ps)
        return (f"{self.cls} {self.design} {self.preset} {self.tenant} "
                f"{clock} {self.fault_seed}")


class Workload:
    def __init__(self, name, kind, warm, sequence, round=1):
        self.name = name
        self.kind = kind  # "flow" or "serve"
        self.warm = warm  # list of Job, run untimed during set-up
        self._sequence = sequence  # seed -> list of Job
        self.round = round  # a flow run stops only after a whole round

    def sequence(self, seed):
        return self._sequence(seed)


def _flow_sequence(designs, preset):
    def sequence(seed):
        rng = random.Random(seed)
        jobs = []
        for _ in range(FLOW_ROUNDS):
            order = designs[:]
            rng.shuffle(order)
            jobs.extend(Job("flow", d, preset) for d in order)
        return jobs
    return sequence


def _serve_sequence(seed):
    rng = random.Random(seed)
    specs = [(d, p) for p in SERVE_PRESETS for d in SERVE_DESIGNS]
    # Each class deals its specs from its own shuffled deck of all of them,
    # so every class median sees each spec about equally often whatever
    # the seed, and a class median moves with the program, not the draw.
    decks = {cls: [] for cls in CLASS_BLOCK}
    jobs = []
    while len(jobs) < SERVE_REQUESTS:
        block = CLASS_BLOCK[:]
        rng.shuffle(block)
        for cls in block:
            i = len(jobs)
            if not decks[cls]:
                decks[cls] = specs[:]
                rng.shuffle(decks[cls])
            design, preset = decks[cls].pop()
            tenant = rng.choice(TENANTS)
            clock = None
            fault_seed = 1
            if cls == "edit":
                clock = BASE_CLOCK_PS[preset] + 0.5 * (i + 1)
            elif cls == "cold":
                fault_seed = 1_000_000 + i
            jobs.append(Job(cls, design, preset, tenant, clock, fault_seed))
    return jobs


WORKLOADS = {
    w.name: w
    for w in [
        Workload("flow-commercial", "flow",
                 [Job("warm", COMMERCIAL_DESIGNS[0], "commercial")],
                 _flow_sequence(COMMERCIAL_DESIGNS, "commercial"),
                 len(COMMERCIAL_DESIGNS)),
        Workload("flow-teaching", "flow",
                 [Job("warm", TEACHING_DESIGNS[0], "teaching")],
                 _flow_sequence(TEACHING_DESIGNS, "teaching"),
                 len(TEACHING_DESIGNS)),
        Workload("serve-course", "serve",
                 [Job("warm", d, p, TENANTS[i % len(TENANTS)])
                  for i, (d, p) in enumerate(
                      (d, p) for p in SERVE_PRESETS for d in SERVE_DESIGNS)],
                 _serve_sequence),
    ]
}


def write_jobs(path, jobs):
    with open(path, "w") as f:
        for j in jobs:
            f.write(j.line() + "\n")
