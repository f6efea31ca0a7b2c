"""Metamorphic laws: relations between two runs that need no oracle.

Each law runs on seeded random workloads of at most ten processes, with
bursts and arrivals drawn from small ranges so that ties in arrival,
burst and remaining time are common.

The shift and relabel laws also run, composed, over the small world that
tests/test_differential.py enumerates against the oracle.

- Shifting every arrival by the same delta shifts every segment by it,
  and leaves the quanta and the STANDARD metrics unchanged: the clock
  starts at the first arrival and nothing depends on absolute time.
- Relabelling pids maps the segments through the relabelling: ties break
  on submission index, never on the pid.
- With every arrival at 0, SJF's average turnaround is at most every
  other policy's (shortest processing time first is optimal for the sum
  of completion times on one machine).
"""

import random

import pytest

from smdrr.engine import simulate
from smdrr.metrics import Convention, compute_metrics
from smdrr.policies import parse_policy
from smdrr.workload import ProcessSpec, Workload

POLICIES = ("smdrr", "rr:20", "rr:3", "fcfs", "sjf")
WORKLOADS = 300


def random_workloads(seed, arrivals=True):
    rng = random.Random(seed)
    for i in range(WORKLOADS):
        n = rng.randint(1, 10)
        horizon = rng.choice((0, 10, 60)) if arrivals else 0
        yield Workload(f"fuzz-{i}", tuple(
            ProcessSpec(f"P{j + 1}", rng.randint(0, horizon), rng.randint(1, 30))
            for j in range(n)
        )), rng


def standard_metrics(trace):
    m = compute_metrics(trace, Convention.STANDARD)
    return m.processes, m.att, m.awt, m.cs, m.avg_response


def transform(workload, delta, rename):
    """workload with every arrival shifted by delta and every pid renamed."""
    return Workload(workload.name, tuple(
        ProcessSpec(rename[p.pid], p.arrival + delta, p.burst) for p in workload.processes
    ))


def assert_transformed(base, other, delta, rename):
    """other, the trace of transform(workload, delta, rename), is base with
    every time shifted by delta and every pid renamed."""
    assert list(other.segments) == [
        (None if o is None else rename[o], s + delta, e + delta) for o, s, e in base.segments
    ]
    assert other.quanta == base.quanta
    assert list(other.processes) == [
        (rename[pid], arrival + delta, burst, first_start + delta, completion + delta)
        for pid, arrival, burst, first_start, completion in base.processes
    ]


@pytest.mark.parametrize("spelling", POLICIES)
def test_shifting_arrivals_shifts_the_trace(spelling):
    policy = parse_policy(spelling)
    for workload, rng in random_workloads(f"shift-{spelling}"):
        delta = rng.randint(1, 500)
        same = {p.pid: p.pid for p in workload.processes}
        base = simulate(workload, policy)
        moved = simulate(transform(workload, delta, same), policy)
        assert_transformed(base, moved, delta, same)
        assert standard_metrics(moved) == standard_metrics(base)


@pytest.mark.parametrize("spelling", POLICIES)
def test_relabelling_pids_relabels_the_trace(spelling):
    policy = parse_policy(spelling)
    for workload, rng in random_workloads(f"relabel-{spelling}"):
        # new names in a random order, so a pid-based tie-break would show
        names = [f"Q{k}" for k in rng.sample(range(100), len(workload.processes))]
        rename = {p.pid: name for p, name in zip(workload.processes, names)}
        base = simulate(workload, policy)
        assert_transformed(base, simulate(transform(workload, 0, rename), policy), 0, rename)


def test_sjf_minimises_turnaround_when_all_arrive_at_zero():
    configs = [parse_policy(s) for s in POLICIES]
    for workload, _ in random_workloads("sjf-att", arrivals=False):
        att = {c.spelling(): compute_metrics(simulate(workload, c), Convention.STANDARD).att
               for c in configs}
        assert all(att["sjf"] <= value for value in att.values()), (workload, att)
