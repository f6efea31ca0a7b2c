"""Engine against the brute-force followers at a few hundred processes.

The acceptance fuzz stops at 8 processes; these workloads are large
enough for the RR queue, the SJF heap and the SMDRR ready list to hold
hundreds of entries.  Bursts 1..5 give heavy ties in remaining time and
burst, so the survivor order and the SJF heap key are exercised, not
only the common case.  Submission order is shuffled against arrival
order, so ties on arrival fall back to submission index.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from smdrr.engine import ProcessOutcome, simulate
from smdrr.metrics import Convention, ProcessMetrics, compute_metrics
from test_acceptance import assert_conserved_and_contiguous
from smdrr.policies import parse_policy
from smdrr.workload import ProcessSpec, Workload, paper_case
from test_metamorphic import assert_transformed, transform

POLICIES = ("smdrr", "rr:20", "rr:3", "fcfs", "sjf")


def follow(spelling, triples):
    if spelling == "smdrr":
        segments, cycles = oracle.smdrr_trace(triples)
        return segments, [q for _, q in cycles]
    if spelling.startswith("rr:"):
        quantum = int(spelling[3:])
        return oracle.rr_trace(triples, quantum), [quantum]
    if spelling == "fcfs":
        return oracle.fcfs_trace(triples), None
    return oracle.sjf_trace(triples), None


def outcomes_from_segments(workload, trace):
    """Each process's record rebuilt from the segments: its first start and last end."""
    first, last = {}, {}
    for pid, start, end in trace.intervals():
        if pid is not None:
            first.setdefault(pid, start)
            last[pid] = end
    return tuple(ProcessOutcome(*p, first[p.pid], last[p.pid]) for p in workload.processes)


def assert_sums_are_record_means(trace, convention):
    """compute_metrics' sum-based means against the means of per-record values."""
    report = compute_metrics(trace, convention)
    paper_zero = convention is Convention.PAPER_ZERO
    records = []
    for p in trace.processes:
        turnaround = p.completion - (0 if paper_zero else p.arrival)
        records.append(ProcessMetrics(p.pid, turnaround, turnaround - p.burst,
                                      p.first_start - p.arrival))
    assert list(report.processes) == records
    n = len(records)
    assert report.att == Fraction(sum(m.turnaround for m in records), n)
    assert report.awt == Fraction(sum(m.waiting for m in records), n)
    assert report.avg_response == Fraction(sum(m.response for m in records), n)


def assert_engine_follows(triples):
    workload = Workload("diff", tuple(ProcessSpec(*t) for t in triples))
    for spelling in POLICIES:
        trace = simulate(workload, parse_policy(spelling))
        segments, quanta = follow(spelling, triples)
        assert list(trace.segments) == segments, spelling
        assert (None if trace.quanta is None else list(trace.quanta)) == quanta, spelling
        assert trace.processes == outcomes_from_segments(workload, trace), spelling
        for convention in Convention:
            assert_sums_are_record_means(trace, convention)


def random_triples(rng, n, burst, spread):
    """n processes; arrivals over 0..spread*n*mean burst (0 keeps them all at 0)."""
    lo, hi = burst
    horizon = int(spread * n * (lo + hi) / 2)
    return [(f"P{i + 1}", rng.randint(0, horizon), rng.randint(lo, hi)) for i in range(n)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("burst", [(1, 1000), (1, 5)], ids=["burst1-1000", "burst1-5"])
@pytest.mark.parametrize("spread", [0, 0.5], ids=["arrive-at-0", "arrive-spread"])
def test_engine_follows_oracle_at_size(spread, burst, seed):
    rng = random.Random(f"{spread}-{burst}-{seed}")
    assert_engine_follows(random_triples(rng, 300, burst, spread))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    burst_hi=st.sampled_from([1, 2, 5, 1000]),
    spread=st.sampled_from([0, 0.25, 1, 3]),
    seed=st.integers(0, 2**32),
    grid=st.sampled_from([1, 40]),
)
def test_engine_follows_oracle_on_mixed_spreads(n, burst_hi, spread, seed, grid):
    # Submission order is shuffled against arrival order; a coarse grid
    # gives many equal arrivals after 0 with idle gaps between them.
    triples = random_triples(random.Random(seed), n, (1, burst_hi), spread)
    assert_engine_follows([(pid, a - a % grid, b) for pid, a, b in triples])


# Every workload of 1 to 3 processes with bursts 1..6 and arrivals 0..2,
# 18 + 18**2 + 18**3 = 6174 of them: every tie in arrival, burst and
# remaining time, every idle gap and every integer harmonic mean, such as
# (2, 3, 6), that this small world holds.  Each workload also runs shifted
# by SMALL_SHIFT and relabelled at once, and must give its trace shifted
# and relabelled: the two laws of test_metamorphic.py, composed.
SMALL_BURSTS = range(1, 7)
SMALL_ARRIVALS = range(3)
SMALL_POLICIES = ("smdrr", "rr:1", "rr:3", "fcfs", "sjf")
SMALL_SHIFT = 7


def small_workloads():
    """(triples, workload) for every workload of the small world, in a fixed order."""
    cells = list(itertools.product(SMALL_ARRIVALS, SMALL_BURSTS))
    for n in range(1, 4):
        for rows in itertools.product(cells, repeat=n):
            # pids count down, so a tie broken on pid instead of on
            # submission index gives a different trace
            triples = [(f"P{n - i}", a, b) for i, (a, b) in enumerate(rows)]
            yield triples, Workload("small", tuple(ProcessSpec(*t) for t in triples))


def test_engine_follows_oracle_on_every_small_workload():
    policies = [(spelling, parse_policy(spelling)) for spelling in SMALL_POLICIES]
    count = 0
    for triples, workload in small_workloads():
        # the pids count down in submission order, so naming them Q0, Q1, ...
        # in that order reverses their sort order
        rename = {p.pid: f"Q{i}" for i, p in enumerate(workload.processes)}
        moved = transform(workload, SMALL_SHIFT, rename)
        for spelling, config in policies:
            trace = simulate(workload, config)
            segments, quanta = follow(spelling, triples)
            assert [(s.occupant, s.start, s.end) for s in trace.segments] == segments, \
                (spelling, triples)
            assert (None if trace.quanta is None else list(trace.quanta)) == quanta
            assert_conserved_and_contiguous(workload, trace)
            assert_transformed(trace, simulate(moved, config), SMALL_SHIFT, rename)
        count += 1
    assert count == 6174


def assert_columns_ordered(trace):
    assert len(trace.occupants) == len(trace.ends) > 0
    assert trace.start < trace.ends[0]
    assert all(a < b for a, b in zip(trace.ends, trace.ends[1:]))


@pytest.mark.parametrize("case_id", (1, 2, 3, 4))
def test_paper_case_columns_are_ordered(case_id):
    for spelling in POLICIES:
        assert_columns_ordered(simulate(paper_case(case_id), parse_policy(spelling)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("burst", [(1, 1000), (1, 5)], ids=["burst1-1000", "burst1-5"])
@pytest.mark.parametrize("spread", [0, 0.5], ids=["arrive-at-0", "arrive-spread"])
def test_columns_are_ordered_at_size(spread, burst, seed):
    rng = random.Random(f"{spread}-{burst}-{seed}")
    triples = random_triples(rng, 300, burst, spread)
    workload = Workload("diff", tuple(ProcessSpec(*t) for t in triples))
    for spelling in POLICIES:
        assert_columns_ordered(simulate(workload, parse_policy(spelling)))
