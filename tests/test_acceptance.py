"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Aggregate values are asserted as exact rationals (zero
tolerance); traces are asserted segment for segment against the
independent followers in oracle.py.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracle
from goldens import EXPECTED_ERRATA, SMDRR_QUANTA
from smdrr.cli import main
from smdrr.engine import simulate
from smdrr.errata import compute_errata, replay_cases
from smdrr.metrics import Convention, compute_metrics
from smdrr.policies import PolicyConfig, harmonic_mean_quantum
from smdrr.workload import ProcessSpec, Workload, paper_case

RR20 = PolicyConfig("rr", 20)
SMDRR = PolicyConfig("smdrr")
FCFS = PolicyConfig("fcfs")
SJF = PolicyConfig("sjf")
FUZZ_RUNS = 1000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def zero_referenced(case_id, config):
    return compute_metrics(simulate(paper_case(case_id), config), Convention.PAPER_ZERO)


def test_criterion_1_case1_tables():
    with criterion(1, "case 1: RR 144/85.75/12, SMDRR [41,46,3] 124.25/66/6"):
        rr = zero_referenced(1, RR20)
        assert rr.att == Fraction(144)
        assert rr.awt == Fraction(343, 4)
        assert rr.cs == 12
        trace = simulate(paper_case(1), SMDRR)
        assert list(trace.quanta) == [41, 46, 3]
        sm = compute_metrics(trace, Convention.PAPER_ZERO)
        assert sm.awt == Fraction(66)
        assert sm.cs == 6
        assert sm.att == Fraction(497, 4)  # 124.25; published 124.5 is an erratum


def test_criterion_2_case2_tables():
    with criterion(2, "case 2: RR 140.4/98/11, SMDRR [34,22,2,1] 129.2/86.8/10"):
        rr = zero_referenced(2, RR20)
        assert rr.att == Fraction(702, 5)
        assert rr.awt == Fraction(98)
        assert rr.cs == 11
        trace = simulate(paper_case(2), SMDRR)
        assert list(trace.quanta) == [34, 22, 2, 1]  # published 34,20,4,1 is an erratum
        sm = compute_metrics(trace, Convention.PAPER_ZERO)
        assert sm.cs == 10
        assert sm.att == Fraction(646, 5)
        assert sm.awt == Fraction(434, 5)


def test_criterion_3_case3_tables():
    with criterion(3, "case 3: RR 88.75/46.75/9, SMDRR [10,14,72,3] 73.75/31.75/4"):
        rr = zero_referenced(3, RR20)
        assert rr.att == Fraction(355, 4)
        assert rr.cs == 9
        assert rr.awt == Fraction(187, 4)  # published 47.75 is an erratum
        trace = simulate(paper_case(3), SMDRR)
        assert list(trace.quanta) == [10, 14, 72, 3]
        sm = compute_metrics(trace, Convention.PAPER_ZERO)
        assert sm.att == Fraction(295, 4)
        assert sm.cs == 4
        assert sm.awt == Fraction(127, 4)  # published 32.75 is an erratum


def test_criterion_4_case4_tables_no_errata():
    with criterion(4, "case 4 matches the published table with zero errata"):
        rr = zero_referenced(4, RR20)
        assert rr.att == Fraction(628, 5)
        assert rr.awt == Fraction(412, 5)
        assert rr.cs == 11
        trace = simulate(paper_case(4), SMDRR)
        assert list(trace.quanta) == [18, 35, 25, 43]
        sm = compute_metrics(trace, Convention.PAPER_ZERO)
        assert sm.att == Fraction(543, 5)
        assert sm.awt == Fraction(327, 5)
        assert sm.cs == 7
        assert not [e for e in compute_errata(replay_cases()) if e.case_id == 4]


def test_criterion_5_engine_equals_independent_oracle():
    with criterion(5, "engine traces equal the brute-force followers, all 16 runs"):
        for case_id in (1, 2, 3, 4):
            w = paper_case(case_id)
            triples = [(p.pid, p.arrival, p.burst) for p in w.processes]
            assert list(simulate(w, RR20).segments) == oracle.rr_trace(triples, 20)
            sm = simulate(w, SMDRR)
            expected_segments, cycles = oracle.smdrr_trace(triples)
            assert list(sm.segments) == expected_segments
            assert list(sm.quanta) == [q for _, q in cycles] == SMDRR_QUANTA[case_id]
            assert list(simulate(w, FCFS).segments) == oracle.fcfs_trace(triples)
            assert list(simulate(w, SJF).segments) == oracle.sjf_trace(triples)


@pytest.fixture(scope="module")
def fuzz_workloads():
    rng = random.Random(20260810)
    out = []
    for i in range(FUZZ_RUNS):
        n = rng.randint(1, 8)
        procs = tuple(
            ProcessSpec(f"P{j + 1}", rng.randint(0, 50), rng.randint(1, 100))
            for j in range(n)
        )
        out.append(Workload(f"fuzz-{i}", procs))
    return out


def assert_conserved_and_contiguous(workload, trace):
    arrival = {p.pid: p.arrival for p in workload.processes}
    ran = dict.fromkeys(arrival, 0)
    end = min(arrival.values())
    for s in trace.segments:
        assert s.start == end and s.end > s.start
        end = s.end
        if s.occupant is not None:
            assert s.start >= arrival[s.occupant]
            ran[s.occupant] += s.end - s.start
    assert ran == {p.pid: p.burst for p in workload.processes}


def test_criterion_6_property_suite(fuzz_workloads):
    rng = random.Random(991)
    with criterion(6, f"property suite over {FUZZ_RUNS} random workloads per law"):
        for w in fuzz_workloads:
            triples = [(p.pid, p.arrival, p.burst) for p in w.processes]
            mean_burst = Fraction(sum(p.burst for p in w.processes), len(w.processes))

            smdrr_trace = simulate(w, SMDRR)
            rr_trace = simulate(w, RR20)
            fcfs_trace = simulate(w, FCFS)
            sjf_trace = simulate(w, SJF)
            for trace in (smdrr_trace, rr_trace, fcfs_trace, sjf_trace):
                assert_conserved_and_contiguous(w, trace)
                dispatches = sum(1 for s in trace.segments if s.occupant is not None)
                for convention in Convention:
                    report = compute_metrics(trace, convention)
                    assert report.cs == dispatches - 1
                    assert report.awt == report.att - mean_burst

            # engine agrees with the independent followers on fuzzed input too
            expected_segments, cycles = oracle.smdrr_trace(triples)
            assert list(smdrr_trace.segments) == expected_segments
            assert list(rr_trace.segments) == oracle.rr_trace(triples, 20)
            assert list(fcfs_trace.segments) == oracle.fcfs_trace(triples)
            assert list(sjf_trace.segments) == oracle.sjf_trace(triples)
            assert list(smdrr_trace.quanta) == [q for _, q in cycles]
            offset = 0
            segments = [s for s in smdrr_trace.segments if s.occupant is not None]
            for remainings, quantum in cycles:
                assert min(remainings) <= quantum <= max(remainings)
                # shortest job goes first and finishes inside its own cycle
                assert segments[offset].end - segments[offset].start == remainings[0]
                offset += len(remainings)

            # tuple records of ints and strs: equality is bit-identity
            assert simulate(w, SMDRR) == smdrr_trace
            assert simulate(w, RR20) == rr_trace

        for i in range(FUZZ_RUNS):
            n = rng.randint(1, 8)
            burst = rng.randint(1, 100)
            equal = Workload(
                f"equal-{i}",
                tuple(ProcessSpec(f"P{j + 1}", 0, burst) for j in range(n)),
            )
            trace = simulate(equal, SMDRR)
            assert len(trace.segments) == n
            assert compute_metrics(trace).cs == n - 1

            zero = Workload(
                f"zero-{i}",
                tuple(
                    ProcessSpec(f"P{j + 1}", 0, rng.randint(1, 100))
                    for j in range(rng.randint(1, 8))
                ),
            )
            generous = PolicyConfig("rr", max(p.burst for p in zero.processes))
            rr_like_fcfs = simulate(zero, generous)
            fcfs = simulate(zero, PolicyConfig("fcfs"))
            assert rr_like_fcfs.segments == fcfs.segments
            assert rr_like_fcfs.processes == fcfs.processes


def test_criterion_7_paper_cases_command(capsys):
    with criterion(7, "paper-cases exits 0 with four tables and exact errata"):
        assert main(["paper-cases"]) == 0
        out = capsys.readouterr().out
        assert out.count("algorithm,tq,tat,wt,cs") == 4
        assert "RR,20,144,85.75,12" in out
        reported = set()
        for line in out.splitlines():
            if line.startswith("case "):
                head, _, tail = line.partition(": published ")
                case_id, algorithm, field = head.split()[1:4]
                published, _, computed = tail.partition(", computed ")
                reported.add((int(case_id), algorithm, field, published, computed))
        expected = {
            key + value for key, value in EXPECTED_ERRATA.items()
        }
        assert reported == expected


def test_criterion_8_exact_rational_quantum_guard():
    with criterion(8, "harmonic quantum is exact on float-hostile boundaries"):
        assert harmonic_mean_quantum([6, 12, 18]) == math.ceil(Fraction(108, 11)) == 10
        adversarial = [[2, 3, 6], [3, 4, 6], [7, 7, 7], [47, 47, 47], [6, 12, 18]]
        for values in adversarial:
            exact = math.ceil(Fraction(len(values)) / sum(Fraction(1, v) for v in values))
            assert harmonic_mean_quantum(values) == exact
        # naive float math lands above the integer boundary on these two
        assert math.ceil(3 / (1 / 2 + 1 / 3 + 1 / 6)) == 4
        assert harmonic_mean_quantum([2, 3, 6]) == 3
        assert math.ceil(3 / (1 / 47 + 1 / 47 + 1 / 47)) == 48
        assert harmonic_mean_quantum([47, 47, 47]) == 47
