import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from goldens import COMPUTED_TABLES
from smdrr.engine import Segment, Trace, simulate
from smdrr.metrics import (
    Convention,
    compute_metrics,
    format_decimal,
)
from smdrr.policies import PolicyConfig
from smdrr.workload import ProcessSpec, Workload, paper_case

RR20 = PolicyConfig("rr", 20)
SMDRR = PolicyConfig("smdrr")


@pytest.mark.parametrize("case_id,algorithm", sorted(COMPUTED_TABLES))
def test_zero_referenced_tables(case_id, algorithm):
    config = RR20 if algorithm == "RR" else SMDRR
    trace = simulate(paper_case(case_id), config)
    report = compute_metrics(trace, Convention.PAPER_ZERO)
    _, tat, wt, cs = COMPUTED_TABLES[(case_id, algorithm)]
    assert format_decimal(report.att) == tat
    assert format_decimal(report.awt) == wt
    assert report.cs == cs


def test_case1_rr_exact_fractions():
    report = compute_metrics(simulate(paper_case(1), RR20), Convention.PAPER_ZERO)
    assert report.att == Fraction(144)
    assert report.awt == Fraction(343, 4)
    assert report.cs == 12


def test_context_switch_counting():
    assert compute_metrics(simulate(paper_case(1), SMDRR)).cs == 6   # final P4->P4 counts
    assert compute_metrics(simulate(paper_case(1), RR20)).cs == 12
    assert compute_metrics(simulate(paper_case(4), RR20)).cs == 11   # ends P5,P5


def test_context_switches_single_segment_is_zero():
    w = Workload("solo", (ProcessSpec("P1", 0, 5),))
    assert compute_metrics(simulate(w, SMDRR)).cs == 0


def test_context_switches_idle_is_transparent():
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    trace = simulate(w, SMDRR)
    assert len(trace.segments) == 3  # P1, idle, P2
    assert compute_metrics(trace).cs == 1


def test_context_switches_invariant_under_pid_relabeling():
    a = Workload("a", (ProcessSpec("P1", 0, 9), ProcessSpec("P2", 1, 4)))
    b = Workload("b", (ProcessSpec("left", 0, 9), ProcessSpec("right", 1, 4)))
    assert compute_metrics(simulate(a, RR20)).cs == compute_metrics(simulate(b, RR20)).cs


def test_metrics_reject_a_trace_without_process_segments():
    trace = Trace("idle", "fcfs", 0, (None,), (5,), (), (), ())
    with pytest.raises(ValueError, match="trace has no process segments"):
        compute_metrics(trace)


def test_conventions_coincide_on_zero_arrivals():
    trace = simulate(paper_case(2), SMDRR)
    standard = compute_metrics(trace, Convention.STANDARD)
    zero = compute_metrics(trace, Convention.PAPER_ZERO)
    assert standard.processes == zero.processes
    assert (standard.att, standard.awt, standard.cs) == (zero.att, zero.awt, zero.cs)


def test_convention_difference_is_exactly_arrival():
    trace = simulate(paper_case(4), RR20)
    standard = compute_metrics(trace, Convention.STANDARD)
    zero = compute_metrics(trace, Convention.PAPER_ZERO)
    for outcome, s, z in zip(trace.processes, standard.processes, zero.processes):
        assert z.turnaround - s.turnaround == outcome.arrival
        assert z.waiting - s.waiting == outcome.arrival
        assert z.response == s.response


def test_awt_equals_att_minus_mean_burst():
    for convention in Convention:
        for case_id in (1, 2, 3, 4):
            w = paper_case(case_id)
            mean_burst = Fraction(sum(p.burst for p in w.processes), len(w.processes))
            for config in (RR20, SMDRR):
                report = compute_metrics(simulate(w, config), convention)
                assert report.awt == report.att - mean_burst


def test_standard_turnaround_at_least_burst():
    trace = simulate(paper_case(3), RR20)
    report = compute_metrics(trace, Convention.STANDARD)
    for outcome, pm in zip(trace.processes, report.processes):
        assert pm.turnaround >= outcome.burst
        assert pm.response >= 0
        assert pm.waiting == pm.turnaround - outcome.burst


def test_fcfs_closed_form_on_zero_arrivals():
    w = paper_case(2)
    trace = simulate(w, PolicyConfig("fcfs"))
    report = compute_metrics(trace, Convention.STANDARD)
    assert report.cs == len(w.processes) - 1
    prefix, total = 0, 0
    for p in w.processes:
        prefix += p.burst
        total += prefix
    assert report.att == Fraction(total, len(w.processes))


def test_throughput_utilization_makespan():
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    report = compute_metrics(simulate(w, SMDRR))
    assert report.makespan == 13
    assert report.cpu_utilization == Fraction(5, 13)
    assert report.throughput == Fraction(2, 13)
    full = compute_metrics(simulate(paper_case(1), SMDRR))
    assert full.cpu_utilization == 1


def test_utilization_counts_the_time_before_the_first_arrival_as_busy():
    # makespan is the last end, counted from 0, while the trace and its idle
    # segments start at the first arrival, so [0, 5) here is busy time: P1
    # runs 2 of 7 ms and utilization reads 1.  The rule stays until the
    # benchmark is redefined on purpose: perfbench/checks.py recomputes the
    # same formula, and trace-export's first arrival is 15 at seed 0, so
    # measuring from the first arrival would move perfbench/digests.json.
    w = Workload("late", (ProcessSpec("P1", 5, 2),))
    report = compute_metrics(simulate(w, PolicyConfig("fcfs")))
    assert report.makespan == 7
    assert report.cpu_utilization == 1
    assert report.throughput == Fraction(1, 7)


def test_avg_response():
    report = compute_metrics(simulate(paper_case(1), SMDRR))
    assert report.avg_response == Fraction(0 + 20 + 60 + 101, 4)


def test_report_json_fields():
    report = compute_metrics(simulate(paper_case(1), RR20), Convention.PAPER_ZERO)
    doc = report.to_dict()
    assert set(doc) == {
        "convention", "processes", "att", "awt", "cs",
        "avg_response", "makespan", "cpu_utilization", "throughput",
    }
    assert doc["convention"] == "paper"
    assert doc["att"] == "144"
    assert doc["awt"] == "85.75"
    assert doc["cs"] == 12
    assert doc["processes"][0] == {"pid": "P1", "turnaround": 20, "waiting": 0, "response": 0}


def test_aggregates_in_field_order():
    report = compute_metrics(simulate(paper_case(1), SMDRR), Convention.PAPER_ZERO)
    assert list(report.aggregates()) == [
        ("att", "124.25"), ("awt", "66"), ("cs", 6), ("avg_response", "45.25"),
        ("makespan", 233), ("cpu_utilization", "1"), ("throughput", "0.0172"),
    ]
    assert list(report.to_dict())[2:] == [name for name, _ in report.aggregates()]


@pytest.mark.parametrize(
    "value,rendered",
    [
        (Fraction(144), "144"),
        (Fraction(343, 4), "85.75"),
        (Fraction(702, 5), "140.4"),
        (Fraction(497, 4), "124.25"),
        (Fraction(66), "66"),
        (Fraction(1, 4), "0.25"),
        (Fraction(1, 10), "0.1"),
        (Fraction(3, 1000), "0.003"),
        (Fraction(0), "0"),
        (Fraction(-7, 2), "-3.5"),
        # non-terminating expansions round to 4 places, trailing zeros trimmed to 2
        (Fraction(1, 3), "0.3333"),
        (Fraction(2, 3), "0.6667"),
        (Fraction(1, 7), "0.1429"),
        (Fraction(4, 233), "0.0172"),
        (Fraction(1, 30), "0.0333"),
        (Fraction(3, 10000), "0.0003"),
        (Fraction(9, 30), "0.3"),
        (Fraction(31, 103), "0.301"),
        # the trim stops at 2 places, also for a value that rounds to a whole number
        (Fraction(49999, 99999), "0.50"),
        (Fraction(1999999, 1000001), "2.00"),
        (Fraction(-1, 300000), "-0.00"),
    ],
)
def test_format_decimal(value, rendered):
    assert format_decimal(value) == rendered


def decimal_reference(value: Fraction) -> str:
    """format_decimal's rule restated with decimal.Decimal: exact division
    when the expansion terminates, else 4 places trimmed down to 2."""
    with decimal.localcontext() as ctx:
        # Far more digits than any terminating case below needs, so Inexact
        # is raised only by a non-terminating expansion.
        ctx.prec = 200
        ctx.traps[decimal.Inexact] = True
        try:
            return format(Decimal(value.numerator) / value.denominator, "f")
        except decimal.Inexact:
            ctx.traps[decimal.Inexact] = False
        rounded = (Decimal(value.numerator) / value.denominator).quantize(Decimal("0.0001"))
        rounded = rounded.normalize()
        if rounded.as_tuple().exponent > -2:
            rounded = rounded.quantize(Decimal("0.01"))
        return format(rounded, "f")


denominators = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)),
)


@settings(max_examples=500)
@given(st.integers(-10**12, 10**12), denominators)
def test_format_decimal_matches_a_decimal_reference(numerator, denominator):
    value = Fraction(numerator, denominator)
    assert format_decimal(value) == decimal_reference(value)
