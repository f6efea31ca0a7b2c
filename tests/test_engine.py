import re
import tracemalloc

import pytest

import oracle
import smdrr.engine

from goldens import RR_SEGMENTS, SMDRR_QUANTA, SMDRR_SEGMENTS
from smdrr.engine import (
    ProcessOutcome,
    Segment,
    Trace,
    simulate,
)
from smdrr.errata import Erratum
from smdrr.metrics import ProcessMetrics, compute_metrics
from smdrr.policies import PolicyConfig, parse_policy
from smdrr.workload import (
    MAX_SEGMENTS,
    MAX_TIME,
    GeneratorSpec,
    ProcessSpec,
    Workload,
    WorkloadError,
    generate_workload,
    paper_case,
)

RR20 = PolicyConfig("rr", 20)
SMDRR = PolicyConfig("smdrr")


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_rr_traces_match_goldens(case_id):
    trace = simulate(paper_case(case_id), RR20)
    assert list(trace.segments) == RR_SEGMENTS[case_id]
    assert trace.quanta == (20,)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_smdrr_traces_match_goldens(case_id):
    trace = simulate(paper_case(case_id), SMDRR)
    assert list(trace.segments) == SMDRR_SEGMENTS[case_id]
    assert list(trace.quanta) == SMDRR_QUANTA[case_id]


def test_case4_smdrr_completions():
    trace = simulate(paper_case(4), SMDRR)
    completions = {p.pid: p.completion for p in trace.processes}
    assert completions == {"P1": 18, "P2": 38, "P3": 123, "P4": 148, "P5": 216}


def test_case3_smdrr_opens_with_singleton_cycle():
    # P1 is alone at t=0, so the first cycle covers just it (quantum 10)
    trace = simulate(paper_case(3), SMDRR)
    assert trace.quanta[0] == 10
    assert trace.segments[0] == ("P1", 0, 10)


@pytest.mark.parametrize("policy", [SMDRR, PolicyConfig("rr", 5), PolicyConfig("fcfs"), PolicyConfig("sjf")])
def test_single_process_is_one_segment(policy):
    w = Workload("solo", (ProcessSpec("P1", 0, 5),))
    trace = simulate(w, policy)
    assert list(trace.segments) == [("P1", 0, 5)]
    assert trace.processes[0].first_start == 0
    assert trace.processes[0].completion == 5


def test_single_process_rr_requeues_itself():
    w = Workload("solo", (ProcessSpec("P1", 0, 50),))
    trace = simulate(w, PolicyConfig("rr", 20))
    assert list(trace.segments) == [("P1", 0, 20), ("P1", 20, 40), ("P1", 40, 50)]


@pytest.mark.parametrize("policy", [SMDRR, RR20, PolicyConfig("fcfs"), PolicyConfig("sjf")])
def test_idle_gap_is_recorded(policy):
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    trace = simulate(w, policy)
    assert list(trace.segments) == [("P1", 0, 2), (None, 2, 10), ("P2", 10, 13)]
    assert sum(s.end - s.start for s in trace.segments if s.occupant is None) == 8


def test_trace_starts_at_first_arrival():
    w = Workload("late", (ProcessSpec("P1", 5, 2),))
    trace = simulate(w, SMDRR)
    assert list(trace.segments) == [("P1", 5, 7)]
    assert trace.makespan == 7


def test_sjf_differs_from_fcfs_on_late_short_job():
    w = Workload("mix", (ProcessSpec("P1", 0, 10), ProcessSpec("P2", 1, 2),
                         ProcessSpec("P3", 2, 1)))
    fcfs = simulate(w, PolicyConfig("fcfs"))
    sjf = simulate(w, PolicyConfig("sjf"))
    assert list(fcfs.segments) == [("P1", 0, 10), ("P2", 10, 12), ("P3", 12, 13)]
    assert list(sjf.segments) == [("P1", 0, 10), ("P3", 10, 11), ("P2", 11, 13)]


def test_smdrr_mid_cycle_arrival_waits_for_next_cycle():
    # P2 arrives during P1's slice but is only planned at the next round
    w = Workload("midcycle", (ProcessSpec("P1", 0, 10), ProcessSpec("P2", 1, 1)))
    trace = simulate(w, SMDRR)
    assert list(trace.segments) == [("P1", 0, 10), ("P2", 10, 11)]
    assert trace.quanta == (10, 1)


def test_rr_arrivals_enqueue_ahead_of_preempted():
    # at t=2: P2 (arrived t=1) must run before P1 is re-dispatched
    w = Workload("order", (ProcessSpec("P1", 0, 4), ProcessSpec("P2", 1, 2)))
    trace = simulate(w, PolicyConfig("rr", 2))
    assert list(trace.segments) == [("P1", 0, 2), ("P2", 2, 4), ("P1", 4, 6)]


def test_rr_completion_at_quantum_boundary_not_requeued():
    w = Workload("exact", (ProcessSpec("P1", 0, 4), ProcessSpec("P2", 0, 3)))
    trace = simulate(w, PolicyConfig("rr", 4))
    assert list(trace.segments) == [("P1", 0, 4), ("P2", 4, 7)]


def test_quantum_sequence_unsupported_for_nonquantum_policies():
    assert simulate(paper_case(1), PolicyConfig("fcfs")).quanta is None
    assert simulate(paper_case(1), PolicyConfig("sjf")).quanta is None


def test_simulate_is_deterministic():
    w = paper_case(4)
    assert simulate(w, SMDRR) == simulate(w, SMDRR)


def test_trace_json_schema():
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    doc = simulate(w, SMDRR).to_dict()
    assert set(doc) == {"workload", "policy", "segments", "processes", "quanta"}
    assert doc["workload"] == "gap"
    assert doc["policy"] == "smdrr"
    assert doc["segments"][0] == {"pid": "P1", "start": 0, "end": 2}
    assert doc["segments"][1] == {"idle": True, "start": 2, "end": 10}
    assert doc["processes"][0] == {
        "pid": "P1", "arrival": 0, "burst": 2, "first_start": 0, "completion": 2,
    }


def test_trace_json_omits_quanta_without_a_quantum_policy():
    doc = simulate(paper_case(1), PolicyConfig("fcfs")).to_dict()
    assert "quanta" not in doc
    assert doc["policy"] == "fcfs"


def test_outcomes_preserve_submission_order():
    trace = simulate(paper_case(3), PolicyConfig("sjf"))
    assert [p.pid for p in trace.processes] == ["P1", "P2", "P3", "P4"]


# Equal keys that differ only in arrival ("arrival": C arrives first, B is
# submitted first) or only in submission index ("submission"), against
# pid order, so a tie broken on the submission index or on the pid runs B
# first.  In "requeued", SMDRR's cycle 1 preempts Y behind B, which arrived
# during it, and cycle 2 ties them at 4 ms: a sort that keeps the ready
# list's order on a tie runs B first, though Y arrived first.
TIE_WORKLOADS = {
    "arrival": (("Z", 0, 6), ("B", 2, 4), ("C", 1, 4)),
    "submission": (("Z", 0, 6), ("C", 1, 4), ("B", 1, 4)),
    "requeued": (("Y", 0, 9), ("X", 0, 3), ("B", 1, 4)),
}
C_THEN_B = {
    "smdrr": [("Z", 0, 6), ("C", 6, 10), ("B", 10, 14)],
    "rr:3": [("Z", 0, 3), ("C", 3, 6), ("B", 6, 9), ("Z", 9, 12), ("C", 12, 13), ("B", 13, 14)],
    "sjf": [("Z", 0, 6), ("C", 6, 10), ("B", 10, 14)],
}
TIE_SEGMENTS = {
    "arrival": C_THEN_B,
    "submission": C_THEN_B,
    "requeued": {
        "smdrr": [("X", 0, 3), ("Y", 3, 8), ("Y", 8, 12), ("B", 12, 16)],
        "rr:3": [("Y", 0, 3), ("X", 3, 6), ("B", 6, 9), ("Y", 9, 12), ("B", 12, 13),
                 ("Y", 13, 16)],
        "sjf": [("X", 0, 3), ("B", 3, 7), ("Y", 7, 16)],
    },
}
FOLLOWERS = {
    "smdrr": lambda procs: oracle.smdrr_trace(procs)[0],
    "rr:3": lambda procs: oracle.rr_trace(procs, 3),
    "sjf": oracle.sjf_trace,
}


def test_ties_break_by_arrival_then_submission_index():
    for name, procs in TIE_WORKLOADS.items():
        w = Workload(name, [ProcessSpec(*p) for p in procs])
        for spelling, segments in TIE_SEGMENTS[name].items():
            trace = simulate(w, parse_policy(spelling))
            assert list(trace.segments) == segments, (name, spelling)
            assert FOLLOWERS[spelling](list(procs)) == segments, (name, spelling)
            ends = {pid: end for pid, _, end in segments}  # each pid's last end
            assert [(p.pid, p.completion) for p in trace.processes] == [
                (pid, ends[pid]) for pid, _, _ in procs], (name, spelling)


CASE1_SMDRR = simulate(paper_case(1), SMDRR)


@pytest.mark.parametrize("record", [
    Segment("P1", 3, 9),
    ProcessOutcome("P1", 0, 5, 2, 9),
    ProcessMetrics("P1", 9, 4, 2),
    ProcessSpec("P1", 0, 5),
    Workload("w", (ProcessSpec("P1", 0, 5), ProcessSpec("P2", 1, 3))),
    GeneratorSpec(5, 1, 9),
    PolicyConfig("rr", 20),
    CASE1_SMDRR,
    compute_metrics(CASE1_SMDRR),
    Erratum(1, "SMDRR", "tat", "124.5", "124.25"),
])
def test_records_are_immutable_values(record):
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    assert record == tuple(record)
    last = record[-1]  # a tuple or text loses its end, a number grows by one
    changed = last[:-1] if isinstance(last, (tuple, str)) else last + 1
    assert type(record)(*record[:-1], changed) != record
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


@pytest.mark.parametrize("record, field, bad", [
    (ProcessSpec("P1", 0, 5), "burst", 0),
    (ProcessSpec("P1", 0, 5), "pid", "a,b"),
    (ProcessSpec("P1", 0, 5), "arrival", MAX_TIME + 1),
    (Workload("w", (ProcessSpec("P1", 0, 5),)), "processes", ()),
    (Workload("w", (ProcessSpec("P1", 0, 5),)), "processes", (ProcessSpec("P1", 0, 5),) * 2),
    (GeneratorSpec(5, 1, 9), "burst_max", 0),
    (GeneratorSpec(5, 1, 9), "seed", 1.0),
    (PolicyConfig("rr", 20), "quantum", 0),
    (PolicyConfig("smdrr"), "kind", "lottery"),
])
def test_replace_and_make_check_like_the_constructor(record, field, bad):
    values = record._asdict() | {field: bad}
    with pytest.raises(ValueError) as built:
        type(record)(**values)
    expected = f"^{re.escape(str(built.value))}$"
    with pytest.raises(type(built.value), match=expected):
        record._replace(**{field: bad})
    with pytest.raises(type(built.value), match=expected):
        type(record)._make(values.values())


def test_rr_policy_spelling_recorded_on_trace():
    trace = simulate(paper_case(1), RR20)
    assert trace.policy == "rr:20"
    assert isinstance(trace, Trace)


def test_rr_refuses_more_segments_than_the_cap_before_simulating():
    w = Workload("huge", (ProcessSpec("P1", 0, 10**9),))
    with pytest.raises(WorkloadError, match=f"^rr:1 would dispatch 1000000000 segments, "
                                            f"more than the cap of {MAX_SEGMENTS}$"):
        simulate(w, PolicyConfig("rr", 1))
    # the cap counts RR's slices, not the burst: one FCFS segment runs
    assert list(simulate(w, PolicyConfig("fcfs")).segments) == [("P1", 0, 10**9)]


def test_rr_segment_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 4)
    # ceil(5/2) + ceil(2/2) = 4 process segments, plus an idle gap the cap ignores
    w = Workload("w", (ProcessSpec("P1", 0, 5), ProcessSpec("P2", 9, 2)))
    assert len(simulate(w, PolicyConfig("rr", 2)).segments) == 5
    wider = Workload("w", (ProcessSpec("P1", 0, 5), ProcessSpec("P2", 9, 3)))
    with pytest.raises(WorkloadError, match="would dispatch 5 segments, more than the cap of 4"):
        simulate(wider, PolicyConfig("rr", 2))


def test_smdrr_segment_cap_is_inclusive(monkeypatch):
    # case 1 under SMDRR is 7 process segments over cycles of 4, 2 and 1
    assert len(simulate(paper_case(1), SMDRR).segments) == 7
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 7)
    assert len(simulate(paper_case(1), SMDRR).segments) == 7
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 6)
    with pytest.raises(WorkloadError, match="^smdrr would dispatch more than 6 segments$"):
        simulate(paper_case(1), SMDRR)


def test_smdrr_segment_cap_counts_idle_segments(monkeypatch):
    # P1 runs, the CPU idles, P2 runs: three segments in two cycles
    w = Workload("w", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 9, 3)))
    assert list(simulate(w, SMDRR).segments) == [("P1", 0, 2), (None, 2, 9), ("P2", 9, 12)]
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 2)
    with pytest.raises(WorkloadError, match="^smdrr would dispatch more than 2 segments$"):
        simulate(w, SMDRR)


def test_smdrr_wide_bursts_stop_at_the_cap(monkeypatch):
    # 50 bursts over 1..10**6 take 253 segments, well past a cap of 100
    w = generate_workload(GeneratorSpec(50, 1, 10**6, seed=1))
    assert len(simulate(w, SMDRR).segments) == 253
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 100)
    with pytest.raises(WorkloadError, match="^smdrr would dispatch more than 100 segments$"):
        simulate(w, SMDRR)


def test_segments_read_the_columns():
    trace = simulate(Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3))),
                     SMDRR)
    assert (trace.start, trace.occupants, trace.ends) == (0, ("P1", None, "P2"), (2, 10, 13))
    segments = trace.segments
    assert len(segments) == 3
    assert segments[0] == Segment("P1", 0, 2) and type(segments[0]) is Segment
    assert segments[1] == Segment(None, 2, 10) and segments[-2] == segments[1]
    assert segments[-1] == Segment("P2", 10, 13) and segments[-3] == segments[0]
    for index in (3, -4):
        with pytest.raises(IndexError):
            segments[index]
    assert list(segments) == oracle.smdrr_trace([("P1", 0, 2), ("P2", 10, 3)])[0]
    assert list(reversed(segments)) == list(segments)[::-1]
    assert segments.index(Segment(None, 2, 10)) == 1 and Segment("P2", 10, 13) in segments


def test_segments_are_equal_when_their_columns_are():
    trace = simulate(paper_case(4), SMDRR)
    assert trace.segments == simulate(paper_case(4), SMDRR).segments
    assert trace.segments != simulate(paper_case(4), RR20).segments
    assert trace.segments == trace._replace(workload_name="other").segments
    assert trace.segments != trace._replace(start=trace.start + 1).segments
    assert trace.segments != list(trace.segments)  # a tuple never equals a list
    assert hash(trace) == hash(simulate(paper_case(4), SMDRR))
    assert not hasattr(trace, "__dict__") and not hasattr(trace.segments, "__dict__")


GAP = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))


@pytest.mark.parametrize("policy", [SMDRR, RR20, PolicyConfig("fcfs"), PolicyConfig("sjf")],
                         ids=["smdrr", "rr:20", "fcfs", "sjf"])
@pytest.mark.parametrize("workload", [*map(paper_case, (1, 2, 3, 4)), GAP],
                         ids=["case1", "case2", "case3", "case4", "gap"])
def test_on_read_records_are_tuples_of_the_plain_rows(workload, policy):
    trace = simulate(workload, policy)
    report = compute_metrics(trace)
    for records, record_type, rows in [(trace.segments, Segment, trace.intervals()),
                                       (trace.processes, ProcessOutcome, trace.outcomes()),
                                       (report.processes, ProcessMetrics, report.rows())]:
        assert type(records) is tuple
        assert {type(record) for record in records} == {record_type}
        assert records == tuple(record_type(*row) for row in rows)


def test_trace_retains_under_64_bytes_a_segment():
    # Two processes of 50 000 ms under rr:1 alternate for 10**5 segments.
    w = Workload("w", (ProcessSpec("P1", 0, 50_000), ProcessSpec("P2", 0, 50_000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simulate(w, PolicyConfig("rr", 1))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(trace.ends) <= 64


@pytest.mark.parametrize("selected", [slice(1, 3), slice(None, None, -1), slice(-2, None),
                                      slice(3, 3), slice(None, None, 2)],
                         ids=["1:3", "::-1", "-2:", "3:3", "::2"])
def test_segments_view_slices_into_a_tuple(selected):
    segments = simulate(paper_case(4), RR20).segments
    assert segments[selected] == tuple(list(segments))[selected]
    assert type(segments[selected]) is tuple
