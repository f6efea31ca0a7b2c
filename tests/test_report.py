import csv
import io
import json

import pytest
from hypothesis import given, strategies as st

from goldens import COMPUTED_TABLES
from smdrr.engine import simulate
from smdrr.metrics import Convention, compute_metrics
from smdrr.policies import PolicyConfig, parse_policy
from smdrr.report import (
    MAX_ASCII_WIDTH,
    SVG_UNITS_PER_MS,
    comparison_report,
    comparison_rows,
    render_gantt_ascii,
    render_gantt_svg,
)
from smdrr.workload import ProcessSpec, Workload, paper_case

RR20 = PolicyConfig("rr", 20)
SMDRR = PolicyConfig("smdrr")


def paper_reports(case_id, *configs):
    w = paper_case(case_id)
    return [compute_metrics(simulate(w, config), Convention.PAPER_ZERO) for config in configs]


def tick_values(chart):
    return [int(v) for v in chart.splitlines()[1].split()]


def test_ascii_gantt_case1_smdrr_ticks():
    chart = render_gantt_ascii(simulate(paper_case(1), SMDRR))
    assert tick_values(chart) == [0, 20, 60, 101, 142, 184, 230, 233]


def test_ascii_gantt_single_process():
    chart = render_gantt_ascii(simulate(Workload("solo", (ProcessSpec("P1", 0, 5),)), SMDRR))
    lane, ticks, legend = chart.splitlines()
    assert lane.count("|") == 2
    assert "P1" in lane
    assert tick_values(chart) == [0, 5]
    assert legend.startswith("legend:")


def test_ascii_gantt_idle_box():
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    chart = render_gantt_ascii(simulate(w, SMDRR))
    assert "--" in chart.splitlines()[0]
    assert tick_values(chart) == [0, 2, 10, 13]


def test_ascii_gantt_ends_with_legend():
    chart = render_gantt_ascii(simulate(paper_case(2), RR20))
    assert chart.splitlines()[-1].startswith("legend:")


@pytest.mark.parametrize("burst,scale", [
    (4 * MAX_ASCII_WIDTH, 4),
    (4 * MAX_ASCII_WIDTH + 1, 5),
    (4 * 10**9, 4 * 10**6),  # 10**9 characters at 4 ms each
])
def test_ascii_scale_coarsens_past_the_width_cap(burst, scale):
    chart = render_gantt_ascii(simulate(Workload("w", (ProcessSpec("P1", 0, burst),)), SMDRR))
    lane, ticks, legend = chart.splitlines()
    assert len(lane) == 2 + -(-burst // scale) <= MAX_ASCII_WIDTH + 2
    assert ticks.split() == ["0", str(burst)]
    assert f"scale 1 char : {scale} ms," in legend


@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 120), st.integers(0, 12)),
                min_size=1, max_size=8),
       st.sampled_from(["smdrr", "rr:3", "fcfs", "sjf"]))
def test_ascii_ticks_start_under_the_bar_that_opens_their_box(rows, spelling):
    # long pids and arrivals widen boxes past their proportional width
    w = Workload("w", tuple(ProcessSpec(f"P{i}" + "x" * pad, arrival, burst)
                            for i, (arrival, burst, pad) in enumerate(rows)))
    trace = simulate(w, parse_policy(spelling))
    lane, ticks, _ = render_gantt_ascii(trace).splitlines()
    bars = [column for column, char in enumerate(lane) if char == "|"]
    values = [str(s.start) for s in trace.segments] + [str(trace.makespan)]
    assert len(bars) == len(values)
    for column, value in zip(bars, values):
        assert ticks[column:column + len(value)] == value
    assert ticks.split() == values


def test_svg_one_rect_per_segment():
    trace = simulate(paper_case(1), SMDRR)
    svg = render_gantt_svg(trace)
    assert svg.count("<rect") == 7
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_svg_single_segment():
    svg = render_gantt_svg(simulate(Workload("solo", (ProcessSpec("P1", 0, 5),)), SMDRR))
    assert svg.count("<rect") == 1


def test_svg_deterministic():
    w = paper_case(4)
    assert render_gantt_svg(simulate(w, SMDRR)) == render_gantt_svg(simulate(w, SMDRR))


def test_svg_idle_fill_is_distinct():
    w = Workload("gap", (ProcessSpec("P1", 0, 2), ProcessSpec("P2", 10, 3)))
    svg = render_gantt_svg(simulate(w, SMDRR))
    fills = [line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines() if "<rect" in line]
    assert len(fills) == 3
    assert fills[1] not in (fills[0], fills[2])


def test_svg_widths_sum_to_scaled_makespan():
    trace = simulate(paper_case(3), RR20)
    svg = render_gantt_svg(trace)
    widths = [int(line.split('width="')[1].split('"')[0])
              for line in svg.splitlines() if "<rect" in line]
    assert sum(widths) == trace.makespan * SVG_UNITS_PER_MS


def test_comparison_rows_case1():
    out = comparison_report(paper_reports(1, RR20, SMDRR), "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algorithm", "tq", "tat", "wt", "cs"]
    assert rows[1] == ["RR", "20", "144", "85.75", "12"]
    assert rows[2] == ["SMDRR", "41,46,3", "124.25", "66", "6"]


def test_comparison_csv_quotes_quantum_sequences():
    out = comparison_report(paper_reports(4, RR20, SMDRR), "csv")
    assert 'SMDRR,"18,35,25,43",108.6,65.4,7' in out


def test_comparison_json():
    doc = json.loads(comparison_report(paper_reports(4, RR20, SMDRR), "json"))
    assert doc == [
        {"algorithm": "RR", "tq": "20", "tat": "125.6", "wt": "82.4", "cs": 11},
        {"algorithm": "SMDRR", "tq": "18,35,25,43", "tat": "108.6", "wt": "65.4", "cs": 7},
    ]


def test_comparison_text_alignment():
    out = comparison_report(paper_reports(1, RR20, SMDRR), "text")
    lines = out.splitlines()
    assert lines[0].split() == ["Algorithm", "TQ", "TAT", "WT", "CS"]
    assert lines[1].split() == ["RR", "20", "144", "85.75", "12"]
    assert lines[0].index("TQ") == lines[1].index("20")


def test_comparison_single_row_and_nonquantum_policy():
    out = comparison_report(paper_reports(1, PolicyConfig("fcfs")), "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[1][0] == "FCFS"
    assert rows[1][1] == "-"


@pytest.mark.parametrize("spelling", ["smdrr", "rr:1", "rr:7", "fcfs", "sjf"])
def test_comparison_row_takes_label_and_quanta_from_the_report(spelling):
    (report,) = paper_reports(3, parse_policy(spelling))
    (row,) = comparison_rows([report])
    assert row[0] == parse_policy(spelling).label
    quanta = report.trace.quanta
    assert row[1] == (",".join(map(str, quanta)) if quanta else "-")


def test_comparison_rejects_mixed_workloads():
    reports = paper_reports(1, RR20) + paper_reports(2, SMDRR)
    with pytest.raises(ValueError, match="mixed workloads"):
        comparison_report(reports, "csv")


def test_comparison_unknown_format():
    with pytest.raises(ValueError, match="format"):
        comparison_report(paper_reports(1, RR20), "html")


def test_goldens_agree_with_comparison_rows():
    for case_id in (1, 2, 3, 4):
        out = comparison_report(paper_reports(case_id, RR20, SMDRR), "csv")
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            algorithm, tq, tat, wt, cs = row
            assert COMPUTED_TABLES[(case_id, algorithm)] == (tq, tat, wt, int(cs))
