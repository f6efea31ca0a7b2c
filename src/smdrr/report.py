"""Trace and metrics rendering: Gantt charts and comparison tables.

Renderers copy values verbatim from traces and metric reports; no
arithmetic happens here beyond layout.  All output is deterministic so
it can be golden-file tested.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .engine import Trace
from .metrics import MetricsReport, format_decimal
from .policies import parse_policy

# ASCII scale: one character per 4 ms, coarsened so that the makespan spans
# at most MAX_ASCII_WIDTH characters, and widened when a pid or tick label
# needs the room.  SVG scale: 4 horizontal units per ms, 40-unit lane.
ASCII_MS_PER_CHAR = 4
MAX_ASCII_WIDTH = 1000
SVG_UNITS_PER_MS = 4
SVG_LANE_HEIGHT = 40
SVG_MARGIN = 10

_IDLE_LABEL = "--"
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#edc948", "#76b7b2", "#ff9da7",
)
_IDLE_FILL = "#cccccc"


def render_gantt_ascii(trace: Trace) -> str:
    """One lane of labeled boxes, a tick line and a legend line.  Each box
    is at least as wide as its start tick, which sits under its opening bar."""
    scale = max(ASCII_MS_PER_CHAR, -(-trace.makespan // MAX_ASCII_WIDTH))
    boxes, ticks = [], []
    for occupant, start, end in trace.intervals():
        label = _IDLE_LABEL if occupant is None else occupant
        tick = str(start)
        width = max(-(-(end - start) // scale), len(label), len(tick))
        boxes.append(label.center(width))
        ticks.append(tick.ljust(width + 1))
    ticks.append(str(trace.makespan))
    legend = (
        f"legend: boxes are dispatches ({_IDLE_LABEL} = idle), ticks are ms; "
        f"scale 1 char : {scale} ms, widened to fit labels"
    )
    return "\n".join(("|" + "|".join(boxes) + "|", "".join(ticks), legend))


def render_gantt_svg(trace: Trace) -> str:
    """SVG chart: one rect per segment, x and width proportional to time."""
    fills: dict[str, str] = {}  # palette colours in order of first dispatch
    width = 2 * SVG_MARGIN + SVG_UNITS_PER_MS * trace.makespan
    height = 2 * SVG_MARGIN + SVG_LANE_HEIGHT + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    # The constant middle of each element is built once, outside the loops.
    margin, scale = SVG_MARGIN, SVG_UNITS_PER_MS
    rect_y = f'" y="{SVG_MARGIN}" width="'
    rect_fill = f'" height="{SVG_LANE_HEIGHT}" fill="'
    label_y = f'" y="{SVG_MARGIN + SVG_LANE_HEIGHT // 2 + 4}" font-size="12" text-anchor="middle">'
    for label, start, end in trace.intervals():
        if label is None:
            fill, label = _IDLE_FILL, _IDLE_LABEL
        else:
            fill = fills.setdefault(label, _PALETTE[len(fills) % len(_PALETTE)])
        # midpoint in svg units is 2*(start+end), always an integer
        parts.append(
            f'<rect x="{margin + scale * start}{rect_y}{scale * (end - start)}'
            f'{rect_fill}{fill}" stroke="#333"/>\n'
            f'<text x="{margin + 2 * (start + end)}{label_y}{label}</text>'
        )
    tick_y = f'" y="{SVG_MARGIN + SVG_LANE_HEIGHT + 12}" font-size="10" text-anchor="middle">'
    parts += [f'<text x="{margin + scale * value}{tick_y}{value}</text>'
              for value in (trace.start, *trace.ends)]
    parts.append("</svg>\n")
    return "\n".join(parts)


def _table_lines(table: Sequence[Sequence[str]]) -> list[str]:
    """Rows of cells as left-aligned columns two spaces apart, right-stripped."""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table]


# The comparison table's columns; comparison_rows gives one tuple of cells per run.
COLUMNS = ("algorithm", "tq", "tat", "wt", "cs")


def comparison_rows(reports: Sequence[MetricsReport]) -> list[tuple[str, str, str, str, int]]:
    """One (label, tq, tat, wt, cs) row per run; all runs must cover the
    same workload."""
    names = {report.trace.workload_name for report in reports}
    if len(names) > 1:
        raise ValueError(f"mixed workloads in comparison: {sorted(names)}")
    return [
        (parse_policy(r.trace.policy).label,
         ",".join(map(str, r.trace.quanta)) if r.trace.quanta else "-",
         format_decimal(r.att), format_decimal(r.awt), r.cs)
        for r in reports
    ]


def comparison_report(reports: Sequence[MetricsReport], format: str = "text") -> str:
    """Render the per-run comparison table as text, csv or json."""
    rows = comparison_rows(reports)
    if format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([COLUMNS, *rows])
        return out.getvalue()
    if format == "json":
        return json.dumps([dict(zip(COLUMNS, row)) for row in rows], indent=2) + "\n"
    if format == "text":
        table = [("Algorithm", "TQ", "TAT", "WT", "CS")]
        table += [tuple(map(str, row)) for row in rows]
        return "\n".join(_table_lines(table)) + "\n"
    raise ValueError(f"unknown report format: {format!r}")
