"""Trace and metrics rendering: Gantt charts and comparison tables.

Renderers copy values verbatim from traces and metric reports; no
arithmetic happens here beyond layout.  All output is deterministic so
it can be golden-file tested.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .engine import Trace
from .metrics import MetricsReport, format_decimal
from .policies import PolicyConfig

# ASCII scale: one character per 4 ms, widened when a pid or tick label
# needs the room.  SVG scale: 4 horizontal units per ms, 40-unit lane.
ASCII_MS_PER_CHAR = 4
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
    """One lane of labeled boxes with end-time ticks and a legend line."""
    labels = [_IDLE_LABEL if s.is_idle else s.occupant for s in trace.segments]
    boundaries = [trace.segments[0].start] + [s.end for s in trace.segments]
    widths = []
    for segment, label, left in zip(trace.segments, labels, boundaries):
        proportional = math.ceil(segment.length / ASCII_MS_PER_CHAR)
        widths.append(max(proportional, len(label), len(str(left))))
    lane = "|" + "|".join(label.center(w) for label, w in zip(labels, widths)) + "|"
    positions = [0]
    for w in widths:
        positions.append(positions[-1] + w + 1)
    ticks = [" "] * (positions[-1] + len(str(boundaries[-1])) + 1)
    for pos, value in zip(positions, boundaries):
        text = str(value)
        ticks[pos:pos + len(text)] = text
    legend = (
        f"legend: boxes are dispatches ({_IDLE_LABEL} = idle), ticks are ms; "
        f"scale 1 char : {ASCII_MS_PER_CHAR} ms, widened to fit labels"
    )
    return "\n".join((lane, "".join(ticks).rstrip(), legend))


def render_gantt_svg(trace: Trace) -> str:
    """SVG chart: one rect per segment, x and width proportional to time."""
    fills: dict[str, str] = {}
    for s in trace.segments:
        if not s.is_idle and s.occupant not in fills:
            fills[s.occupant] = _PALETTE[len(fills) % len(_PALETTE)]
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
    for s in trace.segments:
        if s.occupant is None:
            fill, label = _IDLE_FILL, _IDLE_LABEL
        else:
            fill, label = fills[s.occupant], s.occupant
        # midpoint in svg units is 2*(start+end), always an integer
        parts.append(
            f'<rect x="{margin + scale * s.start}{rect_y}{scale * (s.end - s.start)}'
            f'{rect_fill}{fill}" stroke="#333"/>\n'
            f'<text x="{margin + 2 * (s.start + s.end)}{label_y}{label}</text>'
        )
    tick_y = f'" y="{SVG_MARGIN + SVG_LANE_HEIGHT + 12}" font-size="10" text-anchor="middle">'
    boundaries = [trace.segments[0].start] + [s.end for s in trace.segments]
    parts += [f'<text x="{margin + scale * value}{tick_y}{value}</text>' for value in boundaries]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _table_lines(table: Sequence[Sequence[str]]) -> list[str]:
    """Rows of cells as left-aligned columns two spaces apart, right-stripped."""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in table]


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    tq: str
    tat: str
    wt: str
    cs: int


def build_comparison_rows(
    runs: Sequence[tuple[PolicyConfig, Trace, MetricsReport]],
) -> list[ComparisonRow]:
    """One row per policy; all traces must cover the same workload."""
    if not runs:
        return []
    names = {trace.workload_name for _, trace, _ in runs}
    if len(names) > 1:
        raise ValueError(f"mixed workloads in comparison: {sorted(names)}")
    rows = []
    for config, trace, report in runs:
        tq = ",".join(str(q) for q in trace.quanta) if trace.quanta else "-"
        rows.append(
            ComparisonRow(
                algorithm=config.label,
                tq=tq,
                tat=format_decimal(report.att),
                wt=format_decimal(report.awt),
                cs=report.cs,
            )
        )
    return rows


def comparison_report(
    runs: Sequence[tuple[PolicyConfig, Trace, MetricsReport]],
    format: str = "text",
) -> str:
    """Render the per-policy comparison table as text, csv or json."""
    rows = build_comparison_rows(runs)
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["algorithm", "tq", "tat", "wt", "cs"])
        for r in rows:
            writer.writerow([r.algorithm, r.tq, r.tat, r.wt, r.cs])
        return out.getvalue()
    if format == "json":
        doc = [
            {"algorithm": r.algorithm, "tq": r.tq, "tat": r.tat, "wt": r.wt, "cs": r.cs}
            for r in rows
        ]
        return json.dumps(doc, indent=2) + "\n"
    if format == "text":
        header = ("Algorithm", "TQ", "TAT", "WT", "CS")
        table = [header] + [(r.algorithm, r.tq, r.tat, r.wt, str(r.cs)) for r in rows]
        return "\n".join(_table_lines(table)) + "\n"
    raise ValueError(f"unknown report format: {format!r}")
