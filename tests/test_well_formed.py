"""Every output format is well-formed and parses back.

SVG parses as XML with one <rect> per segment, the ASCII lane splits on
"|" into the segment labels, and every command in the digest table
re-parses in its own format: JSON with json.loads, CSV with csv.reader,
generated workloads with parse_workload.
"""

import contextlib
import csv
import io
import json
import string
import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st

from smdrr.cli import _generator_spec, build_parser, main
from smdrr.engine import simulate
from smdrr.policies import parse_policy
from smdrr.report import render_gantt_ascii, render_gantt_svg
from smdrr.workload import ProcessSpec, Workload, generate_workload, parse_workload
from test_output_digests import FILE_CSV, commands

SVG = "{http://www.w3.org/2000/svg}"
POLICIES = ("smdrr", "rr:3", "fcfs", "sjf")
pids = st.text(string.ascii_letters + string.digits + "_.:-", min_size=1,
               max_size=5).filter(lambda pid: pid.strip("_.:-"))


@st.composite
def workloads(draw):
    """Accepted workloads; arrivals up to 80 ms apart leave idle gaps."""
    names = draw(st.lists(pids, min_size=1, max_size=6, unique=True))
    return Workload("w", tuple(
        ProcessSpec(pid, draw(st.integers(0, 80)), draw(st.integers(1, 25))) for pid in names
    ))


def labels(trace):
    return ["--" if s.occupant is None else s.occupant for s in trace.segments]


@given(workloads(), st.sampled_from(POLICIES))
@settings(max_examples=60, deadline=None)
def test_gantt_charts_parse_back_into_their_segments(workload, policy):
    trace = simulate(workload, parse_policy(policy))
    root = ET.fromstring(render_gantt_svg(trace))
    assert len(root.findall(f"{SVG}rect")) == len(trace.segments)
    lane = render_gantt_ascii(trace).splitlines()[0]
    assert [cell.strip() for cell in lane.split("|")[1:-1]] == labels(trace)


def assert_csv_table(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) > 1
    assert len({len(row) for row in rows}) == 1, text


def assert_reparses(command, argv, out):
    if command.startswith("generate"):
        parser = build_parser()
        args = parser.parse_args(argv)
        again = parse_workload(out, args.format, name=f"generated-seed{args.seed}")
        assert again == generate_workload(_generator_spec(args, parser))
    elif command == "paper-cases":
        blocks = out.split("\n\n")
        assert len(blocks) == 5
        for block in blocks[:-1]:
            heading, table = block.split("\n", 1)
            assert heading.startswith("[case-")
            assert_csv_table(table)
    elif "--format csv" in command:
        assert_csv_table(out)
    elif "--format json" in command:
        docs = json.loads(out)
        if "--gantt svg" in command:
            for doc in docs:
                ET.fromstring(doc["gantt"])
    elif "--gantt svg" in command:
        charts = out.split("<svg")[1:]
        assert charts
        for chart in charts:
            ET.fromstring("<svg" + chart[:chart.index("</svg>") + len("</svg>")])


def test_every_digest_table_output_parses_back(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(FILE_CSV)
    for command in commands():
        argv = [str(path) if word == "FILE" else word for word in command.split()]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert_reparses(command, argv, buf.getvalue())
