"""The streamed JSON output equals json.dumps(indent=2) of the to_dict trees."""

import contextlib
import io
import json
import string
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from smdrr.cli import main
from smdrr.engine import simulate
from smdrr.metrics import Convention, compute_metrics
from smdrr.policies import parse_policy
from smdrr.report import render_gantt_ascii, render_gantt_svg
from smdrr.workload import _PID_RE, parse_workload

POLICIES = ("smdrr", "rr:3", "rr:20", "fcfs", "sjf")
_AWKWARD = ('"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "€",
            "\U0001f600", "\U00010348", "<", "&", ",", " ")

texts = st.one_of(
    st.text(min_size=1, max_size=6),
    st.lists(st.sampled_from(_AWKWARD), min_size=1, max_size=4).map("".join),
)
# Pids come from the workload pid grammar; names stay arbitrary text, so
# string quoting is still compared with json.dumps.
pids = st.text(string.ascii_letters + string.digits + "_.:-", min_size=1,
               max_size=6).filter(lambda pid: pid.strip("_.:-"))


@st.composite
def workload_docs(draw):
    """A JSON workload with an arbitrary name; spread arrivals leave idle gaps."""
    labels = draw(st.lists(pids, min_size=1, max_size=6, unique=True))
    return {
        "name": draw(st.one_of(st.just(""), texts)),
        "processes": [
            {"pid": pid, "arrival": draw(st.integers(0, 80)), "burst": draw(st.integers(1, 25))}
            for pid in labels
        ],
    }


def reference(doc: dict, policies: list[str], convention: str, gantt: str | None) -> str:
    workload = parse_workload(json.dumps(doc), "json")
    docs = []
    for spec in policies:
        config = parse_policy(spec)
        trace = simulate(workload, config)
        entry = {"policy": config.spelling(), "trace": trace.to_dict(),
                 "metrics": compute_metrics(trace, Convention(convention)).to_dict()}
        if gantt == "ascii":
            entry["gantt"] = render_gantt_ascii(trace)
        elif gantt == "svg":
            entry["gantt"] = render_gantt_svg(trace)
        docs.append(entry)
    return json.dumps(docs, indent=2) + "\n"


def test_no_pid_character_needs_json_escaping():
    """The run-JSON writer puts pids between quotes verbatim: every character
    the pid grammar admits below U+0300 is one json.dumps leaves as it is."""
    admitted = [chr(c) for c in range(0x300) if _PID_RE.fullmatch("A" + chr(c))]
    for c in admitted:
        assert json.dumps(c) == f'"{c}"', c
    assert len(admitted) == 66  # letters, digits and "_.:-"


@given(
    doc=workload_docs(),
    policies=st.lists(st.sampled_from(POLICIES), min_size=1, max_size=4, unique=True),
    convention=st.sampled_from(["standard", "paper"]),
    gantt=st.sampled_from([None, "ascii", "svg"]),
    to_file=st.booleans(),
)
@example(doc={"name": "", "processes": [{"pid": "-a", "arrival": 3, "burst": 5},
                                        {"pid": "_.:-9", "arrival": 0, "burst": 2},
                                        {"pid": "Z", "arrival": 20, "burst": 1}]},
         policies=["smdrr", "rr:3"], convention="standard", gantt=None, to_file=False)
@example(doc={"name": "a:b", "processes": [{"pid": "x.y-z_0", "arrival": 0, "burst": 4},
                                           {"pid": "..:A", "arrival": 1, "burst": 4}]},
         policies=["fcfs", "sjf"], convention="paper", gantt="svg", to_file=True)
@settings(max_examples=40, deadline=None)
def test_streamed_run_json_equals_indent_dump(doc, policies, convention, gantt, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_text(json.dumps(doc))
        argv = ["run", "--workload", str(path), "--convention", convention, "--format", "json"]
        for spec in policies:
            argv += ["--policy", spec]
        if gantt:
            argv += ["--gantt", gantt]
        out = Path(tmp) / "out.json"
        if to_file:
            argv += ["--out", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        text = out.read_text() if to_file else buf.getvalue()
    if to_file:
        assert buf.getvalue() == ""
    assert text == reference(doc, policies, convention, gantt)

