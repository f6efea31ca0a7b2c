"""Every CLI output path, locked byte for byte by a committed digest table.

Each entry of ``output_digests.json`` maps one command line to the
SHA-256 of its stdout.  A change that moves an entry changes output: it
must say which entries moved and why.  To print the table for the
current code:

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json

``FILE`` in a command stands for a CSV workload file named ``mixed.csv``
holding ``FILE_CSV``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from smdrr.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")

# Arrivals leave the CPU idle at 19..40 and 76..90.
FILE_CSV = "pid,arrival,burst\nA,0,7\nB,3,12\nC,40,5\nD,41,30\nE,90,2\nF,90,9\n"

SOURCES = (
    "--case 1",
    "--case 2",
    "--case 3",
    "--case 4",
    "--n 15 --burst 1..40 --arrival 0..600 --seed 11",  # spread arrivals, idle gaps
    "--workload FILE",
)
POLICIES = ("smdrr", "rr:3", "rr:20", "fcfs", "sjf")
ALL_POLICIES = " ".join(f"--policy {p}" for p in POLICIES)
RUN_FORMATS = (
    "--format text",
    "--format text --gantt ascii",
    "--format text --gantt svg",
    "--format csv",
    "--format json",
    "--format json --gantt ascii",
    "--format json --gantt svg",
)


def commands() -> list[str]:
    out = []
    for source in SOURCES:
        for convention in ("standard", "paper"):
            for fmt in RUN_FORMATS:
                out.append(f"run {source} {ALL_POLICIES} --convention {convention} {fmt}")
            for fmt in ("text", "csv", "json"):
                out.append(f"compare {source} {ALL_POLICIES} --convention {convention} "
                           f"--format {fmt}")
        for policy in POLICIES:
            out.append(f"run {source} --policy {policy} --format json --gantt svg")
            out.append(f"run {source} --policy {policy} --format text --gantt ascii")
    for spec in ("--n 15 --burst 1..40 --arrival 0..600 --seed 11",
                 "--n 6 --burst 1..9 --seed 3"):
        for fmt in ("csv", "json"):
            out.append(f"generate {spec} --format {fmt}")
    out.append("paper-cases")
    return out


def output_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of each command's stdout; FILE is written into workdir."""
    path = workdir / "mixed.csv"
    path.write_text(FILE_CSV)
    digests = {}
    for command in commands():
        argv = [str(path) if word == "FILE" else word for word in command.split()]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, command
        digests[command] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digests


def test_every_cli_output_matches_its_recorded_digest(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = output_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    moved = [command for command in expected if actual[command] != expected[command]]
    assert moved == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
