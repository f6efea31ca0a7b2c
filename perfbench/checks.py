"""Correctness checks on the benchmark's command outputs.

A checked output must satisfy the trace invariants (segments contiguous
from the first arrival, no idle time while a process is ready, each
pid's service equal to its burst), match an independent follower segment
for segment (``tests/oracle.py`` for SMDRR and RR, the short FCFS and
SJF followers here, which the repository's tests lack), and carry
metrics equal to those recomputed here from the trace.  The outputs of
the default seed must also match the digests in ``digests.json``.

Run as a script, it prints the default-seed digests as JSON:
    python3 perfbench/checks.py > perfbench/digests.json
"""

from __future__ import annotations

import csv
import heapq
import importlib.util
import io
import json
import sys
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, digest, invoke

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
_LABELS = {"smdrr": "SMDRR", "rr": "RR", "fcfs": "FCFS", "sjf": "SJF"}
# format_decimal rounds a non-terminating mean to 4 places
_DECIMAL_SLACK = Fraction(1, 20000)
_MAX_PROBLEMS = 5


@dataclass
class Tally:
    """Commands attempted and failed; a wrong output counts as failed."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def add_outputs(self, outputs: dict[str, int], reference: str | None) -> None:
        """Count commands by output digest; only the checked reference passes."""
        for output, count in outputs.items():
            self.add(output == reference, count)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_oracle(root: Path = ROOT):
    spec = importlib.util.spec_from_file_location("perfbench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_segments(segments, rows) -> list[str]:
    """Trace invariants of (occupant or None, start, end) segments over (pid, arrival, burst) rows."""
    if not segments:
        return ["trace has no segments"]
    arrival = {pid: a for pid, a, _ in rows}
    burst = {pid: b for pid, _, b in rows}
    arrivals = sorted(arrival.values())
    served = dict.fromkeys(arrival, 0)
    admitted = finished = 0
    problems = []
    now = arrivals[0]
    for occupant, start, end in segments:
        if len(problems) >= _MAX_PROBLEMS:
            break
        if start != now:
            problems.append(f"segment at {start} does not start where the last ended ({now})")
        if end <= start:
            problems.append(f"empty segment {occupant} [{start}, {end})")
        now = end
        while admitted < len(arrivals) and arrivals[admitted] <= start:
            admitted += 1
        if occupant is None:
            if admitted != finished:
                problems.append(f"idle [{start}, {end}) while a process is ready")
            elif admitted == len(arrivals) or end != arrivals[admitted]:
                problems.append(f"idle [{start}, {end}) does not end at the next arrival")
            continue
        if occupant not in arrival:
            problems.append(f"unknown pid {occupant!r}")
            continue
        if start < arrival[occupant]:
            problems.append(f"{occupant} runs at {start} before arriving at {arrival[occupant]}")
        served[occupant] += end - start
        if served[occupant] == burst[occupant]:
            finished += 1
        elif served[occupant] > burst[occupant]:
            problems.append(f"{occupant} served {served[occupant]} > burst {burst[occupant]}")
    short = [pid for pid in served if served[pid] != burst[pid]]
    if short and len(problems) < _MAX_PROBLEMS:
        problems.append(f"{len(short)} pids not served exactly their burst, e.g. {short[0]}")
    return problems


def fcfs_segments(rows) -> list[tuple]:
    """FCFS follower: arrival order (ties by submission), idle until the next arrival."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))
    segments, now = [], rows[order[0]][1]
    for i in order:
        pid, arrival, burst = rows[i]
        if now < arrival:
            segments.append((None, now, arrival))
            now = arrival
        segments.append((pid, now, now + burst))
        now += burst
    return segments


def sjf_segments(rows) -> list[tuple]:
    """SJF follower: run to completion the arrived process with the least
    (burst, arrival, submission index); idle until the next arrival."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i][1], i))
    segments, ready, k = [], [], 0
    now = rows[order[0]][1]
    while k < len(order) or ready:
        while k < len(order) and rows[order[k]][1] <= now:
            i = order[k]
            heapq.heappush(ready, (rows[i][2], rows[i][1], i))
            k += 1
        if not ready:
            segments.append((None, now, rows[order[k]][1]))
            now = rows[order[k]][1]
            continue
        burst, _, i = heapq.heappop(ready)
        segments.append((rows[i][0], now, now + burst))
        now += burst
    return segments


def check_policy(policy: str, segments, quanta, rows, oracle) -> list[str]:
    """Invariants, plus equality with the policy's independent follower."""
    problems = check_segments(segments, rows)
    kind, _, quantum = policy.partition(":")
    expected = expected_quanta = None
    if kind == "smdrr":
        expected, cycles = oracle.smdrr_trace(rows)
        expected_quanta = [q for _, q in cycles]
    elif kind == "rr":
        expected = oracle.rr_trace(rows, int(quantum))
        expected_quanta = [int(quantum)]
    elif kind == "fcfs":
        expected = fcfs_segments(rows)
    else:
        expected = sjf_segments(rows)
    if expected is not None and list(segments) != expected:
        problems.append(f"{policy}: trace differs from the independent follower")
    if expected_quanta is not None and list(quanta or ()) != expected_quanta:
        problems.append(f"{policy}: quanta differ from the independent follower")
    return problems


@dataclass(frozen=True)
class Recomputed:
    """Per-process outcomes and aggregate metrics derived from a trace."""

    first_start: dict
    completion: dict
    att: Fraction
    awt: Fraction
    avg_response: Fraction
    cs: int
    makespan: int
    cpu_utilization: Fraction
    throughput: Fraction


def recompute(segments, rows) -> Recomputed:
    first, last = {}, {}
    idle = 0
    for occupant, start, end in segments:
        if occupant is None:
            idle += end - start
        else:
            first.setdefault(occupant, start)
            last[occupant] = end
    n = len(rows)
    tat = [last[pid] - arrival for pid, arrival, _ in rows]
    makespan = segments[-1][2]
    return Recomputed(
        first_start=first,
        completion=last,
        att=Fraction(sum(tat), n),
        awt=Fraction(sum(t - b for t, (_, _, b) in zip(tat, rows)), n),
        avg_response=Fraction(sum(first[pid] - a for pid, a, _ in rows), n),
        cs=sum(1 for s in segments if s[0] is not None) - 1,
        makespan=makespan,
        cpu_utilization=Fraction(makespan - idle, makespan),
        throughput=Fraction(n, makespan),
    )


def _same_decimal(text, exact: Fraction) -> bool:
    try:
        return abs(Fraction(text) - exact) <= _DECIMAL_SLACK
    except (TypeError, ValueError, ZeroDivisionError):
        return False


def generated_rows(w: Workload, seed: int) -> tuple[list[tuple], list[str], object]:
    """Rows of a generated workload, made by the program's generator and checked against its spec."""
    from smdrr.workload import GeneratorSpec, generate_workload

    workload = generate_workload(GeneratorSpec(
        count=w.n, burst_min=w.burst[0], burst_max=w.burst[1],
        arrival_min=w.arrival[0], arrival_max=w.arrival[1], seed=w.program_seed(seed)))
    rows = [(p.pid, p.arrival, p.burst) for p in workload.processes]
    problems = []
    if len(rows) != w.n:
        problems.append(f"generator made {len(rows)} processes, asked for {w.n}")
    for i, (pid, arrival, burst) in enumerate(rows, start=1):
        if (pid != f"P{i}" or not w.burst[0] <= burst <= w.burst[1]
                or not w.arrival[0] <= arrival <= w.arrival[1]
                or (i > 1 and arrival < rows[i - 2][1])):
            problems.append(f"generated process {i} breaks the generator spec: {rows[i - 1]}")
            break
    return rows, problems, workload


def check_table(w: Workload, seed: int, output: bytes, oracle) -> list[str]:
    """A CSV comparison table: one row per policy, checked against checked traces."""
    from smdrr.engine import simulate
    from smdrr.policies import parse_policy

    rows, problems, workload = generated_rows(w, seed)
    try:
        table = list(csv.reader(io.StringIO(output.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        return problems + [f"output is not CSV: {exc}"]
    if not table or table[0] != ["algorithm", "tq", "tat", "wt", "cs"]:
        return problems + ["output lacks the algorithm,tq,tat,wt,cs header"]
    if len(table) != 1 + len(w.policies):
        return problems + [f"{len(table) - 1} table rows for {len(w.policies)} policies"]
    for policy, row in zip(w.policies, table[1:]):
        trace = simulate(workload, parse_policy(policy))
        segments = [(s.occupant, s.start, s.end) for s in trace.segments]
        broken = check_policy(policy, segments, trace.quanta, rows, oracle)
        problems += broken
        if broken:
            continue
        got = recompute(segments, rows)
        kind = policy.partition(":")[0]
        tq = ",".join(map(str, trace.quanta)) if trace.quanta else "-"
        if len(row) != 5 or row[0] != _LABELS[kind] or row[1] != tq:
            problems.append(f"{policy}: row {row[:2]} should start {[_LABELS[kind], tq[:40]]}")
        elif not (_same_decimal(row[2], got.att) and _same_decimal(row[3], got.awt)
                  and row[4] == str(got.cs)):
            problems.append(f"{policy}: metrics {row[2:]} differ from those of the trace")
    return problems


def check_json_run(w: Workload, seed: int, output: bytes, oracle) -> list[str]:
    """A `run --format json` document: trace, metrics and Gantt of each policy."""
    rows = w.rows(seed)
    try:
        docs = json.loads(output)
        if len(docs) != len(w.policies):
            return [f"{len(docs)} documents for {len(w.policies)} policies"]
        problems = []
        for policy, doc in zip(w.policies, docs):
            if doc["policy"] != policy:
                problems.append(f"document for {doc['policy']!r}, expected {policy!r}")
                continue
            trace = doc["trace"]
            segments = [(None if s.get("idle") else s["pid"], s["start"], s["end"])
                        for s in trace["segments"]]
            problems += check_policy(policy, segments, trace.get("quanta"), rows, oracle)
            if problems:
                continue
            problems += _check_json_metrics(policy, trace, doc["metrics"], recompute(segments, rows), rows)
            if w.gantt == "svg":
                rects = ET.fromstring(doc["gantt"]).iter("{http://www.w3.org/2000/svg}rect")
                if sum(1 for _ in rects) != len(segments):
                    problems.append(f"{policy}: SVG Gantt does not draw one box per segment")
        return problems
    except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_json_metrics(policy, trace, metrics, got: Recomputed, rows) -> list[str]:
    expected_procs = [
        {"pid": pid, "arrival": a, "burst": b,
         "first_start": got.first_start[pid], "completion": got.completion[pid]}
        for pid, a, b in rows
    ]
    expected_metrics = [
        {"pid": pid, "turnaround": got.completion[pid] - a,
         "waiting": got.completion[pid] - a - b, "response": got.first_start[pid] - a}
        for pid, a, b in rows
    ]
    problems = []
    if trace["processes"] != expected_procs:
        problems.append(f"{policy}: per-process outcomes differ from the trace")
    if metrics["processes"] != expected_metrics:
        problems.append(f"{policy}: per-process metrics differ from the trace")
    for key in ("att", "awt", "avg_response", "cpu_utilization", "throughput"):
        if not _same_decimal(metrics[key], getattr(got, key)):
            problems.append(f"{policy}: {key} {metrics[key]} differs from the trace")
    for key in ("cs", "makespan"):
        if metrics[key] != getattr(got, key):
            problems.append(f"{policy}: {key} {metrics[key]} differs from the trace")
    return problems


def check_output(w: Workload, seed: int, output: bytes, oracle) -> list[str]:
    if w.format == "json":
        return check_json_run(w, seed, output, oracle)
    return check_table(w, seed, output, oracle)


def check_command(w: Workload, seed: int, workdir: Path, oracle, tally: Tally) -> tuple[str | None, list[str]]:
    """Run the workload's command once, untimed, and check its output.

    Returns (digest of the output if it passed, problems).  Outside the
    default seed, the default seed's output is also run and compared
    with its recorded digest.  Every command run is added to tally.
    """
    from smdrr.cli import main

    argv, out = w.prepare(seed, workdir)
    code, output, _ = invoke(main, argv, out)
    try:
        problems = [f"exit code {code}"] if code != 0 else check_output(w, seed, output, oracle)
    except Exception as exc:  # a program fault met while checking fails the check
        traceback.print_exc()
        problems = [f"check raised {exc!r}"]
    if seed == DEFAULT_SEED:
        problems += _against_recorded(w, output)
    tally.add(not problems)
    if seed != DEFAULT_SEED:
        default_dir = workdir / "default"
        default_dir.mkdir(parents=True, exist_ok=True)
        argv, out = w.prepare(DEFAULT_SEED, default_dir)
        code, default_output, _ = invoke(main, argv, out)
        recorded = _against_recorded(w, default_output) if code == 0 else [f"exit code {code}"]
        tally.add(not recorded)
        problems += [f"default seed: {p}" for p in recorded]
    return (digest(output) if not problems else None), problems


def _against_recorded(w: Workload, output: bytes) -> list[str]:
    recorded = json.loads(DIGESTS.read_text()).get(w.name)
    if digest(output) != recorded:
        return [f"output digest differs from the one recorded in {DIGESTS.name}"]
    return []


def record_digests(workdir: Path) -> dict[str, str]:
    """Digests of the checked default-seed outputs of every workload."""
    from smdrr.cli import main

    oracle = load_oracle()
    digests = {}
    for w in WORKLOADS.values():
        argv, out = w.prepare(DEFAULT_SEED, workdir)
        code, output, _ = invoke(main, argv, out)
        problems = [f"exit code {code}"] if code != 0 else check_output(w, DEFAULT_SEED, output, oracle)
        if problems:
            raise SystemExit(f"{w.name}: {problems}")
        digests[w.name] = digest(output)
    return digests


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_build" / "perfbench" / "default"
    work.mkdir(parents=True, exist_ok=True)
    print(json.dumps(record_digests(work), indent=2, sort_keys=True))
