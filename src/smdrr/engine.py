"""Deterministic discrete-time simulation producing execution traces.

The clock is a single monotone integer starting at the earliest arrival.
Traces are immutable and contiguous: every segment starts where the
previous one ended, with idle segments filling any CPU gaps.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

# Not called here: smdrr.engine.rr_requeue_position is a perfbench LAYERS target.
from .policies import PolicyConfig, plan_cycle_smdrr, rr_requeue_position  # noqa: F401
from .workload import Workload

# The string quoting json.dumps itself uses (ensure_ascii, C accelerated).
json_quote = json.encoder.encode_basestring_ascii


class UnsupportedPolicyError(ValueError):
    """Raised when a trace has no quantum sequence (FCFS/SJF)."""


class Segment(NamedTuple):
    """One contiguous occupancy of the CPU; occupant None means idle."""

    occupant: str | None
    start: int
    end: int

    @property
    def is_idle(self) -> bool:
        return self.occupant is None

    @property
    def length(self) -> int:
        return self.end - self.start


class ProcessOutcome(NamedTuple):
    """Per-process simulation results, in submission order."""

    pid: str
    arrival: int
    burst: int
    first_start: int
    completion: int


@dataclass(frozen=True)
class Trace:
    """Simulation output: segments plus per-process outcomes.

    quanta holds the quantum chosen at each SMDRR cycle (a single entry
    for fixed-quantum RR); it is None for policies without quanta.
    """

    workload_name: str
    policy: str
    segments: tuple[Segment, ...]
    processes: tuple[ProcessOutcome, ...]
    quanta: tuple[int, ...] | None = None

    @property
    def makespan(self) -> int:
        return self.segments[-1].end

    @property
    def idle_time(self) -> int:
        return sum(s.length for s in self.segments if s.is_idle)

    def to_dict(self) -> dict:
        segments = []
        for s in self.segments:
            if s.is_idle:
                segments.append({"idle": True, "start": s.start, "end": s.end})
            else:
                segments.append({"pid": s.occupant, "start": s.start, "end": s.end})
        doc = {
            "workload": self.workload_name,
            "policy": self.policy,
            "segments": segments,
            "processes": [
                {
                    "pid": p.pid,
                    "arrival": p.arrival,
                    "burst": p.burst,
                    "first_start": p.first_start,
                    "completion": p.completion,
                }
                for p in self.processes
            ],
        }
        if self.quanta is not None:
            doc["quanta"] = list(self.quanta)
        return doc

    def json_chunks(self, depth: int = 0) -> Iterator[str]:
        """to_dict() as json.dumps(indent=2) lays it out at nesting depth, in chunks.

        Each segment and process is one f-string; each record list is
        joined into one chunk.
        """
        i1, i3 = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 3)
        close = "\n" + "  " * (depth + 2) + "}"
        yield (f'{{{i1}"workload": {json_quote(self.workload_name)},'
               f'{i1}"policy": {json_quote(self.policy)},{i1}"segments": ')
        yield json_list([
            f'{{{i3}"idle": true,{i3}"start": {s.start},{i3}"end": {s.end}{close}'
            if s.occupant is None else
            f'{{{i3}"pid": {json_quote(s.occupant)},{i3}"start": {s.start},'
            f'{i3}"end": {s.end}{close}'
            for s in self.segments
        ], depth + 1)
        yield f',{i1}"processes": '
        yield json_list([
            f'{{{i3}"pid": {json_quote(p.pid)},{i3}"arrival": {p.arrival},'
            f'{i3}"burst": {p.burst},{i3}"first_start": {p.first_start},'
            f'{i3}"completion": {p.completion}{close}'
            for p in self.processes
        ], depth + 1)
        if self.quanta is not None:
            yield f',{i1}"quanta": ' + json_list([str(q) for q in self.quanta], depth + 1)
        yield "\n" + "  " * depth + "}"

    def to_json(self) -> str:
        return "".join(self.json_chunks()) + "\n"


def json_list(items: list[str], depth: int) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=2) at depth."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


class _Proc:
    """Mutable per-process simulation state.

    It carries the fields plan_cycle_smdrr reads from a ready process
    (pid, remaining, arrival, submission_index), so the SMDRR loop hands
    these records to it directly; RR queues the records themselves.
    """

    __slots__ = ("pid", "arrival", "burst", "submission_index", "remaining",
                 "first_start", "completion")

    def __init__(self, pid: str, arrival: int, burst: int, submission_index: int) -> None:
        self.pid = pid
        self.arrival = arrival
        self.burst = burst
        self.submission_index = submission_index
        self.remaining = burst
        self.first_start: int | None = None
        self.completion: int | None = None


def simulate(workload: Workload, policy: PolicyConfig) -> Trace:
    """Run one policy over one workload and return its trace."""
    procs = [
        _Proc(p.pid, p.arrival, p.burst, i)
        for i, p in enumerate(workload.processes)
    ]
    if policy.kind == "smdrr":
        segments, quanta = _run_smdrr(procs)
    elif policy.kind == "rr":
        segments = _run_rr(procs, policy.quantum)
        quanta = [policy.quantum]
    elif policy.kind == "fcfs":
        segments = _run_fcfs(procs)
        quanta = None
    else:
        segments = _run_sjf(procs)
        quanta = None
    outcomes = tuple(
        ProcessOutcome(p.pid, p.arrival, p.burst, p.first_start, p.completion)
        for p in procs
    )
    return Trace(
        workload_name=workload.name,
        policy=policy.spelling(),
        segments=tuple(segments),
        processes=outcomes,
        quanta=tuple(quanta) if quanta is not None else None,
    )


def quantum_sequence(trace: Trace) -> list[int]:
    """Quanta chosen per SMDRR cycle (single fixed value for RR)."""
    if trace.quanta is None:
        raise UnsupportedPolicyError(f"policy {trace.policy!r} has no quantum sequence")
    return list(trace.quanta)


def _by_arrival(procs: list[_Proc]) -> list[_Proc]:
    return sorted(procs, key=lambda p: (p.arrival, p.submission_index))


def _run_smdrr(procs: list[_Proc]) -> tuple[list[Segment], list[int]]:
    # Arrivals are admitted only between cycles: a process turning up
    # mid-cycle waits for the round to finish before it can be planned.
    # The ready list stays in the previous plan's order: every survivor
    # lost exactly one quantum, so the planner's sort only has to merge
    # the appended arrivals into an already sorted run.
    pending = _by_arrival(procs)
    by_pid = {p.pid: p for p in procs}
    cursor, total = 0, len(pending)
    now = pending[0].arrival
    ready: list[_Proc] = []
    segments: list[Segment] = []
    quanta: list[int] = []
    while cursor < total or ready:
        while cursor < total and pending[cursor].arrival <= now:
            ready.append(pending[cursor])
            cursor += 1
        if not ready:
            segments.append(Segment(None, now, pending[cursor].arrival))
            now = pending[cursor].arrival
            continue
        plan = plan_cycle_smdrr(ready)
        quantum = plan.quantum
        quanta.append(quantum)
        ready = []
        for pid in plan.order:
            proc = by_pid[pid]
            if proc.first_start is None:
                proc.first_start = now
            run = quantum if quantum < proc.remaining else proc.remaining
            segments.append(Segment(pid, now, now + run))
            now += run
            proc.remaining -= run
            if proc.remaining:
                ready.append(proc)
            else:
                proc.completion = now
    return segments, quanta


def _run_rr(procs: list[_Proc], quantum: int) -> list[Segment]:
    pending = _by_arrival(procs)
    cursor, total = 0, len(pending)
    now = pending[0].arrival
    queue: deque[_Proc] = deque()
    segments: list[Segment] = []
    while queue or cursor < total:
        while cursor < total and pending[cursor].arrival <= now:
            queue.append(pending[cursor])
            cursor += 1
        if not queue:
            nxt = pending[cursor].arrival
            segments.append(Segment(None, now, nxt))
            now = nxt
            continue
        proc = queue.popleft()
        if proc.first_start is None:
            proc.first_start = now
        run = quantum if quantum < proc.remaining else proc.remaining
        segments.append(Segment(proc.pid, now, now + run))
        now += run
        proc.remaining -= run
        if proc.remaining:
            # Arrivals come off the cursor already in (arrival, submission
            # index) order and join ahead of the preempted process.
            while cursor < total and pending[cursor].arrival <= now:
                queue.append(pending[cursor])
                cursor += 1
            queue.append(proc)
        else:
            proc.completion = now
    return segments


def _run_fcfs(procs: list[_Proc]) -> list[Segment]:
    segments: list[Segment] = []
    ordered = _by_arrival(procs)
    now = ordered[0].arrival
    for proc in ordered:
        if now < proc.arrival:
            segments.append(Segment(None, now, proc.arrival))
            now = proc.arrival
        proc.first_start = now
        now += proc.burst
        segments.append(Segment(proc.pid, proc.first_start, now))
        proc.completion = now
    return segments


def _run_sjf(procs: list[_Proc]) -> list[Segment]:
    pending = _by_arrival(procs)
    cursor, total = 0, len(pending)
    now = pending[0].arrival
    heap: list[tuple[int, int, int, _Proc]] = []
    segments: list[Segment] = []
    while cursor < total or heap:
        while cursor < total and pending[cursor].arrival <= now:
            p = pending[cursor]
            heapq.heappush(heap, (p.burst, p.arrival, p.submission_index, p))
            cursor += 1
        if not heap:
            nxt = pending[cursor].arrival
            segments.append(Segment(None, now, nxt))
            now = nxt
            continue
        proc = heapq.heappop(heap)[3]
        proc.first_start = now
        now += proc.burst
        segments.append(Segment(proc.pid, proc.first_start, now))
        proc.completion = now
    return segments
