"""Deterministic discrete-time simulation producing execution traces.

The clock is a single monotone integer starting at the earliest arrival.
Traces are immutable and contiguous: every segment starts where the
previous one ended, with idle segments filling any CPU gaps, so a trace
stores each segment's occupant and end, and only the first start.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from itertools import chain
from operator import add
from typing import NamedTuple

# Not called here: smdrr.engine.rr_requeue_position is a perfbench LAYERS target.
from .policies import PolicyConfig, plan_cycle_smdrr, rr_requeue_position  # noqa: F401
from .workload import MAX_SEGMENTS, ProcessSpec, Workload, WorkloadError

class Segment(NamedTuple):
    """One contiguous occupancy of the CPU; occupant None means idle."""

    occupant: str | None
    start: int
    end: int


class ProcessOutcome(NamedTuple):
    """Per-process simulation results, in submission order."""

    pid: str
    arrival: int
    burst: int
    first_start: int
    completion: int


class Trace(NamedTuple):
    """Simulation output: segments and per-process results as columns.

    Segment k runs occupants[k] (a pid, or None for idle) from ends[k - 1]
    (start for k = 0) to ends[k].  specs[i], the workload's i-th process,
    first runs at first_starts[i] and completes at completions[i].  quanta
    holds the quantum chosen at each SMDRR cycle (one entry for
    fixed-quantum RR), or None without quanta.
    """

    workload_name: str
    policy: str
    start: int
    occupants: tuple[str | None, ...]
    ends: tuple[int, ...]
    specs: tuple[ProcessSpec, ...]
    first_starts: tuple[int, ...]
    completions: tuple[int, ...]
    quanta: tuple[int, ...] | None = None

    @property
    def processes(self) -> tuple[ProcessOutcome, ...]:
        """Per-process outcomes in submission order, built anew on each access."""
        return tuple(map(ProcessOutcome._make, self.outcomes()))

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments in time order, built anew on each access."""
        return tuple(map(Segment._make, self.intervals()))

    @property
    def makespan(self) -> int:
        return self.ends[-1]

    def intervals(self) -> Iterator[tuple[str | None, int, int]]:
        """Each segment as a plain (occupant, start, end) tuple."""
        return zip(self.occupants, chain((self.start,), self.ends), self.ends)

    def outcomes(self) -> Iterator[tuple[str, int, int, int, int]]:
        """Each process as a plain (pid, arrival, burst, first_start, completion) tuple."""
        return map(add, self.specs, zip(self.first_starts, self.completions))

    def to_dict(self) -> dict:
        segments = [{"idle": True, "start": start, "end": end} if occupant is None else
                    {"pid": occupant, "start": start, "end": end}
                    for occupant, start, end in self.intervals()]
        doc = {"workload": self.workload_name, "policy": self.policy,
               "segments": segments, "processes": [p._asdict() for p in self.processes]}
        if self.quanta is not None:
            doc["quanta"] = list(self.quanta)
        return doc


def simulate(workload: Workload, policy: PolicyConfig) -> Trace:
    """Run one policy over one workload and return its trace.

    A process's rank is its place in one stable sort on arrival, that is,
    in (arrival, submission index) order.  The loop keeps every
    per-process field in a list indexed by rank, and every ordering key
    below ends on the rank, so this sort is the only tie rule.  At the end,
    first starts and completions are scattered into submission order.

    One loop serves every policy.  It owns the clock, a cursor over the
    ranks and the idle segments, and runs rounds over a snapshot of the
    ready list; survivors and new arrivals queue behind the current
    round, which is round robin's FIFO order.  The policies differ in two
    ways only:

    - the round: SMDRR takes plan_cycle_smdrr's order, RR and FCFS the
      whole ready list, SJF the one rank popped from a heap keyed on
      (burst, rank);
    - the slice: SMDRR's cycle quantum, RR's fixed quantum, and for FCFS
      and SJF the longest burst, so that every process runs to completion.

    One admission rule serves them all: arrivals join the ready list
    before each round and ahead of each preempted process.  FCFS and SJF
    never preempt.  SMDRR's admitted arrivals join the ready list, not the
    running round, and its planner sorts on a total key, so it still plans
    them only between cycles.

    RR (up front) and SMDRR (per cycle) raise WorkloadError past MAX_SEGMENTS.
    """
    specs = workload.processes
    total = len(specs)
    # order[rank] is the submission index of the process with that rank.
    order = sorted(range(total), key=[p.arrival for p in specs].__getitem__)
    ranked = [specs[i] for i in order]
    pids = [p.pid for p in ranked]
    arrival = [p.arrival for p in ranked]
    remaining = [p.burst for p in ranked]
    first_start, completion = [None] * total, [None] * total
    kind = policy.kind
    smdrr, sjf, rr = kind == "smdrr", kind == "sjf", kind == "rr"
    quantum = policy.quantum or max(remaining)
    if rr and (count := sum(-(-burst // quantum) for burst in remaining)) > MAX_SEGMENTS:
        raise WorkloadError(f"{policy.spelling()} would dispatch {count} segments, "
                            f"more than the cap of {MAX_SEGMENTS}")
    quanta: list[int] | None = [] if smdrr else [quantum] if rr else None
    ready: list = []  # ranks; SJF's is a heap of (burst, rank)
    if sjf:
        def admit(rank: int) -> None:
            # SJF never preempts, so an arrival's remaining time is its burst.
            heapq.heappush(ready, (remaining[rank], rank))
    else:
        admit = ready.append
    cursor = 0  # the next rank to arrive
    now = start = arrival[0]
    occupants, ends = [], []  # the trace's columns: a pid or None, and an end, per segment
    occupy, end_at = occupants.append, ends.append
    while cursor < total or ready:
        while cursor < total and arrival[cursor] <= now:
            admit(cursor)
            cursor += 1
        if not ready:
            nxt = arrival[cursor]
            occupy(None)
            end_at(nxt)
            now = nxt
            continue
        if sjf:
            batch = [heapq.heappop(ready)[1]]
        else:
            if smdrr:
                batch, quantum = plan_cycle_smdrr(ready, remaining)
                quanta.append(quantum)
                if len(ends) + len(batch) > MAX_SEGMENTS:
                    raise WorkloadError(f"smdrr would dispatch more than {MAX_SEGMENTS} segments")
            else:
                batch = ready.copy()
            ready.clear()
        for rank in batch:
            if first_start[rank] is None:
                first_start[rank] = now
            left = remaining[rank]
            run = quantum if quantum < left else left
            occupy(pids[rank])
            now += run
            end_at(now)
            if run == left:
                completion[rank] = now
                continue
            remaining[rank] = left - run
            # Arrivals come off the cursor in rank order and join ahead of
            # the preempted process.
            while cursor < total and arrival[cursor] <= now:
                admit(cursor)
                cursor += 1
            ready.append(rank)
    first_starts, completions = [0] * total, [0] * total
    for rank, i in enumerate(order):
        first_starts[i], completions[i] = first_start[rank], completion[rank]
    return Trace(workload.name, policy.spelling(), start, tuple(occupants), tuple(ends),
                 specs, tuple(first_starts), tuple(completions),
                 tuple(quanta) if quanta is not None else None)
