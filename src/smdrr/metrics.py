"""Scheduling metrics under two turnaround conventions.

STANDARD measures turnaround from each process's arrival (the textbook
definition).  PAPER_ZERO measures it from t = 0 regardless of arrival,
which is the convention the built-in cases' published tables follow for
nonzero arrivals.  The two coincide whenever every arrival is 0.

Context switches count dispatch boundaries, *including* a process
re-dispatched immediately after its own quantum expiry: cs = number of
process segments - 1.  This differs from the textbook "process change
only" count but is the only convention the built-in cases' tables are
consistent with.  Idle segments are transparent: a process-idle-process
sandwich is one switch.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, NamedTuple

from .engine import Trace


class Convention(enum.Enum):
    STANDARD = "standard"
    PAPER_ZERO = "paper"


class ProcessMetrics(NamedTuple):
    pid: str
    turnaround: int
    waiting: int
    response: int


class MetricsReport(NamedTuple):
    """Aggregate metrics for one trace, and its per-process metrics on demand.

    Aggregates are exact rationals; decimal rendering happens only at the
    report boundary (format_decimal) so table values like 85.75 or 140.4
    match exactly rather than within float epsilon.  Field order is output
    order: every field after trace is an aggregate, and to_dict, the CLI's
    text summary and its JSON list them in this order.
    """

    convention: Convention
    trace: Trace
    att: Fraction
    awt: Fraction
    cs: int
    avg_response: Fraction
    makespan: int
    cpu_utilization: Fraction
    throughput: Fraction

    @property
    def processes(self) -> tuple[ProcessMetrics, ...]:
        """Per-process metrics in submission order, built anew on each access."""
        return tuple(map(ProcessMetrics._make, self.rows()))

    def rows(self) -> Iterator[tuple[str, int, int, int]]:
        """Each process as a plain (pid, turnaround, waiting, response) tuple."""
        paper_zero = self.convention is Convention.PAPER_ZERO
        for pid, arrival, burst, first_start, completion in self.trace.outcomes():
            turnaround = completion - (0 if paper_zero else arrival)
            yield pid, turnaround, turnaround - burst, first_start - arrival

    def aggregates(self) -> Iterator[tuple[str, str | int]]:
        """(name, value) of each aggregate field, in field order: each
        Fraction as its format_decimal text, each count as an int."""
        for name, value in zip(self._fields[2:], self[2:]):
            yield name, format_decimal(value) if isinstance(value, Fraction) else value

    def to_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "processes": [p._asdict() for p in self.processes],
            **dict(self.aggregates()),
        }


def compute_metrics(trace: Trace, convention: Convention = Convention.STANDARD) -> MetricsReport:
    """Aggregate metrics from integer sums over the trace's columns: Σwaiting =
    Σturnaround − Σburst, and Σresponse = Σfirst_start − Σarrival."""
    specs, n = trace.specs, len(trace.specs)
    makespan, idle = trace.makespan, sum(1 for o in trace.occupants if o is None)
    if idle == len(trace.ends):
        raise ValueError("trace has no process segments")
    idle_time = idle and sum(e - s for o, s, e in trace.intervals() if o is None)
    arrival_sum = sum(map(itemgetter(1), specs))
    turnaround_sum = sum(trace.completions) - (
        0 if convention is Convention.PAPER_ZERO else arrival_sum)
    return MetricsReport(
        convention=convention,
        trace=trace,
        att=Fraction(turnaround_sum, n),
        awt=Fraction(turnaround_sum - sum(map(itemgetter(2), specs)), n),
        cs=len(trace.ends) - idle - 1,
        avg_response=Fraction(sum(trace.first_starts) - arrival_sum, n),
        makespan=makespan,
        cpu_utilization=Fraction(makespan - idle_time, makespan),
        throughput=Fraction(n, makespan),
    )


def format_decimal(value: Fraction) -> str:
    """Render an exact rational as a decimal string.

    Integers print bare ("144"), terminating expansions print exactly
    with no trailing zeros ("140.4", "85.75"), and non-terminating ones
    round to 4 places then drop trailing zeros down to 2 places.
    """
    sign = "-" if value < 0 else ""
    value = abs(value)
    # Each step strips one 2 and one 5 from the denominator, so 2**a * 5**b
    # reaches 1 after max(a, b) steps: the least p with den | 10**p.
    rest, places = value.denominator, 0
    while (common := math.gcd(rest, 10)) > 1:
        rest //= common
        places += 1
    if rest != 1:
        places = 4
    digits = str(round(value * 10**places)).rjust(places + 1, "0")
    while rest != 1 and places > 2 and digits.endswith("0"):
        digits = digits[:-1]
        places -= 1
    point = len(digits) - places
    return sign + digits[:point] + ("." if places else "") + digits[point:]
