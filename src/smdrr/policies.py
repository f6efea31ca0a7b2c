"""Scheduling policies and the harmonic-mean quantum rule.

SMDRR (subcontrary-mean dynamic round robin) recomputes its time quantum
every cycle as the ceiling of the harmonic mean of the remaining bursts,
dispatching the ready processes in ascending order of remaining time.
Fixed-quantum RR, FCFS and SJF serve as baselines.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import Iterable, MutableSequence, Sequence

from .workload import WorkloadError, _check_int, _parse_int, _remake

_KINDS = ("smdrr", "rr", "fcfs", "sjf")


class PolicyError(ValueError):
    """Unknown policy spelling or bad policy parameters."""


class PolicyConfig(namedtuple("PolicyConfig", "kind quantum", defaults=(None,))):
    """A scheduling policy choice; only RR carries a parameter (its quantum)."""

    __slots__ = ()
    _make = classmethod(_remake)  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> PolicyConfig:
        config = super().__new__(cls, *args, **kwargs)
        if config.kind not in _KINDS:
            raise PolicyError(f"unknown policy kind: {config.kind!r}")
        if config.kind == "rr":
            try:
                _check_int(config.quantum, "quantum", 1)
            except WorkloadError:
                raise PolicyError("rr requires a positive integer quantum, e.g. rr:20") from None
        elif config.quantum is not None:
            raise PolicyError(f"{config.kind} does not take a quantum")
        return config

    @property
    def label(self) -> str:
        """Table label: RR, SMDRR, FCFS or SJF."""
        return self.kind.upper()

    def spelling(self) -> str:
        """CLI/config spelling, e.g. 'smdrr' or 'rr:20'."""
        return self.kind if self.quantum is None else f"{self.kind}:{self.quantum}"


def parse_policy(text: str) -> PolicyConfig:
    """Parse smdrr | rr:<quantum> | fcfs | sjf.  Only rr's quantum is read
    here: PolicyConfig judges the rest, and gets any other quantum as written."""
    kind, sep, raw = text.partition(":")
    if not sep or kind != "rr":
        return PolicyConfig(kind, raw if sep else None)
    try:
        quantum = _parse_int(raw, "quantum", kind)
    except WorkloadError as exc:
        raise PolicyError(str(exc)) from None
    return PolicyConfig(kind, quantum)


def harmonic_mean_quantum(remaining: Sequence[int]) -> int:
    """Ceiling of the harmonic mean n / (1/x1 + ... + 1/xn).

    A wrong quantum rewrites the whole schedule, so a float mean H is used
    only when certified.  Below 2**53 each value is an exact float, and
    each 1/x, the fsum and the division are correctly rounded, so the true
    mean is within a relative (1 + 2**-53)**2 / (1 - 2**-53) - 1 < 2**-51
    of H; each margin product rounds once more.  So it lies in [H*(1 - m),
    H*(1 + m)] with m = 2**-50, and when both ends share a ceiling that is
    the quantum.  Otherwise (an integer mean, as [2, 3, 6] -> 3, or a value
    of 2**53 or more) the exact sum decides.  The result lies within
    [min(remaining), max(remaining)].
    """
    if not remaining:
        raise ValueError("remaining burst list is empty")
    if min(remaining) < 1:
        raise ValueError("remaining bursts must be >= 1")
    if max(remaining) < 2**53:
        mean = len(remaining) / math.fsum(map((1.0).__truediv__, remaining))
        quantum = math.ceil(mean * (1 - 2**-50))
        if quantum == math.ceil(mean * (1 + 2**-50)):
            return quantum
    return _exact_quantum(remaining)


def _exact_quantum(remaining: Sequence[int]) -> int:
    """harmonic_mean_quantum in integers.  The sum of c/v over each distinct
    value v (seen c times) is a balanced pairwise sum of num/den terms with
    no gcd reduction: each level adds neighbouring pairs and carries an odd
    last term up, so the big-integer products stay balanced.  The ceiling
    of n*den/num is then one integer division."""
    terms = [(count, value) for value, count in Counter(remaining).items()]
    while len(terms) > 1:
        paired = [(n1 * d2 + n2 * d1, d1 * d2)
                  for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    num, den = terms[0]
    return -(-len(remaining) * den // num)


def plan_cycle_smdrr(ready: Iterable[int], remaining: Sequence[int]) -> tuple[list[int], int]:
    """Plan one SMDRR cycle over the ready ranks: (dispatch order, quantum).

    A rank is a process's place in (arrival, submission index) order, and
    remaining[rank] is its remaining time.  Order: ascending remaining
    time, ties by rank.  Quantum: harmonic-mean ceiling of the remaining
    times (ValueError on an empty ready set).  The sort is stable and near
    linear when the input is already mostly in order.
    """
    order = sorted(ready, key=lambda rank: (remaining[rank], rank))
    return order, harmonic_mean_quantum([remaining[rank] for rank in order])


def rr_requeue_position(queue: MutableSequence[int], preempted: int,
                        arrivals: Iterable[int]) -> MutableSequence[int]:
    """Requeue ranks after a quantum expiry, in place, and return the same queue.

    The ranks that arrived at or before the preemption instant join first,
    in rank order, which is (arrival, submission index) order; the
    preempted rank goes to the tail.  queue is a list or a deque; the cost
    is O(arrivals), independent of the queue's length.
    """
    queue.extend(sorted(arrivals))
    queue.append(preempted)
    return queue
