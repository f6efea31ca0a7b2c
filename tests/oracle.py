"""Brute-force trace followers, independent of smdrr.engine.

These re-derive schedules straight from the policy rules with no shared
code; acceptance tests compare engine traces against them segment for
segment.  Processes are plain (pid, arrival, burst) triples in
submission order; segments come back as (pid_or_None, start, end).
"""

import math
from fractions import Fraction


def smdrr_trace(procs):
    """Dynamic-quantum round robin: each cycle runs every ready process
    once for the ceiling of the harmonic mean of remaining bursts.
    Returns (segments, cycles) where cycles is [(remaining-tuple, quantum)].
    """
    arr = {p: a for p, a, _ in procs}
    rem = {p: b for p, _, b in procs}
    pos = {p: i for i, (p, _, _) in enumerate(procs)}
    t = min(arr.values())
    segs, cycles = [], []
    while rem:
        ready = sorted((p for p in rem if arr[p] <= t),
                       key=lambda p: (rem[p], arr[p], pos[p]))
        if not ready:
            nxt = min(arr[p] for p in rem)
            segs.append((None, t, nxt))
            t = nxt
            continue
        q = math.ceil(Fraction(len(ready)) / sum(Fraction(1, rem[p]) for p in ready))
        cycles.append((tuple(rem[p] for p in ready), q))
        for p in ready:
            run = min(q, rem[p])
            segs.append((p, t, t + run))
            t += run
            rem[p] -= run
            if rem[p] == 0:
                del rem[p]
    return segs, cycles


def rr_trace(procs, quantum):
    """Fixed-quantum round robin: FIFO queue, arrivals during a slice
    enter the queue ahead of the preempted process."""
    arr = {p: a for p, a, _ in procs}
    rem = {p: b for p, _, b in procs}
    pos = {p: i for i, (p, _, _) in enumerate(procs)}
    waiting = sorted(rem, key=lambda p: (arr[p], pos[p]))
    t = min(arr.values())
    queue, segs = [], []
    while waiting or queue:
        while waiting and arr[waiting[0]] <= t:
            queue.append(waiting.pop(0))
        if not queue:
            nxt = arr[waiting[0]]
            segs.append((None, t, nxt))
            t = nxt
            continue
        p = queue.pop(0)
        run = min(quantum, rem[p])
        segs.append((p, t, t + run))
        t += run
        rem[p] -= run
        while waiting and arr[waiting[0]] <= t:
            queue.append(waiting.pop(0))
        if rem[p] > 0:
            queue.append(p)
    return segs


def fcfs_trace(procs):
    """First come, first served: whoever arrived first (ties: submission
    order) runs to completion; the CPU idles until the next arrival."""
    left = list(range(len(procs)))
    t = min(a for _, a, _ in procs)
    segs = []
    while left:
        first = min(left, key=lambda i: (procs[i][1], i))
        p, a, b = procs[first]
        if a > t:
            segs.append((None, t, a))
            t = a
        segs.append((p, t, t + b))
        t += b
        left.remove(first)
    return segs


def sjf_trace(procs):
    """Non-preemptive shortest job first: among the processes that have
    arrived, the shortest burst runs to completion (ties: arrival, then
    submission order); with none arrived, the CPU idles until one is."""
    left = list(range(len(procs)))
    t = min(a for _, a, _ in procs)
    segs = []
    while left:
        arrived = [i for i in left if procs[i][1] <= t]
        if not arrived:
            nxt = min(procs[i][1] for i in left)
            segs.append((None, t, nxt))
            t = nxt
            continue
        pick = min(arrived, key=lambda i: (procs[i][2], procs[i][1], i))
        p, _, b = procs[pick]
        segs.append((p, t, t + b))
        t += b
        left.remove(pick)
    return segs
