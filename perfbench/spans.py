"""Layer spans recorded from outside the program, and the statistics over them.

The tracer wraps a layer's public functions at the name its caller looks
up (for example ``smdrr.cli.simulate``), so the program itself is not
edited.  Each call records one span: name, start, end, parent span and
command id.  Spans live in flat in-memory arrays and are written out once,
when the run ends.

A layer's self time is its span minus the *union* of its children's
intervals, not their sum: under the CLI's thread fan-out the per-policy
simulate spans overlap each other.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable

POLICY_KEYS = ("smdrr", "rr20", "fcfs", "sjf")


def policy_key(spelling: str) -> str:
    """Metric suffix for a policy spelling: 'rr:20' -> 'rr20'."""
    return spelling.replace(":", "")


@dataclass(frozen=True)
class Layer:
    """One wrapped function: where the caller looks it up, and its span name."""

    target: str  # "module:attribute" or "module:Class.method"
    span: str
    cpu: bool = False  # also record time.thread_time(), for the GIL wait


# Wrapped where the caller looks the name up, so the wrapper is what runs.
LAYERS = (
    Layer("smdrr.cli:generate_workload", "workload.generate"),
    Layer("smdrr.cli:parse_workload", "workload.parse"),
    Layer("smdrr.cli:simulate", "engine.simulate", cpu=True),
    Layer("smdrr.engine:Trace.to_dict", "engine.to_dict"),
    Layer("smdrr.engine:plan_cycle_smdrr", "policies.plan_cycle"),
    Layer("smdrr.policies:harmonic_mean_quantum", "policies.quantum"),
    Layer("smdrr.engine:rr_requeue_position", "policies.requeue"),
    Layer("smdrr.cli:compute_metrics", "metrics.compute"),
    Layer("smdrr.metrics:MetricsReport.to_dict", "metrics.to_dict"),
    Layer("smdrr.cli:comparison_report", "report.comparison"),
    Layer("smdrr.cli:render_gantt_svg", "report.gantt_svg"),
)

ROOT_SPAN = "cli.main"


def _resolve(target: str) -> tuple[object, str] | None:
    """(owner, attribute) for a target, or None when the program lacks it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans of the wrapped layers, one command at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.cmd = 0
        self._root = 0
        # one entry per finished span, appended together under the lock
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.cmd_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")  # thread CPU seconds, or -1 when not measured
        self.counts: dict[int, dict[str, int]] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: int) -> None:
        with self._lock:
            per_cmd = self.counts.setdefault(self.cmd, {})
            per_cmd[key] = per_cmd.get(key, 0) + value

    def _record(self, sid, parent, name_id, t0, t1, cpu) -> None:
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.name.append(name_id)
            self.cmd_of.append(self.cmd)
            self.start.append(t0)
            self.end.append(t1)
            self.cpu.append(cpu)

    def wrap(self, fn: Callable, span: str, cpu: bool = False,
             name_of: Callable | None = None, on_result: Callable | None = None) -> Callable:
        """fn wrapped to record a span per call.

        name_of(args) picks the span name per call; on_result(result)
        records counts taken from the return value.
        """
        fixed_id = self._name_id(span)
        perf_counter, thread_time = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            name_id = fixed_id if name_of is None else self._name_id(name_of(args))
            stack = self._stack()
            # pool threads start with an empty stack: their parent is the command root
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            c0 = thread_time() if cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                used = thread_time() - c0 if cpu else -1.0
                stack.pop()
                self._record(sid, parent, name_id, t0, t1, used)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer the program still has; record which were found."""
        for layer in layers:
            found = _resolve(layer.target)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            name_of = on_result = None
            if layer.span == "engine.simulate":
                name_of = _simulate_span_name
                on_result = self._count_trace
            elif layer.span.startswith("workload."):
                on_result = self._count_workload
            setattr(owner, attr, self.wrap(original, layer.span, layer.cpu, name_of, on_result))
            self._installed.append((owner, attr, original))
            self.present.add(layer.span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _count_trace(self, trace) -> None:
        key = policy_key(trace.policy)
        self.count(f"engine.segments.{key}", len(trace.segments))
        if key == "smdrr" and trace.quanta is not None:
            self.count("engine.cycles.smdrr", len(trace.quanta))

    def _count_workload(self, workload) -> None:
        self.count("workload.processes", len(workload.processes))

    def run_command(self, fn: Callable, *args):
        """Run one command as the root span of a new command id."""
        self.cmd += 1
        sid = next(self._ids)
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root = 0
            self._record(sid, 0, self._name_id(ROOT_SPAN), t0, t1, -1.0)

    def spans_from(self, first: int) -> list[tuple]:
        """(sid, parent, name, start, end, cpu) of each span recorded since index first.

        Commands run one at a time, so one command's spans are contiguous.
        """
        names = self.names
        return [
            (self.sid[i], self.parent[i], names[self.name[i]],
             self.start[i], self.end[i], self.cpu[i])
            for i in range(first, len(self.sid))
        ]

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("sid,parent,cmd,name,start,end,cpu\n")
            for i in range(len(self.sid)):
                f.write(f"{self.sid[i]},{self.parent[i]},{self.cmd_of[i]},"
                        f"{self.names[self.name[i]]},{self.start[i]!r},"
                        f"{self.end[i]!r},{self.cpu[i]!r}\n")


def _simulate_span_name(args) -> str:
    return "engine.simulate." + policy_key(args[1].spelling())


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _ in spans
    }


def command_layers(spans, counts: dict[str, int], present: set[str]) -> dict[str, float]:
    """Per-layer metrics of one command from its spans and counts.

    Metrics of a layer whose function the program no longer has are left
    out, not reported as zero.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    engine_self = engine_wait = 0.0
    out: dict[str, float] = {}
    for sid, _, name, start, end, cpu in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == ROOT_SPAN:
            out["cli.main_s"] = end - start
            out["cli.self_s"] = own[sid]
        elif name.startswith("engine.simulate."):
            engine_self += own[sid]
            engine_wait += (end - start) - cpu
    if "engine.simulate" in present:
        for key in POLICY_KEYS:
            out[f"engine.simulate_s.{key}"] = total.get(f"engine.simulate.{key}", 0.0)
            out[f"engine.segments.{key}"] = counts.get(f"engine.segments.{key}", 0)
        out["engine.cycles.smdrr"] = counts.get("engine.cycles.smdrr", 0)
        out["engine.self_s"] = engine_self
        out["engine.wait_s"] = engine_wait
    for span in ("workload.generate", "workload.parse", "engine.to_dict",
                 "metrics.compute", "metrics.to_dict", "report.comparison",
                 "report.gantt_svg", "policies.quantum", "policies.plan_cycle",
                 "policies.requeue"):
        if span in present:
            out[span + "_s"] = total.get(span, 0.0)
    for span in ("policies.quantum", "policies.plan_cycle", "policies.requeue"):
        if span in present:
            out[span + "_calls"] = calls.get(span, 0)
    if present & {"workload.generate", "workload.parse"}:
        out["workload.processes"] = counts.get("workload.processes", 0)
    return out


def median_layers(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the commands that report it.

    The lower median, so that a value is one measured, and a count stays
    a whole number.
    """
    keys = {key for layers in per_command for key in layers}
    return {
        key: statistics.median_low(layers[key] for layers in per_command if key in layers)
        for key in sorted(keys)
    }


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    With n samples sorted ascending, that is the (n - 10)-th smallest,
    at percentile 100 * (n - 10) / n.  None when n < 11.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
        "beyond": 10,
    }
