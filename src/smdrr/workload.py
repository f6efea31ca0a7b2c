"""Process workloads: validation, CSV/JSON I/O, seeded generation, built-in cases.

All times are integer milliseconds.  A zero burst is rejected outright
because the harmonic-mean quantum is undefined on it.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from operator import itemgetter
from typing import Iterable

_INT_RE = re.compile(r"-?[0-9]+", re.ASCII)
# Pids are written verbatim in CSV cells, SVG text, the ASCII lane and JSON
# strings, so they hold no comma, markup character, bar, space or character
# that JSON escapes, and at least one letter or digit, so that no pid reads
# like the idle label "--".  The leading run holds no letter or digit, so a
# match never backtracks.
_PID_RE = re.compile(r"[_.:-]*[A-Za-z0-9][A-Za-z0-9_.:-]*")
# Every output format repeats a pid once per segment, so its length is capped.
MAX_PID_LENGTH = 64
_MASK64 = (1 << 64) - 1
# Process cap of --n and of a file: a hostile size fails at once instead of exhausting memory.
MAX_PROCESSES = 1_000_000
# RR and SMDRR segment cap: 0.24 GB of trace at 48 B a segment.
MAX_SEGMENTS = 5_000_000
# Arrival and burst cap, 10**12 ms (about 31.7 years): every remaining time
# stays below 2**53, and a makespan of up to 9 * 10**6 processes below 2**63.
MAX_TIME = 10**12


class WorkloadError(ValueError):
    """Invalid workload data (bad field, duplicate pid, malformed input, segment cap)."""


def _remake(cls, iterable):
    """_make, and so _replace, through the record's own checking __new__."""
    return cls(*iterable)


class ProcessSpec(namedtuple("ProcessSpec", "pid arrival burst")):
    """One process: identifier, arrival time (ms) and burst time (ms).  Its
    fields, in order, are the workload files' columns and JSON keys."""

    __slots__ = ()
    _make = classmethod(_remake)  # so _replace checks too

    def __new__(cls, pid: str, arrival: int, burst: int) -> ProcessSpec:
        if isinstance(pid, str) and len(pid) > MAX_PID_LENGTH:
            raise WorkloadError(f"pid has {len(pid)} characters, more than {MAX_PID_LENGTH}")
        if not isinstance(pid, str) or not _PID_RE.fullmatch(pid):
            raise WorkloadError("pid is empty" if pid == "" else
                                f"pid {pid!r} does not match {_PID_RE.pattern}")
        try:
            _check_int(arrival, "arrival", 0, MAX_TIME)
            _check_int(burst, "burst", 1, MAX_TIME)
        except WorkloadError as exc:
            raise WorkloadError(f"process {pid}: {exc}") from None
        return tuple.__new__(cls, (pid, arrival, burst))


_CSV_HEADER = ",".join(ProcessSpec._fields)
# One line of the CSV fast path: a strict subset of what the row-by-row parser
# admits, with no space or sign, and 1 to 13 ASCII digits (MAX_TIME has 13) a number.
_CSV_ROW_RE = re.compile(rf"^({_PID_RE.pattern}),([0-9]{{1,13}}),([0-9]{{1,13}})\n", re.M)


class Workload(namedtuple("Workload", "name processes")):
    """A named, ordered collection of processes.

    List order is the submission order and seeds every deterministic
    tie-break downstream.
    """

    __slots__ = ()
    _make = classmethod(_remake)  # so _replace checks too

    def __new__(cls, name: str, processes: Iterable[ProcessSpec]) -> Workload:
        processes = tuple(processes)
        if not processes:
            raise WorkloadError("workload has no processes")
        if len({p.pid for p in processes}) != len(processes):  # then name the first repeat
            seen: set[str] = set()
            for p in processes:
                if p.pid in seen:
                    raise WorkloadError(f"duplicate pid {p.pid}")
                seen.add(p.pid)
        return tuple.__new__(cls, (name, processes))


class GeneratorSpec(namedtuple("GeneratorSpec", "count burst_min burst_max arrival_min "
                               "arrival_max seed", defaults=(0, 0, 0))):
    """Parameters for the seeded uniform workload generator."""

    __slots__ = ()
    _make = classmethod(_remake)  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> GeneratorSpec:
        spec = super().__new__(cls, *args, **kwargs)
        _check_int(spec.count, "count", 1, MAX_PROCESSES)
        _check_int(spec.burst_min, "burst_min", 1)
        _check_int(spec.burst_max, "burst_max", spec.burst_min, MAX_TIME)
        _check_int(spec.arrival_min, "arrival_min", 0)
        _check_int(spec.arrival_max, "arrival_max", spec.arrival_min, MAX_TIME)
        _check_int(spec.seed, "seed", 0, _MASK64)
        return spec


# The one integer rule: text is read by _parse_int, values are checked by
# _check_int, and every integer input of the package goes through one of them.
def _parse_int(text: str, field: str, where: str = "") -> int:
    """Text of ASCII base-10 digits, an optional minus first, as an int.

    Errors read `where: field ...`, or `field ...` when where is empty."""
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            fault = f"has too many digits ({len(text)})"
    else:
        fault = f"is not a base-10 integer: {text!r}"
    raise WorkloadError(f"{where}: {field} {fault}" if where else f"{field} {fault}")


def _check_int(value: object, field: str, least: int, most: int | None = None) -> None:
    """Raise WorkloadError unless value is an int, not a bool, in [least, most]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise WorkloadError(f"{field} must be an integer")
    if value < least:
        raise WorkloadError(f"{field} must be >= {least}")
    if most is not None and value > most:
        raise WorkloadError(f"{field} must be <= {most}")


def parse_workload(text: str, format: str = "csv", name: str = "workload") -> Workload:
    """Parse a workload from CSV or JSON text.

    CSV has no name column, so `name` supplies one (JSON carries its own).
    Raises WorkloadError with the offending row/field on any invalid input.
    """
    if format == "csv":
        return _parse_csv(text, name)
    if format == "json":
        return _parse_json(text)
    raise ValueError(f"unknown workload format: {format!r}")


def _parse_csv(text: str, name: str) -> Workload:
    # Only the row-by-row parser raises, so every error reads the same either way.
    return _parse_csv_fast(text, name) or _parse_csv_rows(text, name)


def _parse_csv_fast(text: str, name: str) -> Workload | None:
    """The workload when every line after the exact header is one _CSV_ROW_RE
    row and the batch passes every check the row-by-row parser makes, else None."""
    start = len(_CSV_HEADER) + 1
    rows = text.count("\n", start)  # the cap bounds the work before any row is built
    if not (text.startswith(_CSV_HEADER + "\n") and text.endswith("\n")
            and 0 < rows <= MAX_PROCESSES):
        return None
    new = tuple.__new__
    processes = tuple([new(ProcessSpec, (pid, int(arrival), int(burst))) for pid, arrival, burst
                       in map(re.Match.groups, _CSV_ROW_RE.finditer(text, start))])
    if len(processes) != rows:  # some line is not a row
        return None
    # by column, not zip(*processes), which holds an iterator per row
    pids, arrivals, bursts = (list(map(itemgetter(i), processes)) for i in range(3))
    if (max(map(len, pids)) > MAX_PID_LENGTH or len(set(pids)) != rows
            or max(arrivals) > MAX_TIME or not 1 <= min(bursts) <= max(bursts) <= MAX_TIME):
        return None
    return new(Workload, (name, processes))


def _parse_csv_rows(text: str, name: str) -> Workload:
    # Errors name the file's own line numbers; blank lines are skipped.
    numbered = enumerate(text.splitlines(), start=1)
    lineno, header = next(((n, line) for n, line in numbered if line.strip()), (0, ""))
    if not header:
        raise WorkloadError("empty workload file")
    if header.strip() != _CSV_HEADER:
        raise WorkloadError(f"line {lineno}: header must be exactly {_CSV_HEADER!r}")

    def rows():
        for lineno, line in numbered:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            where = f"line {lineno}"
            if len(cells) != len(ProcessSpec._fields):
                raise WorkloadError(f"{where}: expected {len(ProcessSpec._fields)} fields, "
                                    f"got {len(cells)}")
            yield (where, cells[0].strip(), _parse_int(cells[1].strip(), "arrival", where),
                   _parse_int(cells[2].strip(), "burst", where))

    return Workload(name, _processes(rows()))


def _parse_json(text: str) -> Workload:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise WorkloadError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise WorkloadError("top level must be an object")
    if not isinstance(doc.get("name"), str):
        raise WorkloadError("field 'name' must be a string")
    records = doc.get("processes")
    if not isinstance(records, list) or not records:
        raise WorkloadError("field 'processes' must be a non-empty array")

    def rows():
        for i, row in enumerate(records):
            where = f"processes[{i}]"
            if not isinstance(row, dict):
                raise WorkloadError(f"{where}: must be an object")
            for field in ProcessSpec._fields:
                if field not in row:
                    raise WorkloadError(f"{where}: missing field {field!r}")
            yield (where, *(row[field] for field in ProcessSpec._fields))

    return Workload(doc["name"], _processes(rows()))


def _processes(rows) -> tuple[ProcessSpec, ...]:
    """One ProcessSpec per (where, pid, arrival, burst) row, each error
    prefixed by its row's location, duplicate pids and the process cap included."""
    processes = []
    seen: set[str] = set()
    for where, pid, arrival, burst in rows:
        if len(processes) == MAX_PROCESSES:
            raise WorkloadError(f"{where}: more than {MAX_PROCESSES} processes")
        try:
            processes.append(ProcessSpec(pid, arrival, burst))
        except WorkloadError as exc:
            raise WorkloadError(f"{where}: {exc}") from None
        if pid in seen:
            raise WorkloadError(f"{where}: duplicate pid {pid}")
        seen.add(pid)
    return tuple(processes)


def serialize_workload(w: Workload, format: str = "csv") -> str:
    """Render a workload as CSV or JSON text; parse_workload inverts it."""
    if format == "csv":
        rows = (ProcessSpec._fields, *w.processes)
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    if format == "json":
        doc = {
            "name": w.name,
            "processes": [p._asdict() for p in w.processes],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown workload format: {format!r}")


def _splitmix64(seed: int):
    """SplitMix64 stream; fixed algorithm so generated workloads are
    reproducible from the seed alone, independent of the Python runtime."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def generate_workload(spec: GeneratorSpec) -> Workload:
    """Generate `count` processes with uniform arrivals and bursts.

    Draws come from a SplitMix64 stream mapped into each range by modulo
    (arrival then burst, one pair per process); pids P1..Pn are assigned
    in nondecreasing arrival order.  Pure function of the spec.
    """
    draws = _splitmix64(spec.seed)
    arrival_span = spec.arrival_max - spec.arrival_min + 1
    burst_span = spec.burst_max - spec.burst_min + 1
    pairs = []
    for _ in range(spec.count):
        arrival = spec.arrival_min + next(draws) % arrival_span
        burst = spec.burst_min + next(draws) % burst_span
        pairs.append((arrival, burst))
    pairs.sort(key=lambda pair: pair[0])
    # GeneratorSpec has proven both ranges and the count cap, and P1..Pn
    # match _PID_RE within MAX_PID_LENGTH, so ProcessSpec's checks are skipped.
    processes = tuple(
        tuple.__new__(ProcessSpec, (f"P{i}", arrival, burst))
        for i, (arrival, burst) in enumerate(pairs, start=1)
    )
    return Workload(f"generated-seed{spec.seed}", processes)


_BUILTIN_CASES = {
    1: (("P1", 0, 20), ("P2", 0, 40), ("P3", 0, 83), ("P4", 0, 90)),
    2: (("P1", 0, 17), ("P2", 0, 27), ("P3", 0, 52), ("P4", 0, 57), ("P5", 0, 59)),
    3: (("P1", 0, 10), ("P2", 6, 14), ("P3", 12, 69), ("P4", 22, 75)),
    4: (("P1", 0, 18), ("P2", 3, 20), ("P3", 6, 50), ("P4", 11, 60), ("P5", 21, 68)),
}
CASE_IDS = tuple(_BUILTIN_CASES)


def paper_case(case_id: int) -> Workload:
    """Return one of the four built-in benchmark workloads (1-4)."""
    try:
        _check_int(case_id, "case id", 1, len(_BUILTIN_CASES))
    except WorkloadError:
        raise WorkloadError(f"unknown case id: {case_id!r} (expected 1-4)") from None
    rows = _BUILTIN_CASES[case_id]
    return Workload(f"case-{case_id}", tuple(ProcessSpec(*row) for row in rows))
