"""The benchmark's workloads: one CLI command each, with inputs made from a seed.

Inputs are made before timing starts.  The program sees only the argv
built here and, for a file workload, the CSV written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen."""

    name: str
    command: str  # "run" or "compare"
    n: int
    burst: tuple[int, int]
    arrival: tuple[int, int]
    policies: tuple[str, ...]
    format: str  # "csv" or "json"
    from_file: bool = False  # harness writes the CSV; else the CLI generates
    gantt: str | None = None

    def program_seed(self, seed: int) -> int:
        """The --seed the generator gets: the benchmark seed folded to 64 bits."""
        return seed & _MASK64

    def rows(self, seed: int) -> list[tuple[str, int, int]]:
        """(pid, arrival, burst) of a file workload, in submission order."""
        rng = random.Random(seed)
        return [
            (f"P{i}", rng.randint(*self.arrival), rng.randint(*self.burst))
            for i in range(1, self.n + 1)
        ]

    def prepare(self, seed: int, workdir: Path) -> tuple[list[str], Path | None]:
        """Write any input file and return (argv, output file or None)."""
        argv = [self.command]
        if self.from_file:
            path = workdir / f"{self.name}.csv"
            lines = ["pid,arrival,burst"]
            lines += [f"{pid},{arrival},{burst}" for pid, arrival, burst in self.rows(seed)]
            path.write_text("\n".join(lines) + "\n")
            argv += ["--workload", str(path)]
        else:
            argv += ["--n", str(self.n),
                     "--burst", f"{self.burst[0]}..{self.burst[1]}",
                     "--arrival", f"{self.arrival[0]}..{self.arrival[1]}",
                     "--seed", str(self.program_seed(seed))]
        for policy in self.policies:
            argv += ["--policy", policy]
        argv += ["--format", self.format]
        if self.gantt:
            argv += ["--gantt", self.gantt]
        out = None
        if self.format == "json":
            out = workdir / f"{self.name}.out.json"
            argv += ["--out", str(out)]
        return argv, out


WORKLOADS = {w.name: w for w in (
    Workload(
        "compare-overload",
        "compare", 1000, (1, 1000), (0, 50000),
        ("smdrr", "rr:20", "fcfs", "sjf"), "csv",
    ),
    Workload(
        "smdrr-batch",
        "run", 4000, (1, 1000), (0, 0), ("smdrr",), "csv",
    ),
    Workload(
        "trace-export",
        "run", 20000, (1, 1000), (0, 1000000), ("fcfs",), "json",
        from_file=True, gantt="svg",
    ),
)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invoke(main, argv: list[str], out: Path | None) -> tuple[object, bytes, float]:
    """Run one CLI command in process: (exit code, output bytes, seconds in main).

    Only the main() call is timed.  stdout is captured in memory; a file
    output is removed first so a command that fails to write it cannot
    pass with a stale one.  An exception counts as a failed command.
    """
    if out is not None and out.exists():
        out.unlink()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
    if out is None:
        return code, buf.getvalue().encode(), seconds
    return code, out.read_bytes() if out.exists() else b"", seconds
