"""Simulate-only scale sweep: microseconds per trace segment as n grows.

    python3 tools/scale_sweep.py [--src DIR] [--json]

Stdlib only.  Each row is a policy with a burst range and an arrival
spread: SMDRR, RR:20, FCFS and SJF with bursts 1..1000 ms and arrivals
over 0..n*50 ms, and SMDRR with bursts 1..10**6 ms and every arrival at
0, the input on which an exact integer quantum costs time quadratic in
the number of distinct remaining times, so the row shows whether the
certified float quantum keeps the cost linear.  For each row and each n in 100,
1000, 4000, 10**4 and 10**5 it generates n processes (seed 1), times
``simulate`` alone and prints µs per segment and the segment count.  A
cell counts as linear-time when its µs/segment stays flat as n grows.

Each cell has a wall budget of BUDGET_S seconds.  Every cell runs until
one of its row has taken longer than that; the larger cells after it are
reported as skipped and are not run.  No cell is skipped on a prediction,
so two checkouts swept on one host run the same cells unless one of them
measured a cell over the budget.  A cell is repeated until its runs have
taken at least MIN_S seconds, and the fastest run is kept: one run of a
large cell, hundreds of an n = 100 cell, whose single run takes well
under a millisecond.  MIN_S is far below BUDGET_S, so a cell's repeats
stay within the budget whenever its first run does.

--src points at another checkout's ``src`` directory, so that two
commits can be swept with the same script.  --json prints one JSON
object instead of the table.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

# (policy, burst range in ms, arrival spread in ms per process)
ROWS = (
    ("smdrr", (1, 1000), 50),
    ("rr:20", (1, 1000), 50),
    ("fcfs", (1, 1000), 50),
    ("sjf", (1, 1000), 50),
    ("smdrr", (1, 10**6), 0),
)
SIZES = (100, 1000, 4000, 10**4, 10**5)
SEED = 1
MIN_S = 0.2  # seconds of simulate runs per cell, at least
BUDGET_S = 10.0  # wall seconds per cell


def sweep() -> dict:
    from smdrr.engine import simulate
    from smdrr.policies import parse_policy
    from smdrr.workload import GeneratorSpec, generate_workload

    cells = []
    for spelling, burst, spread in ROWS:
        config = parse_policy(spelling)
        over = None  # n of the row's cell that took longer than the budget
        for n in SIZES:
            cell = {"policy": spelling, "burst": list(burst), "arrival": f"0..{n * spread}",
                    "n": n}
            cells.append(cell)
            if over is not None:
                cell["skipped"] = f"n = {over} took over the {BUDGET_S:g} s budget"
                continue
            workload = generate_workload(GeneratorSpec(n, *burst, 0, n * spread, SEED))
            best, spent, runs = float("inf"), 0.0, 0
            while spent < MIN_S:
                gc.collect()
                t0 = time.perf_counter()
                trace = simulate(workload, config)
                elapsed = time.perf_counter() - t0
                best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
            segments = len(trace.segments)
            cell.update(seconds=best, segments=segments, runs=runs,
                        us_per_segment=best / segments * 1e6)
            if best > BUDGET_S:
                over = n
    return {
        "seed": SEED,
        "budget_s": BUDGET_S,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "cells": cells,
    }


def table(result: dict) -> str:
    lines = [f"{'policy':<7} {'burst':>10} {'arrival':>12} {'n':>6} {'segments':>9} "
             f"{'us/segment':>11} {'seconds':>9}"]
    for cell in result["cells"]:
        burst = "..".join(str(end) for end in cell["burst"])
        head = f"{cell['policy']:<7} {burst:>10} {cell['arrival']:>12} {cell['n']:>6}"
        if "skipped" in cell:
            lines.append(f"{head} skipped: {cell['skipped']}")
        else:
            lines.append(f"{head} {cell['segments']:>9} {cell['us_per_segment']:>11.2f} "
                         f"{cell['seconds']:>9.4f}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source directory holding the smdrr package")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    result = sweep()
    sys.stdout.write(json.dumps(result, indent=2) + "\n" if args.json else table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
