"""Where cyclic GC runs in perfbench's closed loop: in the command or in the reference work.

    python3 tools/gc_split.py --src DIR --workload NAME [--seed N] [--commands K]

Stdlib only.  DIR is a checkout's ``src`` directory, as for
tools/scale_sweep.py (default: this checkout's); perfbench/workloads.py and
perfbench/worker.py are loaded read-only from the same checkout, and no
bytecode is written next to them.  The tool runs the worker's closed loop
in process: the reference work once, then, for one untimed warm-up
command and K counted ones, ``gc.collect()``, one command through
``workloads.invoke(cli.main, ...)`` and ``worker.reference_work()``.  A
``gc.callbacks`` hook attributes each collection to the phase it ran in.

perfbench/run.py reads each command's time in units of the reference
work timed around it, so a collection that moves from one phase to the
other moves ``cmd_p50_ref`` whether or not the command got faster.

Prints one JSON object: for the command and the reference phase, and
for each generation, the collections and the milliseconds they took per
counted command; and ``full_collections_in``, the phases in which
generation-2 collections ran; and ``peak_rss_walk``, the process's peak
resident set (``ru_maxrss``, in MB) right after each counted command.
The loop's own ``gc.collect()`` is in neither phase.

Two checkouts' walks, compared command by command, show whether a
``peak_rss_mb`` difference between them is one step to another heap
plateau or memory that every command holds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

PHASES = ("command", "reference")


class Split:
    """A gc.callbacks hook: collections and seconds per (phase, generation)."""

    def __init__(self) -> None:
        self.phase: str | None = None  # None: not counted
        self.collections = {p: [0, 0, 0] for p in PHASES}
        self.seconds = {p: [0.0, 0.0, 0.0] for p in PHASES}
        self._started = 0.0

    def __call__(self, event: str, info: dict) -> None:
        if event == "start":
            self._started = time.perf_counter()
        elif self.phase is not None:
            generation = info["generation"]
            self.collections[self.phase][generation] += 1
            self.seconds[self.phase][generation] += time.perf_counter() - self._started

    def report(self, commands: int) -> dict:
        return {
            phase: {f"gen{g}": {"collections": self.collections[phase][g] / commands,
                                "ms": self.seconds[phase][g] * 1e3 / commands}
                    for g in range(3)}
            for phase in PHASES
        }


def split(src: Path, workload: str, seed: int, commands: int) -> dict:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src.parent / "perfbench"), str(src)]
    import worker
    import workloads
    from smdrr import cli

    hook = Split()
    walk = []
    with tempfile.TemporaryDirectory() as workdir:
        argv, out = workloads.WORKLOADS[workload].prepare(seed, Path(workdir))
        gc.callbacks.append(hook)
        try:
            worker.reference_work()
            for i in range(commands + 1):  # the first is the warm-up
                counted = i > 0
                gc.collect()
                hook.phase = "command" if counted else None
                code, _, _ = workloads.invoke(cli.main, argv, out)
                hook.phase = None  # the reading below is in neither phase
                if counted:
                    walk.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                hook.phase = "reference" if counted else None
                worker.reference_work()
                hook.phase = None
                if code != 0:
                    raise SystemExit(f"{workload}: the command exited with {code}")
        finally:
            gc.callbacks.remove(hook)
    phases = hook.report(commands)
    return {
        "workload": workload, "seed": seed, "commands": commands,
        **phases,
        "full_collections_in": [p for p in PHASES if hook.collections[p][2]],
        "peak_rss_walk": walk,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source directory holding the smdrr package")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="the benchmark seed")
    parser.add_argument("--commands", type=int, default=12, help="counted commands")
    args = parser.parse_args(argv)
    if args.commands < 1:
        parser.error("--commands must be >= 1")
    json.dump(split(args.src.resolve(), args.workload, args.seed, args.commands), sys.stdout,
              indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
