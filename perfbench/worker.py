"""Closed-loop client: one command at a time, serial, no harness threads.

Started by run.py as a fresh interpreter, so the peak memory it reports
belongs to one workload.  Usage:

    python3 perfbench/worker.py '<json spec>'

The spec gives src (the program's source directory), argv, out (output
file or null), seconds, trace (0 or 1) and spans (file for the spans).
Prints one JSON object with the command times (in seconds and relative
to a fixed reference work), a count of each output digest, the peak RSS
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, command_layers, median_layers, tail
from workloads import digest, invoke


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work (tens of ms).

    On a shared host the speed of the same Python code drifts by 15-30%
    within seconds.  Timed just before and after every command, this
    work is the unit in which command times stay comparable between
    runs, so it must never change.
    """
    t0 = time.perf_counter()
    rows = sorted((i * 7919 % 10007, str(i)) for i in range(30000))
    index = {name: key for key, name in rows}
    ",".join(index)
    return time.perf_counter() - t0


def _loop(main, argv, out, seconds: float, results: dict, after=None):
    """Run commands until `seconds` have passed (at least one).

    Returns the seconds of each command and of the reference work timed
    before the first command and after each one.
    """
    samples, refs = [], [reference_work()]
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        # each CLI call would start from a fresh process: do not bill it
        # for garbage left by the one before
        gc.collect()
        code, output, elapsed = invoke(main, argv, out)
        samples.append(elapsed)
        key = digest(output) if code == 0 else f"exit {code}"
        results[key] = results.get(key, 0) + 1
        if after is not None:
            after()
        refs.append(reference_work())
    return samples, refs


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from smdrr import cli

    argv, seconds = spec["argv"], spec["seconds"]
    out = Path(spec["out"]) if spec["out"] else None
    outputs: dict[str, int] = {}
    _loop(cli.main, argv, out, 0, outputs)  # untimed warm-up
    report = {}
    if not spec["trace"]:
        t0 = time.perf_counter()
        samples, refs = _loop(cli.main, argv, out, seconds, outputs)
        elapsed = time.perf_counter() - t0
        report.update(samples=samples, refs=refs, elapsed=elapsed,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        # half untraced, half traced: the difference is the tracing overhead
        samples, _ = _loop(cli.main, argv, out, seconds / 2, outputs)
        tracer = Tracer()
        tracer.install()
        per_command = []
        first = 0

        def reduce_command():
            nonlocal first
            spans = tracer.spans_from(first)
            per_command.append(command_layers(spans, tracer.counts.get(tracer.cmd, {}),
                                              tracer.present))
            first = len(tracer.sid)

        traced_main = lambda argv: tracer.run_command(cli.main, argv)  # noqa: E731
        traced, _ = _loop(traced_main, argv, out, seconds / 2, outputs, after=reduce_command)
        tracer.uninstall()
        tracer.write(spec["spans"])
        layers = median_layers(per_command)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(samples)
        report.update(samples=samples, layers=layers)
    report["outputs"] = outputs
    report["tail"] = tail(report["samples"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
