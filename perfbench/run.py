"""Benchmark of the smdrr CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop (one client, serial, one
command at a time) calls ``smdrr.cli.main`` in process in a fresh worker
interpreter for S seconds.  With --trace 0 the last line of stdout holds
the end-to-end metrics named in BENCHMARK.json; with --trace 1 the worker
runs half the time untraced and half with every layer wrapped, and the
last line holds the per-layer metrics.  Every output is checked: the
checker's own run of the command must pass the checks in checks.py, and
every command the worker runs must give the same bytes.  Exits 2,
printing no result, when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21
# The probe is timed inside a fresh interpreter, so nothing the harness
# imports can warm it; interpreter start-up itself is not counted.
_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import smdrr.cli\n"
    "smdrr.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def measure_setup(src: Path) -> float:
    """Median over fresh interpreters of importing smdrr.cli and building its parser."""
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-E", "-s", "-c", _PROBE, str(src)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first probe also writes the bytecode cache
            times.append(float(done.stdout))
    return statistics.median(times)


def run_worker(spec: dict, timeout: float) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    src = ROOT / "src"
    if not (src / "smdrr" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: no smdrr program (src/smdrr, tests/oracle.py) under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s = None if args.trace else measure_setup(src)
    argv, out = w.prepare(args.seed, workdir)
    report = run_worker(
        {"src": str(src), "argv": argv, "out": str(out) if out else None,
         "seconds": args.seconds, "trace": args.trace,
         "spans": str(workdir / f"spans-{w.name}.csv")},
        timeout=args.seconds + 100,
    )

    # checks import the program only now, after the worker has finished
    sys.path.insert(0, str(src))
    from checks import Tally, check_command, load_oracle

    tally = Tally()
    reference, problems = check_command(w, args.seed, workdir, load_oracle(ROOT), tally)
    tally.add_outputs(report["outputs"], reference)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    samples = report["samples"]
    if args.trace:
        values = dict(report["layers"], failed_ratio=tally.ratio)
        wanted = declared["per_layer"]
    else:
        # each command against the reference work timed just before and after it
        refs = report["refs"]
        ratios = [s / ((a + b) / 2) for s, a, b in zip(samples, refs, refs[1:])]
        values = {
            "cmd_p50_ref": statistics.median(ratios),
            "cmd_per_ref": len(ratios) / sum(ratios),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": setup_s,
        }
        wanted = declared["end_to_end"]
    # a layer whose function the program no longer has is absent, not zero
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    diagnostics = {"cmd_p50_s": statistics.median(samples), "cmd_tail_s": report["tail"],
                   "untraced_samples": len(samples), "failed_ratio": tally.ratio,
                   "problems": problems}
    if not args.trace:
        diagnostics["cmd_per_s"] = len(samples) / report["elapsed"]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
