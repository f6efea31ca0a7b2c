"""Record perfbench medians for two checkouts in one session.

    python3 tools/bench_pairs.py --parent DIR --change DIR [--seed N] > BENCH_<n>.json

Stdlib only.  Each checkout's own ``perfbench/run.py`` is run on every
workload in BENCHMARK.json, ten times untraced and three times traced,
for the ``run_seconds`` BENCHMARK.json sets, with the two checkouts
interleaved run by run (and alternating which goes first), so host drift
falls on both alike.  Prints one JSON object: per checkout and workload,
each end-to-end metric's median, quartiles, relative spread and values,
and each per-layer metric's median; then the change's median over the
parent's median, the pairs the change won and whether the medians differ
by more than the parent's quartile distance, per end-to-end metric, with
whether that median stays within the metric's BENCHMARK.json bound and
whether the runs resolve it (neither side's relative quartile spread
exceeds the bound, or every change run beats every parent run); then,
per workload, the change's per-layer median over the parent's for each
layer both sides report, which shows where a saving sits; and
``tools/scale_sweep.py --json`` for both checkouts, run in SWEEP_ROUNDS
rounds that alternate which checkout goes first, keeping each cell's
fastest run; and one ``tools/gc_split.py`` run of GC_SPLIT_COMMANDS
commands per checkout and workload, which says whether each side's
collections run in the command or in the reference work.  Every run must
report ``correct: true``, or the script stops.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10  # untraced runs per workload and checkout
TRACED_RUNS = 3  # traced runs per workload and checkout, in the first rounds
SWEEP_ROUNDS = 3  # interleaved scale sweeps per checkout
GC_SPLIT_COMMANDS = 12


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root} {workload}: incorrect output\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def compare(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Change against parent for one metric: median ratio, pairs won,
    whether the medians differ by more than the parent's quartile distance,
    whether the change's median is worse than the parent's by no more than
    the metric's BENCHMARK.json bound, and whether the runs resolve that
    verdict: a side whose relative quartile spread exceeds the bound leaves
    it unresolved, unless every change run beats every parent run.  A
    report, not a gate."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent["values"], change["values"]))
    ratio = change["median"] / parent["median"]
    worst_change = max(sign * v for v in change["values"])
    return {
        "median_ratio": ratio,
        "within_bound": ratio <= 1 + bound if better == "lower" else ratio >= 1 - bound,
        "resolved": max(parent["spread"], change["spread"]) <= bound
        or worst_change < min(sign * v for v in parent["values"]),
        "change_wins": sum(1 for p, c in pairs if sign * (p - c) > 0),
        "pairs": len(pairs),
        "beyond_parent_iqr": sign * (parent["median"] - change["median"])
        > parent["q3"] - parent["q1"],
    }


def layer_ratios(parent: dict, change: dict) -> dict:
    """Change over parent per-layer median, for each layer both sides report:
    where a saving sits.  A layer whose parent median is 0 has ratio None."""
    return {n: change[n] / parent[n] if parent[n] else None
            for n in sorted(parent.keys() & change.keys())}


def record(roots: dict[str, Path], workloads: list[str], seed: int, seconds: int) -> dict:
    e2e = {label: {w: [] for w in workloads} for label in roots}
    layers = {label: {w: [] for w in workloads} for label in roots}
    labels = list(roots)
    for i in range(RUNS):
        order = labels if i % 2 == 0 else labels[::-1]
        for w in workloads:
            for label in order:
                e2e[label][w].append(bench(roots[label], w, seed, seconds, 0))
                if i < TRACED_RUNS:
                    layers[label][w].append(bench(roots[label], w, seed, seconds, 1))
                print(f"round {i + 1}: {label} {w}", file=sys.stderr)
    out = {}
    for label in labels:
        out[label] = {}
        for w in workloads:
            out[label][w] = {
                "end_to_end": {n: summary([r[n] for r in e2e[label][w]])
                               for n in e2e[label][w][0]},
                "per_layer_median": {
                    n: statistics.median_low(r[n] for r in layers[label][w] if n in r)
                    for n in sorted({n for r in layers[label][w] for n in r})
                },
            }
    return out


def sweep(roots: dict[str, Path]) -> dict:
    """Each checkout's scale sweep, interleaved round by round, best cell kept."""
    best: dict[str, dict] = {}
    labels = list(roots)
    for i in range(SWEEP_ROUNDS):
        for label in labels if i % 2 == 0 else labels[::-1]:
            result = json.loads(subprocess.run(
                [sys.executable, str(HERE / "scale_sweep.py"), "--json",
                 "--src", str(roots[label] / "src")],
                capture_output=True, text=True, check=True).stdout)
            print(f"sweep {i + 1}: {label}", file=sys.stderr)
            if label not in best:
                best[label] = result
                continue
            cells = best[label]["cells"]
            for j, cell in enumerate(result["cells"]):
                if cell.get("seconds", float("inf")) < cells[j].get("seconds", float("inf")):
                    cells[j] = cell
    for result in best.values():
        result["rounds"] = SWEEP_ROUNDS
    return best


def gc_splits(roots: dict[str, Path], workloads: list[str], seed: int) -> dict:
    """Each checkout's GC collections per phase of the closed loop, per workload."""
    return {label: {w: json.loads(subprocess.run(
        [sys.executable, str(HERE / "gc_split.py"), "--src", str(root / "src"),
         "--workload", w, "--seed", str(seed), "--commands", str(GC_SPLIT_COMMANDS)],
        capture_output=True, text=True, check=True).stdout) for w in workloads}
        for label, root in roots.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1, help="--seed of each run")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "protocol": {"seed": args.seed, "seconds": seconds, "runs": RUNS,
                     "traced_runs": TRACED_RUNS, "sweep_rounds": SWEEP_ROUNDS,
                     "gc_split_commands": GC_SPLIT_COMMANDS,
                     "interleaved": True},
    }
    result.update(record(roots, workloads, args.seed, seconds))
    declared_e2e = {m["name"]: m for m in declared["end_to_end"]}
    result["change_over_parent"] = {
        w: {n: compare(result["parent"][w]["end_to_end"][n], s,
                       declared_e2e[n]["better"], declared_e2e[n]["bound"])
            for n, s in result["change"][w]["end_to_end"].items()}
        for w in workloads
    }
    result["layer_change_over_parent"] = {
        w: layer_ratios(result["parent"][w]["per_layer_median"],
                        result["change"][w]["per_layer_median"])
        for w in workloads
    }
    result["scale_sweep"] = sweep(roots)
    result["gc_split"] = gc_splits(roots, workloads, args.seed)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
