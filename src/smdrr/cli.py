"""Command-line interface: run, compare, generate, paper-cases.

Exit codes: 0 success, 1 workload/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .engine import Trace, json_quote, simulate
from .errata import CASE_IDS, compute_errata, replay_cases
from .metrics import Convention, MetricsReport, compute_metrics, format_decimal
from .policies import PolicyConfig, PolicyError, parse_policy
from .report import _table_lines, comparison_report, render_gantt_ascii, render_gantt_svg
from .workload import (
    GeneratorSpec,
    Workload,
    WorkloadError,
    generate_workload,
    paper_case,
    parse_workload,
    serialize_workload,
)


def _range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.lstrip("-").isdigit() or not hi.lstrip("-").isdigit():
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    return int(lo), int(hi)


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", metavar="PATH", help="workload file (.json, else CSV)")
    parser.add_argument("--case", type=int, choices=CASE_IDS, help="built-in case 1-4")
    _add_generator_options(parser)


def _add_generator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="generate: process count")
    parser.add_argument("--burst", type=_range, metavar="A..B", help="generate: burst range (ms)")
    parser.add_argument("--arrival", type=_range, metavar="A..B", default=(0, 0),
                        help="generate: arrival range (ms), default 0..0")
    parser.add_argument("--seed", type=int, default=0, help="generate: 64-bit seed")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", action="append", default=[], metavar="SPEC",
                        help="smdrr | rr:<quantum> | fcfs | sjf (repeatable)")
    parser.add_argument("--convention", choices=["standard", "paper"], default="standard",
                        help="turnaround measured from arrival (standard) or from t=0 (paper)")
    parser.add_argument("--format", choices=["text", "csv", "json"], default="text")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdrr",
        description="CPU-scheduling simulator: dynamic harmonic-mean round robin and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate policies and report traces/metrics")
    _add_source_options(run)
    _add_run_options(run)
    run.add_argument("--gantt", choices=["ascii", "svg"], help="include a Gantt chart")

    compare = sub.add_parser("compare", help="side-by-side table for two or more policies")
    _add_source_options(compare)
    _add_run_options(compare)

    generate = sub.add_parser("generate", help="write a seeded random workload")
    _add_generator_options(generate)
    generate.add_argument("--format", choices=["csv", "json"], default="csv")
    generate.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    cases = sub.add_parser("paper-cases", help="replay the four built-in cases plus errata")
    cases.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    return parser


def _generator_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> GeneratorSpec:
    if args.burst is None:
        parser.error("generator needs --burst A..B")
    try:
        return GeneratorSpec(
            count=args.n,
            burst_min=args.burst[0],
            burst_max=args.burst[1],
            arrival_min=args.arrival[0],
            arrival_max=args.arrival[1],
            seed=args.seed,
        )
    except WorkloadError as exc:
        parser.error(str(exc))


def _load_workload(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Workload:
    sources = [args.workload is not None, args.case is not None, args.n is not None]
    if sum(sources) != 1:
        parser.error("choose exactly one workload source: --workload, --case, or --n/--burst")
    if args.case is not None:
        return paper_case(args.case)
    if args.n is not None:
        return generate_workload(_generator_spec(args, parser))
    path = Path(args.workload)
    try:
        text = path.read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read workload {path}: {exc}") from None
    format = "json" if path.suffix == ".json" else "csv"
    return parse_workload(text, format, name=path.stem)


def _runs(args: argparse.Namespace, parser: argparse.ArgumentParser, least: int,
          too_few: str) -> list[tuple[PolicyConfig, Trace, MetricsReport]]:
    """Each --policy simulated over the workload, with its metrics."""
    try:
        policies = [parse_policy(spec) for spec in args.policy]
    except PolicyError as exc:
        parser.error(str(exc))
    if len(policies) < least:
        parser.error(too_few)
    workload = _load_workload(args, parser)
    convention = Convention(args.convention)
    traces = [simulate(workload, config) for config in policies]
    return [(p, t, compute_metrics(t, convention)) for p, t in zip(policies, traces)]


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write chunks in order to the out file, opened once, or to stdout."""
    if out:
        with open(out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _run_text(policy: PolicyConfig, trace: Trace, report: MetricsReport,
              gantt: str | None) -> str:
    lines = [f"== {policy.label} on {trace.workload_name} "
             f"(convention: {report.convention.value}) =="]
    header = ("pid", "arrival", "burst", "first_start", "completion",
              "turnaround", "waiting", "response")
    table = [header]
    for outcome, pm in zip(trace.processes, report.processes):
        table.append(tuple(str(v) for v in (
            outcome.pid, outcome.arrival, outcome.burst, outcome.first_start,
            outcome.completion, pm.turnaround, pm.waiting, pm.response)))
    lines += _table_lines(table)
    if trace.quanta is not None:
        lines.append("quanta: " + ",".join(str(q) for q in trace.quanta))
    lines.append(
        f"att={format_decimal(report.att)} awt={format_decimal(report.awt)} "
        f"cs={report.cs} avg_response={format_decimal(report.avg_response)} "
        f"makespan={report.makespan} "
        f"cpu_utilization={format_decimal(report.cpu_utilization)} "
        f"throughput={format_decimal(report.throughput)}"
    )
    if gantt:
        lines.append(gantt)
    return "\n".join(lines) + "\n"


def _render_gantt(trace: Trace, kind: str | None) -> str | None:
    if kind == "ascii":
        return render_gantt_ascii(trace)
    if kind == "svg":
        return render_gantt_svg(trace)
    return None


def _run_json(runs: list[tuple[PolicyConfig, Trace, MetricsReport]],
              gantt_kind: str | None) -> Iterator[str]:
    """The run documents, byte for byte as json.dumps([...], indent=2) + "\\n"."""
    yield "["
    for i, (policy, trace, report) in enumerate(runs):
        yield (f'{"," if i else ""}\n  {{\n    "policy": {json_quote(policy.spelling())},'
               '\n    "trace": ')
        yield from trace.json_chunks()
        yield ',\n    "metrics": '
        yield from report.json_chunks()
        gantt = _render_gantt(trace, gantt_kind)
        if gantt is not None:
            yield ',\n    "gantt": ' + json_quote(gantt)
        yield "\n  }"
    yield "\n]\n"


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    if args.gantt and args.format == "csv":
        parser.error("--gantt requires --format text or json")
    runs = _runs(args, parser, 1, "run needs at least one --policy")
    if args.format == "json":
        return _run_json(runs, args.gantt)
    if args.format == "csv":
        return [comparison_report(runs, "csv")]
    return ["\n".join([
        _run_text(policy, trace, report, _render_gantt(trace, args.gantt))
        for policy, trace, report in runs
    ])]


def cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    runs = _runs(args, parser, 2, "compare needs at least two --policy options")
    return [comparison_report(runs, args.format)]


def cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    if args.n is None:
        parser.error("generate needs --n")
    return [serialize_workload(generate_workload(_generator_spec(args, parser)), args.format)]


def cmd_paper_cases(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    replayed = replay_cases()
    chunks = [f"[{runs[0][1].workload_name}]\n" + comparison_report(runs, "csv")
              for runs in replayed.values()]
    errata = [e.describe() for e in compute_errata(replayed)] or ["none"]
    chunks.append("\n".join(["errata (published vs computed):", *errata]) + "\n")
    return ["\n".join(chunks)]


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "generate": cmd_generate,
    "paper-cases": cmd_paper_cases,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command finishes simulating before it returns, so a workload
        # error leaves no --out file behind.
        _emit(_COMMANDS[args.command](args, parser), args.out)
    except (WorkloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
