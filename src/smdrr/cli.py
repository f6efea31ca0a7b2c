"""Command-line interface: run, compare, generate, paper-cases.

Exit codes: 0 success, 1 workload/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .engine import ProcessOutcome, Trace, simulate
from .errata import compute_errata, replay_cases
from .metrics import Convention, MetricsReport, ProcessMetrics, compute_metrics
from .policies import PolicyError, parse_policy
from .report import _table_lines, comparison_report, render_gantt_ascii, render_gantt_svg
from .workload import (
    _parse_int,
    CASE_IDS,
    GeneratorSpec,
    Workload,
    WorkloadError,
    generate_workload,
    paper_case,
    parse_workload,
    serialize_workload,
)


def _int(text: str) -> int:
    """An integer argument, read by the workload files' integer rule."""
    try:
        return _parse_int(text, "value")
    except WorkloadError as exc:  # argparse prefixes "argument --n: "
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    return _int(lo), _int(hi)


def build_parser() -> argparse.ArgumentParser:
    """The smdrr parser.  Each subcommand's defaults name its command
    function and its own parser, whose usage line its errors print."""
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--workload", metavar="PATH", help="workload file (.json, else CSV)")
    source.add_argument("--case", type=_int, choices=CASE_IDS, help="built-in case 1-4")
    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument("--n", type=_int, help="generate: process count")
    generator.add_argument("--burst", type=_range, metavar="A..B",
                           help="generate: burst range (ms)")
    generator.add_argument("--arrival", type=_range, metavar="A..B",
                           help="generate: arrival range (ms), default 0..0")
    generator.add_argument("--seed", type=_int, help="generate: 64-bit seed")
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--policy", action="append", default=[], metavar="SPEC",
                      help="smdrr | rr:<quantum> | fcfs | sjf (repeatable)")
    runs.add_argument("--convention", choices=["standard", "paper"], default="standard",
                      help="turnaround measured from arrival (standard) or from t=0 (paper)")
    runs.add_argument("--format", choices=["text", "csv", "json"], default="text")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="smdrr",
        description="CPU-scheduling simulator: dynamic harmonic-mean round robin and baselines",
    )
    sub = parser.add_subparsers(required=True)
    run = sub.add_parser("run", parents=[source, generator, runs, out],
                         help="simulate policies and report traces/metrics")
    run.add_argument("--gantt", choices=["ascii", "svg"], help="include a Gantt chart")
    run.set_defaults(command=cmd_run, parser=run)
    compare = sub.add_parser("compare", parents=[source, generator, runs, out],
                             help="side-by-side table for two or more policies")
    compare.set_defaults(command=cmd_compare, parser=compare)
    generate = sub.add_parser("generate", parents=[generator, out],
                              help="write a seeded random workload")
    generate.add_argument("--format", choices=["csv", "json"], default="csv")
    generate.set_defaults(command=cmd_generate, parser=generate)
    cases = sub.add_parser("paper-cases", parents=[out],
                           help="replay the four built-in cases plus errata")
    cases.set_defaults(command=cmd_paper_cases, parser=cases)
    return parser


def _generator_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> GeneratorSpec:
    if args.burst is None:
        parser.error("generator needs --burst A..B")
    try:
        return GeneratorSpec(args.n, *args.burst, *(args.arrival or (0, 0)), args.seed or 0)
    except WorkloadError as exc:
        parser.error(str(exc))


def _load_workload(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Workload:
    sources = [args.workload is not None, args.case is not None, args.n is not None]
    if sum(sources) != 1:
        parser.error("choose exactly one workload source: --workload, --case, or --n/--burst")
    if args.n is None and (args.burst, args.arrival, args.seed) != (None, None, None):
        parser.error("--burst, --arrival and --seed need --n")
    if args.case is not None:
        return paper_case(args.case)
    if args.n is not None:
        return generate_workload(_generator_spec(args, parser))
    path = Path(args.workload)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise WorkloadError(f"cannot read workload {path}: {exc}") from None
    format = "json" if path.suffix == ".json" else "csv"
    return parse_workload(text, format, name=path.stem)


def _runs(args: argparse.Namespace, parser: argparse.ArgumentParser, least: int,
          too_few: str) -> list[MetricsReport]:
    """Each --policy simulated over the workload, with its metrics."""
    try:
        policies = [parse_policy(spec) for spec in args.policy]
    except PolicyError as exc:
        parser.error(str(exc))
    if len(policies) < least:
        parser.error(too_few)
    workload = _load_workload(args, parser)
    convention = Convention(args.convention)
    return [compute_metrics(simulate(workload, config), convention) for config in policies]


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write chunks in order to the out file, opened once, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _run_text(report: MetricsReport, gantt: str | None) -> str:
    trace = report.trace
    name = trace.workload_name
    if not name.isprintable():  # a line break would split the header
        name = json_quote(name)
    label = parse_policy(trace.policy).label
    lines = [f"== {label} on {name} (convention: {report.convention.value}) =="]
    table = [ProcessOutcome._fields + ProcessMetrics._fields[1:]]
    table += [tuple(map(str, outcome + pm[1:]))
              for outcome, pm in zip(trace.outcomes(), report.rows())]
    lines += _table_lines(table)
    if trace.quanta is not None:
        lines.append("quanta: " + ",".join(str(q) for q in trace.quanta))
    lines.append(" ".join(f"{name}={value}" for name, value in report.aggregates()))
    if gantt:
        lines.append(gantt)
    return "\n".join(lines) + "\n"


def _render_gantt(trace: Trace, kind: str | None) -> str | None:
    if kind == "ascii":
        return render_gantt_ascii(trace)
    if kind == "svg":
        return render_gantt_svg(trace)
    return None


# The string quoting json.dumps itself uses (ensure_ascii, C accelerated).
json_quote = json.encoder.encode_basestring_ascii


# The run document is json.dumps([{"policy", "trace", "metrics"}], indent=2):
# the keys of a trace or metrics object sit at depth 3, the items of its lists
# at depth 4 and the fields of a record at depth 5.  A record's %-template is
# filled from a plain tuple of its fields.  A pid goes in verbatim between
# quotes, since the workload pid grammar admits no character JSON escapes.
def _template(record: type) -> str:
    """The template of a record type whose first field is a pid, keyed by its _fields."""
    pid, *rest = record._fields
    fields = [f'"{pid}": "%s"'] + [f'"{name}": %s' for name in rest]
    return "{\n          " + ",\n          ".join(fields) + "\n        }"


_SEGMENT = '{\n          "pid": "%s",\n          "start": %s,\n          "end": %s\n        }'
_IDLE = '{\n          "idle": true,\n          "start": %s,\n          "end": %s\n        }'
_OUTCOME = _template(ProcessOutcome)
_METRICS = _template(ProcessMetrics)


def _list(items: list[str]) -> str:
    """A JSON array of rendered items at depth 3 of the run document."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _run_json(reports: list[MetricsReport], gantt_kind: str | None) -> Iterator[str]:
    """The run documents, byte for byte as json.dumps([...], indent=2) + "\\n",
    one chunk per record list."""
    yield "["
    for i, report in enumerate(reports):
        trace = report.trace
        yield (f'{"," if i else ""}\n  {{\n    "policy": {json_quote(trace.policy)},'
               f'\n    "trace": {{\n      "workload": {json_quote(trace.workload_name)},'
               f'\n      "policy": {json_quote(trace.policy)},\n      "segments": ')
        yield _list([_SEGMENT % s if s[0] is not None else _IDLE % s[1:]
                     for s in trace.intervals()])
        yield ',\n      "processes": '
        yield _list([_OUTCOME % p for p in trace.outcomes()])
        if trace.quanta is not None:
            yield ',\n      "quanta": ' + _list([str(q) for q in trace.quanta])
        yield ('\n    },\n    "metrics": {\n      "convention": '
               f'{json_quote(report.convention.value)},\n      "processes": ')
        yield _list([_METRICS % p for p in report.rows()])
        yield "".join(
            f',\n      "{name}": {json_quote(value) if isinstance(value, str) else value}'
            for name, value in report.aggregates()) + "\n    }"
        gantt = _render_gantt(trace, gantt_kind)
        if gantt is not None:
            yield from (',\n    "gantt": ', json_quote(gantt))
        yield "\n  }"
    yield "\n]\n"


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    if args.gantt and args.format == "csv":
        parser.error("--gantt requires --format text or json")
    reports = _runs(args, parser, 1, "run needs at least one --policy")
    if args.format == "json":
        return _run_json(reports, args.gantt)
    if args.format == "csv":
        return [comparison_report(reports, "csv")]
    return ["\n".join([_run_text(report, _render_gantt(report.trace, args.gantt))
                       for report in reports])]


def cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    reports = _runs(args, parser, 2, "compare needs at least two --policy options")
    return [comparison_report(reports, args.format)]


def cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    if args.n is None:
        parser.error("generate needs --n")
    return [serialize_workload(generate_workload(_generator_spec(args, parser)), args.format)]


def cmd_paper_cases(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Iterable[str]:
    replayed = replay_cases()
    chunks = [f"[{reports[0].trace.workload_name}]\n" + comparison_report(reports, "csv")
              for reports in replayed.values()]
    errata = [e.describe() for e in compute_errata(replayed)] or ["none"]
    chunks.append("\n".join(["errata (published vs computed):", *errata]) + "\n")
    return ["\n".join(chunks)]


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        # Every command finishes simulating before it returns, so a workload
        # error leaves no --out file behind.
        _emit(args.command(args, args.parser), args.out)
    except (WorkloadError, OSError) as exc:
        if args.out or not isinstance(exc, BrokenPipeError):  # else stdout's reader stopped early
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
