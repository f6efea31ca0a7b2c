"""Run the committed mutation checks: each mutant must fail its named tests.

    python3 tools/mutants.py

Stdlib only.  Each record in MUTANTS names a file of the repository, a
text that occurs exactly once in it, the text that replaces it, and the
pytest node ids that must fail once it is replaced.  For each record the
tool copies the repository, without .git and caches, to a fresh temporary
directory outside the working tree, applies the one edit there, runs the
named tests in the copy and prints one line: killed (some test failed),
survived (all passed) or error (the tests could not run, or the edit did
not apply), with the seconds it took.  First it runs every named test
once on an unedited copy, which must survive.  It exits 1 unless that
holds and every mutant is killed.
tests/test_mutants.py checks, without running any mutant, that every old
text still occurs exactly once and every node id names a test that exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per mutant; a mutant that hangs is reported as an error
# Hypothesis's example database is not copied: a kill must not depend on
# examples that earlier local runs saved.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


ENGINE, POLICIES, METRICS = "src/smdrr/engine.py", "src/smdrr/policies.py", "src/smdrr/metrics.py"
WORKLOAD, CLI, REPORT = "src/smdrr/workload.py", "src/smdrr/cli.py", "src/smdrr/report.py"
_FLOAT_QUANTUM = ("math.ceil(mean * (1 - 2**-50))\n"
                  "        if quantum == math.ceil(mean * (1 + 2**-50))")
_SCATTER = "first_starts[i], completions[i] = first_start[rank], completion[rank]"
_REQUEUE = ("            while cursor < total and arrival[cursor] <= now:\n"
            "                admit(cursor)\n"
            "                cursor += 1\n"
            "            ready.append(rank)\n")
_CAP_READ = ("def _parse_csv_fast(text: str, name: str) -> Workload | None:\n"
             '    """The workload when every line after the exact header is one _CSV_ROW_RE\n'
             '    row and the batch passes every check the row-by-row parser makes, else None."""\n'
             "    start = len(_CSV_HEADER) + 1\n"
             '    rows = text.count("\\n", start)'
             "  # the cap bounds the work before any row is built\n"
             '    if not (text.startswith(_CSV_HEADER + "\\n") and text.endswith("\\n")\n'
             "            and 0 < rows <= MAX_PROCESSES):\n")
_LINE_ENDS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"

MUTANTS = (
    # The engine and the planner: one tie rule, the quantum, the requeue.
    Mutant("sjf-heap-key-without-burst", ENGINE,
           "heapq.heappush(ready, (remaining[rank], rank))",
           "heapq.heappush(ready, (rank, rank))",
           ("tests/test_differential.py::test_engine_follows_oracle_at_size",
            "tests/test_engine.py::test_sjf_differs_from_fcfs_on_late_short_job")),
    Mutant("plan-ties-reversed", POLICIES,
           "key=lambda rank: (remaining[rank], rank))",
           "key=lambda rank: (remaining[rank], -rank))",
           ("tests/test_differential.py::test_engine_follows_oracle_at_size",
            "tests/test_acceptance.py::test_criterion_6_property_suite")),
    Mutant("exact-quantum-floor", POLICIES,
           "return -(-len(remaining) * den // num)",
           "return len(remaining) * den // num",
           ("tests/test_policies.py::test_both_quantum_paths_match_fraction",
            "tests/test_policies.py::test_quantum_takes_the_float_path_only_when_certified")),
    Mutant("requeue-before-arrivals", ENGINE, _REQUEUE,
           "            ready.append(rank)\n" + _REQUEUE.rpartition("            ready")[0],
           ("tests/test_acceptance.py::test_criterion_5_engine_equals_independent_oracle",
            "tests/test_differential.py::test_engine_follows_oracle_at_size")),
    # The certified float quantum.
    Mutant("float-quantum-no-margin", POLICIES, _FLOAT_QUANTUM,
           _FLOAT_QUANTUM.replace("2**-50", "0"),
           ("tests/test_policies.py::test_harmonic_mean_quantum_values",
            "tests/test_policies.py::test_quantum_takes_the_float_path_only_when_certified")),
    Mutant("float-quantum-floor", POLICIES, _FLOAT_QUANTUM,
           _FLOAT_QUANTUM.replace("ceil", "floor"),
           ("tests/test_policies.py::test_harmonic_mean_quantum_values",
            "tests/test_acceptance.py::test_criterion_8_exact_rational_quantum_guard")),
    Mutant("generator-burst-without-min", WORKLOAD,
           "burst = spec.burst_min + next(draws) % burst_span",
           "burst = next(draws) % burst_span",
           ("tests/test_workload.py::test_generated_records_pass_process_spec_checks",
            "tests/test_workload.py::test_generate_respects_ranges_and_pid_order")),
    # Per-process results as columns.
    Mutant("scatter-swaps-first-starts-and-completions", ENGINE, _SCATTER,
           "first_starts[i], completions[i] = completion[rank], first_start[rank]",
           ("tests/test_engine.py::test_case4_smdrr_completions",
            "tests/test_metrics.py::test_avg_response")),
    Mutant("scatter-in-rank-order", ENGINE, _SCATTER,
           "first_starts[rank], completions[rank] = first_start[rank], completion[rank]",
           ("tests/test_engine.py::test_ties_break_by_arrival_then_submission_index",
            "tests/test_differential.py::test_engine_follows_oracle_on_mixed_spreads")),
    Mutant("paper-turnaround-subtracts-arrivals", METRICS,
           "0 if convention is Convention.PAPER_ZERO else arrival_sum",
           "arrival_sum",
           ("tests/test_metrics.py::test_zero_referenced_tables",
            "tests/test_acceptance.py::test_criterion_3_case3_tables")),
    # The bulk-validated CSV parse.
    Mutant("csv-fast-path-admits-burst-0", WORKLOAD,
           "not 1 <= min(column(2))",
           "not 0 <= min(column(2))",
           ("tests/test_workload.py::test_csv_fast_path_agrees_with_the_row_by_row_parser",
            "tests/test_workload.py::test_parse_csv_errors")),
    Mutant("csv-row-regex-unanchored", WORKLOAD,
           'rf"^({_PID_RE.pattern}),',
           'rf"({_PID_RE.pattern}),',
           ("tests/test_workload.py::test_csv_fast_path_agrees_with_the_row_by_row_parser",
            "tests/test_workload.py::test_csv_fast_path_agrees_on_mutated_texts")),
    Mutant("csv-row-regex-admits-quote", WORKLOAD,
           'rf"^({_PID_RE.pattern}),',
           'rf"^((?:{_PID_RE.pattern}|\\")+),',
           ("tests/test_workload.py::test_csv_fast_path_agrees_with_the_row_by_row_parser",)),
    Mutant("csv-cap-read-at-import", WORKLOAD, _CAP_READ,
           _CAP_READ.replace("name: str)", "name: str, cap: int = MAX_PROCESSES)")
           .replace("rows <= MAX_PROCESSES", "rows <= cap"),
           ("tests/test_workload.py::test_process_cap_is_inclusive_for_parsed_files",
            "tests/test_cli.py::test_a_file_over_the_process_cap_is_one_located_error_line")),
    Mutant("csv-fast-path-without-final-newline", WORKLOAD,
           'text.startswith(_CSV_HEADER + "\\n") and text.endswith("\\n")',
           'text.startswith(_CSV_HEADER + "\\n")',
           ("tests/test_workload.py::test_csv_fast_path_agrees_with_the_row_by_row_parser",
            "tests/test_workload.py::test_csv_fast_path_agrees_on_mutated_texts")),
    Mutant("csv-fast-path-whole-body-match", WORKLOAD,
           "    new = tuple.__new__\n",
           '    if not re.fullmatch(rf"(?:{_PID_RE.pattern},[0-9]+,[0-9]+\\n)+", text[start:]):\n'
           "        return None\n"
           "    new = tuple.__new__\n",
           ("tests/test_workload.py::"
            "test_a_large_csv_takes_the_fast_path_in_no_more_memory_than_row_by_row",)),
    # Lazy lines in the row-by-row CSV reader, and a reader that stops early.
    Mutant("line-ends-crlf-after-class", WORKLOAD,
           f'r"\\r\\n|[{_LINE_ENDS}]"',
           f'r"[{_LINE_ENDS}]|\\r\\n"',
           ("tests/test_workload.py::test_csv_lines_are_those_of_splitlines",)),
    Mutant("line-ends-admit-x1f", WORKLOAD,
           r"\x1c-\x1e", r"\x1c-\x1f",
           ("tests/test_workload.py::test_csv_lines_are_those_of_splitlines",)),
    Mutant("line-ends-drop-u2029", WORKLOAD,
           r"\u2028\u2029]", r"\u2028]",
           ("tests/test_workload.py::test_csv_lines_are_those_of_splitlines",)),
    Mutant("lines-always-yield-tail", WORKLOAD,
           "    if start < len(text):\n        yield text[start:]",
           "    yield text[start:]",
           ("tests/test_workload.py::test_csv_lines_are_those_of_splitlines",)),
    Mutant("lines-from-splitlines", WORKLOAD,
           "numbered = enumerate(_lines(text), start=1)",
           "numbered = enumerate(text.splitlines(), start=1)",
           ("tests/test_workload.py::test_the_process_cap_stops_the_read_of_a_long_csv",)),
    Mutant("broken-pipe-reported", CLI,
           "if args.out or not isinstance(exc, BrokenPipeError):",
           "if True:",
           ("tests/test_cli.py::test_a_reader_that_stops_early_ends_the_run_quietly",)),
    # A run is its MetricsReport.
    Mutant("label-from-policy-spelling", REPORT,
           "(parse_policy(r.trace.policy).label,",
           "(r.trace.policy.upper(),",
           ("tests/test_report.py::test_comparison_row_takes_label_and_quanta_from_the_report",)),
    Mutant("run-json-policy-from-workload-name", CLI,
           """    "policy": {json_quote(trace.policy)},'""",
           """    "policy": {json_quote(trace.workload_name)},'""",
           ("tests/test_cli.py::test_run_json_case1_smdrr_paper",
            "tests/test_json_stream.py::test_streamed_run_json_equals_indent_dump")),
    Mutant("mixed-workloads-accepted", REPORT,
           "    if len(names) > 1:\n",
           "    if False:\n",
           ("tests/test_report.py::test_comparison_rejects_mixed_workloads",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Make the mutant's one edit in the tree at root."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[str, float]:
    """(killed | survived | error, seconds) for the tests in a temporary
    copy of the repository, with the mutant's edit made if one is given."""
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="smdrr-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        try:
            if mutant is not None:
                apply(mutant, copy)
        except ValueError:
            return "error", time.perf_counter() - began
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", time.perf_counter() - began
    # pytest exits 1 when a test failed and 0 when all passed; anything
    # else means the tests did not run as written.
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return verdict, time.perf_counter() - began


def main() -> int:
    began = time.perf_counter()
    # A kill means something only if the same tests pass without the edit.
    verdict, seconds = run(tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    print(f"{verdict:<8} {seconds:7.1f} s  (no mutant: must survive)", flush=True)
    all_killed = verdict == "survived"
    for mutant in MUTANTS:
        verdict, seconds = run(mutant.tests, mutant)
        all_killed &= verdict == "killed"
        print(f"{verdict:<8} {seconds:7.1f} s  {mutant.name}", flush=True)
    print(f"total    {time.perf_counter() - began:7.1f} s")
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
