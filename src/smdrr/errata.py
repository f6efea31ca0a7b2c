"""Published comparison tables for the built-in cases, and their errata.

The four benchmark cases were published with RR/SMDRR comparison tables.
Some printed values contradict the harmonic-mean quantum rule or the
identity WT = TAT - mean burst; this module replays every case and
reports each (case, algorithm, field) where the published value differs
from the recomputed one.  Divergences are surfaced, never silently
matched or silently fixed.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import Trace, simulate
from .metrics import Convention, MetricsReport, compute_metrics
from .policies import PolicyConfig
from .report import COLUMNS, comparison_rows
from .workload import CASE_IDS, paper_case

FIXED_RR_QUANTUM = 20

# Values exactly as printed in the published tables (zero-referenced
# turnaround convention, fixed RR quantum of 20 ms), in COLUMNS[1:] order.
PUBLISHED_TABLES: dict[tuple[int, str], tuple[str, str, str, int]] = {
    (1, "RR"): ("20", "144", "85.75", 12),
    (1, "SMDRR"): ("41,46,3", "124.5", "66", 6),
    (2, "RR"): ("20", "140.4", "98", 11),
    (2, "SMDRR"): ("34,20,4,1", "128.6", "86.2", 10),
    (3, "RR"): ("20", "88.75", "47.75", 9),
    (3, "SMDRR"): ("10,14,72,3", "73.75", "32.75", 4),
    (4, "RR"): ("20", "125.6", "82.4", 11),
    (4, "SMDRR"): ("18,35,25,43", "108.6", "65.4", 7),
}


class Erratum(NamedTuple):
    """One published value that the recomputation contradicts."""

    case_id: int
    algorithm: str
    field: str
    published: str
    computed: str

    def describe(self) -> str:
        return (
            f"case {self.case_id} {self.algorithm} {self.field}: "
            f"published {self.published}, computed {self.computed}"
        )


def replay_cases() -> dict[int, list[tuple[PolicyConfig, Trace, MetricsReport]]]:
    """Replay all four cases under RR:20 and SMDRR, zero-referenced."""
    policies = (PolicyConfig("rr", FIXED_RR_QUANTUM), PolicyConfig("smdrr"))
    replayed = {}
    for case_id in CASE_IDS:
        workload = paper_case(case_id)
        traces = [simulate(workload, config) for config in policies]
        replayed[case_id] = [(config, trace, compute_metrics(trace, Convention.PAPER_ZERO))
                             for config, trace in zip(policies, traces)]
    return replayed


def compute_errata(
    replayed: dict[int, list[tuple[PolicyConfig, Trace, MetricsReport]]],
) -> list[Erratum]:
    """Field-by-field diff of the published tables against replay_cases()."""
    errata = []
    for case_id, runs in replayed.items():
        for row in comparison_rows(runs):
            published = PUBLISHED_TABLES[(case_id, row[0])]
            for field, have, want in zip(COLUMNS[1:], row[1:], published):
                if str(have) != str(want):
                    errata.append(Erratum(case_id, row[0], field, str(want), str(have)))
    return errata
