"""CPU-scheduling simulator built around the subcontrary-mean dynamic
round robin policy (SMDRR), with fixed-quantum RR, FCFS and SJF baselines.

The package exports the calls of a typical library session and the types
of their results; everything else is reached through its module
(smdrr.engine, smdrr.metrics, smdrr.policies, smdrr.report,
smdrr.workload).
"""

from .engine import ProcessOutcome, Segment, Trace, simulate
from .metrics import Convention, MetricsReport, ProcessMetrics, compute_metrics
from .policies import PolicyConfig, parse_policy
from .workload import (
    GeneratorSpec,
    ProcessSpec,
    Workload,
    generate_workload,
    paper_case,
    parse_workload,
)

__version__ = "0.1.0"

__all__ = [
    "Convention",
    "GeneratorSpec",
    "MetricsReport",
    "PolicyConfig",
    "ProcessMetrics",
    "ProcessOutcome",
    "ProcessSpec",
    "Segment",
    "Trace",
    "Workload",
    "compute_metrics",
    "generate_workload",
    "paper_case",
    "parse_policy",
    "parse_workload",
    "simulate",
]
