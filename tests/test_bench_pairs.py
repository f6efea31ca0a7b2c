"""tools/bench_pairs.py's per-metric verdict against the parent checkout,
and its per-layer ratios.

within_bound applies BENCHMARK.json's rule: the change's median may be
worse than the parent's by at most the metric's relative bound, in the
metric's own direction.  resolved is false when either side's relative
quartile spread exceeds that bound, unless every change run beats every
parent run.  The tool file is loaded read-only.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = bench_pairs.summary([9.0, 10.0, 10.0, 11.0])


@pytest.mark.parametrize(
    "change,better,within",
    [
        ([12.0, 12.4, 12.4, 13.0], "lower", True),    # +24% on a 25% bound
        ([12.0, 12.6, 12.6, 13.0], "lower", False),   # +26%
        ([5.0, 5.0, 5.0, 5.0], "lower", True),        # better
        ([7.0, 7.6, 7.6, 8.0], "higher", True),       # -24%
        ([7.0, 7.4, 7.4, 8.0], "higher", False),      # -26%
        ([20.0, 20.0, 20.0, 20.0], "higher", True),   # better
    ],
)
def test_within_bound(change, better, within):
    result = bench_pairs.compare(PARENT, bench_pairs.summary(change), better, 0.25)
    assert result["within_bound"] is within


@pytest.mark.parametrize(
    "parent,change,better,resolved",
    [
        ([9.0, 10.0, 10.0, 11.0], [12.0, 12.4, 12.4, 13.0], "lower", True),  # both tight
        ([5.0, 10.0, 10.0, 20.0], [9.0, 10.0, 10.0, 11.0], "lower", False),  # parent 37.5%
        ([9.0, 10.0, 10.0, 11.0], [5.0, 10.0, 10.0, 20.0], "lower", False),  # change 37.5%
        ([10.0, 15.0, 15.0, 30.0], [5.0, 6.0, 7.0, 9.0], "lower", True),     # change beats all
        ([10.0, 15.0, 15.0, 30.0], [5.0, 6.0, 7.0, 10.0], "lower", False),   # a tie is no win
        ([1.0, 2.0, 2.0, 4.0], [5.0, 6.0, 6.0, 7.0], "higher", True),        # change beats all
        ([1.0, 2.0, 2.0, 4.0], [5.0, 6.0, 6.0, 7.0], "lower", False),        # change loses all
    ],
)
def test_resolved(parent, change, better, resolved):
    result = bench_pairs.compare(bench_pairs.summary(parent), bench_pairs.summary(change),
                                 better, 0.25)
    assert result["resolved"] is resolved


def test_layer_ratios_cover_the_layers_both_sides_report():
    parent = {"metrics.compute_s": 0.004, "engine.to_dict_s": 0.0, "cli.main_s": 0.010,
              "workload.parse_s": 0.002}
    change = {"metrics.compute_s": 0.001, "engine.to_dict_s": 0.0, "cli.main_s": 0.008,
              "workload.generate_s": 0.003}
    assert bench_pairs.layer_ratios(parent, change) == {
        "cli.main_s": 0.8, "engine.to_dict_s": None, "metrics.compute_s": 0.25}
