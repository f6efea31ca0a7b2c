"""tools/scale_sweep.py runs a cell unless an earlier cell of its row took
longer than the budget: no cell is skipped on a prediction.  It repeats a
cell until its runs have taken MIN_S seconds, and keeps the fastest.

simulate, the generator and the clock are fakes, so the sweep takes no
real time; the tool file is loaded read-only.  Every cost is a binary
fraction, so the fake clock adds them exactly.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import smdrr.engine
import smdrr.workload

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_sweep.py"
spec = importlib.util.spec_from_file_location("scale_sweep", TOOL)
scale_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_sweep)

# Seconds of one simulate call, by row (policy, largest burst) and n.
COST = {
    ("smdrr", 1000): {n: n * 2**-17 for n in scale_sweep.SIZES},
    # over the budget at n = 10**4
    ("rr:20", 1000): {100: 0.125, 1000: 1.0, 4000: 4.0, 10**4: 12.0, 10**5: 120.0},
    # over the budget at its first cell
    ("fcfs", 1000): {n: 11.0 for n in scale_sweep.SIZES},
    # exactly the budget is not over it
    ("sjf", 1000): {100: 2**-7, 1000: 2**-4, 4000: 1.0, 10**4: 10.0, 10**5: 10.0},
    # near quadratic up to n = 10**4, which predicts 75 s at n = 10**5; it takes 7.5 s
    ("smdrr", 10**6): {100: 2**-13, 1000: 2**-7, 4000: 0.125, 10**4: 0.75, 10**5: 7.5},
}


def test_a_cell_runs_unless_an_earlier_cell_of_its_row_went_over_the_budget(monkeypatch):
    clock = SimpleNamespace(now=0.0)

    def simulate(generated, config):
        clock.now += COST[config.spelling(), generated.burst_max][generated.count]
        return SimpleNamespace(ends=range(generated.count))

    monkeypatch.setattr(smdrr.engine, "simulate", simulate)
    monkeypatch.setattr(smdrr.workload, "generate_workload", lambda generated: generated)
    monkeypatch.setattr(scale_sweep, "time", SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(scale_sweep, "gc", SimpleNamespace(collect=lambda: 0))

    cells = scale_sweep.sweep()["cells"]
    assert len(cells) == len(COST) * len(scale_sweep.SIZES)
    over = set()  # rows with a cell over the budget so far
    for cell in cells:
        row = (cell["policy"], cell["burst"][1])
        assert ("skipped" in cell) == (row in over), cell
        if "skipped" not in cell:
            seconds = COST[row][cell["n"]]
            assert cell["seconds"] == seconds
            assert cell["segments"] == cell["n"]
            # repeated until MIN_S is spent, and not once more
            assert (cell["runs"] - 1) * seconds < scale_sweep.MIN_S <= cell["runs"] * seconds
            if seconds <= scale_sweep.BUDGET_S:
                assert cell["runs"] * seconds <= scale_sweep.BUDGET_S
            if seconds > scale_sweep.BUDGET_S:
                over.add(row)
    assert over == {("rr:20", 1000), ("fcfs", 1000)}
    wide = cells[-1]
    assert (wide["policy"], wide["burst"], wide["n"]) == ("smdrr", [1, 10**6], 10**5)
    assert wide["runs"] == 1 and wide["seconds"] == 7.5
    first = cells[0]
    assert (first["policy"], first["n"], first["runs"]) == ("smdrr", 100, 263)
