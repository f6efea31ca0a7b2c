"""tools/gc_split.py runs perfbench's closed loop and splits GC by phase.

A smoke test: two compare-overload commands in a fresh interpreter.  The
tool loads perfbench's workloads and worker read-only.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gc_split_reports_each_phase_and_generation():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gc_split.py"), "--src", str(ROOT / "src"),
         "--workload", "compare-overload", "--commands", "2"],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(done.stdout)
    assert (result["workload"], result["seed"], result["commands"]) == ("compare-overload", 0, 2)
    for phase in ("command", "reference"):
        assert set(result[phase]) == {"gen0", "gen1", "gen2"}
        for cell in result[phase].values():
            assert cell["collections"] >= 0 and cell["ms"] >= 0
            assert (cell["collections"] * 2) % 1 == 0  # whole collections over 2 commands
    # the reference work alone allocates enough to run young collections
    assert result["reference"]["gen0"]["collections"] > 0
    assert set(result["full_collections_in"]) <= {"command", "reference"}
    # the peak resident set in MB after each counted command: positive, never falling
    walk = result["peak_rss_walk"]
    assert len(walk) == 2 and 0 < walk[0] <= walk[1]
