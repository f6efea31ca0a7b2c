"""tools/mutants.py's records still apply to the tree, without running any mutant.

Each record's old text must occur exactly once in its file, so that a
change to the code fails here instead of leaving a mutant that no longer
applies; each node id must name a test that exists.  The tool file is
loaded read-only.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once_and_each_test_exists(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name.partition('[')[0])}\(", source, re.M), node
