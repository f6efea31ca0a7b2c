"""The lookup names the benchmark's tracer wraps must exist in the program.

perfbench/spans.py wraps each LAYERS target at the name its caller looks
it up under.  A target that stops resolving makes that layer's metrics
absent from every traced run, so a rename or an "unused" import removed
from src/ is caught here instead.  The harness file is loaded read-only.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer", spans.LAYERS, ids=lambda layer: layer.target)
def test_layer_target_resolves(layer):
    assert spans._resolve(layer.target) is not None, layer.target
