"""The benchmark's traced run wraps the public functions that
``perfbench/tracing.py`` lists in ``SPANS`` and fails on a missing one,
so removing such a name must fail here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("layer", sorted(SPANS))
def test_traced_names_exist(layer):
    module = importlib.import_module(f"dualquant.{layer}")
    assert [n for n in SPANS[layer] if not hasattr(module, n)] == []
