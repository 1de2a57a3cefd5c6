"""The benchmark harness still finds every name it uses in the package.

perfbench/spans.py patches functions by the name their callers look them
up under, and layers.py and workloads.py import from the package, so a
renamed or deleted function fails here, not only in a traced benchmark run.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("spans", "layers", "workloads")   # generic names: imported for this test only


@pytest.fixture
def perfbench(monkeypatch):
    """Import a perfbench module by name, with perfbench/ on sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["layers", "workloads"])
def test_module_imports(perfbench, name):
    perfbench(name)


def test_every_patched_name_resolves(perfbench):
    spans = perfbench("spans")
    targets = [entry[:2] for entry in spans.SPANNED + spans.AGGREGATED]
    assert targets
    for module, attribute in targets:
        assert callable(getattr(importlib.import_module(module), attribute)), \
            f"{module}.{attribute}"


@pytest.mark.parametrize("layer", ["frame_attention", "segment_attention"])
def test_attention_layer_counter_reads_six_nodes(perfbench, layer):
    # model.desk.<layer>.nodes, the figure the traced run reports
    assert perfbench("layers")._time_layer("desk", layer, seed=0)["nodes"] == 6
