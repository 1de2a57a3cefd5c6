"""The benchmark harness still finds every name it uses in the package.

perfbench/spans.py patches functions by the name their callers look them
up under, and layers.py and workloads.py import from the package, so a
renamed or deleted function fails here, not only in a traced benchmark run.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from hvector.cli import main
from hvector.scoring import EmbeddingRecord, save_embeddings

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


def test_output_checks_pass_on_what_the_program_writes(perfbench, tmp_path, capsys):
    # the checks a benchmark run makes on its outputs read them back with
    # load_embeddings and load_trials
    workloads = perfbench("workloads")
    rng = np.random.default_rng(0)
    emb = tmp_path / "emb.csv"
    save_embeddings(emb, [EmbeddingRecord(f"s{k}-u{j}", f"s{k}",
                                          rng.standard_normal(4) + 0.5 * k)
                          for k in range(3) for j in range(4)])
    assert workloads._check_embeddings(emb, 12, 4) == []
    assert main(["score-ver", "--enrol", str(emb), "--eval", str(emb),
                 "--out", str(tmp_path / "ver")]) == 0
    eer = workloads._value(capsys.readouterr().out, "EER")
    assert float(eer) > 0.0     # so the recomputed EER can disagree with it
    assert workloads._check_verification(tmp_path / "ver", eer, 3 * 12) == []
