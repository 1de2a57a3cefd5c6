"""The README's library example and its walkthrough run as written.  This
file imports neither scipy nor hypothesis, so it also runs where numpy is the
only dependency installed."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hvector
from hvector.scoring import load_trials

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1, "expected one python block under Library use"
    return blocks[0].split("\n```", 1)[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert len(namespace["history"]) == 2
    assert namespace["emb"].shape == (32, 64)
    assert namespace["params"].speakers == ["s0_000", "s0_001", "s0_002", "s0_003"]
    assert capsys.readouterr().out.startswith("2\t")


# the README walkthrough through hvector.cli.main with scipy unimportable:
# the three models, both back ends, outputs under nested directories that do
# not exist yet, and the held-out verification with its `awk` split
_WALKTHROUGH = """
import sys
sys.modules["scipy"] = None
from hvector.cli import main


def run(*argv):
    assert main(list(argv)) == 0, argv


run("synth", "--out", "c", "--speakers", "3", "--utts", "4", "--dur", "1")
run("prepare", "--manifest", "c/manifest.tsv", "--out", "f")
for out, model in (("run", ()), ("run_attn", ("--model", "xvector_attn")),
                   ("run_x", ("--model", "xvector"))):
    run("train", "--manifest", "f/manifest.tsv", "--out", out, "--epochs", "1", *model)
    run("embed", "--manifest", "f/manifest.tsv", "--ckpt", f"{out}/model.hvt",
        "--out", f"{out}.csv")
    run("score-id", "--manifest", "f/manifest.tsv", "--ckpt", f"{out}/model.hvt")
for backend in ("plda", "cosine"):
    run("score-ver", "--enrol", "run.csv", "--eval", "run.csv", "--out", backend,
        "--set", f"backend={backend}")
run("embed", "--manifest", "f/manifest.tsv", "--ckpt", "run/model.hvt",
    "--out", "nested/a/emb.csv")
run("score-ver", "--enrol", "nested/a/emb.csv", "--eval", "nested/a/emb.csv",
    "--out", "nested/b/ver", "--set", "backend=cosine")
run("synth", "--out", "held", "--speakers", "3", "--utts", "20", "--dur", "1",
    "--seed", "1000")
run("prepare", "--manifest", "held/manifest.tsv", "--out", "held_feats")
with open("held_feats/manifest.tsv", encoding="utf-8") as fh:
    rows = fh.readlines()
for name, first_half in (("enrol", True), ("eval", False)):
    with open(f"{name}.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(row for k, row in enumerate(rows) if (k % 20 < 10) == first_half)
    run("embed", "--manifest", f"{name}.tsv", "--ckpt", "run/model.hvt",
        "--out", f"{name}.csv")
run("score-ver", "--enrol", "enrol.csv", "--eval", "eval.csv", "--plda-train", "run.csv",
    "--out", "held_ver", "--set", "lda_dim=2")
"""


def test_walkthrough_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable, the
    README walkthrough runs from synth to score-ver, PLDA's LDA included,
    and plain numpy.load opens the checkpoint and the feature store."""
    src = str(Path(hvector.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _WALKTHROUGH], capture_output=True,
                          text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert done.returncode == 0, done.stderr
    for out in ("run", "run_attn", "run_x"):
        assert len((tmp_path / f"{out}.csv").read_text().splitlines()) == 1 + 12
    for backend in ("plda", "cosine"):
        scores, _ = load_trials(tmp_path / backend / "trials.csv")
        assert len(scores) == 3 * 12 and np.isfinite(scores).all()
    nested = tmp_path / "nested"
    assert (nested / "a/emb.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
    assert (nested / "b/ver/trials.csv").read_bytes() == \
        (tmp_path / "cosine/trials.csv").read_bytes()
    assert (nested / "b/ver/eer.txt").stat().st_size > 0
    scores, targets = load_trials(tmp_path / "held_ver/trials.csv")
    assert len(scores) == 3 * 30 and int(targets.sum()) == 30 and np.isfinite(scores).all()
    with np.load(tmp_path / "run/model.hvt", allow_pickle=False) as ckpt:
        assert {"config", "speakers"} <= set(ckpt.files), ckpt.files
        assert ckpt["config"].shape == () and ckpt["config"].dtype.kind == "U"
    with np.load(tmp_path / "f/features.hvt", allow_pickle=False) as store:
        assert store["fragments"].ndim == 4 and store["fragments"].shape[1] == 10
