"""End-to-end checks of the command-line pipeline.

Every test drives `main()` in process and inspects exit codes, stdout, and
the files each stage writes.  A module-scoped fixture runs one small
synth -> prepare -> train pipeline that the embed/score tests reuse.
"""

import argparse
import contextlib
import dataclasses
import errno
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import wave
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hvector
from hvector import cli
from hvector import scoring
from hvector import tensor as hv
from hvector.audio import AudioClip, save_wav, split_fragments
from hvector.cli import (
    _SCHEMAS, build_parser, load_features, main, resolve_config, save_features,
)
from hvector.corpus import _CASTS, Manifest, ManifestEntry
from hvector.model import ModelConfig, build_params, load_checkpoint, save_checkpoint
from hvector.scoring import (
    EmbeddingRecord,
    compute_eer,
    cosine_score,
    embedding_matrix,
    load_embeddings,
    load_trials,
    make_trials,
    plda_fit,
    save_embeddings,
    save_trials,
    score_trials,
)
from hvector.train import TrainConfig, predict

from helpers import save_old_archive, tiny_config


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth 3x6x1s -> prepare -> train 3 epochs; returns the key paths."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    corpus = root / "corpus"
    feats = root / "feats"
    run = root / "run"

    code, _, err = run_cli("synth", "--out", str(corpus), "--speakers", "3",
                           "--utts", "6", "--dur", "1", "--seed", "11")
    assert code == 0, err
    code, _, err = run_cli("prepare", "--manifest", str(corpus / "manifest.tsv"),
                           "--out", str(feats), "--len", "1")
    assert code == 0, err
    code, out, err = run_cli("train", "--manifest", str(feats / "manifest.tsv"),
                             "--out", str(run), "--model", "hvector",
                             "--epochs", "3", "--seed", "4",
                             "--set", "lr=0.001")
    assert code == 0, err
    return {
        "root": root,
        "corpus_manifest": corpus / "manifest.tsv",
        "feats_manifest": feats / "manifest.tsv",
        "run": run,
        "ckpt": run / "model.hvt",
        "log": run / "train.log",
        "train_stdout": out,
    }


class TestSynth:
    def test_writes_corpus_and_echoes_config(self, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, _ = run_cli("synth", "--out", str(out_dir), "--speakers", "3",
                               "--utts", "4", "--dur", "0.5", "--seed", "3")
        assert code == 0
        assert "config synth.speakers=3" in out
        assert "config synth.dur=0.5" in out
        assert "wrote 12 utterances for 3 speakers" in out
        manifest = Manifest.load(out_dir / "manifest.tsv")
        assert len(manifest) == 12
        assert len(list(out_dir.glob("wav/*/*.wav"))) == 12

    def test_existing_dir_needs_force(self, tmp_path):
        out_dir = tmp_path / "corpus"
        args = ("synth", "--out", str(out_dir), "--speakers", "2",
                "--utts", "2", "--dur", "0.5", "--seed", "1")
        assert run_cli(*args)[0] == 0
        first = (out_dir / "manifest.tsv").read_bytes()
        code, _, err = run_cli(*args)
        assert code == 1
        assert "already exists" in err and "--force" in err

        assert run_cli(*args, "--force")[0] == 0
        assert (out_dir / "manifest.tsv").read_bytes() == first

    def test_same_seed_same_audio(self, tmp_path):
        wavs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert run_cli("synth", "--out", str(out_dir), "--speakers", "2",
                           "--utts", "2", "--dur", "0.5", "--seed", "9")[0] == 0
            wavs.append(sorted(out_dir.glob("wav/*/*.wav"))[0].read_bytes())
        assert wavs[0] == wavs[1]

    def test_too_few_speakers(self, tmp_path):
        code, _, err = run_cli("synth", "--out", str(tmp_path / "c"),
                               "--speakers", "1", "--utts", "2")
        assert code == 1
        assert "at least 2 speakers" in err

    def test_flag_beats_set_override(self, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, _ = run_cli("synth", "--out", str(out_dir), "--speakers", "2",
                               "--utts", "2", "--dur", "0.5",
                               "--set", "speakers=5")
        assert code == 0
        assert "config synth.speakers=2" in out
        assert len(Manifest.load(out_dir / "manifest.tsv")) == 4


class TestPrepare:
    def test_one_second_windows_from_three_second_clips(self, tmp_path):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "3", "--dur", "3", "--seed", "2")[0] == 0
        code, out, _ = run_cli("prepare", "--manifest",
                               str(corpus / "manifest.tsv"),
                               "--out", str(feats), "--len", "1")
        assert code == 0
        manifest = Manifest.load(feats / "manifest.tsv")
        # 3 s at half-window overlap -> 5 windows per clip
        assert len(manifest) == 2 * 3 * 5
        assert "prepared 30 windows from 6 clips (0 failed, 0 too short)" in out
        # one store, whatever the clip count, and the manifest addresses its rows
        assert sorted(p.name for p in feats.iterdir()) == ["features.hvt", "manifest.tsv"]
        assert [(e.path, e.row) for e in manifest.entries] == \
            [(str(feats / "features.hvt"), row) for row in range(30)]
        # a 1 s window is 98 frames: 10 fragments of 9, the last 8 dropped
        utt, = load_features(manifest.entries[:1])
        assert utt.fragments.shape == (10, 9, 20)
        assert (utt.utterance_id, utt.speaker_id) == ("s2_000-u000-w000", "s2_000")

    def test_per_file_failure_continues(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "2", "--dur", "1", "--seed", "4")[0] == 0
        bad = tmp_path / "bad.wav"
        rng = np.random.default_rng(0)
        pcm = (rng.standard_normal(16000) * 1000).astype("<i2")
        with wave.open(str(bad), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(pcm.tobytes())
        manifest_path = corpus / "manifest.tsv"
        with open(manifest_path, "a", encoding="utf-8") as fh:
            fh.write(f"badutt\ts4_000\t{bad}\t0\n")

        feats = tmp_path / "feats"
        code, out, err = run_cli("prepare", "--manifest", str(manifest_path),
                                 "--out", str(feats))
        assert code == 1
        assert "badutt" in err and "sample rate 16000" in err
        manifest = Manifest.load(feats / "manifest.tsv")
        assert len(manifest) == 4  # the good clips were still converted
        assert "(1 failed, 0 too short)" in out

    @pytest.mark.parametrize("length", ["0.1", "0.02", "0.0001"])
    def test_window_shorter_than_ten_frames_is_refused(self, tmp_path, length):
        # 10 frames span 200 + 9 * 80 = 920 samples, 0.115 s at 8 kHz
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "2", "--dur", "0.5", "--seed", "4")[0] == 0
        code, _, err = run_cli("prepare", "--manifest", str(corpus / "manifest.tsv"),
                               "--out", str(feats), "--len", length)
        assert code == 1
        assert err == (f"error: --len: bad value for len: len must be finite and at "
                       f"least 0.115 s, the span of 10 frames; got {length}\n")
        assert not feats.exists()

    def test_shortest_window_prepares(self, tmp_path):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "2", "--dur", "0.5", "--seed", "4")[0] == 0
        code, out, err = run_cli("prepare", "--manifest", str(corpus / "manifest.tsv"),
                                 "--out", str(feats), "--len", "0.115")
        assert code == 0, err
        entries = Manifest.load(feats / "manifest.tsv").entries
        assert entries
        assert all(u.fragments.shape == (10, 1, 20) for u in load_features(entries))

    def test_empty_manifest_is_an_error(self, tmp_path):
        empty = tmp_path / "manifest.tsv"
        empty.write_text("")
        code, _, err = run_cli("prepare", "--manifest", str(empty),
                               "--out", str(tmp_path / "feats"))
        assert code == 1
        assert "lists no utterances" in err

    def test_force_rerun_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "2", "--dur", "1", "--seed", "6")[0] == 0
        args = ("prepare", "--manifest", str(corpus / "manifest.tsv"),
                "--out", str(feats))
        assert run_cli(*args)[0] == 0
        manifest_bytes = (feats / "manifest.tsv").read_bytes()
        feat_file = feats / "features.hvt"
        feat_bytes = feat_file.read_bytes()

        assert run_cli(*args)[0] == 1  # refuses without --force
        assert run_cli(*args, "--force")[0] == 0
        assert (feats / "manifest.tsv").read_bytes() == manifest_bytes
        assert feat_file.read_bytes() == feat_bytes


class TestTrain:
    def test_outputs_and_log_format(self, pipeline):
        # the config and the speaker list live inside model.hvt
        assert sorted(p.name for p in pipeline["run"].iterdir()) == ["model.hvt", "train.log"]
        lines = pipeline["log"].read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert re.fullmatch(r"\d+\t\d+\.\d{6}\t\d\.\d{4}\t\d\.\d{4}", line)
        assert "config train.lr=0.001" in pipeline["train_stdout"]
        assert "config train.model=hvector" in pipeline["train_stdout"]
        assert re.search(r"best_dev_acc=\d\.\d{4}", pipeline["train_stdout"])

    def test_refuses_to_overwrite_without_force(self, pipeline):
        code, _, err = run_cli("train", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--out", str(pipeline["run"]),
                               "--epochs", "1")
        assert code == 1
        assert "already exists" in err

    def test_same_seed_reproduces_the_log(self, pipeline, tmp_path):
        code, _, err = run_cli("train", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--out", str(tmp_path / "run2"),
                               "--model", "hvector", "--epochs", "3",
                               "--seed", "4", "--set", "lr=0.001")
        assert code == 0, err
        assert (tmp_path / "run2" / "train.log").read_bytes() == \
            pipeline["log"].read_bytes()

    def test_failed_force_rerun_keeps_the_old_run(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        old = {name: f"old {name}\n".encode()
               for name in ("model.hvt", "model.cfg", "model.spk", "train.log")}
        for name, content in old.items():
            (run / name).write_bytes(content)
        manifest = tmp_path / "m.tsv"     # speaker b has one utterance: split fails
        manifest.write_text("a-0\ta\ta0.hvt\t98\na-1\ta\ta1.hvt\t98\nb-0\tb\tb0.hvt\t98\n")
        code, _, err = run_cli("train", "--manifest", str(manifest), "--out", str(run),
                               "--force")
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "speaker b has 1 utterance(s)" in err
        for name, content in old.items():
            assert (run / name).read_bytes() == content, name

    def test_failed_train_reruns_without_force(self, tmp_path):
        # the run diverges in epoch 2, after epoch 1 wrote train.log, and
        # leaves the tree as it found it, whether or not --out existed
        store = tmp_path / "features.hvt"
        rng = np.random.default_rng(0)
        hv.save_archive(store, {"fragments": rng.standard_normal((6, 10, 10, 20))})
        manifest = tmp_path / "m.tsv"
        manifest.write_text("".join(f"{s}-u{j}\t{s}\t{store}\t{3 * i + j}\n"
                                    for i, s in enumerate("ab") for j in range(3)))
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        for out in (tmp_path / "new" / "run", kept):
            argv = ("train", "--manifest", str(manifest), "--out", str(out), "--epochs", "2")
            before = sorted(tmp_path.rglob("*"))
            code, _, err = run_cli(*argv, "--set", "lr=1e300")
            assert code == 1
            assert len(err.splitlines()) == 1 and "training diverged" in err, err
            assert sorted(tmp_path.rglob("*")) == before
            code, _, err = run_cli(*argv, "--set", "lr=0.001")
            assert code == 0, err
            assert {"model.hvt", "train.log"} <= {p.name for p in out.iterdir()}

    def test_checkpoint_holds_the_preset_config(self, pipeline):
        # train sets the preset's mode and frames per fragment, nothing
        # else: the dropout is the model's fixed 0.2
        frames = hv.load_archive(pipeline["feats_manifest"].parent / "features.hvt")[
            "fragments"].shape[2]
        _, model_cfg = load_checkpoint(pipeline["ckpt"])
        assert model_cfg == ModelConfig.desk(3, mode="hvector", frames_per_fragment=frames)
        assert model_cfg.dropout == 0.2

    def test_model_checkpoint_is_float32(self, pipeline):
        params, _ = load_checkpoint(pipeline["ckpt"])
        assert params.dtype == np.float32
        assert all(b.dtype == np.float32 for b in params.buffers.values())

    def test_unknown_config_key_rejected(self, pipeline, tmp_path):
        code, _, err = run_cli("train", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--out", str(tmp_path / "run"),
                               "--set", "nope=3")
        assert code == 1
        assert "unknown config key 'nope'" in err

    def test_bad_config_value_rejected(self, pipeline, tmp_path):
        code, _, err = run_cli("train", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--out", str(tmp_path / "run"),
                               "--set", "epochs=0")
        assert code == 1
        assert "bad value for epochs" in err


class TestEmbed:
    def test_writes_loadable_csv(self, pipeline, tmp_path):
        out_csv = tmp_path / "emb.csv"
        code, out, err = run_cli("embed", "--manifest",
                                 str(pipeline["feats_manifest"]),
                                 "--ckpt", str(pipeline["ckpt"]),
                                 "--out", str(out_csv))
        assert code == 0, err
        assert "wrote 18 embeddings of dim 64" in out
        records = load_embeddings(out_csv)
        assert len(records) == 18
        manifest = Manifest.load(pipeline["feats_manifest"], check_paths=False)
        assert [r.utterance_id for r in records] == \
            [e.utterance_id for e in manifest.entries]

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out_csv = tmp_path / "emb.csv"
        args = ("embed", "--manifest", str(pipeline["feats_manifest"]),
                "--ckpt", str(pipeline["ckpt"]), "--out", str(out_csv))
        assert run_cli(*args)[0] == 0
        first = out_csv.read_bytes()
        assert run_cli(*args)[0] == 1  # --force required
        assert run_cli(*args, "--force")[0] == 0
        assert out_csv.read_bytes() == first

    def test_truncated_feature_file_is_a_one_line_error(self, pipeline, tmp_path):
        manifest = Manifest.load(pipeline["feats_manifest"], check_paths=False)
        entry = manifest.entries[0]
        raw = Path(entry.path).read_bytes()
        short = tmp_path / "short.hvt"
        short.write_bytes(raw[:-16])
        bad_manifest = tmp_path / "manifest.tsv"
        bad_manifest.write_text(
            f"{entry.utterance_id}\t{entry.speaker_id}\t{short}\t{entry.row}\n")
        code, _, err = run_cli("embed", "--manifest", str(bad_manifest),
                               "--ckpt", str(pipeline["ckpt"]),
                               "--out", str(tmp_path / "emb.csv"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(short) in err

    def test_truncated_checkpoint_is_a_one_line_error(self, pipeline, tmp_path):
        ckpt = tmp_path / "model.hvt"
        ckpt.write_bytes(pipeline["ckpt"].read_bytes()[:-16])
        code, _, err = run_cli("embed", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--ckpt", str(ckpt), "--out", str(tmp_path / "emb.csv"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(ckpt) in err


class TestScoreId:
    def test_prints_accuracy(self, pipeline):
        code, out, err = run_cli("score-id", "--manifest",
                                 str(pipeline["feats_manifest"]),
                                 "--ckpt", str(pipeline["ckpt"]))
        assert code == 0, err
        match = re.search(r"^accuracy=(\d\.\d{4})$", out, re.MULTILINE)
        assert match
        assert 0.0 <= float(match.group(1)) <= 1.0

    def test_speaker_count_mismatch_is_a_one_line_error(self, pipeline, tmp_path):
        ckpt = tmp_path / "model.hvt"
        records = hv.load_archive(pipeline["ckpt"])
        hv.save_archive(ckpt, {**records, "speakers": records["speakers"] + "extra\n"})
        code, _, err = run_cli("score-id", "--manifest",
                               str(pipeline["feats_manifest"]), "--ckpt", str(ckpt))
        assert code == 1
        assert err == f"error: {ckpt}: 4 speaker ids for 3 model outputs\n"

    def test_stale_sidecars_do_not_change_the_labels(self, pipeline, tmp_path):
        params, cfg = load_checkpoint(pipeline["ckpt"])
        # label each utterance with the speaker the model predicts for it, so
        # that accuracy is 1 with the checkpoint's labels and 0 with any
        # derangement of them
        manifest = Manifest.load(pipeline["feats_manifest"], check_paths=False)
        feats = load_features(manifest.entries)
        predicted = [params.speakers[i] for i in predict(feats, params, cfg)]
        relabelled = tmp_path / "predicted.tsv"
        Manifest([dataclasses.replace(e, speaker_id=s)
                  for e, s in zip(manifest.entries, predicted)]).save(relabelled)

        def accuracy(ckpt):
            code, out, err = run_cli("score-id", "--manifest", str(relabelled),
                                     "--ckpt", str(ckpt))
            assert code == 0, err
            return re.search(r"^accuracy=(.*)$", out, re.MULTILINE).group(1)

        assert accuracy(pipeline["ckpt"]) == "1.0000"
        # a .cfg/.spk left by an earlier run, with the labels rotated
        rotated = params.speakers[1:] + params.speakers[:1]
        ckpt = tmp_path / "model.hvt"
        shutil.copy(pipeline["ckpt"], ckpt)
        ckpt.with_suffix(".cfg").write_text(dataclasses.replace(cfg, dropout=0.5).to_text())
        ckpt.with_suffix(".spk").write_text("".join(f"{s}\n" for s in rotated))
        assert accuracy(ckpt) == "1.0000"

    def test_older_float64_triple_is_refused(self, pipeline, tmp_path):
        # a weights-only model.hvt with model.cfg and model.spk beside it
        params, cfg = load_checkpoint(pipeline["ckpt"])
        ckpt = tmp_path / "old" / "model.hvt"
        _save_legacy_checkpoint(ckpt, params.astype(np.float64), cfg)
        manifest = str(pipeline["feats_manifest"])
        emb = tmp_path / "emb.csv"
        for argv in (("embed", "--out", str(emb)), ("score-id",)):
            code, out, err = run_cli(*argv, "--manifest", manifest, "--ckpt", str(ckpt))
            assert code == 1
            assert err == (f"error: {ckpt}: no config record, so not a checkpoint that "
                           "`hvector train` wrote (its <out>/model.hvt)\n")
        assert not emb.exists()


def _clustered_embedding_csvs(tmp_path):
    """Four tightly clustered synthetic speakers, far apart in 8-d."""
    rng = np.random.default_rng(3)
    speakers = ["a", "b", "c", "d"]
    centers = {s: 10.0 * np.eye(8)[i] for i, s in enumerate(speakers)}

    def records(spk_list, n, tag):
        out = []
        for s in spk_list:
            for j in range(n):
                vec = centers[s] + 0.05 * rng.standard_normal(8)
                out.append(EmbeddingRecord(f"{s}-{tag}{j}", s, vec))
        return out

    paths = {}
    for name, recs in [("plda", records(speakers, 4, "t")),
                       ("enrol", records(["a", "b"], 3, "e")),
                       ("eval", records(speakers, 2, "x"))]:
        paths[name] = tmp_path / f"{name}.csv"
        save_embeddings(paths[name], recs)
    return paths


def _unit_records(records):
    """The records with each vector length-normalized, as `score-ver` reads
    them under length_norm=true."""
    return [EmbeddingRecord(r.utterance_id, r.speaker_id, v)
            for r, v in zip(records, embedding_matrix(records, length_norm=True))]


class TestScoreVer:
    def test_separated_embeddings_give_zero_eer(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        out_dir = tmp_path / "ver"
        code, out, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                                 "--eval", str(paths["eval"]),
                                 "--plda-train", str(paths["plda"]),
                                 "--out", str(out_dir))
        assert code == 0, err
        assert "EER=0.0000" in out
        assert (out_dir / "eer.txt").read_text().splitlines()[0] == "EER=0.0000"
        scores, targets = load_trials(out_dir / "trials.csv")
        # enrol speakers a,b against 8 eval utterances
        assert len(scores) == 16
        assert int(targets.sum()) == 4
        assert compute_eer(scores, targets) == 0.0

    def test_cosine_backend(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        code, out, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                                 "--eval", str(paths["eval"]),
                                 "--out", str(tmp_path / "ver"),
                                 "--set", "backend=cosine",
                                 "--set", "length_norm=true",
                                 "--set", "lda_dim=none")    # the default, so not refused
        assert code == 0, err
        assert "config score-ver.backend=cosine" in out
        assert "config score-ver.plda_train=none" in out
        assert "EER=0.0000" in out

    @pytest.mark.parametrize("what,given", [
        ("--plda-train", ["--plda-train", "plda.csv"]),
        ("lda_dim", ["--set", "lda_dim=2"]),
    ])
    def test_cosine_refuses_plda_settings(self, tmp_path, what, given):
        # the CSVs do not exist, so the refusal comes before any input is read
        gone = str(tmp_path / "gone.csv")
        code, out, err = run_cli("score-ver", "--enrol", gone, "--eval", gone,
                                 "--out", str(tmp_path / "ver"),
                                 "--set", "backend=cosine", *given)
        assert code == 1
        assert err == f"error: backend=cosine takes no {what}; it is a PLDA setting\n"
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_matrix_output_matches_per_trial_api(self, tmp_path):
        # length_norm applies to all three sets, the PLDA training set too
        paths = _clustered_embedding_csvs(tmp_path)
        enrol, test, plda_set = (_unit_records(load_embeddings(paths[name]))
                                 for name in ("enrol", "eval", "plda"))
        trials = make_trials(enrol, test)
        for backend, scores in [
                ("cosine", cosine_score(np.stack([t.enrol_vector for t in trials]),
                                        np.stack([t.test_vector for t in trials]))),
                ("plda", score_trials(plda_fit(plda_set), trials))]:
            plda_train = ["--plda-train", str(paths["plda"])] if backend == "plda" else []
            code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                                   "--eval", str(paths["eval"]), *plda_train,
                                   "--out", str(tmp_path / backend),
                                   "--set", f"backend={backend}", "--set", "length_norm=true")
            assert code == 0, err
            save_trials(tmp_path / f"{backend}.csv", trials, scores)
            got = (tmp_path / backend / "trials.csv").read_text().splitlines()
            want = (tmp_path / f"{backend}.csv").read_text().splitlines()
            if backend == "cosine":
                assert got == want
            # ids, row order and targets: all but the score column
            assert ([row.rsplit(",", 2)[::2] for row in got]
                    == [row.rsplit(",", 2)[::2] for row in want])
            got_scores = load_trials(tmp_path / backend / "trials.csv")[0]
            assert np.max(np.abs(got_scores - scores)) <= 1e-12 * np.max(np.abs(scores))

    def test_plda_set_dim_mismatch_names_the_files(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        save_embeddings(paths["plda"], [EmbeddingRecord(f"{s}-t{j}", s, np.ones(6))
                                        for s in "abc" for j in range(2)])
        code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                               "--eval", str(paths["eval"]),
                               "--plda-train", str(paths["plda"]),
                               "--out", str(tmp_path / "ver"))
        assert code == 1
        assert err.splitlines() == [f"error: embedding dims differ: {paths['enrol']} "
                                    f"has 8, {paths['plda']} has 6"]
        assert not (tmp_path / "ver").exists()

    @pytest.mark.parametrize("eval_set,plda_set,reads", [
        # without --plda-train, PLDA trains on the enrolment records already read
        ("eval", None, ["enrol", "eval"]),
        ("enrol", None, ["enrol"]),
        ("eval", "enrol", ["enrol", "eval"]),
        ("eval", "eval", ["enrol", "eval"]),
    ], ids=["distinct files", "eval is enrol", "plda-train is enrol", "plda-train is eval"])
    def test_enrolment_csv_is_read_once(self, tmp_path, monkeypatch, eval_set, plda_set,
                                        reads):
        # each distinct file is read once, and the outputs are those of a run
        # given a copy of the file for each role
        paths = _clustered_embedding_csvs(tmp_path)
        roles = {"--enrol": "enrol", "--eval": eval_set, "--plda-train": plda_set}

        def score(copy_each_role):
            out = tmp_path / f"ver-{copy_each_role}"
            argv = ["score-ver", "--out", str(out), "--set", "lda_dim=1"]
            for flag, name in roles.items():
                if name is not None:
                    path = paths[name]
                    if copy_each_role:
                        path = tmp_path / f"{flag.strip('-')}-copy.csv"
                        shutil.copyfile(paths[name], path)
                    argv += [flag, str(path)]
            code, _, err = run_cli(*argv)
            assert code == 0, err
            return [(out / name).read_bytes() for name in ("trials.csv", "eer.txt")]

        reference = score(copy_each_role=True)
        read = []
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda path: read.append(path) or load_embeddings(path))
        assert score(copy_each_role=False) == reference
        assert read == [str(paths[name]) for name in reads]

    def test_real_pipeline_embeddings(self, pipeline, tmp_path):
        emb_csv = tmp_path / "emb.csv"
        assert run_cli("embed", "--manifest", str(pipeline["feats_manifest"]),
                       "--ckpt", str(pipeline["ckpt"]),
                       "--out", str(emb_csv))[0] == 0
        out_dir = tmp_path / "ver"
        code, out, err = run_cli("score-ver", "--enrol", str(emb_csv),
                                 "--eval", str(emb_csv),
                                 "--out", str(out_dir))
        assert code == 0, err
        assert re.search(r"^EER=\d\.\d{4}$", out, re.MULTILINE)
        assert (out_dir / "trials.csv").exists()
        assert (out_dir / "eer.txt").exists()

    def test_backend_warning_is_one_line(self, tmp_path):
        # 3 speakers x 2 utterances in 8-d: the within-class scatter is singular
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb.csv"
        save_embeddings(emb, [EmbeddingRecord(f"s{k}-u{j}", f"s{k}", rng.standard_normal(8))
                              for k in range(3) for j in range(2)])
        src = str(Path(hvector.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "hvector.cli", "score-ver", "--enrol", str(emb),
             "--eval", str(emb), "--out", str(tmp_path / "ver"), "--set", "lda_dim=2"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [
            "warning: within-class scatter is singular; regularizing with 1e-6*I"]

    def test_non_numeric_value_is_a_one_line_error(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        lines = paths["eval"].read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
        paths["eval"].write_text("\n".join(lines) + "\n")
        code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                               "--eval", str(paths["eval"]), "--out", str(tmp_path / "ver"))
        assert code == 1
        assert err.splitlines() == [f"error: {paths['eval']}:4: "
                                    "could not convert string 'x' to float64"]

    def test_non_finite_value_is_a_one_line_error(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        lines = paths["plda"].read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        paths["plda"].write_text("\n".join(lines) + "\n")
        code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                               "--eval", str(paths["eval"]),
                               "--plda-train", str(paths["plda"]),
                               "--out", str(tmp_path / "ver"))
        assert code == 1
        assert err.splitlines() == [f"error: {paths['plda']}:3: values must be finite"]

    def test_dim_mismatch_is_a_one_line_error(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        save_embeddings(paths["eval"], [EmbeddingRecord("x0", "a", np.ones(4))])
        code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                               "--eval", str(paths["eval"]), "--out", str(tmp_path / "ver"),
                               "--set", "backend=cosine")
        assert code == 1
        assert err.splitlines() == [f"error: embedding dims differ: {paths['enrol']} "
                                    f"has 8, {paths['eval']} has 4"]

    @pytest.mark.parametrize("backend", ["plda", "cosine"])
    def test_matrix_scoring_stays_near_input_size(self, tmp_path, backend):
        # 200 enrolment models x 1,000 test vectors in 64-d: the score matrix
        # is 1.6 MB and the run peaks near 19 MB traced.  Copying both vectors
        # into each of the 200k trials peaked at ~420 MB, and holding every
        # trials.csv line at once (instead of one enrolment row's) at ~34 MB.
        rng = np.random.default_rng(8)
        means = rng.standard_normal((200, 64))
        save_embeddings(tmp_path / "enrol.csv", [
            EmbeddingRecord(f"s{k}-e{j}", f"s{k}", means[k] + rng.standard_normal(64))
            for k in range(200) for j in range(2)])
        save_embeddings(tmp_path / "eval.csv", [
            EmbeddingRecord(f"s{k}-t{j}", f"s{k}", means[k] + rng.standard_normal(64))
            for k in range(200) for j in range(5)])
        tracemalloc.start()
        try:
            code, out, err = run_cli("score-ver", "--enrol", str(tmp_path / "enrol.csv"),
                                     "--eval", str(tmp_path / "eval.csv"),
                                     "--out", str(tmp_path / "ver"),
                                     "--set", f"backend={backend}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert len(load_trials(tmp_path / "ver/trials.csv")[0]) == 200_000
        assert peak < 28 * 2**20, f"traced peak {peak / 2**20:.0f} MB"


def _verification_csvs(root, n_speakers, n_enrol, n_eval, dim, seed):
    """Enrolment and evaluation embedding CSVs of n_speakers speakers."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_speakers, dim))
    for name, tag, count in (("enrol", "e", n_enrol), ("eval", "t", n_eval)):
        save_embeddings(root / f"{name}.csv", [
            EmbeddingRecord(f"s{k}-{tag}{j}", f"s{k}", means[k] + rng.standard_normal(dim))
            for k in range(n_speakers) for j in range(count)])
    return root / "enrol.csv", root / "eval.csv"


class TestForkedTrialsWriter:
    """`score-ver` writing trials.csv in forked processes."""

    @pytest.mark.parametrize("where,how", [("child", "raise"), ("child", "kill"),
                                           ("parent", "raise")])
    def test_failed_writer_leaves_nothing(self, tmp_path, monkeypatch, where, how):
        enrol, evals = _verification_csvs(tmp_path, 4, 2, 2, 3, seed=0)
        forked_map, parent = hv.forked_map, os.getpid()

        def failing_forked_map(fn, n, floor, what):
            def share_or_fail(rows):
                if (os.getpid() == parent) == (where == "parent"):
                    if how == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return fn(rows)
            return forked_map(share_or_fail, n, floor, what)

        monkeypatch.setattr(hv, "worker_count", lambda: 2)
        monkeypatch.setattr(scoring, "_FORK_FLOOR", 1)
        monkeypatch.setattr(scoring, "forked_map", failing_forked_map)
        out = tmp_path / "ver"
        code, _, err = run_cli("score-ver", "--enrol", str(enrol), "--eval", str(evals),
                               "--out", str(out), "--set", "backend=cosine")
        assert code == 1
        assert err.splitlines() == [
            f"error: {out / 'trials.csv'}: the process writing enrolment rows 3-4 "
            f"was killed by signal {signal.SIGKILL.value}" if how == "kill"
            else f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert not out.exists()
        with pytest.raises(ChildProcessError):      # no child left unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    @pytest.mark.parametrize("backend", ["plda", "cosine"])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, backend):
        # 200 models x 1,000 tests: 100k trials for the second process at 2
        # CPUs, none at 1.  hvector runs one BLAS thread in both, even under
        # OPENBLAS_NUM_THREADS=2, so the scores are the same
        enrol, evals = _verification_csvs(tmp_path, 200, 2, 5, 64, seed=8)
        script = textwrap.dedent("""
            import os, sys
            if sys.argv[1] != "-":
                os.sched_setaffinity(0, {int(sys.argv[1])})
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            from hvector.cli import main
            code = main(sys.argv[2:])
            print(f"forks={len(forks)}", file=sys.stderr)
            sys.exit(code)
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(hvector.__file__).resolve().parent.parent))
        runs = {}
        for pin in (str(min(os.sched_getaffinity(0))), "-"):
            cwd = tmp_path / f"pin{pin}"
            cwd.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", script, pin, "score-ver", "--enrol", str(enrol),
                 "--eval", str(evals), "--out", "ver", "--set", f"backend={backend}"],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            *err, forks = done.stderr.splitlines()
            runs[pin] = (forks, done.stdout, err, (cwd / "ver/trials.csv").read_bytes(),
                         (cwd / "ver/eer.txt").read_bytes())
        pinned, unpinned = runs.values()
        # the unpinned run forks one writer per usable CPU after the first
        assert (pinned[0], unpinned[0]) == ("forks=0", f"forks={hv.worker_count() - 1}")
        assert pinned[1:] == unpinned[1:]

    def test_fork_beside_a_live_thread(self, tmp_path):
        # the BiGRU's worker thread is alive when the writer forks, as after
        # `train` in one process; Python 3.12 warns about such a fork, and
        # the warning must not reach the command's stderr
        enrol, evals = _verification_csvs(tmp_path, 4, 3, 2, 3, seed=1)
        script = textwrap.dedent("""
            import contextlib, io, os, sys, threading, warnings
            import numpy as np
            import hvector.scoring as scoring
            import hvector.tensor as hv
            from hvector.cli import main

            hv._THREADED = True
            rng = np.random.default_rng(0)
            shapes = {"wz": (3, 4), "wr": (3, 4), "wh": (3, 4), "uz": (4, 4),
                      "ur": (4, 4), "uh": (4, 4), "bz": (4,), "br": (4,), "bh": (4,)}
            params = {k: hv.Tensor(rng.normal(size=s)) for k, s in shapes.items()}
            hv.bigru_sequence(hv.Tensor(rng.normal(size=(2, 5, 3))), params, params)
            assert any(t.name.startswith("hvector-gru") for t in threading.enumerate())

            # the message Python 3.12's os.fork gives here, from forked_map's
            # fork, is ignored on every Python version
            warnings.warn_explicit(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.", DeprecationWarning,
                hv.__file__, 1, module=hv.__name__)

            scoring._FORK_FLOOR = 1
            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            results = []
            for workers in (1, 3):
                hv.worker_count = lambda: workers
                for backend in ("cosine", "plda"):
                    out = f"{backend}{workers}"
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \\
                            contextlib.redirect_stderr(err):
                        code = main(["score-ver", "--enrol", sys.argv[1], "--eval",
                                     sys.argv[2], "--out", out, "--set", f"backend={backend}"])
                    with open(f"{out}/trials.csv", "rb") as fh:
                        results.append((code, err.getvalue(), fh.read()))
            assert len(forks) == 4, forks
            assert results[:2] == results[2:], results
            print("ok")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(hvector.__file__).resolve().parent.parent))
        done = subprocess.run([sys.executable, "-W", "always::DeprecationWarning", "-c",
                               script, str(enrol), str(evals)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def _tree(root) -> dict:
    """Every file under root, by relative path: its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _synth_and_prepare(cwd, workers, speakers, utts, manifest=None):
    """`synth` then `prepare` (0.2 s clips, 0.115 s windows) in cwd with
    `workers` usable CPUs, on relative paths; each command's (exit status,
    stdout, stderr) and the forks made.  `manifest`, if given, gets the
    corpus Manifest and may rewrite its file before `prepare` reads it."""
    os.makedirs(cwd)
    with _chdir(cwd), \
            mock.patch.object(hv, "worker_count", return_value=workers), \
            mock.patch.object(hv.os, "fork", wraps=os.fork) as fork:
        runs = [run_cli("synth", "--out", "corpus", "--speakers", str(speakers),
                        "--utts", str(utts), "--dur", "0.2", "--seed", "3")]
        if manifest is not None:
            manifest(Manifest.load("corpus/manifest.tsv"))
        runs.append(run_cli("prepare", "--manifest", "corpus/manifest.tsv",
                            "--out", "feats", "--len", "0.115"))
    return runs, fork.call_count


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class TestForkedClipStages:
    """`synth` and `prepare` on forked_map's processes, held to one process."""

    # (speakers, utts, usable CPUs, processes per stage): the floor is 32
    # clips per extra process
    @pytest.mark.parametrize("speakers,utts,workers,processes", [
        (3, 21, 2, 1), (2, 32, 2, 2), (2, 32, 4, 2), (5, 19, 3, 2), (3, 32, 3, 3),
        (127, 1, 4, 3), (4, 32, 4, 4),
    ])
    def test_output_does_not_depend_on_the_cpu_count(self, tmp_path, speakers, utts,
                                                     workers, processes):
        assert cli.CLIP_FORK_FLOOR == 32
        serial, forks = _synth_and_prepare(tmp_path / "one", 1, speakers, utts)
        assert forks == 0
        assert [code for code, _, _ in serial] == [0, 0]
        forked, forks = _synth_and_prepare(tmp_path / "all", workers, speakers, utts)
        assert forks == 2 * (processes - 1)
        assert forked == serial
        assert _tree(tmp_path / "all") == _tree(tmp_path / "one")
        assert f"from {speakers * utts} clips (0 failed, 0 too short)" in serial[1][1]

    @settings(max_examples=8, deadline=None)
    @given(bad=st.sets(st.integers(0, 63), min_size=1, max_size=5))
    @example(bad={0, 31, 32, 63})       # both ends of both shares
    def test_unreadable_clips_are_reported_in_manifest_order(self, bad):
        def break_clips(manifest):
            for k in bad:
                manifest.entries[k].path = f"empty-{k}.wav"
                Path(f"empty-{k}.wav").write_bytes(b"")
            manifest.save("corpus/manifest.tsv")

        with tempfile.TemporaryDirectory() as tmp:
            serial, _ = _synth_and_prepare(f"{tmp}/one", 1, 2, 32, break_clips)
            forked, forks = _synth_and_prepare(f"{tmp}/all", 2, 2, 32, break_clips)
            assert forks == 2
            assert forked == serial
            assert _tree(f"{tmp}/all") == _tree(f"{tmp}/one")
        code, out, err = serial[1]
        assert code == 1
        assert err.splitlines() == [
            f"error: s3_{k // 32:03d}-u{k % 32:03d}: empty-{k}.wav: truncated WAV header"
            for k in sorted(bad)]
        assert f"({len(bad)} failed, 0 too short)" in out

    @pytest.mark.parametrize("stage", ["synth", "prepare"])
    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_a_failed_child_stops_the_stage(self, tmp_path, monkeypatch, stage, how):
        parent = os.getpid()
        # a function each child calls: prepare's parent alone writes the store
        module, name = (hvector.corpus, "save_wav") if stage == "synth" else (cli, "mfcc_frames")
        work = getattr(module, name)

        def work_or_fail(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return work(*args)

        if stage == "prepare":
            assert run_cli("synth", "--out", str(tmp_path / "corpus"), "--speakers", "2",
                           "--utts", "32", "--dur", "0.2")[0] == 0
        monkeypatch.setattr(hv, "worker_count", lambda: 2)
        monkeypatch.setattr(module, name, work_or_fail)
        if stage == "synth":
            out = tmp_path / "corpus"
            code, _, err = run_cli("synth", "--out", str(out), "--speakers", "2",
                                   "--utts", "32", "--dur", "0.2")
            doing = f"{out}: the process rendering clips"
        else:
            out, manifest = tmp_path / "feats", str(tmp_path / "corpus/manifest.tsv")
            code, _, err = run_cli("prepare", "--manifest", manifest, "--out", str(out),
                                   "--len", "0.115")
            doing = f"{manifest}: the process preparing clips"
        assert code == 1
        assert err.splitlines() == [
            f"error: {doing} 33-64 was killed by signal {signal.SIGKILL.value}"
            if how == "kill" else f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert not (out / "manifest.tsv").exists()
        with pytest.raises(ChildProcessError):      # no child left unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_forks_after_train_beside_a_live_thread(self, tmp_path):
        # `synth` and `prepare` fork after `train` in one process, with the
        # BiGRU's worker thread alive, under -W error::DeprecationWarning:
        # Python 3.12 warns about such a fork, and only forked_map's is
        # ignored.  stdout is a pipe, so a child that flushed the buffer it
        # inherited would print its lines twice
        script = textwrap.dedent("""
            import os, sys, threading, warnings
            import hvector.tensor as hv
            from hvector.cli import main

            hv._THREADED = True
            for argv in (["synth", "--out", "c", "--speakers", "2", "--utts", "4"],
                         ["prepare", "--manifest", "c/manifest.tsv", "--out", "f"],
                         ["train", "--manifest", "f/manifest.tsv", "--out", "r",
                          "--set", "preset=desk", "--epochs", "1"]):
                assert main(argv) == 0
            assert any(t.name.startswith("hvector-gru") for t in threading.enumerate())
            sys.stdout.flush()
            print("trained")

            forks = []
            os.register_at_fork(before=lambda: forks.append(1))
            hv.worker_count = lambda: 2
            for argv in (["synth", "--out", "h", "--speakers", "2", "--utts", "32",
                          "--dur", "0.2"],
                         ["prepare", "--manifest", "h/manifest.tsv", "--out", "hf",
                          "--len", "0.115"]):
                assert main(argv) == 0
            assert len(forks) == 2, forks

            message = (f"This process (pid={os.getpid()}) is multi-threaded, use of "
                       "fork() may lead to deadlocks in the child.")
            warnings.warn_explicit(message, DeprecationWarning, hv.__file__, 1,
                                   module=hv.__name__)
            try:        # another module's fork still warns
                warnings.warn_explicit(message, DeprecationWarning, "elsewhere.py", 1,
                                       module="elsewhere")
            except DeprecationWarning:
                print("ok")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(hvector.__file__).resolve().parent.parent))
        env.pop("PYTHONUNBUFFERED", None)       # stdout must hold what a child could flush
        done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                               script], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert lines[-1] == "ok"
        after = lines[lines.index("trained") + 1:-1]
        assert after == [
            "config synth.dur=0.2", "config synth.out=h", "config synth.seed=0",
            "config synth.speakers=2", "config synth.utts=32",
            "wrote 64 utterances for 2 speakers under h", "manifest: h/manifest.tsv",
            "config prepare.len=0.115", "config prepare.manifest=h/manifest.tsv",
            "config prepare.out=hf",
            "prepared 128 windows from 64 clips (0 failed, 0 too short)",
            "manifest: hf/manifest.tsv"]


_SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


def test_import_leaves_scipy_signal_unloaded(tmp_path):
    """No command needs scipy, whose import took most of the CLI's start-up:
    not loading the CLI, and not `synth`, which filters in numpy alone.
    Any `scipy` module counts, `scipy.signal` among them."""
    src = str(Path(hvector.__file__).resolve().parent.parent)
    synth = (f"main(['synth', '--out', {str(tmp_path / 'c')!r}, '--speakers', '2', "
             "'--utts', '1', '--dur', '0.2'])")
    for probe in (f"import sys, hvector.cli; print({_SCIPY_LOADED})",
                  f"import sys; from hvector.cli import main; {synth}; "
                  f"print({_SCIPY_LOADED})"):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "False"
    assert len(Manifest.load(tmp_path / "c" / "manifest.tsv")) == 2


# --- one error boundary -------------------------------------------------------

def _save_legacy_checkpoint(path, params, cfg):
    """The older layout, which is refused: a weights-only archive, with the
    config and the speaker list in model.cfg and model.spk beside it."""
    path.parent.mkdir(exist_ok=True)
    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update({"buffer." + name: b for name, b in params.buffers.items()})
    hv.save_archive(path, arrays)
    path.with_suffix(".cfg").write_text(cfg.to_text(), encoding="utf-8")
    path.with_suffix(".spk").write_text("".join(f"{s}\n" for s in params.speakers),
                                        encoding="utf-8")


def _tiny_params():
    cfg = tiny_config()
    params = build_params(cfg)
    params.speakers = ["a", "b", "c"]
    return params, cfg


def _tiny_checkpoint(run_dir, legacy=False):
    """A 3-speaker checkpoint under run_dir: one model.hvt, or the older
    weights-only model.hvt with model.cfg and model.spk."""
    run_dir.mkdir()
    ckpt = run_dir / "model.hvt"
    (_save_legacy_checkpoint if legacy else save_checkpoint)(ckpt, *_tiny_params())
    return ckpt


def _boundary_inputs(tmp_path):
    """Paths the boundary cases combine: a manifest, an embedding CSV, a plain file."""
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"a-u0\ta\t{tmp_path / 'a-u0.hvt'}\t98\n")
    emb = tmp_path / "emb.csv"
    save_embeddings(emb, [EmbeddingRecord(f"{s}-u{j}", s, np.eye(3)[j])
                          for s in "ab" for j in range(2)])
    regular = tmp_path / "file"
    regular.write_text("not a directory\n")
    return {"dir": tmp_path, "manifest": manifest, "emb": emb, "file": regular}


def _not_a_checkpoint(ckpt):
    return f"{ckpt}: no config record, so not a checkpoint that `hvector train` wrote " \
        "(its <out>/model.hvt)"


def _case_no_config_record(p):
    ckpt = _tiny_checkpoint(p["dir"] / "run", legacy=True)
    return ("embed", "--manifest", p["manifest"], "--ckpt", ckpt,
            "--out", p["dir"] / "e.csv"), _not_a_checkpoint(ckpt)


def _case_feature_store_as_checkpoint(p):
    store = p["dir"] / "feats" / "features.hvt"
    store.parent.mkdir()
    hv.save_archive(store, {"fragments": np.zeros((1, 10, 10, 20))})
    return ("embed", "--manifest", p["manifest"], "--ckpt", store,
            "--out", p["dir"] / "e.csv"), _not_a_checkpoint(store)


def _case_checkpoint_record(key, value, message):
    def case(p):
        ckpt = _tiny_checkpoint(p["dir"] / "run")
        hv.save_archive(ckpt, {**hv.load_archive(ckpt), key: value})
        return ("embed", "--manifest", p["manifest"], "--ckpt", ckpt,
                "--out", p["dir"] / "e.csv"), f"{ckpt}: {message}"
    return case


def _case_undecodable_manifest(p):
    p["manifest"].write_bytes(b"a-u0\ta\tx.hvt\t98\na-u1\ta\t\xff.hvt\t98\n")
    return ("train", "--manifest", p["manifest"], "--out", p["dir"] / "run"), \
        f"{p['manifest']}:2: not UTF-8 text"


def _case_undecodable_enrol_csv(p):
    p["emb"].write_bytes(p["emb"].read_bytes().replace(b"a-u1", b"a-\xff1"))
    return ("score-ver", "--enrol", p["emb"], "--eval", p["emb"],
            "--out", p["dir"] / "ver"), f"{p['emb']}:3: not UTF-8 text"


def _case_no_value_columns(backend):
    # the cosine back end scored the empty vectors as 0, and PLDA's refusal
    # named lda_dim, a setting the command line did not give
    def case(p):
        p["emb"].write_text("utterance_id,speaker_id\na-u0,a\na-u1,a\nb-u0,b\nb-u1,b\n")
        return ("score-ver", "--enrol", p["emb"], "--eval", p["emb"], "--out",
                p["dir"] / "ver", "--set", f"backend={backend}"), \
            f"error: {p['emb']} has no embedding value columns\n"
    return case


def _case_bad_row(row):
    def case(p):
        p["manifest"].write_text(f"a-u0\ta\tx.hvt\t98\na-u1\ta\ty.hvt\t{row}\n")
        return ("train", "--manifest", p["manifest"], "--out", p["dir"] / "run"), \
            f"{p['manifest']}:2: row {row!r} is not a non-negative integer"
    return case


def _case_empty_wav(p):
    good, empty = p["dir"] / "good.wav", p["dir"] / "empty.wav"
    save_wav(good, AudioClip(0.3 * np.sin(np.arange(8000) / 3.0)))
    empty.write_bytes(b"")
    p["manifest"].write_text(f"a-u0\ta\t{good}\t0\na-u1\ta\t{empty}\t0\n")
    return ("prepare", "--manifest", p["manifest"], "--out", p["dir"] / "feats"), \
        f"error: a-u1: {empty}: truncated WAV header"


def _case_train_setting(pair):
    # the manifest names a feature file that does not exist, so a refusal
    # about the setting shows that it came before any input was read
    def case(p):
        return ("train", "--manifest", p["manifest"], "--out", p["dir"] / "run",
                "--set", pair), f"error: --set: bad value for {pair.partition('=')[0]}: "
    return case


def _case_training_diverges(p):
    store = p["dir"] / "features.hvt"
    rng = np.random.default_rng(0)
    hv.save_archive(store, {"fragments": rng.standard_normal((6, 10, 10, 20))})
    p["manifest"].write_text("".join(f"{s}-u{j}\t{s}\t{store}\t{3 * i + j}\n"
                                     for i, s in enumerate("ab") for j in range(3)))
    return ("train", "--manifest", p["manifest"], "--out", p["dir"] / "run",
            "--epochs", "2", "--set", "lr=1e300"), "training diverged at lr=1e+300"


# name -> inputs -> (argv, text the one error line must contain)
_BOUNDARY_CASES = {
    "manifest is a directory": lambda p: (
        ("train", "--manifest", p["dir"], "--out", p["dir"] / "run"),
        f"Is a directory: '{p['dir']}'"),
    "synth --force --out is a file": lambda p: (
        ("synth", "--out", p["file"], "--force", "--speakers", "2", "--utts", "1"),
        str(p["file"])),
    "prepare --out under a file": lambda p: (
        ("prepare", "--manifest", p["manifest"], "--out", p["file"] / "feats"),
        str(p["file"])),
    "train --out is a file": lambda p: (
        ("train", "--manifest", p["manifest"], "--out", p["file"]), str(p["file"])),
    "embed --out under a file": lambda p: (
        ("embed", "--manifest", p["manifest"], "--ckpt", _tiny_checkpoint(p["dir"] / "run"),
         "--out", p["file"] / "e.csv"), str(p["file"])),
    "score-ver --out under a file": lambda p: (
        ("score-ver", "--enrol", p["emb"], "--eval", p["emb"],
         "--out", p["file"] / "ver"), str(p["file"])),
    "--enrol is a directory": lambda p: (
        ("score-ver", "--enrol", p["dir"], "--eval", p["emb"], "--out", p["dir"] / "ver"),
        f"Is a directory: '{p['dir']}'"),
    "embed --ckpt has no config record": _case_no_config_record,
    "embed --ckpt is a feature store": _case_feature_store_as_checkpoint,
    "checkpoint text record under a tensor key": _case_checkpoint_record(
        "out.w", "1 2 3", "checkpoint record out.w should be an array"),
    "checkpoint config record is an array": _case_checkpoint_record(
        "config", np.ones(3), "checkpoint record config should be text"),
    "checkpoint config record is empty": _case_checkpoint_record(
        "config", "", "missing config key 'n_speakers'"),
    "manifest row is not an integer": _case_bad_row("many"),
    "manifest row is negative": _case_bad_row("-1"),
    # a row is ASCII digits, as Manifest.save writes it; int() reads each of these
    **{f"manifest row {row[:8]!r}": _case_bad_row(row)
       for row in ["+3", " 3", "3 ", "1_0", "\u0663", "9" * 5000]},
    "manifest is not UTF-8": _case_undecodable_manifest,
    "--enrol CSV is not UTF-8": _case_undecodable_enrol_csv,
    "--enrol CSV has no value columns, cosine": _case_no_value_columns("cosine"),
    "--enrol CSV has no value columns, plda": _case_no_value_columns("plda"),
    "a manifest's WAV is empty": _case_empty_wav,
    **{f"train --set {pair}": _case_train_setting(pair)
       for pair in ["lr=nan", "lr=inf", "lr=-1", "stop_at_dev_acc=inf", "seed=-1",
                    "stop_at_dev_acc=5", "stop_at_dev_acc=-0.5", "batch_size=0",
                    "model=tdnn", "preset=huge"]},
    "training diverges": _case_training_diverges,
}


@pytest.mark.parametrize("case", list(_BOUNDARY_CASES))
@pytest.mark.filterwarnings("error")   # a warning would print more lines
def test_bad_input_is_one_error_line(tmp_path, case):
    argv, expected = _BOUNDARY_CASES[case](_boundary_inputs(tmp_path))
    code, _, err = run_cli(*map(str, argv))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert expected in err


@pytest.mark.parametrize("line, message", [
    ("n_speakers=3", "config key 'n_speakers' given twice"),
    ("", "expected key=value, got ''"),
    ("# saved config", "expected key=value, got '# saved config'"),
])
def test_embed_refuses_a_config_record_that_to_text_did_not_write(tmp_path, line, message):
    p = _boundary_inputs(tmp_path)
    ckpt = _tiny_checkpoint(tmp_path / "run")
    text = tiny_config().to_text() + line + "\n"
    hv.save_archive(ckpt, {**hv.load_archive(ckpt), "config": text})
    out = tmp_path / "emb" / "e.csv"
    code, _, err = run_cli("embed", "--manifest", str(p["manifest"]),
                           "--ckpt", str(ckpt), "--out", str(out))
    assert code == 1
    n = len(text.splitlines())
    assert err == f"error: {ckpt}: line {n}: {message}\n"
    assert not out.parent.exists()


def test_train_defaults_are_the_config_classes_defaults():
    defaults = {key: default for key, (default, _) in _SCHEMAS["train"].items()}
    owned = {**dataclasses.asdict(TrainConfig()), "model": ModelConfig(n_speakers=2).mode}
    assert {key: defaults[key] for key in owned} == owned
    assert all(type(defaults[key]) is type(value) for key, value in owned.items())
    assert set(defaults) - set(owned) == {"preset"}


_TRAIN_KEYS = "batch_size, epochs, lr, model, preset, seed, stop_at_dev_acc"


@pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "dropout", "train_fraction"])
def test_fixed_training_values_are_not_settings(tmp_path, key):
    # Adam's constants, the model's dropout and the 0.9 split are fixed:
    # train refuses each as an unknown key before any input is read
    code, _, err = run_cli("train", "--manifest", str(tmp_path / "gone.tsv"),
                           "--out", str(tmp_path / "run"), "--set", f"{key}=0.5")
    assert code == 1
    assert err == f"error: --set: unknown config key {key!r} (known: {_TRAIN_KEYS})\n"
    assert not (tmp_path / "run").exists()


# each command with every flag it requires
_REQUIRED = {
    "synth": ["--out", "c"],
    "prepare": ["--manifest", "m.tsv", "--out", "f"],
    "train": ["--manifest", "m.tsv", "--out", "r"],
    "embed": ["--manifest", "m.tsv", "--ckpt", "model.hvt", "--out", "e.csv"],
    "score-id": ["--manifest", "m.tsv", "--ckpt", "model.hvt"],
    "score-ver": ["--enrol", "e.csv", "--eval", "e.csv", "--out", "v"],
}


def _subcommands():
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_config_file_flag_is_gone(capsys, command):
    assert sorted(_REQUIRED) == sorted(_subcommands())
    with pytest.raises(SystemExit) as exit_:
        main([command, *_REQUIRED[command], "--config", "settings.cfg"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config settings.cfg" in capsys.readouterr().err


# score-id writes no file, so it has nothing to overwrite, and neither it
# nor embed has a setting for --set to override
@pytest.mark.parametrize("argv", ["score-id --force", "embed --set k=v", "score-id --set k=v"])
def test_flag_the_command_does_not_take(capsys, argv):
    command, *flag = argv.split()
    with pytest.raises(SystemExit) as exit_:
        main([command, *_REQUIRED[command], *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_prepare_refuses_an_id_that_is_not_a_plain_token(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"a-u0\ta\t{tmp_path / 'x.wav'}\t0\na,b\ta\t{tmp_path / 'y.wav'}\t0\n")
    code, _, err = run_cli("prepare", "--manifest", str(manifest),
                           "--out", str(tmp_path / "feats"))
    assert code == 1
    assert err == (f"error: {manifest}:2: id 'a,b' holds ','; an id holds no comma, "
                   "no '\"' and no control character\n")
    assert not (tmp_path / "feats").exists()


def test_every_config_field_type_has_a_parser():
    # a field type missing from the table would fail here, not parse as int
    for cls in (ModelConfig, TrainConfig):
        for field in dataclasses.fields(cls):
            assert field.type in _CASTS, (cls.__name__, field.name, field.type)
            if field.default is not dataclasses.MISSING:
                parsed = _CASTS[field.type](str(field.default))
                assert parsed == field.default and type(parsed) is type(field.default)


# command, the other arguments it needs, key, bad value
_FLAG_CASES = [
    ("synth", ["--out", "c"], "dur", "-1"),
    ("synth", ["--out", "c"], "speakers", "abc"),
    ("synth", ["--out", "c"], "dur", "inf"),
    ("synth", ["--out", "c"], "dur", "nan"),
    ("synth", ["--out", "c"], "dur", "1e305"),
    ("synth", ["--out", "c"], "speakers", "1"),
    # -2, since the id "--seed -1" is train's case below
    ("synth", ["--out", "c"], "seed", "-2"),
    ("prepare", ["--manifest", "m.tsv", "--out", "f"], "len", "-1"),
    ("prepare", ["--manifest", "m.tsv", "--out", "f"], "len", "inf"),
    ("train", ["--manifest", "m.tsv", "--out", "r"], "epochs", "0"),
    ("train", ["--manifest", "m.tsv", "--out", "r"], "model", "foo"),
    ("train", ["--manifest", "m.tsv", "--out", "r"], "seed", "-1"),
]


@pytest.mark.parametrize("command,rest,key,value", _FLAG_CASES,
                         ids=[f"--{c[2]} {c[3]}" for c in _FLAG_CASES])
def test_flag_is_parsed_like_its_set_twin(tmp_path, monkeypatch, command, rest,
                                         key, value):
    monkeypatch.chdir(tmp_path)
    results = [run_cli(command, *rest, *extra)
               for extra in ([f"--{key}", value], ["--set", f"{key}={value}"])]
    for code, _, err in results:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert list(tmp_path.iterdir()) == []
    flag_err, set_err = results[0][2], results[1][2]
    assert flag_err.startswith(f"error: --{key}: bad value for {key}: ")
    assert flag_err == set_err.replace("error: --set:", f"error: --{key}:", 1)


def test_failed_synth_leaves_nothing_to_block_its_rerun(tmp_path):
    out_dir = tmp_path / "c"
    good = ("synth", "--out", str(out_dir), "--speakers", "2", "--utts", "2", "--dur", "0.5")
    # each refusal comes before synth_corpus creates a directory
    for bad, expected in [(["--speakers", "1"], "at least 2 speakers"),
                          (["--dur", "0.00001"], "duration 1e-05 s holds no samples"),
                          (["--dur", "1e9"], "duration 1000000000.0 s does not fit a WAV "
                                             "file, at most 268435.453625 s"),
                          (["--seed", "-1"], "seed must be non-negative, got -1")]:
        code, _, err = run_cli(*good, *bad)
        assert code == 1 and len(err.splitlines()) == 1 and expected in err, err
        assert not out_dir.exists()
    code, _, err = run_cli(*good)
    assert code == 0, err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 1.41 TiB for an array with shape (194000000000,) "
                "and data type float64"),
    MemoryError()], ids=["numpy's", "bare"])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr("hvector.corpus.synth_utterance", fail)
    code, out, err = run_cli("synth", "--out", str(tmp_path / "c"), "--speakers", "2",
                             "--utts", "1")
    assert code == 1
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_synth_that_fails_while_rendering_leaves_no_out(tmp_path, monkeypatch):
    # the --out that synth made, with the parents made for it, goes; one that
    # existed before (--force) stays, with what it held
    def fail(*args):
        raise MemoryError

    args = ("--speakers", "2", "--utts", "2", "--dur", "0.5")
    out_dir = tmp_path / "a" / "b" / "c"
    with monkeypatch.context() as patch:
        patch.setattr("hvector.corpus.synth_utterance", fail)
        code, _, err = run_cli("synth", "--out", str(out_dir), *args)
        assert (code, err) == (1, "error: MemoryError\n")
        assert sorted(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        (kept / "mine.txt").parent.mkdir()
        (kept / "mine.txt").write_text("mine\n")
        assert run_cli("synth", "--out", str(kept), "--force", *args)[0] == 1
        assert (kept / "mine.txt").read_text() == "mine\n"
    code, _, err = run_cli("synth", "--out", str(out_dir), *args)
    assert code == 0, err


def test_prepare_without_windows_makes_no_out(tmp_path):
    corpus, feats = tmp_path / "corpus", tmp_path / "x" / "feats"
    assert run_cli("synth", "--out", str(corpus), "--speakers", "2", "--utts", "2",
                   "--dur", "1")[0] == 0
    manifest = str(corpus / "manifest.tsv")
    wavs = corpus / "wav"
    wavs.rename(tmp_path / "away")
    code, _, err = run_cli("prepare", "--manifest", manifest, "--out", str(feats))
    lines = err.splitlines()
    assert code == 1 and len(lines) == 5 and all(x.startswith("error: ") for x in lines), err
    assert lines[-1] == "error: no usable windows were produced from 4 clips (4 failed)"
    assert not feats.parent.exists()
    (tmp_path / "away").rename(wavs)
    code, _, err = run_cli("prepare", "--manifest", manifest, "--out", str(feats))
    assert code == 0, err


def test_refused_score_ver_creates_no_output_directory(tmp_path):
    # plda_fit owns the rule, and the error names the setting: 2 speakers in
    # 3 dimensions allow lda_dim 1 alone
    emb = _boundary_inputs(tmp_path)["emb"]
    out_dir = tmp_path / "v0"
    for value, reason in [("0", "reduced_dim must be in [1, 3], got 0"),
                          ("-1", "reduced_dim must be in [1, 3], got -1"),
                          ("4", "reduced_dim must be in [1, 3], got 4"),
                          ("2", "LDA rank caps at n_speakers-1 = 1, got reduced_dim 2")]:
        code, _, err = run_cli("score-ver", "--enrol", str(emb), "--eval", str(emb),
                               "--out", str(out_dir), "--set", f"lda_dim={value}")
        assert code == 1
        assert err == f"error: --set: bad value for lda_dim: {reason}\n", err
        assert not out_dir.exists()
    # a refusal that is not about lda_dim keeps its own words
    one = tmp_path / "one.csv"
    save_embeddings(one, [EmbeddingRecord(f"a-u{j}", "a", np.eye(3)[j]) for j in range(2)])
    code, _, err = run_cli("score-ver", "--enrol", str(one), "--eval", str(one),
                           "--out", str(out_dir), "--set", "lda_dim=1")
    assert (code, err) == (1, "error: PLDA needs at least 2 speakers\n")
    assert not out_dir.exists()


def test_failed_report_write_leaves_no_trials_behind(tmp_path, monkeypatch):
    # trials.csv is written, then eer.txt fails: trials.csv goes too, with
    # the --out made for it, so the rerun needs no --force
    enrol, evals = _verification_csvs(tmp_path, 4, 2, 2, 3, seed=0)
    out = tmp_path / "ver"
    args = ("score-ver", "--enrol", str(enrol), "--eval", str(evals), "--out", str(out),
            "--set", "backend=cosine")
    seen = []

    def full_disk(path, *_):
        seen.append(sorted(os.listdir(path.parent)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch:
        patch.setattr(cli, "save_eer_report", full_disk)
        code, _, err = run_cli(*args)
    assert code == 1
    assert err.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert seen == [["trials.csv"]]
    assert not out.exists()
    code, _, err = run_cli(*args)
    assert code == 0, err
    assert sorted(os.listdir(out)) == ["eer.txt", "trials.csv"]


# per command: the function that writes its output, the files it writes, and
# its argv for an output directory
_WRITERS = {
    "embed": ("save_embeddings", {"emb.csv"}, lambda inputs, out: (
        "embed", "--manifest", inputs["feats_manifest"], "--ckpt", inputs["ckpt"],
        "--out", out / "emb.csv")),
    "score-ver": ("save_score_matrix", {"trials.csv", "eer.txt"}, lambda inputs, out: (
        "score-ver", "--enrol", inputs["enrol"], "--eval", inputs["eval"], "--out", out,
        "--set", "backend=cosine")),
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_failed_write_removes_only_the_directories_it_made(pipeline, tmp_path,
                                                           monkeypatch, command):
    # the disk fills while the output is written: an output directory the
    # command made goes, with the parents made for it, and one that existed
    # before keeps what it held; neither rerun needs --force
    writer, wrote, argv = _WRITERS[command]
    enrol, evals = _verification_csvs(tmp_path, 4, 2, 2, 3, seed=0)
    inputs = {**pipeline, "enrol": enrol, "eval": evals}
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "mine.txt").write_text("mine\n")
    outs = (tmp_path / "new" / "a", kept)
    made = []

    def full_disk(path, *_):
        made.append(Path(path).parent.is_dir())
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for out in outs:
        with monkeypatch.context() as patch:
            patch.setattr(cli, writer, full_disk)
            code, _, err = run_cli(*map(str, argv(inputs, out)))
        assert code == 1
        assert err.splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert made == [True, True]
    assert not (tmp_path / "new").exists()
    assert list(kept.iterdir()) == [kept / "mine.txt"]
    assert (kept / "mine.txt").read_text() == "mine\n"
    for out in outs:
        code, _, err = run_cli(*map(str, argv(inputs, out)))
        assert code == 0, err
    assert {p.name for p in outs[0].iterdir()} == wrote
    assert {p.name for p in kept.iterdir()} == wrote | {"mine.txt"}


_STORE = np.zeros((2, 10, 3, 20))


def _store_with(value):
    frags = _STORE.copy()
    frags[1, 3, 2, 5] = value
    return frags


def _not_a_store(path):
    return (f"{path}: not a feature store of finite (windows, 10, frames, coefficients) "
            "fragments, as `hvector prepare` writes; rerun it")


def _refused_store(path, why):
    return (f"{path}: {why}; rerun `hvector prepare` (feature files from earlier "
            "versions, per-window ones too, are no longer read)")


# a per-window archive from before feature stores: 3-D fragments and an
# n_frames record, whatever that holds, or none; each is refused whole
_PRE_STORE_N_FRAMES = {
    "is not a scalar": np.array([98.0, 1.0]), "is negative": -5.0, "is zero": 0.0,
    "is below ten": 9.0, "exceeds the frames": 101.0, "is fractional": 97.5,
    "is nan": np.nan, "is inf": np.inf, "is text": "98",
}

# name -> (the store's records, or None for a good store cut short; the
# manifest's row; the error after the store's name, or None for _not_a_store's)
_BAD_FEATURE_STORES = {
    **{f"n_frames {name}": ({"fragments": _STORE[0], "n_frames": value}, 0, None)
       for name, value in _PRE_STORE_N_FRAMES.items()},
    "n_frames is missing": ({"fragments": _STORE[0]}, 0, None),
    "fragments are 2-D": ({"fragments": _STORE[0, 0]}, 0, None),
    "fragments have 9 on axis 1": ({"fragments": _STORE[:, :9]}, 0, None),
    "fragments have no frames": ({"fragments": _STORE[:, :, :0]}, 0, None),
    "fragments are text": ({"fragments": "0 0 0"}, 0, None),
    "fragments are missing": ({"windows": _STORE}, 0, None),
    "fragments hold nan": ({"fragments": _store_with(np.nan)}, 0, None),
    "fragments hold inf": ({"fragments": _store_with(-np.inf)}, 1, None),
    "file is truncated": (None, 0, "File is not a zip file; rerun `hvector prepare`"),
    "row is the window count": ({"fragments": _STORE}, 2, "no row 2: the store holds 2 windows"),
}


@pytest.mark.parametrize("case", list(_BAD_FEATURE_STORES))
def test_malformed_feature_archive_is_one_error_line(tmp_path, case):
    records, row, expected = _BAD_FEATURE_STORES[case]
    store = tmp_path / "features.hvt"
    if records is None:
        hv.save_archive(store, {"fragments": _STORE})
        store.write_bytes(store.read_bytes()[:-8])
    else:
        hv.save_archive(store, records)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"u\ta\t{store}\t{row}\n")
    with pytest.raises(ValueError) as info:
        load_features(Manifest.load(manifest).entries)
    message = str(info.value)
    if expected is None:
        assert message == _not_a_store(store)
    else:
        assert message.startswith(f"{store}: {expected}"), message
    code, _, err = run_cli("embed", "--manifest", str(manifest), "--ckpt",
                           str(_tiny_checkpoint(tmp_path / "run")),
                           "--out", str(tmp_path / "e.csv"))
    assert (code, err) == (1, f"error: {message}\n")


def test_pre_store_feature_directory_is_refused(pipeline, tmp_path):
    # the layout `prepare` wrote before feature stores: feats/<window>.hvt,
    # each with its window's 3-D fragments and n_frames, and n_frames in the
    # manifest's 4th column
    entries = Manifest.load(pipeline["feats_manifest"]).entries
    old = tmp_path / "feats"
    (old / "feats").mkdir(parents=True)
    lines = []
    for u in load_features(entries):
        path = old / "feats" / f"{u.utterance_id}.hvt"
        save_old_archive(path, {"fragments": u.fragments, "n_frames": 90.0})
        lines.append(f"{u.utterance_id}\t{u.speaker_id}\t{path}\t90\n")
    (old / "manifest.tsv").write_text("".join(lines))
    first = old / "feats" / f"{entries[0].utterance_id}.hvt"
    for argv in (("embed", "--out", str(tmp_path / "out" / "e.csv")), ("score-id",)):
        code, _, err = run_cli(argv[0], "--manifest", str(old / "manifest.tsv"),
                               "--ckpt", str(pipeline["ckpt"]), *argv[1:])
        assert (code, err) == \
            (1, f"error: {_refused_store(first, 'File is not a zip file')}\n")
    assert not (tmp_path / "out").exists()


def test_archives_from_earlier_versions_are_refused(pipeline, tmp_path):
    # a feature store and a checkpoint as hvector wrote them before archives
    # were zips of .npy records: each is one error line that names the file
    # and the command that writes it anew
    store, ckpt = tmp_path / "features.hvt", tmp_path / "model.hvt"
    frags = np.stack([u.fragments for u in
                      load_features(Manifest.load(pipeline["feats_manifest"]).entries)])
    save_old_archive(store, {"fragments": frags})
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"u{k}\t{'ab'[k % 2]}\t{store}\t{k}\n" for k in range(4)))
    code, _, err = run_cli("train", "--manifest", str(manifest), "--out", str(tmp_path / "run"))
    assert (code, err) == (1, f"error: {_refused_store(store, 'File is not a zip file')}\n")
    assert not (tmp_path / "run").exists()
    params, cfg = load_checkpoint(pipeline["ckpt"])
    save_old_archive(ckpt, {"config": cfg.to_text(), **{
        name: t.data for name, t in params.tensors.items()}})
    code, _, err = run_cli("score-id", "--manifest", str(pipeline["feats_manifest"]),
                           "--ckpt", str(ckpt))
    assert (code, err) == (1, f"error: {ckpt}: File is not a zip file; rerun `hvector train` "
                              "(checkpoints from earlier versions are no longer read)\n")


def test_refused_train_and_embed_create_no_out(pipeline, tmp_path):
    # train refuses a split without two clips per speaker, and train and
    # embed a manifest whose store is missing, before either makes --out
    one_each = tmp_path / "one.tsv"
    one_each.write_text("".join(line for line in
                                pipeline["feats_manifest"].read_text().splitlines(True)
                                if "-u000-" in line))
    missing = tmp_path / "missing.tsv"
    missing.write_text("".join(f"u{k}\t{'ab'[k % 2]}\t{tmp_path / 'gone.hvt'}\t{k}\n"
                               for k in range(4)))
    out = tmp_path / "a" / "b"
    for argv, expected in [
            (("train", "--manifest", one_each, "--out", out), "need at least 2 to split"),
            (("train", "--manifest", missing, "--out", out), "gone.hvt missing"),
            (("embed", "--manifest", missing, "--ckpt", pipeline["ckpt"],
              "--out", out / "e.csv"), "gone.hvt missing")]:
        code, _, err = run_cli(*map(str, argv))
        assert code == 1 and len(err.splitlines()) == 1 and expected in err, err
        assert not (tmp_path / "a").exists()


# case -> (command, flag, what, hint): with every other input there, the
# command refuses a missing `flag` input as `error: <what> <path> missing;
# <hint>`; a "feature file" case gives --manifest a manifest whose store is missing
_MISSING_INPUTS = {
    **{f"{command} manifest": (command, "--manifest", "manifest", hint)
       for command, hint in [("prepare", "run `hvector synth` first"),
                             ("train", "run `hvector prepare` first"),
                             ("embed", "run `hvector prepare` first"),
                             ("score-id", "run `hvector prepare` first")]},
    **{f"{command} checkpoint": (command, "--ckpt", "checkpoint", "run `hvector train` first")
       for command in ("embed", "score-id")},
    **{f"score-ver {flag}": ("score-ver", flag, "embedding CSV", "run `hvector embed` first")
       for flag in ("--enrol", "--eval", "--plda-train")},
    **{f"{command} feature store": (command, "--manifest", "feature file",
                                    "rerun `hvector prepare`")
       for command in ("train", "embed", "score-id")},
}


@pytest.mark.parametrize("case", list(_MISSING_INPUTS))
def test_missing_input_is_one_error_line(pipeline, tmp_path, case):
    command, flag, what, hint = _MISSING_INPUTS[case]
    emb = _clustered_embedding_csvs(tmp_path)
    out = tmp_path / "out" / "sub"
    argv = {
        "synth": ["--out", out],
        "prepare": ["--manifest", pipeline["corpus_manifest"], "--out", out],
        "train": ["--manifest", pipeline["feats_manifest"], "--out", out],
        "embed": ["--manifest", pipeline["feats_manifest"], "--ckpt", pipeline["ckpt"],
                  "--out", out / "e.csv"],
        "score-id": ["--manifest", pipeline["feats_manifest"], "--ckpt", pipeline["ckpt"]],
        "score-ver": ["--enrol", emb["enrol"], "--eval", emb["eval"],
                      "--plda-train", emb["plda"], "--out", out],
    }[command]
    gone = value = tmp_path / "gone.x"
    if what == "feature file":
        value = tmp_path / "nostore.tsv"
        value.write_text("".join(f"u{k}\t{'ab'[k % 2]}\t{gone}\t{k}\n" for k in range(4)))
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run_cli(command, *map(str, argv))
    assert code == 1
    assert err == f"error: {what} {gone} missing; {hint}\n"
    assert sorted(tmp_path.rglob("*")) == before


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(10, 39)),
                       min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1,
                      max_size=12),
       awk=st.booleans())
@example(shapes=[(8, 98)], picks=[], awk=True)
def test_load_features_returns_each_row_as_prepare_cut_it(shapes, picks, awk):
    """For stores of any window count and frame count, and manifest rows in
    any subset or order, each window comes back with split_fragments' bytes,
    as a view of the one array its store was read into, once."""
    rng = np.random.default_rng(len(picks))
    with tempfile.TemporaryDirectory() as tmp:
        windows, paths = [], []
        for a, (n, t) in enumerate(shapes):
            utts = [split_fragments(rng.standard_normal((t, 20)), f"a{a}-w{k}", f"s{k // 4}")
                    for k in range(n)]
            paths.append(os.path.join(tmp, f"store{a}.hvt"))
            save_features(paths[a], utts)
            windows.append(utts)
        if awk:     # the README's `awk` split: the first half of each speaker's rows
            picks = [(0, k) for k in range(len(windows[0])) if k % 4 < 2]
        picks = [(a % len(shapes), r % len(windows[a % len(shapes)])) for a, r in picks]
        entries = [ManifestEntry(windows[a][r].utterance_id, windows[a][r].speaker_id,
                                 paths[a], r) for a, r in picks]
        with mock.patch.object(hv, "load_archive", wraps=hv.load_archive) as load:
            got = load_features(entries)
        assert sorted(c.args[0] for c in load.call_args_list) == \
            sorted({paths[a] for a, _ in picks})
        # a row counted from the end is not a row: Manifest.load refuses it
        # from a file, and the loader from an entry built in code
        with pytest.raises(ValueError, match=f"no row -1: the store holds {shapes[0][0]} "):
            load_features([ManifestEntry("u", "s", paths[0], -1)])
    bases = {}
    for (a, r), u in zip(picks, got, strict=True):
        want = windows[a][r]
        assert (u.utterance_id, u.speaker_id) == (want.utterance_id, want.speaker_id)
        assert u.fragments.dtype == np.float64 and u.fragments.shape == want.fragments.shape
        assert u.fragments.tobytes() == want.fragments.tobytes()
        base = bases.setdefault(a, u.fragments.base)
        assert base is not None and u.fragments.base is base
    assert len({id(b) for b in bases.values()}) == len(bases)


# --- loaders behind the boundary: arbitrary text in, ValueError/OSError out ----

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _tiny_checkpoint(root / "run")
    return root


def _fuzzed_lines(separator, fields):
    """Arbitrary text, or lines of `separator`-joined fields drawn from `fields`."""
    return st.one_of(
        st.text(),
        st.lists(st.lists(st.one_of(fields, st.text()), max_size=6)
                 .map(separator.join), max_size=6).map("\n".join),
    )


def _returns_or_names(load, path):
    """`load()` returns, or raises ValueError/OSError whose message holds `path`."""
    try:
        load()
    except (ValueError, OSError) as exc:
        assert str(path) in str(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(text=_fuzzed_lines("\t", st.sampled_from(["a", "s1", "12", "-3", "x.hvt", ""])),
       check_paths=st.booleans())
@example(text="u\ts\tx.hvt\tmany\n", check_paths=False)
@example(text="u\ts\t" + "a" * 300 + "\t1\n", check_paths=True)   # name too long
@example(text="u\ts\tx.hvt\t" + "9" * 5000 + "\n", check_paths=False)  # int()'s digit limit
def test_manifest_loader_fails_cleanly(fuzz_dir, text, check_paths):
    path = fuzz_dir / "manifest.tsv"
    path.write_text(text, encoding="utf-8")
    _returns_or_names(lambda: Manifest.load(path, check_paths=check_paths), path)


_CFG_LINES = tiny_config().to_text().splitlines()
_TINY_PARAMS = _tiny_params()[0]
_TINY_RECORDS = {"speakers": "a\nb\nc\n",
                 **{name: t.data for name, t in _TINY_PARAMS.tensors.items()},
                 **{"buffer." + name: b for name, b in _TINY_PARAMS.buffers.items()}}


@settings(max_examples=200, deadline=None)
@given(text=(_fuzzed_lines("=", st.sampled_from(
    ["n_speakers", "mode", "dropout", "gru_hidden", "3", "0", "xvector", "0.5", "-1"]))
    | st.lists(st.sampled_from(_CFG_LINES)).map("\n".join))
    # storable text only: save_archive refuses a trailing NUL, which .npy
    # unicode drops (test_tensor.py pins that refusal)
    .filter(lambda t: not t.endswith("\0")))
@example(text="n_speakers=3\n")     # loads, but the stored shapes disagree
def test_checkpoint_loader_fails_cleanly(fuzz_dir, text):
    ckpt = fuzz_dir / "run" / "model.hvt"
    hv.save_archive(ckpt, {**_TINY_RECORDS, "config": text})
    _returns_or_names(lambda: load_checkpoint(ckpt), ckpt)


@settings(max_examples=200, deadline=None)
@given(text=_fuzzed_lines(",", st.sampled_from(
    ["utterance_id", "speaker_id", "e0", "1.5", "nan", "-2", '"']))
    | st.text().map(lambda t: "utterance_id,speaker_id,e0\n" + t))
@example(text="utterance_id,speaker_id,e0\nu,s," + "9" * 200_000 + "\n")
def test_embedding_loader_fails_cleanly(fuzz_dir, text):
    path = fuzz_dir / "emb.csv"
    path.write_text(text, encoding="utf-8")
    _returns_or_names(lambda: load_embeddings(path), path)


@settings(max_examples=200, deadline=None)
@given(text=_fuzzed_lines(",", st.sampled_from(
    ["enrol_speaker", "test_utterance", "score", "target", "0", "1", "7", "1.5",
     "nan", "x", '"']))
    | st.text().map(lambda t: "enrol_speaker,test_utterance,score,target\n" + t))
@example(text="enrol_speaker,test_utterance,score,target\ns,u\n")
@example(text="enrol_speaker,test_utterance,score,target\ns,u," + "9" * 200_000 + ",1\n")
def test_trials_loader_fails_cleanly(fuzz_dir, text):
    """A trials CSV loads as finite scores and 0/1 targets, or names the file."""
    path = fuzz_dir / "trials.csv"
    path.write_text(text, encoding="utf-8")
    try:
        scores, targets = load_trials(path)
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)
        return
    assert scores.dtype == np.float64 and targets.dtype == bool
    assert len(scores) == len(targets) and np.isfinite(scores).all()


_SET_WORDS = st.sampled_from(["lr", "epochs", "preset", "backend", "lda_dim", "len",
                              "length_norm", "stop_at_dev_acc", "none", "full",
                              "true", "1e-3", "-2", "0", "1" * 5000, "nan", ""])


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(_SCHEMAS)),
       sets=st.lists(_fuzzed_lines("=", _SET_WORDS), max_size=3))
@example(command="train", sets=["epochs=" + "9" * 5000])
def test_resolve_config_fails_cleanly(command, sets):
    """Any --set pairs resolve, or give a ValueError that names --set."""
    try:
        resolve_config(command, argparse.Namespace(set=sets))
    except ValueError as exc:
        assert str(exc).startswith("--set"), str(exc)
