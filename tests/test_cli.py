"""End-to-end checks of the command-line pipeline.

Every test drives `main()` in process and inspects exit codes, stdout, and
the files each stage writes.  A module-scoped fixture runs one small
synth -> prepare -> train pipeline that the embed/score tests reuse.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

import hvector
from hvector.cli import load_features, main
from hvector.corpus import Manifest
from hvector.scoring import (
    EmbeddingRecord,
    compute_eer,
    cosine_score,
    load_embeddings,
    load_trials,
    make_trials,
    plda_fit,
    save_embeddings,
    save_trials,
    score_trials,
)


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
        entry = manifest.entries[0]
        assert entry.n_frames == 98
        utt = load_features(entry.path, entry.utterance_id, entry.speaker_id)
        assert utt.fragments.shape == (10, 10, 20)
        assert utt.n_frames == 98

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

    def test_empty_manifest_is_an_error(self, tmp_path):
        empty = tmp_path / "manifest.tsv"
        empty.write_text("")
        code, _, err = run_cli("prepare", "--manifest", str(empty),
                               "--out", str(tmp_path / "feats"))
        assert code == 1
        assert "lists no utterances" in err

    def test_missing_manifest_hint(self, tmp_path):
        code, _, err = run_cli("prepare", "--manifest",
                               str(tmp_path / "nope.tsv"),
                               "--out", str(tmp_path / "feats"))
        assert code == 1
        assert "hvector synth" in err

    def test_force_rerun_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats"
        assert run_cli("synth", "--out", str(corpus), "--speakers", "2",
                       "--utts", "2", "--dur", "1", "--seed", "6")[0] == 0
        args = ("prepare", "--manifest", str(corpus / "manifest.tsv"),
                "--out", str(feats))
        assert run_cli(*args)[0] == 0
        manifest_bytes = (feats / "manifest.tsv").read_bytes()
        feat_file = sorted((feats / "feats").iterdir())[0]
        feat_bytes = feat_file.read_bytes()

        assert run_cli(*args)[0] == 1  # refuses without --force
        assert run_cli(*args, "--force")[0] == 0
        assert (feats / "manifest.tsv").read_bytes() == manifest_bytes
        assert feat_file.read_bytes() == feat_bytes


class TestTrain:
    def test_outputs_and_log_format(self, pipeline):
        assert pipeline["ckpt"].exists()
        assert pipeline["ckpt"].with_suffix(".cfg").exists()
        assert pipeline["ckpt"].with_suffix(".spk").exists()
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

    def test_missing_manifest_hint(self, tmp_path):
        code, _, err = run_cli("train", "--manifest", str(tmp_path / "no.tsv"),
                               "--out", str(tmp_path / "run"))
        assert code == 1
        assert "hvector prepare" in err

    def test_config_file_with_set_override(self, pipeline, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=1\nlr=0.001\n# comment\n")
        code, out, err = run_cli("train", "--manifest",
                                 str(pipeline["feats_manifest"]),
                                 "--out", str(tmp_path / "run"),
                                 "--config", str(cfg), "--set", "epochs=2")
        assert code == 0, err
        assert "config train.epochs=2" in out
        assert len((tmp_path / "run" / "train.log").read_text().splitlines()) == 2

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

    def test_missing_checkpoint_hint(self, pipeline, tmp_path):
        code, _, err = run_cli("embed", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--ckpt", str(tmp_path / "none.hvt"),
                               "--out", str(tmp_path / "emb.csv"))
        assert code == 1
        assert "hvector train" in err


    def test_truncated_feature_file_is_a_one_line_error(self, pipeline, tmp_path):
        manifest = Manifest.load(pipeline["feats_manifest"], check_paths=False)
        entry = manifest.entries[0]
        raw = Path(entry.path).read_bytes()
        short = tmp_path / "short.hvt"
        short.write_bytes(raw[:-16])
        bad_manifest = tmp_path / "manifest.tsv"
        bad_manifest.write_text(
            f"{entry.utterance_id}\t{entry.speaker_id}\t{short}\t{entry.n_frames}\n")
        code, _, err = run_cli("embed", "--manifest", str(bad_manifest),
                               "--ckpt", str(pipeline["ckpt"]),
                               "--out", str(tmp_path / "emb.csv"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(short) in err

    def test_truncated_checkpoint_is_a_one_line_error(self, pipeline, tmp_path):
        ckpt = tmp_path / "model.hvt"
        ckpt.write_bytes(pipeline["ckpt"].read_bytes()[:-16])
        for suffix in (".cfg", ".spk"):
            ckpt.with_suffix(suffix).write_bytes(
                pipeline["ckpt"].with_suffix(suffix).read_bytes())
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

    def test_missing_checkpoint_hint(self, pipeline, tmp_path):
        code, _, err = run_cli("score-id", "--manifest",
                               str(pipeline["feats_manifest"]),
                               "--ckpt", str(tmp_path / "none.hvt"))
        assert code == 1
        assert "hvector train" in err


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
                                 "--set", "length_norm=true")
        assert code == 0, err
        assert "config score-ver.backend=cosine" in out
        assert "EER=0.0000" in out

    def test_matrix_output_matches_per_trial_api(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        enrol, test = load_embeddings(paths["enrol"]), load_embeddings(paths["eval"])
        trials = make_trials(enrol, test, length_norm=True)
        for backend, scores in [
                ("cosine", cosine_score(np.stack([t.enrol_vector for t in trials]),
                                        np.stack([t.test_vector for t in trials]))),
                ("plda", score_trials(plda_fit(load_embeddings(paths["plda"])), trials))]:
            code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                                   "--eval", str(paths["eval"]),
                                   "--plda-train", str(paths["plda"]),
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

    def test_missing_embeddings_hint(self, tmp_path):
        code, _, err = run_cli("score-ver", "--enrol", str(tmp_path / "a.csv"),
                               "--eval", str(tmp_path / "b.csv"),
                               "--out", str(tmp_path / "ver"))
        assert code == 1
        assert "hvector embed" in err

    def test_non_numeric_value_is_a_one_line_error(self, tmp_path):
        paths = _clustered_embedding_csvs(tmp_path)
        lines = paths["eval"].read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
        paths["eval"].write_text("\n".join(lines) + "\n")
        code, _, err = run_cli("score-ver", "--enrol", str(paths["enrol"]),
                               "--eval", str(paths["eval"]), "--out", str(tmp_path / "ver"))
        assert code == 1
        assert err.splitlines() == [f"error: {paths['eval']} line 4: "
                                    "could not convert string to float: 'x'"]

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
        assert err.splitlines() == [f"error: {paths['plda']} line 3: "
                                    "embedding values must be finite"]

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


def test_import_leaves_scipy_signal_unloaded():
    """Only `synth` needs scipy.signal, which is slow to import."""
    src = str(Path(hvector.__file__).resolve().parent.parent)
    probe = "import sys, hvector.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
