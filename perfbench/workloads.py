"""The benchmark's workloads, each driven through ``hvector.cli.main``.

A workload has three parts: ``setup`` makes the inputs the commands read
(deterministic in the seed), ``run_pass`` runs the timed command sequence and
returns per-stage figures, and ``check`` verifies what a pass wrote.  Every
CLI command is an operation: a non-zero exit status counts it as failed.
"""
from __future__ import annotations

import io
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from hvector import cli
from hvector.corpus import Manifest, split
from hvector.model import load_checkpoint
from hvector.scoring import EmbeddingRecord, load_embeddings, load_trials, save_embeddings


class CommandFailed(Exception):
    pass


@dataclass
class Context:
    seed: int
    recorder: object = None          # spans.Recorder while tracing, else None
    attempted: int = 0
    failed: int = 0
    command_s: dict = field(default_factory=dict)   # command -> seconds, this pass

    def run(self, *argv) -> str:
        """Run one `hvector` command in-process and return its stdout."""
        argv = [str(a) for a in argv]
        name = argv[0].replace("-", "_")
        out, err = io.StringIO(), io.StringIO()
        span = self.recorder.span(f"cli.{name}") if self.recorder else nullcontext()
        self.attempted += 1
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), span:
            try:
                status = cli.main(argv)
            except SystemExit as exc:      # argparse rejects bad arguments this way
                status = exc.code
        self.command_s[name] = self.command_s.get(name, 0.0) + time.perf_counter() - t0
        if status != 0:
            self.failed += 1
            raise CommandFailed(f"hvector {' '.join(argv)} exited {status}: "
                                f"{err.getvalue().strip()[-500:]}")
        return out.getvalue()


def _value(stdout: str, key: str) -> str:
    """The value of the last `key=value` line a command printed."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise CommandFailed(f"no {key}= line in command output")


def _last_log_row(run_dir: Path) -> list[str]:
    return (run_dir / "train.log").read_text().splitlines()[-1].split("\t")


def _check_training(run_dir: Path, epochs: int) -> tuple[list[str], int]:
    """Problems with a train run, and the reloaded embedding width."""
    problems = []
    rows = (run_dir / "train.log").read_text().splitlines()
    if len(rows) != epochs:
        problems.append(f"{run_dir}/train.log has {len(rows)} rows, expected {epochs}")
    try:
        params, cfg = load_checkpoint(run_dir / "model.hvt")
    except (OSError, ValueError) as exc:
        return problems + [f"checkpoint does not reload: {exc}"], 0
    if not all(np.all(np.isfinite(t.data)) for t in params.tensors.values()):
        problems.append("checkpoint holds non-finite weights")
    return problems, cfg.fc1_dim


def _check_embeddings(path: Path, n_rows: int, dim: int) -> list[str]:
    records = load_embeddings(path)
    problems = []
    if len(records) != n_rows:
        problems.append(f"{path.name}: {len(records)} rows, expected {n_rows}")
    if any(len(r.vector) != dim for r in records):
        problems.append(f"{path.name}: embeddings are not {dim}-wide")
    if not all(np.all(np.isfinite(r.vector)) for r in records):
        problems.append(f"{path.name}: non-finite embedding values")
    return problems


def exact_eer(scores: np.ndarray, targets: np.ndarray) -> float:
    """The EER `hvector.scoring.compute_eer` defines, from integer counts.

    Same operating points (accept iff score >= each distinct score, plus
    accept-all and reject-all), same lower convex hull and the same rational
    diagonal crossing, so the same float.  The coordinates (FAR, FRR) are
    scaled by n_non * n_target to integers, which makes this independent of
    the program and fast: at 200k trials `compute_eer` took 7 s at the
    commit that added this benchmark.
    """
    order = np.argsort(scores, kind="stable")
    s, t = scores[order], targets[order]
    n_t = int(t.sum())
    n_n = len(t) - n_t
    n = n_n * n_t
    _, first = np.unique(s, return_index=True)
    targets_below = np.concatenate(([0], np.cumsum(t)))[first]
    nontargets_below = np.concatenate(([0], np.cumsum(~t)))[first]
    points = sorted([(n, 0), (0, n)] + list(zip(((n_n - nontargets_below) * n_t).tolist(),
                                                (targets_below * n_n).tolist())))
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(p)
    for a, b in zip(hull, hull[1:]):
        da, db = a[0] - a[1], b[0] - b[1]
        if da <= 0 <= db or db <= 0 <= da:
            if da == 0:
                return float(Fraction(a[0], n))
            if db == 0:
                return float(Fraction(b[0], n))
            return float((a[0] + Fraction(da, da - db) * (b[0] - a[0])) / n)
    raise ValueError("operating points never cross FAR == FRR")


def _check_verification(ver_dir: Path, reported_eer: str, n_trials: int) -> list[str]:
    scores, targets = load_trials(ver_dir / "trials.csv")
    problems = []
    if len(scores) != n_trials:
        problems.append(f"trials.csv has {len(scores)} rows, expected {n_trials}")
    if not (np.all(np.isfinite(scores)) and targets.any() and not targets.all()):
        return problems + ["trials.csv needs finite scores and both trial kinds"]
    recomputed = f"{exact_eer(scores, targets):.4f}"
    if recomputed != reported_eer:
        problems.append(f"reported EER {reported_eer} != {recomputed} recomputed "
                        f"from trials.csv")
    report = (ver_dir / "eer.txt").read_text().splitlines()[0]
    if report != f"EER={recomputed}":
        problems.append(f"eer.txt says {report!r}, recomputed EER={recomputed}")
    return problems


def _manifest_rows(path: Path) -> int:
    return len(Manifest.load(path, check_paths=False))


def _train_rows(path: Path) -> int:
    """Utterances `train` trains on: its default 0.9 split with seed 0."""
    return len(split(Manifest.load(path, check_paths=False), 0.9, 0)[0])


class DeskPipeline:
    """The README walkthrough: train, identification and held-out verification."""

    speakers, utts, held_utts, epochs = 10, 60, 20, 3

    def setup(self, ctx: Context, dest: Path):
        dest.mkdir(parents=True)   # every input is synthesized by the pass itself

    def run_pass(self, ctx: Context, inputs: Path, out: Path) -> tuple[dict, dict]:
        s = ctx.seed
        ctx.run("synth", "--out", out / "corpus", "--speakers", self.speakers,
                "--utts", self.utts, "--dur", "1.0", "--seed", s)
        ctx.run("prepare", "--manifest", out / "corpus/manifest.tsv", "--out", out / "feats")
        feats = out / "feats/manifest.tsv"
        ckpt = out / "run/model.hvt"
        ctx.run("train", "--manifest", feats, "--out", out / "run", "--set", "lr=0.001",
                "--set", "stop_at_dev_acc=none", "--epochs", self.epochs)
        ctx.run("embed", "--manifest", feats, "--ckpt", ckpt, "--out", out / "train_emb.csv")
        id_out = ctx.run("score-id", "--manifest", feats, "--ckpt", ckpt)
        ctx.run("synth", "--out", out / "held", "--speakers", self.speakers,
                "--utts", self.held_utts, "--dur", "1.0", "--seed", s + 1000)
        ctx.run("prepare", "--manifest", out / "held/manifest.tsv", "--out", out / "held_feats")
        n_enrol_spk, n_eval = self._split_held(out)
        ctx.run("embed", "--manifest", out / "enrol.tsv", "--ckpt", ckpt, "--out", out / "enrol.csv")
        ctx.run("embed", "--manifest", out / "eval.tsv", "--ckpt", ckpt, "--out", out / "eval.csv")
        ver_out = ctx.run("score-ver", "--enrol", out / "enrol.csv", "--eval", out / "eval.csv",
                          "--plda-train", out / "train_emb.csv", "--out", out / "ver",
                          "--set", "lda_dim=9")

        clips = self.speakers * (self.utts + self.held_utts)
        n_train = _train_rows(feats)
        n_embedded = _manifest_rows(feats) + _manifest_rows(out / "held_feats/manifest.tsv")
        row = _last_log_row(out / "run")
        reported = {"id_accuracy": _value(id_out, "accuracy"), "eer": _value(ver_out, "EER"),
                    "n_trials": n_enrol_spk * n_eval}
        c = ctx.command_s
        return reported, {
            "synth_clips_per_s": (clips / c["synth"], "1/s"),
            "frontend_clips_per_s": (clips / c["prepare"], "1/s"),
            "train_utts_per_s": (n_train * self.epochs / c["train"], "1/s"),
            "embed_utts_per_s": (n_embedded / c["embed"], "1/s"),
            "ver_plda_trials_per_s": (n_enrol_spk * n_eval / c["score_ver"], "1/s"),
            "train_loss": (float(row[1]), "nats"),
            "dev_acc": (float(row[3]), "fraction"),
            "id_accuracy": (float(reported["id_accuracy"]), "fraction"),
            "eer_plda": (float(reported["eer"]), "fraction"),
        }

    @staticmethod
    def _split_held(out: Path) -> tuple[int, int]:
        """First half of each held-out speaker's windows enrol, the rest evaluate."""
        by_speaker: dict[str, list[str]] = {}
        for line in (out / "held_feats/manifest.tsv").read_text().splitlines():
            by_speaker.setdefault(line.split("\t")[1], []).append(line)
        enrol, evaluate = [], []
        for lines in by_speaker.values():
            half = len(lines) // 2
            enrol += lines[:half]
            evaluate += lines[half:]
        (out / "enrol.tsv").write_text("".join(x + "\n" for x in enrol))
        (out / "eval.tsv").write_text("".join(x + "\n" for x in evaluate))
        return len(by_speaker), len(evaluate)

    def check(self, inputs: Path, out: Path, info: dict) -> list[str]:
        problems, dim = _check_training(out / "run", self.epochs)
        for csv_name, manifest in (("train_emb.csv", "feats/manifest.tsv"),
                                   ("enrol.csv", "enrol.tsv"), ("eval.csv", "eval.tsv")):
            problems += _check_embeddings(out / csv_name, _manifest_rows(out / manifest), dim)
        if not 0.0 <= float(info["id_accuracy"]) <= 1.0:
            problems.append(f"accuracy {info['id_accuracy']} outside [0, 1]")
        return problems + _check_verification(out / "ver", info["eer"], info["n_trials"])


class FullTrain:
    """Paper-size network: `train --set preset=full` on 3 s windows, then `embed`."""

    speakers, utts, epochs = 4, 3, 2   # 8 train utterances: 2 steps of 4 per epoch

    def setup(self, ctx: Context, dest: Path):
        ctx.run("synth", "--out", dest / "corpus", "--speakers", self.speakers,
                "--utts", self.utts, "--dur", "3.2", "--seed", ctx.seed)
        ctx.run("prepare", "--manifest", dest / "corpus/manifest.tsv",
                "--out", dest / "feats", "--len", "3.0")

    def run_pass(self, ctx: Context, inputs: Path, out: Path) -> tuple[dict, dict]:
        feats = inputs / "feats/manifest.tsv"
        ctx.run("train", "--manifest", feats, "--out", out / "run", "--set", "preset=full",
                "--set", "batch_size=4", "--set", "stop_at_dev_acc=none",
                "--epochs", self.epochs)
        ctx.run("embed", "--manifest", feats, "--ckpt", out / "run/model.hvt",
                "--out", out / "emb.csv")
        n_train = _train_rows(feats)
        row = _last_log_row(out / "run")
        c = ctx.command_s
        return {}, {
            "train_utts_per_s": (n_train * self.epochs / c["train"], "1/s"),
            "embed_utts_per_s": (_manifest_rows(feats) / c["embed"], "1/s"),
            "train_loss": (float(row[1]), "nats"),
            "dev_acc": (float(row[3]), "fraction"),
        }

    def check(self, inputs: Path, out: Path, info: dict) -> list[str]:
        problems, dim = _check_training(out / "run", self.epochs)
        rows = _manifest_rows(inputs / "feats/manifest.tsv")
        return problems + _check_embeddings(out / "emb.csv", rows, dim)


class VerifyScale:
    """`score-ver` with PLDA, then with cosine, on the same 200k trials.

    200 enrolment speakers x 1,000 evaluation utterances.  The embeddings
    come from a two-covariance generator, not from a model, so `model` and
    `tensor` do no work here: speaker means y ~ N(0, B) with B diagonal and
    falling from 1.0 to 0.2, utterances y + N(0, noise^2 I).  The noise keeps
    both back ends' EERs well above 0.
    """

    dim, lda_dim = 64, 50
    enrol_speakers, enrol_utts, eval_utts = 200, 3, 5
    plda_speakers, plda_utts = 300, 10
    noise = 1.5
    n_trials = enrol_speakers * enrol_speakers * eval_utts
    backends = ("plda", "cosine")

    def setup(self, ctx: Context, dest: Path):
        dest.mkdir(parents=True)
        rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 64]))
        between_sd = np.sqrt(np.linspace(1.0, 0.2, self.dim))

        def records(prefix, means, first, count):
            return [EmbeddingRecord(f"{prefix}{i:04d}-u{j:02d}", f"{prefix}{i:04d}",
                                    m + rng.normal(0.0, self.noise, self.dim))
                    for i, m in enumerate(means) for j in range(first, first + count)]

        plda_means = rng.normal(size=(self.plda_speakers, self.dim)) * between_sd
        save_embeddings(dest / "plda.csv", records("p", plda_means, 0, self.plda_utts))
        means = rng.normal(size=(self.enrol_speakers, self.dim)) * between_sd
        save_embeddings(dest / "enrol.csv", records("s", means, 0, self.enrol_utts))
        save_embeddings(dest / "eval.csv",
                        records("s", means, self.enrol_utts, self.eval_utts))

    def run_pass(self, ctx: Context, inputs: Path, out: Path) -> tuple[dict, dict]:
        reported, figures = {}, {}
        for backend in self.backends:
            args = ["score-ver", "--enrol", inputs / "enrol.csv", "--eval", inputs / "eval.csv",
                    "--out", out / f"ver_{backend}", "--set", f"backend={backend}"]
            if backend == "plda":
                args += ["--plda-train", inputs / "plda.csv", "--set", f"lda_dim={self.lda_dim}"]
            t0 = time.perf_counter()
            reported[backend] = _value(ctx.run(*args), "EER")
            figures[f"ver_{backend}_trials_per_s"] = (
                self.n_trials / (time.perf_counter() - t0), "1/s")
            figures[f"eer_{backend}"] = (float(reported[backend]), "fraction")
        return reported, figures

    def check(self, inputs: Path, out: Path, info: dict) -> list[str]:
        return [problem for backend in self.backends for problem in
                _check_verification(out / f"ver_{backend}", info[backend], self.n_trials)]


WORKLOADS = {
    "desk_pipeline": DeskPipeline(),
    "full_train": FullTrain(),
    "verify_scale": VerifyScale(),
}
