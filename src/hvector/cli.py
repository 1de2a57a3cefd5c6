"""Command-line pipeline: synthesize audio, extract features, train, score.

Each subcommand resolves its settings from built-in defaults, then an
optional flat key=value --config file, then --set overrides, then dedicated
flags; the final values are echoed before any work starts.  Existing output
files are never overwritten unless --force is given, and every stage is
deterministic given its inputs and seed, so a --force rerun reproduces the
previous outputs byte for byte on the same BLAS build and BLAS thread count
(another thread count can change the last bits of weights and embeddings).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import tensor as hv
from .audio import (
    SAMPLE_RATE,
    UtteranceFeatures,
    load_wav,
    mfcc_frames,
    split_fragments,
    vad_filter,
    window_utterances,
)
from .corpus import Manifest, ManifestEntry, split, synth_corpus
from .model import ModelConfig, embed_batch, load_checkpoint
# make_trials, score_trials and save_trials are no longer called here; they
# stay importable from this module, where perfbench/spans.py patches them
from .scoring import (  # noqa: F401
    EmbeddingRecord,
    accuracy,
    cosine_score,
    eer_operating_point,
    embedding_matrix,
    enrolment_models,
    load_embeddings,
    make_trials,
    plda_fit,
    plda_score,
    save_eer_report,
    save_embeddings,
    save_score_matrix,
    save_trials,
    score_trials,
)
from .train import TrainConfig, load_speakers, predict, train

__all__ = ["main", "save_features", "load_features"]


class CliError(Exception):
    """User-facing failure: printed as `error: ...`, exit status 1."""


# --- feature archives -------------------------------------------------------

def save_features(path, utt: UtteranceFeatures):
    hv.save_archive(path, {
        "fragments": utt.fragments,
        "n_frames": np.array(float(utt.n_frames)),
    })


def load_features(path, utterance_id: str = "", speaker_id: str = "") -> UtteranceFeatures:
    arrays = hv.load_archive(path)
    if "fragments" not in arrays or "n_frames" not in arrays:
        raise ValueError(f"{path}: not a feature archive")
    return UtteranceFeatures(arrays["fragments"], int(arrays["n_frames"]),
                             utterance_id, speaker_id)


# --- config resolution ------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _optional(cast):
    def parse(raw):
        return None if raw.strip().lower() == "none" else cast(raw)
    return parse


def _positive(cast, what: str):
    def parse(raw):
        value = cast(raw)
        if value <= 0:
            raise ValueError(f"{what} must be positive, got {value}")
        return value
    return parse


def _choice(options):
    def parse(raw):
        raw = str(raw).strip()
        if raw not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {raw!r}")
        return raw
    return parse


# command -> {key: (default, parser)}
_SCHEMAS = {
    "synth": {
        "speakers": (10, _positive(int, "speakers")),
        "utts": (60, _positive(int, "utts")),
        "dur": (1.0, _positive(float, "dur")),
        "seed": (0, int),
    },
    "prepare": {
        "len": (1.0, _positive(float, "len")),
    },
    "train": {
        "model": ("hvector", _choice({"hvector", "xvector", "xvector_attn"})),
        "preset": ("desk", _choice({"desk", "full"})),
        "lr": (1e-4, float),
        "beta1": (0.95, float),
        "beta2": (0.999, float),
        "eps": (1e-8, float),
        "batch_size": (32, _positive(int, "batch_size")),
        "epochs": (30, _positive(int, "epochs")),
        "seed": (0, int),
        "dropout": (0.2, float),
        "train_fraction": (0.9, float),
        "stop_at_dev_acc": (None, _optional(float)),
    },
    "embed": {
        "batch_size": (64, _positive(int, "batch_size")),
    },
    "score-id": {
        "batch_size": (64, _positive(int, "batch_size")),
    },
    "score-ver": {
        "backend": ("plda", _choice({"plda", "cosine"})),
        "lda_dim": (None, _optional(int)),
        "length_norm": (False, _parse_bool),
    },
}


def _apply_pair(cfg: dict, schema: dict, key: str, raw: str, origin: str):
    if key not in schema:
        raise CliError(f"{origin}: unknown config key {key!r} "
                       f"(known: {', '.join(sorted(schema))})")
    try:
        cfg[key] = schema[key][1](raw)
    except ValueError as exc:
        raise CliError(f"{origin}: bad value for {key}: {exc}") from exc


def resolve_config(command: str, config_path, set_args, flag_overrides: dict) -> dict:
    schema = _SCHEMAS[command]
    cfg = {key: default for key, (default, _) in schema.items()}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise CliError(f"config file {path} not found")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            _apply_pair(cfg, schema, key.strip(), raw.strip(), f"{path}:{lineno}")
    for item in set_args or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _apply_pair(cfg, schema, key.strip(), raw.strip(), "--set")
    for key, value in flag_overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(command: str, cfg: dict, extra: dict | None = None):
    merged = dict(cfg)
    merged.update(extra or {})
    for key in sorted(merged):
        print(f"config {command}.{key}={_format_value(merged[key])}")


# --- shared guards ----------------------------------------------------------

def _require_input(path, what: str, hint: str):
    if not Path(path).exists():
        raise CliError(f"{what} {path} not found; {hint}")


def _guard_outputs(paths, force: bool):
    existing = [str(p) for p in paths if Path(p).exists()]
    if existing and not force:
        raise CliError("output already exists: " + ", ".join(existing)
                       + " (pass --force to overwrite)")


def _load_manifest(path, hint: str) -> Manifest:
    _require_input(path, "manifest", hint)
    try:
        manifest = Manifest.load(path, check_paths=False)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not manifest.entries:
        raise CliError(f"manifest {path} lists no utterances")
    return manifest


def _load_feature_set(manifest: Manifest) -> list:
    feats = []
    for e in manifest.entries:
        if not Path(e.path).exists():
            raise CliError(f"feature file {e.path} missing; rerun `hvector prepare`")
        try:
            feats.append(load_features(e.path, e.utterance_id, e.speaker_id))
        except (ValueError, OSError) as exc:
            raise CliError(str(exc)) from exc
    return feats


def _load_ckpt(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError as exc:
        raise CliError(f"{exc}; run `hvector train` first") from exc
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from exc


def _load_embedding_csv(path) -> list:
    _require_input(path, "embedding CSV", "run `hvector embed` first")
    try:
        return load_embeddings(path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# --- subcommands ------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = resolve_config("synth", args.config, args.set, {
        "speakers": args.speakers, "utts": args.utts,
        "dur": args.dur, "seed": args.seed,
    })
    echo_config("synth", cfg, {"out": args.out})
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = synth_corpus(cfg["speakers"], cfg["utts"], cfg["dur"],
                                cfg["seed"], out_dir)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"wrote {len(manifest)} utterances for {len(manifest.speakers())} "
          f"speakers under {out_dir}")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    return 0


def cmd_prepare(args) -> int:
    cfg = resolve_config("prepare", args.config, args.set, {"len": args.len})
    echo_config("prepare", cfg, {"manifest": args.manifest, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector synth` first")
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    feat_dir = out_dir / "feats"
    feat_dir.mkdir(parents=True, exist_ok=True)

    entries, failures, skipped = [], [], 0
    for e in manifest.entries:
        try:
            clip = load_wav(e.path)
            if clip.sample_rate != SAMPLE_RATE:
                raise ValueError(f"{e.path}: sample rate {clip.sample_rate} "
                                 f"not supported; expected {SAMPLE_RATE}")
            windows = window_utterances(vad_filter(clip), cfg["len"])
        except (ValueError, OSError) as exc:
            failures.append(e.utterance_id)
            print(f"error: {e.utterance_id}: {exc}", file=sys.stderr)
            continue
        if not windows:
            skipped += 1
            continue
        for k, win in enumerate(windows):
            utt_id = f"{e.utterance_id}-w{k:03d}"
            feats = split_fragments(mfcc_frames(win), utt_id, e.speaker_id)
            path = feat_dir / f"{utt_id}.hvt"
            save_features(path, feats)
            entries.append(ManifestEntry(utt_id, e.speaker_id, str(path),
                                         feats.n_frames))
    if not entries:
        raise CliError("no usable windows were produced from "
                       f"{len(manifest)} clips ({len(failures)} failed)")
    Manifest(entries).save(out_dir / "manifest.tsv")
    print(f"prepared {len(entries)} windows from "
          f"{len(manifest) - len(failures) - skipped} clips "
          f"({len(failures)} failed, {skipped} too short)")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    return 1 if failures else 0


def cmd_train(args) -> int:
    cfg = resolve_config("train", args.config, args.set, {
        "model": args.model, "epochs": args.epochs, "seed": args.seed,
    })
    echo_config("train", cfg, {"manifest": args.manifest, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    out_dir = Path(args.out)
    ckpt_path = out_dir / "model.hvt"
    log_path = out_dir / "train.log"
    outputs = [ckpt_path, ckpt_path.with_suffix(".cfg"),
               ckpt_path.with_suffix(".spk"), log_path]
    _guard_outputs(outputs, args.force)
    for p in outputs:
        p.unlink(missing_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        train_man, dev_man = split(manifest, cfg["train_fraction"], cfg["seed"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    train_feats = _load_feature_set(train_man)
    dev_feats = _load_feature_set(dev_man)

    n_speakers = len(manifest.speakers())
    frames_per_fragment = train_feats[0].fragments.shape[1]
    try:
        if cfg["preset"] == "desk":
            model_cfg = ModelConfig.desk(n_speakers, cfg["model"],
                                         frames_per_fragment)
        else:
            model_cfg = ModelConfig(n_speakers=n_speakers, mode=cfg["model"],
                                    frames_per_fragment=frames_per_fragment)
        model_cfg = dataclasses.replace(model_cfg, dropout=cfg["dropout"])
        train_cfg = TrainConfig(
            lr=cfg["lr"], beta1=cfg["beta1"], beta2=cfg["beta2"],
            eps=cfg["eps"], batch_size=cfg["batch_size"],
            epochs=cfg["epochs"], seed=cfg["seed"],
            stop_at_dev_acc=cfg["stop_at_dev_acc"],
        )
        _, history, _ = train(train_feats, dev_feats, model_cfg, train_cfg,
                              checkpoint_path=ckpt_path, log_path=log_path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"best_dev_acc={max(h.dev_acc for h in history):.4f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    return 0


def cmd_embed(args) -> int:
    cfg = resolve_config("embed", args.config, args.set, {})
    echo_config("embed", cfg, {"manifest": args.manifest,
                               "ckpt": args.ckpt, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    params, model_cfg = _load_ckpt(args.ckpt)
    out_path = Path(args.out)
    _guard_outputs([out_path], args.force)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    feats = _load_feature_set(manifest)
    try:
        vectors = embed_batch(feats, params, model_cfg, cfg["batch_size"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    records = [EmbeddingRecord(u.utterance_id, u.speaker_id, vectors[i])
               for i, u in enumerate(feats)]
    save_embeddings(out_path, records)
    print(f"wrote {len(records)} embeddings of dim {vectors.shape[1]} to {out_path}")
    return 0


def cmd_score_id(args) -> int:
    cfg = resolve_config("score-id", args.config, args.set, {})
    echo_config("score-id", cfg, {"manifest": args.manifest, "ckpt": args.ckpt})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    params, model_cfg = _load_ckpt(args.ckpt)
    try:
        speakers = load_speakers(args.ckpt)
    except FileNotFoundError as exc:
        raise CliError(f"{exc}; run `hvector train` first") from exc
    feats = _load_feature_set(manifest)
    try:
        indices = predict(feats, params, model_cfg, cfg["batch_size"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    predicted = [speakers[i] for i in indices]
    acc = accuracy(predicted, [u.speaker_id for u in feats])
    print(f"accuracy={acc:.4f}")
    return 0


def cmd_score_ver(args) -> int:
    cfg = resolve_config("score-ver", args.config, args.set, {})
    plda_train_path = args.plda_train if args.plda_train is not None else args.enrol
    echo_config("score-ver", cfg, {
        "enrol": args.enrol, "eval": args.eval,
        "plda_train": plda_train_path, "out": args.out,
    })
    enrol = _load_embedding_csv(args.enrol)
    eval_records = _load_embedding_csv(args.eval)
    out_dir = Path(args.out)
    trials_path = out_dir / "trials.csv"
    report_path = out_dir / "eer.txt"
    _guard_outputs([trials_path, report_path], args.force)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one (K, N) score matrix: K enrolment models by N test vectors
    try:
        speakers, models = enrolment_models(enrol, length_norm=cfg["length_norm"])
        tests = embedding_matrix(eval_records, length_norm=cfg["length_norm"])
        if models.shape[1] != tests.shape[1]:
            raise ValueError(f"embedding dims differ: {args.enrol} has "
                             f"{models.shape[1]}, {args.eval} has {tests.shape[1]}")
        if cfg["backend"] == "plda":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = plda_fit(_load_embedding_csv(plda_train_path),
                                 reduced_dim=cfg["lda_dim"])
            # each distinct message once, as Python's default filter would
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
            scores = plda_score(model, models[:, None], tests[None])
        else:
            scores = cosine_score(models[:, None], tests[None])
        targets = speakers[:, None] == np.array([r.speaker_id for r in eval_records])
        eer, threshold = eer_operating_point(scores.ravel(), targets.ravel())
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(str(exc)) from exc
    save_score_matrix(trials_path, speakers, [r.utterance_id for r in eval_records],
                      scores, targets)
    save_eer_report(report_path, eer, threshold)
    print(f"trials: {trials_path}")
    print(f"report: {report_path}")
    print(f"EER={eer:.4f}")
    return 0


# --- parser -----------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="flat key=value settings file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvector",
        description="Speaker-embedding pipeline on synthetic audio.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic-speaker corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--speakers", type=int, default=None)
    p.add_argument("--utts", type=int, default=None,
                   help="utterances per speaker")
    p.add_argument("--dur", type=float, default=None,
                   help="clip duration in seconds")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("prepare", help="featurize a corpus manifest")
    p.add_argument("--manifest", required=True, help="corpus manifest.tsv")
    p.add_argument("--out", required=True, help="feature directory")
    p.add_argument("--len", type=float, default=None, dest="len",
                   help="window length in seconds")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = subs.add_parser("train", help="train a speaker classifier")
    p.add_argument("--manifest", required=True, help="feature manifest.tsv")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--model", default=None,
                   choices=["hvector", "xvector", "xvector_attn"])
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("embed", help="write an embedding CSV")
    p.add_argument("--manifest", required=True, help="feature manifest.tsv")
    p.add_argument("--ckpt", required=True, help="model checkpoint (.hvt)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("score-id", help="closed-set identification accuracy")
    p.add_argument("--manifest", required=True, help="feature manifest.tsv")
    p.add_argument("--ckpt", required=True, help="model checkpoint (.hvt)")
    _add_common(p)
    p.set_defaults(func=cmd_score_id)

    p = subs.add_parser("score-ver", help="verification trials and EER")
    p.add_argument("--enrol", required=True, help="enrolment embedding CSV")
    p.add_argument("--eval", required=True, help="evaluation embedding CSV")
    p.add_argument("--plda-train", default=None,
                   help="embedding CSV for backend training (default: --enrol)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_score_ver)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
