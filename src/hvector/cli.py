"""Command-line pipeline: synthesize audio, extract features, train, score.

Each subcommand resolves its settings from built-in defaults, then an
optional flat key=value --config file, then --set overrides, then dedicated
flags, all three through the same per-key parsers; the final values are
echoed before any work starts.  Existing output files are never overwritten
unless --force is given, and every stage is deterministic given its inputs
and seed, so a --force rerun reproduces the previous outputs byte for byte on
the same BLAS build, whatever OPENBLAS_NUM_THREADS says (hvector.tensor
sets numpy's OpenBLAS to one thread).  A failure that stops a command prints
one `error: <message>` line on stderr and exits with status 1, and only
`main` turns exceptions into that line (`prepare` also reports each clip it
cannot read on such a line, goes on, and exits 1).
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
    N_FRAGMENTS,
    SAMPLE_RATE,
    AudioClip,
    UtteranceFeatures,
    load_wav,
    mfcc_frames,
    split_fragments,
    vad_filter,
    window_utterances,
)
from .corpus import (
    CLIP_FORK_FLOOR, Manifest, ManifestEntry, check_synth_args, open_text, parse_setting,
    read_settings, split, synth_corpus,
)
from .model import MODES, ModelConfig, batches, embed_batch, load_checkpoint
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
from .train import TrainConfig, TrainingDiverged, predict, train

__all__ = ["main", "save_features", "load_features"]


class CliError(Exception):
    """User-facing failure: printed as `error: ...`, exit status 1."""


# --- feature stores ---------------------------------------------------------

def save_features(path, utts):
    """One feature store: every window's fragments stacked, row k holding utts[k]'s."""
    hv.save_archive(path, {"fragments": np.stack([u.fragments for u in utts])})


def load_features(entries) -> list[UtteranceFeatures]:
    """Each manifest entry's window: a view of row `row` of the store at
    `path`.  Each store is read and checked once, however many rows are taken."""
    stores, feats = {}, []
    for e in entries:
        if e.path not in stores:
            if not Path(e.path).exists():
                raise CliError(f"feature file {e.path} missing; rerun `hvector prepare`")
            frags = hv.load_archive(e.path).get("fragments")
            if not (getattr(frags, "ndim", 0) == 4 and frags.shape[1] == N_FRAGMENTS
                    and frags.shape[2] > 0 and np.isfinite(frags).all()):
                raise ValueError(
                    f"{e.path}: not a feature store of finite (windows, {N_FRAGMENTS}, frames, "
                    "coefficients) fragments, as `hvector prepare` writes; rerun it "
                    "(per-window feature files are no longer read)")
            stores[e.path] = frags
        frags = stores[e.path]
        if not 0 <= e.row < len(frags):
            raise ValueError(f"{e.path}: no row {e.row}: the store holds {len(frags)} windows")
        feats.append(UtteranceFeatures(frags[e.row], e.utterance_id, e.speaker_id))
    return feats


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


def _choice(options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {raw!r}")
        return raw
    return parse


def _checked(cast, check):
    """Cast the raw text, then call check(value), which raises on a bad value."""
    def parse(raw):
        value = cast(raw)
        check(value)
        return value
    return parse


# parser by field annotation, a string under `from __future__ import annotations`
_CASTS = {"int": int, "float": float, "str": str, "float | None": _optional(float)}


def _field_setting(cls, name: str, **given):
    """A config dataclass field's default, and a parser that lets cls refuse a value."""
    field = cls.__dataclass_fields__[name]
    return field.default, _checked(_CASTS[field.type], lambda v: cls(**given, **{name: v}))


# batches owns the batch_size rule; batches of nothing check a size alone
_BATCH_SIZE = (64, _checked(int, lambda v: list(batches([], (), v))))

# command -> {key: (default, parser)}
_SCHEMAS = {
    "synth": {
        # check_synth_args holds synth_corpus's rules
        "speakers": (10, _checked(int, lambda v: check_synth_args(n_speakers=v))),
        "utts": (60, _checked(int, lambda v: check_synth_args(utts_per_speaker=v))),
        "dur": (1.0, _checked(float, lambda v: check_synth_args(duration_s=v))),
        "seed": (0, _checked(int, lambda v: check_synth_args(seed=v))),
    },
    "prepare": {
        # window_utterances owns the rule; an empty clip yields no window
        "len": (1.0, _checked(float, lambda v: window_utterances(AudioClip([]), v))),
    },
    "train": {
        # TrainConfig and ModelConfig own the defaults and rules of their fields
        **{f.name: _field_setting(TrainConfig, f.name)
           for f in dataclasses.fields(TrainConfig)},
        "model": _field_setting(ModelConfig, "mode", n_speakers=1),
        "dropout": _field_setting(ModelConfig, "dropout", n_speakers=1),
        "preset": ("desk", _choice({"desk", "full"})),
        # split owns the (0, 1) rule; an empty manifest splits at once
        "train_fraction": (0.9, _checked(float, lambda v: split(Manifest([]), v))),
    },
    "embed": {"batch_size": _BATCH_SIZE},
    "score-id": {"batch_size": _BATCH_SIZE},
    "score-ver": {
        "backend": ("plda", _choice({"plda", "cosine"})),
        "lda_dim": (None, _optional(int)),
        "length_norm": (False, _parse_bool),
    },
}


def resolve_config(command: str, args) -> dict:
    """Defaults, then --config, then --set, then flags; each value through its key's parser."""
    schema = _SCHEMAS[command]
    cfg = {key: default for key, (default, _) in schema.items()}
    parsers = {key: parse for key, (_, parse) in schema.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file {path} not found")
        with open_text(path) as fh:
            cfg.update(read_settings(fh.read(), f"{path}:", parsers))
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, raw = (part.strip() for part in item.partition("="))
        cfg[key] = parse_setting(parsers, key, raw, "--set")
    for key in schema:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg[key] = parse_setting(parsers, key, raw.strip(), f"--{key}")
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
    manifest = Manifest.load(path, check_paths=False)
    if not manifest.entries:
        raise CliError(f"manifest {path} lists no utterances")
    return manifest


def _load_ckpt(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError as exc:
        raise CliError(f"{exc}; run `hvector train` first") from exc


def _load_embedding_csv(path) -> list:
    _require_input(path, "embedding CSV", "run `hvector embed` first")
    return load_embeddings(path)


# --- subcommands ------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = resolve_config("synth", args)
    echo_config("synth", cfg, {"out": args.out})
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    manifest = synth_corpus(cfg["speakers"], cfg["utts"], cfg["dur"],
                            cfg["seed"], out_dir)
    print(f"wrote {len(manifest)} utterances for {len(manifest.speakers())} "
          f"speakers under {out_dir}")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    return 0


def cmd_prepare(args) -> int:
    cfg = resolve_config("prepare", args)
    echo_config("prepare", cfg, {"manifest": args.manifest, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector synth` first")
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    out_dir.mkdir(parents=True, exist_ok=True)

    clips = manifest.entries

    def prepare_share(share):
        # per clip: its windows' features, or its error line
        out = []
        for e in map(clips.__getitem__, share):
            try:
                clip = load_wav(e.path)
                if clip.sample_rate != SAMPLE_RATE:
                    raise ValueError(f"{e.path}: sample rate {clip.sample_rate} "
                                     f"not supported; expected {SAMPLE_RATE}")
                windows = window_utterances(vad_filter(clip), cfg["len"])
            except (ValueError, OSError) as exc:
                out.append(f"error: {e.utterance_id}: {exc}")
                continue
            out.append([split_fragments(mfcc_frames(win), f"{e.utterance_id}-w{k:03d}",
                                        e.speaker_id) for k, win in enumerate(windows)])
        return out

    # this process alone writes the store, so its bytes do not depend on
    # how many processes made the windows
    utts, failures, skipped = [], 0, 0
    for share in hv.forked_map(prepare_share, len(clips), CLIP_FORK_FLOOR,
                               f"{args.manifest}: the process preparing clips"):
        for result in share:
            if isinstance(result, str):
                failures += 1
                print(result, file=sys.stderr)
            else:
                skipped += not result
                utts += result
    if not utts:
        raise CliError("no usable windows were produced from "
                       f"{len(manifest)} clips ({failures} failed)")
    store = out_dir / "features.hvt"
    save_features(store, utts)
    Manifest([ManifestEntry(u.utterance_id, u.speaker_id, str(store), row)
              for row, u in enumerate(utts)]).save(out_dir / "manifest.tsv")
    print(f"prepared {len(utts)} windows from "
          f"{len(manifest) - failures - skipped} clips "
          f"({failures} failed, {skipped} too short)")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    return 1 if failures else 0


def cmd_train(args) -> int:
    cfg = resolve_config("train", args)
    echo_config("train", cfg, {"manifest": args.manifest, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    out_dir = Path(args.out)
    ckpt_path = out_dir / "model.hvt"
    log_path = out_dir / "train.log"
    outputs = [ckpt_path, log_path]
    _guard_outputs(outputs, args.force)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_man, dev_man = split(manifest, cfg["train_fraction"], cfg["seed"])
    feats = load_features(train_man.entries + dev_man.entries)
    train_feats, dev_feats = feats[:len(train_man)], feats[len(train_man):]

    n_speakers = len(manifest.speakers())
    frames_per_fragment = train_feats[0].fragments.shape[1]
    preset = ModelConfig.desk if cfg["preset"] == "desk" else ModelConfig
    model_cfg = dataclasses.replace(preset(n_speakers=n_speakers, mode=cfg["model"],
                                           frames_per_fragment=frames_per_fragment),
                                    dropout=cfg["dropout"])
    train_cfg = TrainConfig(**{f.name: cfg[f.name]
                               for f in dataclasses.fields(TrainConfig)})
    # only now that the inputs and settings are valid may the old run go
    for p in outputs:
        p.unlink(missing_ok=True)
    # a diverging run overflows before its gradients go non-finite; train
    # reports that as TrainingDiverged, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _, history = train(train_feats, dev_feats, model_cfg, train_cfg,
                           checkpoint_path=ckpt_path, log_path=log_path)
    print(f"best_dev_acc={max(h.dev_acc for h in history):.4f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    return 0


def cmd_embed(args) -> int:
    cfg = resolve_config("embed", args)
    echo_config("embed", cfg, {"manifest": args.manifest,
                               "ckpt": args.ckpt, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    params, model_cfg = _load_ckpt(args.ckpt)
    out_path = Path(args.out)
    _guard_outputs([out_path], args.force)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    feats = load_features(manifest.entries)
    vectors = embed_batch(feats, params, model_cfg, cfg["batch_size"])
    records = [EmbeddingRecord(u.utterance_id, u.speaker_id, vectors[i])
               for i, u in enumerate(feats)]
    save_embeddings(out_path, records)
    print(f"wrote {len(records)} embeddings of dim {vectors.shape[1]} to {out_path}")
    return 0


def cmd_score_id(args) -> int:
    cfg = resolve_config("score-id", args)
    echo_config("score-id", cfg, {"manifest": args.manifest, "ckpt": args.ckpt})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    params, model_cfg = _load_ckpt(args.ckpt)
    feats = load_features(manifest.entries)
    indices = predict(feats, params, model_cfg, cfg["batch_size"])
    predicted = [params.speakers[i] for i in indices]
    acc = accuracy(predicted, [u.speaker_id for u in feats])
    print(f"accuracy={acc:.4f}")
    return 0


def cmd_score_ver(args) -> int:
    cfg = resolve_config("score-ver", args)
    plda_train_path = args.plda_train if args.plda_train is not None else args.enrol
    echo_config("score-ver", cfg, {
        "enrol": args.enrol, "eval": args.eval,
        "plda_train": plda_train_path, "out": args.out,
    })
    # enrolment, evaluation and PLDA training sets, each read once, and
    # length-normalized here if asked: the one place that setting acts
    paths = [args.enrol, args.eval]
    if cfg["backend"] == "plda" and args.plda_train is not None:
        paths.append(args.plda_train)
    sets = [_load_embedding_csv(p) for p in paths]
    if cfg["length_norm"]:
        sets = [[dataclasses.replace(r, vector=v) for r, v in
                 zip(records, embedding_matrix(records, length_norm=True))]
                for records in sets]
    dim = len(sets[0][0].vector)
    for path, records in zip(paths[1:], sets[1:]):
        if len(records[0].vector) != dim:
            raise CliError(f"embedding dims differ: {args.enrol} has {dim}, "
                           f"{path} has {len(records[0].vector)}")
    enrol, eval_records = sets[:2]
    plda_train = sets[2] if len(sets) == 3 else enrol
    out_dir = Path(args.out)
    trials_path = out_dir / "trials.csv"
    report_path = out_dir / "eer.txt"
    _guard_outputs([trials_path, report_path], args.force)

    # one (K, N) score matrix: K enrolment models by N test vectors
    speakers, models = enrolment_models(enrol)
    tests = embedding_matrix(eval_records)
    caught = []
    if cfg["backend"] == "plda":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                model = plda_fit(plda_train, reduced_dim=cfg["lda_dim"])
            except ValueError as exc:
                # plda_fit owns the lda_dim rule: its bounds depend on the data
                if "reduced_dim" not in str(exc):
                    raise
                raise CliError(f"--set: bad value for lda_dim: {exc}") from None
        scores = plda_score(model, models[:, None], tests[None])
    else:
        scores = cosine_score(models[:, None], tests[None])
    targets = speakers[:, None] == np.array([r.speaker_id for r in eval_records])
    eer, threshold = eer_operating_point(scores.ravel(), targets.ravel())
    # made only now, so a refused setting such as lda_dim=0 leaves no --out,
    # and the back end's warnings print only once --out could be made
    out_dir.mkdir(parents=True, exist_ok=True)
    # each distinct message once, as Python's default filter would
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
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
    p.add_argument("--speakers")
    p.add_argument("--utts", help="utterances per speaker")
    p.add_argument("--dur", help="clip duration in seconds")
    p.add_argument("--seed")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("prepare", help="featurize a corpus manifest")
    p.add_argument("--manifest", required=True, help="corpus manifest.tsv")
    p.add_argument("--out", required=True, help="feature directory")
    p.add_argument("--len", help="window length in seconds")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = subs.add_parser("train", help="train a speaker classifier")
    p.add_argument("--manifest", required=True, help="feature manifest.tsv")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--model", help=f"one of {', '.join(MODES)}")
    p.add_argument("--epochs")
    p.add_argument("--seed")
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
    except (CliError, ValueError, OSError,   # LinAlgError is a ValueError
            TrainingDiverged, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
