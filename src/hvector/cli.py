"""Command-line pipeline: synthesize audio, extract features, train, score.

Each subcommand resolves its settings from built-in defaults, then --set
overrides, then dedicated flags, both through the same per-key parsers; the
final values are echoed before any work starts.  Existing output files are
never overwritten unless --force is given, and every stage is deterministic
given its inputs and seed, so a --force rerun reproduces the previous
outputs byte for byte on the same BLAS build, whatever OPENBLAS_NUM_THREADS
says (hvector.tensor sets numpy's OpenBLAS to one thread).  A failure that
stops a command prints one `error: <message>` line on stderr and exits with
status 1, and only `main` turns exceptions into that line (`prepare` also
reports each clip it cannot read on such a line, goes on, and exits 1).
Every refusal of an input, setting or output path is a ValueError or an
OSError; a missing input file reads `<what> <path> missing; <hint>`.  A
failed `synth`, `prepare`, `train`, `embed` or `score-ver` removes what it
wrote, so no rerun needs --force.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import warnings
from contextlib import contextmanager
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
    _CASTS, CLIP_FORK_FLOOR, Manifest, ManifestEntry, _optional, check_synth_args,
    parse_setting, split, synth_corpus,
)
from .model import MODES, ModelConfig, embed_batch, load_checkpoint
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
            _require_input(e.path, "feature file", "rerun `hvector prepare`")
            try:
                frags = hv.load_archive(e.path).get("fragments")
            except ValueError as exc:
                raise ValueError(f"{exc}; rerun `hvector prepare` (feature files from "
                                 "earlier versions, per-window ones too, are no longer "
                                 "read)") from None
            if not (getattr(frags, "ndim", 0) == 4 and frags.shape[1] == N_FRAGMENTS
                    and frags.shape[2] > 0 and np.isfinite(frags).all()):
                raise ValueError(
                    f"{e.path}: not a feature store of finite (windows, {N_FRAGMENTS}, frames, "
                    "coefficients) fragments, as `hvector prepare` writes; rerun it")
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


def _field_setting(cls, name: str, **given):
    """A config dataclass field's default, and a parser that lets cls refuse a value."""
    field = cls.__dataclass_fields__[name]
    return field.default, _checked(_CASTS[field.type], lambda v: cls(**given, **{name: v}))


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
        "preset": ("desk", _choice({"desk", "full"})),
    },
    "embed": {},
    "score-id": {},
    "score-ver": {
        "backend": ("plda", _choice({"plda", "cosine"})),
        "lda_dim": (None, _optional(int)),
        "length_norm": (False, _parse_bool),
    },
}


def resolve_config(command: str, args) -> dict:
    """Defaults, then --set, then flags; each value through its key's parser."""
    schema = _SCHEMAS[command]
    cfg = {key: default for key, (default, _) in schema.items()}
    parsers = {key: parse for key, (_, parse) in schema.items()}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
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


def echo_config(command: str, cfg: dict, extra: dict):
    for key, value in sorted({**cfg, **extra}.items()):
        print(f"config {command}.{key}={_format_value(value)}")


# --- shared guards ----------------------------------------------------------

def _require_input(path, what: str, hint: str):
    """The one existence check on an input path."""
    if not Path(path).exists():
        raise ValueError(f"{what} {path} missing; {hint}")


def _guard_outputs(paths, force: bool):
    # a file where a directory must go is refused now, not after the work
    for p in map(Path, paths):
        blocked = next((a for a in p.parents if a.exists() and not a.is_dir()), None)
        if blocked is not None:
            raise ValueError(f"cannot write {p}: {blocked} is not a directory")
    existing = [str(p) for p in paths if Path(p).exists()]
    if existing and not force:
        raise ValueError("output already exists: " + ", ".join(existing)
                         + " (pass --force to overwrite)")


@contextmanager
def _output_dir(out_dir: Path, files=()):
    """Make out_dir, with its parents, for the block.  If the block fails,
    remove out_dir, with the parents made for it, where out_dir did not
    exist before, and `files` where it did, so that no failed stage blocks
    its rerun without --force."""
    made = None
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            break
        made = path
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        for path in files:
            path.unlink(missing_ok=True)
        raise


def _load_manifest(path, hint: str) -> Manifest:
    _require_input(path, "manifest", hint)
    manifest = Manifest.load(path, check_paths=False)
    if not manifest.entries:
        raise ValueError(f"manifest {path} lists no utterances")
    return manifest


# --- subcommands ------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = resolve_config("synth", args)
    echo_config("synth", cfg, {"out": args.out})
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    with _output_dir(out_dir):
        manifest = synth_corpus(cfg["speakers"], cfg["utts"], cfg["dur"],
                                cfg["seed"], out_dir)
    print(f"wrote {len(manifest)} utterances for {len(manifest.speakers())} "
          f"speakers under {out_dir}")
    print(f"manifest: {out_dir / 'manifest.tsv'}")
    return 0


def _featurize_clips(clips, length: float, what: str) -> tuple[list, int, int]:
    """Every clip's windows' features, in manifest order, with the counts of
    clips that failed and of clips too short for a window.  Each failure is
    printed as one `error:` line."""
    def prepare_share(share):
        # per clip: its windows' features, or its error line
        out = []
        for e in map(clips.__getitem__, share):
            try:
                clip = load_wav(e.path)
                if clip.sample_rate != SAMPLE_RATE:
                    raise ValueError(f"{e.path}: sample rate {clip.sample_rate} "
                                     f"not supported; expected {SAMPLE_RATE}")
                windows = window_utterances(vad_filter(clip), length)
            except (ValueError, OSError) as exc:
                out.append(f"error: {e.utterance_id}: {exc}")
                continue
            out.append([split_fragments(mfcc_frames(win), f"{e.utterance_id}-w{k:03d}",
                                        e.speaker_id) for k, win in enumerate(windows)])
        return out

    utts, failures, skipped = [], 0, 0
    for share in hv.forked_map(prepare_share, len(clips), CLIP_FORK_FLOOR, what):
        for result in share:
            if isinstance(result, str):
                failures += 1
                print(result, file=sys.stderr)
            else:
                skipped += not result
                utts += result
    return utts, failures, skipped


def cmd_prepare(args) -> int:
    cfg = resolve_config("prepare", args)
    echo_config("prepare", cfg, {"manifest": args.manifest, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector synth` first")
    out_dir = Path(args.out)
    _guard_outputs([out_dir], args.force)
    with _output_dir(out_dir):
        utts, failures, skipped = _featurize_clips(
            manifest.entries, cfg["len"], f"{args.manifest}: the process preparing clips")
        if not utts:
            raise ValueError("no usable windows were produced from "
                             f"{len(manifest)} clips ({failures} failed)")
        # this process alone writes the store, so its bytes do not depend on
        # how many processes made the windows
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

    train_man, dev_man = split(manifest, seed=cfg["seed"])
    feats = load_features(train_man.entries + dev_man.entries)
    train_feats, dev_feats = feats[:len(train_man)], feats[len(train_man):]

    n_speakers = len(manifest.speakers())
    frames_per_fragment = train_feats[0].fragments.shape[1]
    preset = ModelConfig.desk if cfg["preset"] == "desk" else ModelConfig
    model_cfg = preset(n_speakers=n_speakers, mode=cfg["model"],
                       frames_per_fragment=frames_per_fragment)
    train_cfg = TrainConfig(**{f.name: cfg[f.name]
                               for f in dataclasses.fields(TrainConfig)})
    # only now that the inputs and settings are valid may the old run go
    with _output_dir(out_dir, outputs):
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
    echo_config("embed", resolve_config("embed", args),
                {"manifest": args.manifest, "ckpt": args.ckpt, "out": args.out})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    _require_input(args.ckpt, "checkpoint", "run `hvector train` first")
    params, model_cfg = load_checkpoint(args.ckpt)
    out_path = Path(args.out)
    _guard_outputs([out_path], args.force)

    feats = load_features(manifest.entries)
    vectors = embed_batch(feats, params, model_cfg)
    records = [EmbeddingRecord(u.utterance_id, u.speaker_id, vectors[i])
               for i, u in enumerate(feats)]
    with _output_dir(out_path.parent):
        save_embeddings(out_path, records)
    print(f"wrote {len(records)} embeddings of dim {vectors.shape[1]} to {out_path}")
    return 0


def cmd_score_id(args) -> int:
    echo_config("score-id", resolve_config("score-id", args),
                {"manifest": args.manifest, "ckpt": args.ckpt})
    manifest = _load_manifest(args.manifest, "run `hvector prepare` first")
    _require_input(args.ckpt, "checkpoint", "run `hvector train` first")
    params, model_cfg = load_checkpoint(args.ckpt)
    feats = load_features(manifest.entries)
    indices = predict(feats, params, model_cfg)
    predicted = [params.speakers[i] for i in indices]
    acc = accuracy(predicted, [u.speaker_id for u in feats])
    print(f"accuracy={acc:.4f}")
    return 0


def cmd_score_ver(args) -> int:
    cfg = resolve_config("score-ver", args)
    plda = cfg["backend"] == "plda"
    if plda:
        plda_train_path = args.plda_train if args.plda_train is not None else args.enrol
    else:
        # refused, not ignored, so the echo names only what the run uses
        for what, given in (("--plda-train", args.plda_train), ("lda_dim", cfg["lda_dim"])):
            if given is not None:
                raise ValueError(f"backend=cosine takes no {what}; it is a PLDA setting")
        plda_train_path = None
    echo_config("score-ver", cfg, {
        "enrol": args.enrol, "eval": args.eval,
        "plda_train": plda_train_path, "out": args.out,
    })
    # enrolment, evaluation and PLDA training sets by path, each distinct file
    # read once and length-normalized here if asked: the one place that
    # setting acts
    roles = (args.enrol, args.eval, plda_train_path if plda else args.enrol)
    sets = {}
    for path in roles:
        if path not in sets:
            _require_input(path, "embedding CSV", "run `hvector embed` first")
            sets[path] = load_embeddings(path)
    if cfg["length_norm"]:
        sets = {path: [dataclasses.replace(r, vector=v) for r, v in
                       zip(records, embedding_matrix(records, length_norm=True))]
                for path, records in sets.items()}
    dim = len(sets[args.enrol][0].vector)
    for path, records in sets.items():
        if len(records[0].vector) != dim:
            raise ValueError(f"embedding dims differ: {args.enrol} has {dim}, "
                             f"{path} has {len(records[0].vector)}")
    enrol, eval_records, plda_train = (sets[path] for path in roles)
    out_dir = Path(args.out)
    trials_path = out_dir / "trials.csv"
    report_path = out_dir / "eer.txt"
    _guard_outputs([trials_path, report_path], args.force)

    # one (K, N) score matrix: K enrolment models by N test vectors
    speakers, models = enrolment_models(enrol)
    tests = embedding_matrix(eval_records)
    caught = []
    if plda:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                model = plda_fit(plda_train, reduced_dim=cfg["lda_dim"])
            except ValueError as exc:
                # plda_fit owns the lda_dim rule: its bounds depend on the data
                if "reduced_dim" not in str(exc):
                    raise
                raise ValueError(f"--set: bad value for lda_dim: {exc}") from None
        scores = plda_score(model, models[:, None], tests[None])
    else:
        scores = cosine_score(models[:, None], tests[None])
    targets = speakers[:, None] == np.array([r.speaker_id for r in eval_records])
    eer, threshold = eer_operating_point(scores.ravel(), targets.ravel())
    with _output_dir(out_dir, [trials_path, report_path]):
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

def _add_common(sub, outputs=True):
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    if outputs:
        sub.add_argument("--force", action="store_true", help="overwrite existing outputs")


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
    _add_common(p, outputs=False)
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
    except (ValueError, OSError,   # LinAlgError is a ValueError
            TrainingDiverged, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
