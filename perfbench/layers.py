"""Per-layer figures for the traced run.

`span_metrics` turns the recorded spans of one traced pass into the
per-layer metrics; `isolated_layers` times each h-vector layer on its own,
forward and backward, at the desk and full shapes.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from hvector import tensor as hv
from hvector.model import (
    ModelConfig, build_params, frame_attention, frame_encode,
    segment_attention, segment_encode,
)
from hvector.tensor import Tensor

LAYERS = ("frame_encode", "frame_attention", "segment_encode", "segment_attention")
SHAPES = {   # preset -> (config, utterances per batch, repeats)
    "desk": (ModelConfig.desk(10, "hvector", 10), 32, 5),
    "full": (ModelConfig(n_speakers=10, frames_per_fragment=30), 4, 3),
}
COMMANDS = ("synth", "prepare", "train", "embed", "score_id", "score_ver")
TOTALS_MS = [   # metric -> span name; summed over the traced pass
    ("tensor.save_archive_ms", "tensor.save_archive"),
    ("tensor.load_archive_ms", "tensor.load_archive"),
    ("model.embed_batch_ms", "model.embed_batch"),
    ("audio.load_wav_ms", "audio.load_wav"),
    ("audio.vad_filter_ms", "audio.vad_filter"),
    ("audio.mfcc_frames_ms", "audio.mfcc_frames"),
    ("audio.split_fragments_ms", "audio.split_fragments"),
    ("audio.save_wav_ms", "audio.save_wav"),
    ("corpus.synth_utterance_ms", "corpus.synth_utterance"),
    ("cli.load_features_ms", "cli.load_features"),
    ("scoring.make_trials_ms", "scoring.make_trials"),
    ("scoring.plda_fit_ms", "scoring.plda_fit"),
    ("scoring.score_trials_ms", "scoring.score_trials"),
    ("scoring.eer_operating_point_ms", "scoring.eer_operating_point"),
    ("scoring.save_trials_ms", "scoring.save_trials"),
    ("scoring.load_embeddings_ms", "scoring.load_embeddings"),
]

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "tensor.tape_nodes": "count",
    "tensor.backward_ms.p50": "ms", "tensor.backward_ms.tail": "ms",
    "tensor.save_archive_bytes": "bytes", "tensor.load_archive_bytes": "bytes",
    "model.forward_batch_ms": "ms", "model.frame_encode_ms": "ms",
    "model.segment_encode_ms": "ms",
    "train.step_ms.p50": "ms", "train.step_ms.tail": "ms",
    "train.adam_step_ms": "ms", "train.dev_eval_ms": "ms", "train.predict_ms": "ms",
    "audio.frames": "count",
    "scoring.cosine_score_calls": "count", "scoring.cosine_score_ms": "ms",
    **{metric: "ms" for metric, _ in TOTALS_MS},
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "cli.unattributed_s": "s",
    **{f"model.{preset}.{layer}.{part}": unit
       for preset in SHAPES for layer in LAYERS
       for part, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("nodes", "count"))},
    "trace.overhead_s": "s",
}


def median_and_tail(values) -> tuple[float, float]:
    """Median, and the highest percentile with at least ten samples above it.

    With fewer than twenty samples no percentile above the median has ten
    beyond it, so the tail is the median.  The sample count is the call count
    of the span in the run's `spans_by_name`.
    """
    if not values:
        return 0.0, 0.0
    q = max(0.5, 1.0 - 10.0 / len(values))
    return statistics.median(values), float(np.quantile(values, q))


def span_metrics(recorder) -> dict:
    children = recorder.children()
    spans = recorder.spans
    by_id = {s.id: s for s in spans}

    def named(name, parent_name=None):
        return [s for s in spans if s.name == name and
                (parent_name is None or
                 (s.parent is not None and by_id[s.parent].name == parent_name))]

    def total_ms(name):
        return 1e3 * sum(s.seconds for s in named(name))

    def p50_ms(found):
        return 1e3 * statistics.median([s.seconds for s in found]) if found else 0.0

    step_backward = named("tensor.backward", "train.train")
    step_forward = named("model.forward_batch", "train.train")
    step_forward_ids = {s.id for s in step_forward}
    steps = []
    for train in named("train.train"):
        start = None
        for child in children.get(train.id, []):
            if child.name == "model.forward_batch":
                start = child.start
            elif child.name == "train.adam_step" and start is not None:
                steps.append(child.end - start)
                start = None

    def under_step(name):
        return [s for s in named(name) if s.parent in step_forward_ids]

    m = {}
    m["tensor.tape_nodes"] = (statistics.median([s.attrs["nodes"] for s in step_backward])
                              if step_backward else 0)
    m["tensor.backward_ms.p50"], m["tensor.backward_ms.tail"] = median_and_tail(
        [1e3 * s.seconds for s in step_backward])
    for kind in ("save", "load"):
        m[f"tensor.{kind}_archive_bytes"] = sum(
            s.attrs["bytes"] for s in named(f"tensor.{kind}_archive"))
    m["model.forward_batch_ms"] = p50_ms(step_forward)
    m["model.frame_encode_ms"] = p50_ms(under_step("model.frame_encode"))
    m["model.segment_encode_ms"] = p50_ms(under_step("model.segment_encode"))
    m["train.step_ms.p50"], m["train.step_ms.tail"] = median_and_tail(
        [1e3 * s for s in steps])
    m["train.adam_step_ms"] = p50_ms(named("train.adam_step"))
    m["train.dev_eval_ms"] = p50_ms(named("train.dev_eval"))
    m["train.predict_ms"] = 1e3 * sum(s.seconds for s in named("train.predict", "cli.score_id"))
    m["audio.frames"] = sum(s.attrs["frames"] for s in named("audio.mfcc_frames"))
    calls, seconds = recorder.totals.get("scoring.cosine_score", (0, 0.0))
    m["scoring.cosine_score_calls"] = calls
    m["scoring.cosine_score_ms"] = 1e3 * seconds
    for metric, name in TOTALS_MS:
        m[metric] = total_ms(name)
    unattributed = 0.0
    for command in COMMANDS:
        found = named(f"cli.{command}")
        m[f"cli.{command}_s"] = sum(s.seconds for s in found)
        unattributed += sum(recorder.self_seconds(s, children) for s in found)
    m["cli.unattributed_s"] = unattributed
    return m


def _time_layer(preset: str, layer: str, seed: int) -> dict:
    cfg, batch, repeats = SHAPES[preset]
    params = build_params(cfg, seed=0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    frames = batch * cfg.n_fragments
    if layer == "frame_encode":
        x = rng.normal(size=(frames, cfg.frames_per_fragment, cfg.feat_dim))
        call = lambda t: frame_encode(t, params, cfg, training=True)
    elif layer == "frame_attention":
        x = rng.normal(size=(frames, cfg.frames_per_fragment, cfg.frame_out_dim))
        call = lambda t: frame_attention(t, params)[0]
    elif layer == "segment_encode":
        x = rng.normal(size=(batch, cfg.n_fragments, 2 * cfg.frame_out_dim))
        call = lambda t: segment_encode(t, params, cfg, training=True)
    else:
        x = rng.normal(size=(batch, cfg.n_fragments, cfg.seg_cnn_out))
        call = lambda t: segment_attention(t, params)[0]
    # The raw features need no gradient; every later layer's input does.
    needs_grad = layer != "frame_encode"
    fwd, bwd = [], []
    for _ in range(repeats):
        params.zero_grads()
        inp = Tensor(x, requires_grad=needs_grad)
        with hv.record() as graph:
            t0 = time.perf_counter()
            out = call(inp)
            fwd.append(time.perf_counter() - t0)
            nodes = len(graph.nodes)
            cotangent = Tensor(np.random.default_rng(seed).normal(size=out.shape))
            loss = hv.tsum(hv.mul(out, cotangent))
        t0 = time.perf_counter()
        hv.backward(loss)
        bwd.append(time.perf_counter() - t0)
    return {"fwd_ms": 1e3 * statistics.median(fwd), "bwd_ms": 1e3 * statistics.median(bwd),
            "nodes": nodes}


def isolated_layers(seed: int) -> dict:
    m = {}
    for preset in SHAPES:
        for layer in LAYERS:
            for part, value in _time_layer(preset, layer, seed).items():
                m[f"model.{preset}.{layer}.{part}"] = value
    return m
