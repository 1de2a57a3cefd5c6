"""Outside-in span recorder for the traced benchmark run.

Public functions are wrapped by name in the module their caller looks them up
in (``hvector.train.forward_batch``, ``hvector.tensor.backward``, ...), so the
program itself is not modified.  Each call becomes a span with a name, start,
end and parent id; spans stay in memory until the run ends.  Functions called
once per trial are aggregated into a call count and a total instead.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _tape_nodes(args, result):
    # backward replays the tape without changing it, so it can be read after.
    return {"nodes": len(args[0].node.graph.nodes)}


def _mfcc_frame_count(args, result):
    return {"frames": int(result.shape[0])}


def _archive_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, optional attrs(args, result) -> dict).
# The attribute is patched in the module that *calls* it, because `from x
# import f` binds a second name that patching `x.f` would not reach.
SPANNED = [
    ("hvector.cli", "synth_corpus", "corpus.synth_corpus", None),
    ("hvector.corpus", "synth_utterance", "corpus.synth_utterance", None),
    ("hvector.corpus", "save_wav", "audio.save_wav", None),
    ("hvector.cli", "load_wav", "audio.load_wav", None),
    ("hvector.cli", "vad_filter", "audio.vad_filter", None),
    ("hvector.cli", "window_utterances", "audio.window_utterances", None),
    ("hvector.cli", "mfcc_frames", "audio.mfcc_frames", _mfcc_frame_count),
    ("hvector.cli", "split_fragments", "audio.split_fragments", None),
    ("hvector.cli", "save_features", "cli.save_features", None),
    ("hvector.cli", "load_features", "cli.load_features", None),
    ("hvector.tensor", "save_archive", "tensor.save_archive", _archive_bytes),
    ("hvector.tensor", "load_archive", "tensor.load_archive", _archive_bytes),
    ("hvector.tensor", "backward", "tensor.backward", _tape_nodes),
    ("hvector.cli", "train", "train.train", None),
    ("hvector.train", "build_params", "model.build_params", None),
    ("hvector.train", "forward_batch", "model.forward_batch", None),
    ("hvector.model", "forward_batch", "model.forward_batch", None),
    ("hvector.model", "frame_encode", "model.frame_encode", None),
    ("hvector.model", "segment_encode", "model.segment_encode", None),
    ("hvector.train", "adam_step", "train.adam_step", None),
    ("hvector.train", "classify_accuracy", "train.dev_eval", None),
    ("hvector.train", "predict", "train.predict", None),
    ("hvector.cli", "predict", "train.predict", None),
    ("hvector.train", "save_checkpoint", "model.save_checkpoint", None),
    ("hvector.cli", "load_checkpoint", "model.load_checkpoint", None),
    ("hvector.cli", "embed_batch", "model.embed_batch", None),
    ("hvector.cli", "save_embeddings", "scoring.save_embeddings", None),
    ("hvector.cli", "load_embeddings", "scoring.load_embeddings", None),
    ("hvector.cli", "make_trials", "scoring.make_trials", None),
    ("hvector.cli", "plda_fit", "scoring.plda_fit", None),
    ("hvector.cli", "score_trials", "scoring.score_trials", None),
    ("hvector.cli", "eer_operating_point", "scoring.eer_operating_point", None),
    ("hvector.scoring", "compute_eer", "scoring.compute_eer", None),
    ("hvector.cli", "save_trials", "scoring.save_trials", None),
    ("hvector.cli", "save_eer_report", "scoring.save_eer_report", None),
]

# Called once per trial: a span each would cost more than the call itself.
AGGREGATED = [
    ("hvector.cli", "cosine_score", "scoring.cosine_score"),
]


class Recorder:
    """Holds spans and per-name call aggregates for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}      # name -> [calls, seconds]
        self.aggregated_child_s: dict[int, float] = {}
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs.update(attrs(args, result))
            return result
        return wrapper

    def _aggregated(self, fn, name):
        total = self.totals.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            total[0] += 1
            total[1] += dt
            if self._stack:
                parent = self._stack[-1]
                self.aggregated_child_s[parent] = self.aggregated_child_s.get(parent, 0.0) + dt
            return result
        return wrapper

    def install(self):
        """Patch every target; `restore` undoes it."""
        for mod_name, attr, name, attrs in SPANNED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._spanned(original, name, attrs))
        for mod_name, attr, name in AGGREGATED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._aggregated(original, name))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- views -----------------------------------------------------------

    def children(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def self_seconds(self, span: Span, children=None) -> float:
        """Duration minus the part covered by child spans and aggregates."""
        children = self.children() if children is None else children
        covered = sum(c.seconds for c in children.get(span.id, []))
        return span.seconds - covered - self.aggregated_child_s.get(span.id, 0.0)

    def by_name(self) -> dict[str, dict]:
        """calls / total_ms / self_ms per span name, plus the aggregates."""
        children = self.children()
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * s.seconds
            row["self_ms"] += 1e3 * self.self_seconds(s, children)
        for name, (calls, seconds) in self.totals.items():
            table[name] = {"calls": calls, "total_ms": 1e3 * seconds,
                           "self_ms": 1e3 * seconds}
        return table

    def dump(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, **s.attrs} for s in self.spans]
