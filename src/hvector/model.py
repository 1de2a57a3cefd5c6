"""Speaker embedding models.

Three variants share one classifier head:

* ``hvector`` — per-fragment conv + BiGRU encoder with attention pooling,
  then a segment-level width-1 conv with a second attention pooling.
* ``xvector`` — a stack of five 1-D convolutions over the whole frame
  sequence followed by statistics pooling.
* ``xvector_attn`` — same stack, but a learned scorer weights the frames
  in the pooling.

The utterance embedding is the first fully connected layer's output after
its activation and batchnorm, before dropout.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import tensor as hv
from .corpus import _CASTS, check_ids, read_settings
from .tensor import Tensor

MODES = ("hvector", "xvector", "xvector_attn")
XVECTOR_WIDTHS = (5, 3, 3, 1, 1)

__all__ = [
    "ModelConfig", "ModelParams", "build_params",
    "attention_normalize",
    "frame_encode", "frame_attention", "segment_encode", "segment_attention",
    "forward_batch", "batches", "embed_batch",
    "save_checkpoint", "load_checkpoint",
]


@dataclass
class ModelConfig:
    n_speakers: int
    mode: str = "hvector"
    feat_dim: int = 20
    n_fragments: int = 10
    frames_per_fragment: int = 30
    frame_cnn_width: int = 5
    frame_cnn_out: int = 512
    gru_hidden: int = 512          # per direction
    seg_cnn_out: int = 1500
    fc1_dim: int = 512
    fc2_dim: int = 512
    dropout: float = 0.2

    @property
    def frame_out_dim(self) -> int:
        """Width of the BiGRU output (both directions concatenated)."""
        return 2 * self.gru_hidden

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for f in fields(self):
            if f.name in ("mode", "dropout"):
                continue
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def desk(cls, n_speakers: int, mode: str = "hvector",
             frames_per_fragment: int = 10) -> "ModelConfig":
        """Reduced dimensions for laptop-scale experiments."""
        return cls(
            n_speakers=n_speakers, mode=mode,
            frames_per_fragment=frames_per_fragment,
            frame_cnn_out=64, gru_hidden=32, seg_cnn_out=64,
            fc1_dim=64, fc2_dim=64,
        )

    def to_text(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        values = read_settings(text, {f.name: _CASTS[f.type] for f in fields(cls)})
        for f in fields(cls):
            if f.default is MISSING and f.name not in values:
                raise ValueError(f"missing config key {f.name!r}")
        return cls(**values)


class ModelParams:
    """Trainable tensors, batchnorm buffers and each output class's speaker id."""

    def __init__(self):
        self.tensors: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.speakers: list[str] | None = None

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grads(self):
        for t in self.tensors.values():
            t.grad = None

    def gru(self, prefix: str) -> dict:
        return {k: self.tensors[f"{prefix}.{k}"] for k in hv.GRU_KEYS}

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: that of its parameters."""
        return next(iter(self.tensors.values())).dtype

    def astype(self, dtype) -> "ModelParams":
        """A copy with every tensor and buffer cast to ``dtype``."""
        out = ModelParams()
        for name, t in self.tensors.items():
            out.tensors[name] = Tensor(t.data.astype(dtype), requires_grad=True)
        for name, b in self.buffers.items():
            out.buffers[name] = b.astype(dtype)
        out.speakers = None if self.speakers is None else list(self.speakers)
        return out

    def clone(self) -> "ModelParams":
        return self.astype(self.dtype)


def _uniform(fan_in):
    return lambda rng, shape: (rng.random(shape) * 2.0 - 1.0) / np.sqrt(fan_in)


def _fill(value):
    return lambda rng, shape: np.full(shape, value)


_BUFFER = "buffer."  # checkpoint key prefix of the batchnorm running statistics


class _Layout(list):
    """(checkpoint key, shape, initialiser) of every array, in drawing order."""

    def weight(self, name, fan_in, shape):
        self.append((name, shape, _uniform(fan_in)))

    def bias(self, name, size):
        self.append((name, (size,), _fill(0.0)))

    def conv(self, name, width, cin, cout):
        self.weight(f"{name}.w", width * cin, (width, cin, cout))
        self.bias(f"{name}.b", cout)

    def linear(self, name, din, dout):
        self.weight(f"{name}.w", din, (din, dout))
        self.bias(f"{name}.b", dout)

    def norm(self, name, size):
        self.extend([(f"{name}.gamma", (size,), _fill(1.0)),
                     (f"{name}.beta", (size,), _fill(0.0)),
                     (f"{_BUFFER}{name}.mean", (size,), _fill(0.0)),
                     (f"{_BUFFER}{name}.var", (size,), _fill(1.0))])

    def gru(self, name, din, hidden):
        for k in ("wz", "wr", "wh"):
            self.weight(f"{name}.{k}", din, (din, hidden))
        for k in ("uz", "ur", "uh"):
            self.weight(f"{name}.{k}", hidden, (hidden, hidden))
        for k in ("bz", "br", "bh"):
            self.bias(f"{name}.{k}", hidden)

    def attention(self, name, dim):
        self.weight(f"{name}.w0", dim, (dim, dim))
        self.bias(f"{name}.b0", dim)
        self.weight(f"{name}.w1", dim, (dim, 1))


def _layout(cfg: ModelConfig) -> _Layout:
    b = _Layout()
    if cfg.mode == "hvector":
        b.conv("frame_conv", cfg.frame_cnn_width, cfg.feat_dim, cfg.frame_cnn_out)
        b.norm("frame_bn", cfg.frame_cnn_out)
        b.gru("gru_f", cfg.frame_cnn_out, cfg.gru_hidden)
        b.gru("gru_b", cfg.frame_cnn_out, cfg.gru_hidden)
        b.attention("frame_att", cfg.frame_out_dim)
        b.conv("seg_conv", 1, 2 * cfg.frame_out_dim, cfg.seg_cnn_out)
        b.norm("seg_bn", cfg.seg_cnn_out)
        b.attention("seg_att", cfg.seg_cnn_out)
    else:
        channels = [cfg.frame_cnn_out] * 4 + [cfg.seg_cnn_out]
        cin = cfg.feat_dim
        for i, (width, cout) in enumerate(zip(XVECTOR_WIDTHS, channels), 1):
            b.conv(f"conv{i}", width, cin, cout)
            b.norm(f"bn{i}", cout)
            cin = cout
        if cfg.mode == "xvector_attn":
            b.attention("att", cfg.seg_cnn_out)
    b.linear("fc1", 2 * cfg.seg_cnn_out, cfg.fc1_dim)
    b.norm("fc1_bn", cfg.fc1_dim)
    b.linear("fc2", cfg.fc1_dim, cfg.fc2_dim)
    b.linear("out", cfg.fc2_dim, cfg.n_speakers)
    return b


def _assemble(cfg: ModelConfig, make) -> ModelParams:
    """Parameters whose arrays come from make(key, shape, initialiser)."""
    params = ModelParams()
    for key, shape, init in _layout(cfg):
        data = make(key, shape, init)
        if key.startswith(_BUFFER):
            params.buffers[key[len(_BUFFER):]] = data
        else:
            params.tensors[key] = Tensor(data, requires_grad=True)
    return params


def build_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Initialise all weights with centred uniforms scaled by 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    return _assemble(cfg, lambda key, shape, init: init(rng, shape))


def _batchnorm(x, params, name, training):
    return hv.batchnorm(
        x, params[f"{name}.gamma"], params[f"{name}.beta"],
        params.buffers[f"{name}.mean"], params.buffers[f"{name}.var"],
        training=training,
    )


def attention_normalize(scores) -> Tensor:
    """Raw relevance scores to attention weights: softmax over the last axis.

    Each attention site's weights equal this map of its scores bit for bit,
    so its properties (weights sum to 1, shifts change nothing) hold for each.
    """
    return hv.softmax(scores, axis=-1)


def _attention_weights(h, params, name):
    """Weights (..., T, 1), the shape that multiplies h (..., T, E): each row
    scored by relu(h W0 + b0) W1, softmaxed over the rows."""
    z = hv.relu(hv.matmul(h, params[f"{name}.w0"], params[f"{name}.b0"]))
    return hv.softmax(hv.matmul(z, params[f"{name}.w1"]), axis=-2)


def _attend_and_pool(h, params, name):
    alpha = _attention_weights(h, params, name)
    return hv.stats_pool(hv.mul(h, alpha)), Tensor(alpha.data[..., 0])


def frame_encode(fragments, params: ModelParams, cfg: ModelConfig,
                 training: bool = False):
    """Conv + BiGRU over a stack of fragments (B, M, F) -> (B, M, E)."""
    h = hv.conv1d(fragments, params["frame_conv.w"], params["frame_conv.b"])
    h = _batchnorm(hv.relu(h), params, "frame_bn", training)
    return hv.bigru_sequence(h, params.gru("gru_f"), params.gru("gru_b"))


def frame_attention(h, params: ModelParams):
    """Pool (B, M, E) encoder outputs to segment vectors (B, 2E); weights (B, M)."""
    return _attend_and_pool(h, params, "frame_att")


def segment_encode(segments, params: ModelParams, cfg: ModelConfig,
                   training: bool = False):
    """Width-1 conv over segment sequences (B, N, 2E) -> (B, N, S)."""
    h = hv.conv1d(segments, params["seg_conv.w"], params["seg_conv.b"])
    return _batchnorm(hv.relu(h), params, "seg_bn", training)


def segment_attention(s, params: ModelParams):
    """Pool (B, N, S) segment encodings to utterance vectors (B, 2S); weights (B, N)."""
    return _attend_and_pool(s, params, "seg_att")


def _head(pooled, params, cfg, training, rng, trace):
    z = hv.matmul(pooled, params["fc1.w"], params["fc1.b"])
    emb = _batchnorm(hv.relu(z), params, "fc1_bn", training)
    if trace is not None:
        trace["emb"] = emb
    dropped = hv.dropout(emb, cfg.dropout, rng=rng, training=training)
    z2 = hv.relu(hv.matmul(dropped, params["fc2.w"], params["fc2.b"]))
    logits = hv.matmul(z2, params["out.w"], params["out.b"])
    return logits, emb


def _hvector_forward(frags, params, cfg, training, rng, trace):
    batch, n_frag, m, feat = frags.shape
    flat = Tensor(frags.reshape(batch * n_frag, m, feat))
    enc = frame_encode(flat, params, cfg, training)
    seg_vec, frame_alpha = frame_attention(enc, params)
    segments = hv.reshape(seg_vec, (batch, n_frag, seg_vec.shape[-1]))
    seg_enc = segment_encode(segments, params, cfg, training)
    utt_vec, seg_alpha = segment_attention(seg_enc, params)
    if trace is not None:
        trace.update(frame_encoded=enc, frame_alpha=frame_alpha,
                     segments=segments, segment_encoded=seg_enc,
                     seg_alpha=seg_alpha, utterance_vector=utt_vec)
    return _head(utt_vec, params, cfg, training, rng, trace)


def _baseline_forward(frags, params, cfg, training, rng, trace):
    batch, n_frag, m, feat = frags.shape
    h = Tensor(frags.reshape(batch, n_frag * m, feat))
    for i in range(1, 6):
        h = hv.conv1d(h, params[f"conv{i}.w"], params[f"conv{i}.b"])
        h = _batchnorm(hv.relu(h), params, f"bn{i}", training)
    if cfg.mode == "xvector_attn":
        alpha = hv.reshape(_attention_weights(h, params, "att"), h.shape[:-1])
        pooled = hv.weighted_stats_pool(h, alpha)
    else:
        alpha = None
        pooled = hv.stats_pool(h)
    if trace is not None:
        trace.update(frame_encoded=h, frame_alpha=alpha, utterance_vector=pooled)
    return _head(pooled, params, cfg, training, rng, trace)


def forward_batch(frags: np.ndarray, params: ModelParams, cfg: ModelConfig,
                  training: bool = False, rng=None, trace: dict | None = None):
    """Logits (B, K) and embeddings (B, fc1_dim) for stacked fragments.

    The fragments are cast to the parameters' dtype, which every layer then
    computes in.
    """
    if frags.ndim != 4:
        raise ValueError(f"expected (B, N, M, F) fragments, got shape {frags.shape}")
    if frags.shape[1] != cfg.n_fragments or frags.shape[3] != cfg.feat_dim:
        raise ValueError(
            f"fragments {frags.shape} do not match config "
            f"(n_fragments={cfg.n_fragments}, feat_dim={cfg.feat_dim})"
        )
    frags = frags.astype(params.dtype, copy=False)
    if cfg.mode == "hvector":
        return _hvector_forward(frags, params, cfg, training, rng, trace)
    return _baseline_forward(frags, params, cfg, training, rng, trace)


def batches(features: list, order, batch_size: int):
    """Yield (indices, fragments) for stacked chunks of ``features``.

    Indices from ``order`` are grouped by fragments.shape in order of first
    appearance, keep their given order within each group, and are cut into
    chunks of at most ``batch_size``, so every chunk stacks and mixed inputs
    still form valid batches.  batch_size < 1 is refused, even with nothing to batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    groups: dict = {}
    for i in order:
        groups.setdefault(features[i].fragments.shape, []).append(i)
    for group in groups.values():
        for lo in range(0, len(group), batch_size):
            idx = np.array(group[lo:lo + batch_size])
            yield idx, np.stack([features[i].fragments for i in idx])


_INFERENCE_BUDGET = 2**23   # floats in one layer's output for one inference batch


def _infer(features: list, params: ModelParams, cfg: ModelConfig, out, pick):
    """Fill out[idx] with pick(logits, embeddings), batch by batch in inference
    mode: every inference pass runs this loop.  A batch holds 64 windows, or
    fewer where the widest layer output of the longest window given would pass
    the budget (18 or 19 3-s windows at the full preset); cfg and the windows'
    shapes alone set it, so reruns repeat every bit."""
    widest = max(cfg.frame_cnn_out, cfg.frame_out_dim, cfg.seg_cnn_out)
    rows = max((f.fragments.shape[0] * f.fragments.shape[1] for f in features), default=1)
    size = min(64, max(1, _INFERENCE_BUDGET // (rows * widest)))
    for idx, frags in batches(features, range(len(features)), size):
        logits, emb = forward_batch(frags, params, cfg)
        out[idx] = pick(logits.data, emb.data)
    return out


def embed_batch(features: list, params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    """Inference-mode embeddings of UtteranceFeatures, in input order, as float64
    whatever the parameters' dtype, as the back end expects."""
    return _infer(features, params, cfg, np.zeros((len(features), cfg.fc1_dim)),
                  lambda _, emb: emb)


def _check_speakers(path, speakers, cfg: ModelConfig):
    if len(speakers or ()) != cfg.n_speakers:
        raise ValueError(f"{path}: {len(speakers or ())} speaker ids for "
                         f"{cfg.n_speakers} model outputs")


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig):
    """Write the config, the speaker list and the weights as one archive."""
    _check_speakers(path, params.speakers, cfg)
    check_ids(params.speakers, path)
    records = {"config": cfg.to_text(), "speakers": "".join(f"{s}\n" for s in params.speakers)}
    records.update((name, t.data) for name, t in params.tensors.items())
    records.update((_BUFFER + name, b) for name, b in params.buffers.items())
    hv.save_archive(path, records)


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Parameters, speaker list included, and config from one archive that
    holds the config's arrays, no others, in one dtype.  An archive without
    a config record, such as a feature store, is not a checkpoint and is
    refused, and no file beside it is read; so is one load_archive cannot
    read, such as one from an earlier version."""
    try:
        arrays = hv.load_archive(path)
    except ValueError as exc:
        raise ValueError(f"{exc}; rerun `hvector train` (checkpoints from earlier "
                         "versions are no longer read)") from None
    if "config" not in arrays:
        raise ValueError(f"{path}: no config record, so not a checkpoint that "
                         "`hvector train` wrote (its <out>/model.hvt)")
    text = {key: arrays.pop(key, None) for key in ("config", "speakers")}
    for key, value in [*text.items(), *arrays.items()]:
        if isinstance(value, str) != (key in text):
            raise ValueError(f"{path}: checkpoint record {key} should be "
                             f"{'text' if key in text else 'an array'}")
    try:
        cfg = ModelConfig.from_text(text["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    dtypes = sorted({a.dtype.name for a in arrays.values()})
    if len(dtypes) > 1:
        raise ValueError(f"{path}: checkpoint arrays mix dtypes {', '.join(dtypes)}")

    def stored(key, shape, _):
        what = "buffer" if key.startswith(_BUFFER) else "tensor"
        name = key.removeprefix(_BUFFER)
        if key not in arrays:
            raise ValueError(f"{path}: checkpoint is missing {what} {name}")
        if arrays[key].shape != shape:
            raise ValueError(f"{path}: checkpoint {what} {name} has shape "
                             f"{arrays[key].shape}, expected {shape}")
        return arrays.pop(key)

    params = _assemble(cfg, stored)
    if arrays:      # what stored did not take
        raise ValueError(f"{path}: checkpoint holds {next(iter(arrays))}, which a "
                         f"mode={cfg.mode} model does not have")
    params.speakers = text["speakers"].removesuffix("\n").split("\n")
    _check_speakers(path, params.speakers, cfg)
    return params, cfg
