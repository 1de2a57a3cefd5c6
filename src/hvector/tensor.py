"""Dense tensors with reverse-mode automatic differentiation.

The op set covers exactly what the speaker-embedding models need: matrix
products (a dense layer's bias in the same node), 1-D convolution, a
whole-sequence bidirectional GRU (:func:`bigru_sequence`, one tape node for
both directions, which runs them at once on two threads where two CPUs are
usable, with :func:`gru_cell` as its step-by-step reference), softmax,
statistics pooling, and a small family of elementwise/reduction ops.
Gradients are recorded on an explicit tape (:class:`Graph`) whose insertion
order is already a topological order; :func:`backward` replays the tape
once in reverse.  Importing this module sets numpy's OpenBLAS to one
thread, so an op's bits depend on the BLAS build alone, not on
OPENBLAS_NUM_THREADS, and sets glibc's malloc to one arena, so the BiGRU's
worker thread frees into the heap the calling thread allocates from.

Every forward and backward product of :func:`matmul` and :func:`conv1d` is
one 2-D GEMM over all leading rows: the models multiply (batch x segments x
frames, k) stacks by one weight matrix, and numpy's ``@`` on a stacked left
operand makes one small BLAS call per leading index, each repacking the
whole weight.

A tensor keeps the dtype of a float32 or float64 array and holds anything
else as float64, and every op computes in the dtype of its inputs, so the
dtype of a model's parameters is the dtype it computes in: float64 where
finite-difference checks need it, float32 for training speed.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import warnings
import zipfile
from contextlib import contextmanager

import numpy as np

VAR_FLOOR = 1e-12  # variance floor used by the pooling ops before sqrt
BN_MOMENTUM = 0.9  # weight of the old running statistics in batchnorm
BN_EPS = 1e-5      # added to batchnorm's variance before sqrt
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

__all__ = [
    "Tensor", "Graph", "record", "backward", "grad_check",
    "matmul", "conv1d", "gru_cell", "bigru_sequence",
    "softmax", "log_sum_exp", "pick",
    "stats_pool", "weighted_stats_pool",
    "add", "sub", "mul", "neg", "relu", "sigmoid", "tanh",
    "concat", "reshape", "slice_axis", "mean", "tsum",
    "dropout", "batchnorm",
    "save_archive", "load_archive", "atomic_write",
]


class Tensor:
    """A numpy array plus an optional gradient and tape node."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        if data.dtype not in _FLOAT_DTYPES:
            data = data.astype(np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    __slots__ = ("out", "bwd", "graph")

    def __init__(self, out, bwd, graph):
        self.out = out
        self.bwd = bwd
        self.graph = graph


class Graph:
    """Append-only tape of operations; insertion order == topological order."""

    def __init__(self):
        self.nodes = []
        self.finished = False


_ACTIVE: Graph | None = None


@contextmanager
def record():
    """Record every op built inside the block onto a new tape."""
    global _ACTIVE
    prev = _ACTIVE
    g = _ACTIVE = Graph()
    try:
        yield g
    finally:
        _ACTIVE = prev


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(inputs) -> bool:
    """Whether _make puts an op with these inputs on the active tape."""
    return _ACTIVE is not None and any(t.requires_grad for t in inputs)


def _make(out_data, inputs, bwd) -> Tensor:
    """Create the output tensor of an op and register it on the active tape."""
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _records(inputs):
        node = _Node(out, bwd, _ACTIVE)
        out.node = node
        _ACTIVE.nodes.append(node)
    return out


def _accumulate(t: Tensor, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss.

    Visits the tape in exact reverse insertion order.  A tape can only be
    replayed once; record a new graph for the next step.  Each node drops its
    output and closure as it is visited, before its backward runs, which
    breaks the Tensor <-> node cycle, so a step's activations are freed by
    reference counting as soon as the caller lets go of them, and an output
    that no backward reads is gone before its own node's backward allocates.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise RuntimeError("loss is not attached to a recorded graph")
    graph = loss.node.graph
    if graph.finished:
        raise RuntimeError("backward was already called on this graph; record a new one")
    graph.finished = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        grad, bwd = node.out.grad, node.bwd
        node.out = node.bwd = None
        if grad is not None:
            bwd(grad)


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), bwd)


def neg(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


def relu(a) -> Tensor:
    a = _wrap(a)
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (a.data > 0))

    return _make(out, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        _accumulate(a, g * out * (1.0 - out))

    return _make(out, (a,), bwd)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - out * out))

    return _make(out, (a,), bwd)


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis)
    count = a.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, g / count))
        else:
            _accumulate(a, np.expand_dims(g, axis) / count * np.ones_like(a.data))

    return _make(np.asarray(out), (a,), bwd)


def tsum(a, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.full_like(a.data, g))
        else:
            _accumulate(a, np.expand_dims(g, axis) * np.ones_like(a.data))

    return _make(np.asarray(out), (a,), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    base = list(tensors[0].shape)
    ax = axis % len(base)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            i != ax and other[i] != base[i] for i in range(len(base))
        ):
            raise ValueError(
                f"concat shape mismatch: {tensors[0].shape} vs {t.shape} on axis {axis}"
            )
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]

    def bwd(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(offset, offset + n)
            _accumulate(t, g[tuple(idx)])
            offset += n

    return _make(out, tuple(tensors), bwd)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out, (a,), bwd)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    ax = axis % a.ndim
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            _accumulate(a, full)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b, bias=None) -> Tensor:
    """a @ b (+ bias) where a is (..., m, k), b is a 2-D (k, n) matrix and bias is (n,)."""
    a, b = _wrap(a), _wrap(b)
    inputs = (a, b) if bias is None else (a, b, _wrap(bias))
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0] or inputs[2:] and inputs[2].shape != b.shape[1:]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}" + "".join(f" + {t.shape}" for t in inputs[2:]))
    k, n = b.shape
    a2 = a.data.reshape(-1, k)
    out = (a2 @ b.data).reshape(a.shape[:-1] + (n,))
    out = out if bias is None else out + inputs[2].data

    def bwd(g):
        g2 = g.reshape(-1, n)
        if bias is not None:
            _accumulate(inputs[2], g2.sum(axis=0))
        if a.requires_grad:
            _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accumulate(b, a2.T @ g2)

    return _make(out, inputs, bwd)


def _im2col(xp, width: int, t: int):
    """(B, T + width - 1, C) padded rows to (B*T, width*C) windows: xp[b, s:s+width]."""
    if width > 1:
        xp = np.concatenate([xp[:, d:d + t] for d in range(width)], axis=-1)
    return xp.reshape(-1, xp.shape[-1])


def conv1d(x, kernel, bias) -> Tensor:
    """Same-padded 1-D convolution over the time axis.

    x is (T, C_in) or (batch, T, C_in); kernel is (width, C_in, C_out) with
    odd width; bias is (C_out,).  Output keeps the time length.  The
    product is one (B*T, width*C_in) @ (width*C_in, C_out) GEMM over the
    unfolded windows.  The tape keeps only the padded input, from which
    the backward pass unfolds the windows again.
    """
    x, kernel, bias = _wrap(x), _wrap(kernel), _wrap(bias)
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3 or kernel.ndim != 3 or bias.ndim != 1:
        raise ValueError(
            f"conv1d expects (T,Cin) or (B,T,Cin) input, (w,Cin,Cout) kernel, "
            f"(Cout,) bias; got {x.shape}, {kernel.shape}, {bias.shape}"
        )
    w, cin, cout = kernel.shape
    if w % 2 == 0:
        raise ValueError(f"conv1d kernel width must be odd, got {w}")
    if xd.shape[-1] != cin or bias.shape[0] != cout:
        raise ValueError(
            f"conv1d channel mismatch: input {x.shape}, kernel {kernel.shape}, "
            f"bias {bias.shape}"
        )
    batch, t, _ = xd.shape
    pad = w // 2
    xp = xd
    if pad:
        xp = np.zeros((batch, t + 2 * pad, cin), dtype=xd.dtype)
        xp[:, pad:pad + t] = xd
    k2 = kernel.data.reshape(w * cin, cout)
    out = (_im2col(xp, w, t) @ k2 + bias.data).reshape(batch, t, cout)

    def bwd(g):
        g2 = g.reshape(-1, cout)
        if bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0))
        if kernel.requires_grad:
            _accumulate(kernel, (_im2col(xp, w, t).T @ g2).reshape(w, cin, cout))
        if x.requires_grad:
            gcols = (g2 @ k2.T).reshape(batch, t, w, cin)
            if pad:
                gxp = np.zeros_like(xp)
                for d in range(w):
                    gxp[:, d:d + t] += gcols[:, :, d]
                gx = gxp[:, pad:pad + t]
            else:
                gx = gcols.reshape(batch, t, cin)
            _accumulate(x, gx[0] if squeeze else gx)

    return _make(out[0] if squeeze else out, (x, kernel, bias), bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(x, axis: int = -1) -> Tensor:
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(x, out * (g - inner))

    return _make(out, (x,), bwd)


def log_sum_exp(x, axis: int = -1) -> Tensor:
    x = _wrap(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)

    def bwd(g):
        _accumulate(x, np.expand_dims(g, axis) * (e / s))

    return _make(out, (x,), bwd)


def pick(x, indices) -> Tensor:
    """Select x[i, indices[i]] for each row of a 2-D tensor."""
    x = _wrap(x)
    idx = np.asarray(indices, dtype=np.int64)
    if x.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"pick expects (B,K) and (B,) indices; got {x.shape}, {idx.shape}")
    if idx.min() < 0 or idx.max() >= x.shape[1]:
        raise ValueError(
            f"pick index out of range: values in [{idx.min()}, {idx.max()}] "
            f"for {x.shape[1]} classes"
        )
    rows = np.arange(x.shape[0])
    out = x.data[rows, idx]

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[rows, idx] = g
            _accumulate(x, gx)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def stats_pool(seq) -> Tensor:
    """Concatenate per-dimension mean and std over the second-to-last axis.

    (T, E) pools to (2E,); (..., T, E) pools to (..., 2E).  The std uses the
    biased estimator with the variance floored at VAR_FLOOR before sqrt.
    """
    seq = _wrap(seq)
    if seq.ndim < 2:
        raise ValueError(f"stats_pool expects at least 2 dims, got shape {seq.shape}")
    t = seq.shape[-2]
    if t == 0:
        raise ValueError("stats_pool got an empty sequence (T=0)")
    # Delegate to the weighted form with exactly-uniform weights; softmax of a
    # zero score vector produces these same weights bit for bit, which keeps
    # attention-with-zero-scores and plain pooling byte-identical.
    uniform = Tensor(np.ones(seq.shape[:-1], dtype=seq.data.dtype) / t)
    return weighted_stats_pool(seq, uniform)


def weighted_stats_pool(seq, weights) -> Tensor:
    """Weighted mean and weighted std over the second-to-last axis.

    mu_e = sum_t w_t x_te and var_e = sum_t w_t (x_te - mu_e)^2, with the
    variance floored before sqrt.  With uniform weights summing to one this
    reproduces stats_pool exactly.
    """
    seq, weights = _wrap(seq), _wrap(weights)
    if seq.ndim < 2 or weights.shape != seq.shape[:-1]:
        raise ValueError(
            f"weighted_stats_pool shape mismatch: seq {seq.shape}, weights {weights.shape}"
        )
    if seq.shape[-2] == 0:
        raise ValueError("weighted_stats_pool got an empty sequence (T=0)")
    w = weights.data[..., None]
    mu = (w * seq.data).sum(axis=-2)
    centered = seq.data - mu[..., None, :]
    var = (w * centered * centered).sum(axis=-2)
    floored = np.maximum(var, VAR_FLOOR)
    sd = np.sqrt(floored)
    out = np.concatenate([mu, sd], axis=-1)

    def bwd(g):
        e = mu.shape[-1]
        g_mu = g[..., :e]
        g_sd = g[..., e:]
        live = (var > VAR_FLOOR).astype(seq.data.dtype)
        g_var = g_sd * live / (2.0 * sd)
        # d var_e / d x_se = 2 w_s (c_se - sum_t w_t c_te); the correction term
        # vanishes only when the weights sum to one, so keep it general.
        wc = (w * centered).sum(axis=-2)
        if seq.requires_grad:
            gx = w * (
                g_mu[..., None, :]
                + 2.0 * (centered - wc[..., None, :]) * g_var[..., None, :]
            )
            _accumulate(seq, gx)
        if weights.requires_grad:
            gw = (seq.data * g_mu[..., None, :]).sum(axis=-1)
            gw += (centered * centered * g_var[..., None, :]).sum(axis=-1)
            gw -= 2.0 * (seq.data * (wc * g_var)[..., None, :]).sum(axis=-1)
            _accumulate(weights, gw)

    return _make(out, (seq, weights), bwd)


# ---------------------------------------------------------------------------
# regularisation layers
# ---------------------------------------------------------------------------

def dropout(x, p: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout: zero a fraction p and scale survivors by 1/(1-p)."""
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a random generator")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, Tensor(mask))


def batchnorm(x, gamma, beta, running_mean, running_var, training: bool) -> Tensor:
    """Per-channel batch normalisation over all leading axes.

    The channel axis is the last one.  In training mode the (biased) batch
    statistics normalise the input and the running buffers are updated in
    place: new = BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"batchnorm parameter mismatch: input {x.shape}, gamma {gamma.shape}, "
            f"beta {beta.shape}"
        )
    axes = tuple(range(x.ndim - 1))
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    m = max(x.size // c, 1)

    def bwd(g):
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes))
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes))
        if x.requires_grad:
            gxh = g * gamma.data
            if training:
                gx = (inv / m) * (
                    m * gxh - gxh.sum(axis=axes) - xhat * (gxh * xhat).sum(axis=axes)
                )
            else:
                gx = gxh * inv
            _accumulate(x, gx)

    return _make(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def gru_cell(x, h_prev, params: dict) -> Tensor:
    """One GRU step.

    z = sigma(x Wz + h Uz + bz), r = sigma(x Wr + h Ur + br),
    hcand = tanh(x Wh + (r * h) Uh + bh), h' = (1 - z) * hcand + z * h.
    x is (B, D) and h_prev is (B, H).
    """
    x, h_prev = _wrap(x), _wrap(h_prev)
    d, h = params["wz"].shape
    if x.shape[-1] != d or h_prev.shape[-1] != h:
        raise ValueError(
            f"gru_cell dim mismatch: x {x.shape}, h_prev {h_prev.shape}, Wz {params['wz'].shape}"
        )
    z = sigmoid(add(add(matmul(x, params["wz"]), matmul(h_prev, params["uz"])), params["bz"]))
    r = sigmoid(add(add(matmul(x, params["wr"]), matmul(h_prev, params["ur"])), params["br"]))
    cand = tanh(add(add(matmul(x, params["wh"]), matmul(mul(r, h_prev), params["uh"])), params["bh"]))
    # h' = cand + z * (h_prev - cand)
    return add(cand, mul(z, sub(h_prev, cand)))


# one GRU direction's parameter names, as gru_cell and bigru_sequence take them
GRU_KEYS = ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh")


class _GruDirection:
    """One GRU direction over a whole sequence, forward and backward through
    time on raw arrays: bigru_sequence runs one per direction.

    `forward` and `backward`, which may run on bigru_sequence's worker
    thread, create no Tensor and touch no tape.  They allocate and free
    their own arrays on whichever thread runs them: the process has one
    malloc arena (see `_THREADED`), so the worker's frees return memory to
    the heap that the calling thread allocates from.
    """

    def __init__(self, seq: Tensor, params: dict, reverse: bool):
        self.seq, self.reverse = seq, reverse
        self.params = [params[k] for k in GRU_KEYS]
        if seq.ndim != 3:
            raise ValueError(f"bigru_sequence expects (B, T, D) input, got shape {seq.shape}")
        batch, steps, d = seq.shape
        hidden = params["uz"].shape[-1]
        want = [(d, hidden)] * 3 + [(hidden, hidden)] * 3 + [(hidden,)] * 3
        if [p.shape for p in self.params] != want:
            raise ValueError(
                f"bigru_sequence dim mismatch: seq {seq.shape}, "
                + ", ".join(f"{k} {p.shape}" for k, p in zip(GRU_KEYS, self.params))
            )
        self.hidden = hidden
        self.dtype = np.result_type(seq.data, *(p.data for p in self.params[:3]))

    def forward(self, out, keep: bool):
        """Run the steps and copy the hidden states (B, T, H) into ``out`` in
        input order.  ``keep`` says whether backward will run; only then is
        the input kept, with the gates of every step."""
        wz, wr, wh, uz, ur, uh, bz, br, bh = (p.data for p in self.params)
        batch, steps, d = self.seq.shape
        hidden, h2, dtype = self.hidden, 2 * self.hidden, self.dtype
        # Time-major input in the order the steps run, and the input
        # projection xs @ [Wz|Wr|Wh] of all steps.
        x = self.seq.data[:, ::-1] if self.reverse else self.seq.data
        xs = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(steps * batch, d)
        w = np.concatenate([wz, wr, wh], axis=1, dtype=dtype)
        u_zr = np.concatenate([uz, ur], axis=1)
        b_zr = np.concatenate([bz, br])
        proj = (xs @ w).reshape(steps, batch, 3 * hidden)
        hs = np.zeros((steps + 1, batch, hidden), dtype=dtype)     # hs[s] feeds step s
        if keep:
            zrs = np.empty((steps, batch, h2), dtype=dtype)
            cands = np.empty((steps, batch, hidden), dtype=dtype)
        for s in range(steps):
            h = hs[s]
            zr = 1.0 / (1.0 + np.exp(-((proj[s, :, :h2] + h @ u_zr) + b_zr)))
            cand = np.tanh((proj[s, :, h2:] + (zr[:, hidden:] * h) @ uh) + bh)
            hs[s + 1] = cand + zr[:, :hidden] * (h - cand)
            if keep:
                zrs[s], cands[s] = zr, cand
        states = hs[1:].transpose(1, 0, 2)
        np.copyto(out, states[:, ::-1] if self.reverse else states)
        if keep:
            self.kept = xs, w, u_zr, hs, zrs, cands

    def backward(self, g):
        """Compute the gradients from g, the gradient of forward's output,
        and drop what forward kept."""
        xs, w, u_zr, hs, zr, cand = self.kept
        self.kept = None
        uh = self.params[5].data
        steps, batch, hidden = cand.shape
        h2 = 2 * hidden
        g = (g[:, ::-1] if self.reverse else g).transpose(1, 0, 2)
        da = np.empty((steps, batch, 3 * hidden), dtype=self.dtype)
        carry = np.zeros((batch, hidden), dtype=self.dtype)
        for s in range(steps - 1, -1, -1):
            dh = g[s] + carry
            h, z, r, c = hs[s], zr[s, :, :hidden], zr[s, :, hidden:], cand[s]
            da[s, :, h2:] = dh * (1.0 - z) * (1.0 - c * c)
            d_rh = da[s, :, h2:] @ uh.T
            da[s, :, :hidden] = dh * (h - c) * z * (1.0 - z)
            da[s, :, hidden:h2] = d_rh * h * r * (1.0 - r)
            carry = dh * z + d_rh * r + da[s, :, :h2] @ u_zr.T
        # Weight and bias gradients: one GEMM or sum each over all B*T rows.
        # r * h_prev takes the place of the candidates, which the loop read last.
        da = da.reshape(steps * batch, 3 * hidden)
        h_prev = hs[:-1].reshape(steps * batch, hidden)
        r_h = np.multiply(zr[:, :, hidden:], hs[:-1], out=cand).reshape(-1, hidden)
        self.gw = xs.T @ da
        self.gu_zr = h_prev.T @ da[:, :h2]
        self.guh = r_h.T @ da[:, h2:]
        self.gb = da.sum(axis=0)
        self.gx = da @ w.T if self.seq.requires_grad else None

    def accumulate(self):
        """Add backward's gradients to the parameters' and the input's."""
        grads = (*np.split(self.gw, 3, axis=1), *np.split(self.gu_zr, 2, axis=1),
                 self.guh, *np.split(self.gb, 3))
        for p, gp in zip(self.params, grads):
            _accumulate(p, gp)
        if self.gx is not None:
            gx = self.gx.reshape(self.seq.shape[1], self.seq.shape[0], -1).transpose(1, 0, 2)
            _accumulate(self.seq, gx[:, ::-1] if self.reverse else gx)


def bigru_sequence(seq, fwd_params: dict, bwd_params: dict) -> Tensor:
    """A bidirectional GRU over seq (B, T, D) as a single tape node.

    Maps seq to (B, T, H_fwd + H_bwd): the hidden states of a GRU that
    steps forward through time with ``fwd_params``, then those of one that
    steps backward with ``bwd_params``, each from a zero state.  The
    equations are gru_cell's: the input projection seq @ [Wz|Wr|Wh] is one
    GEMM over all steps, each step runs h @ [Uz|Ur] and (r*h) @ Uh, and
    every bias is added after the sum of its two products, so each
    direction's forward equals a gru_cell chain; the reverse direction
    accumulates first, a fixed order.  The backward pass through time is
    written by hand from the gates saved per step.  Where a second CPU is
    usable (see `_THREADED`), the reverse direction runs its forward and its
    backward pass on a worker thread while the calling thread runs the
    forward direction's.
    """
    seq = _wrap(seq)
    fwd = _GruDirection(seq, fwd_params, False)
    rev = _GruDirection(seq, bwd_params, True)
    split = fwd.hidden
    batch, steps, _ = seq.shape
    out = np.empty((batch, steps, split + rev.hidden), dtype=np.result_type(fwd.dtype, rev.dtype))
    keep = _records((seq, *fwd.params, *rev.params))
    _run_both(lambda: fwd.forward(out[..., :split], keep),
              lambda: rev.forward(out[..., split:], keep))

    def bwd(g):
        _run_both(lambda: fwd.backward(g[..., :split]), lambda: rev.backward(g[..., split:]))
        # reverse first, always: an input gradient summed with one from
        # another use of seq keeps its bits from run to run
        rev.accumulate()
        fwd.accumulate()

    return _make(out, (seq, *fwd.params, *rev.params), bwd)


def _pin_blas_threads() -> bool:
    """Set numpy's OpenBLAS to one thread; False where it cannot be found."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn(ctypes.c_int(1))
                return True
    return False


def _one_malloc_arena() -> bool:
    """Set glibc's malloc to one arena; False where there is no glibc."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    # -8 is M_ARENA_MAX; mallopt returns 1 where the setting took
    return mallopt is not None and mallopt(ctypes.c_int(-8), ctypes.c_int(1)) == 1


def worker_count() -> int:
    """How many threads or processes may work at once: the CPUs this process
    may run on, at most 4, and 1 where that set cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), 4)


# one BLAS thread, so bytes do not depend on the environment, and one malloc
# arena, so the worker thread allocates from the calling thread's heap;
# bigru_sequence runs its reverse direction on _WORKER, made on first use,
# only where the program owns both settings and 2 CPUs are usable
_THREADED = _pin_blas_threads() and _one_malloc_arena() and worker_count() >= 2
_WORKER = None


# Python 3.12 warns when a process forks while another thread runs, such as
# the BiGRU's worker after `train`, because the child may wait on a lock
# that thread held; a forked_map child runs numpy and file I/O only, and
# leaves through os._exit.  Only this module's forks are matched
warnings.filterwarnings(
    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
    DeprecationWarning, module=rf"{__name__}\Z")


def forked_map(fn, n: int, floor: int, what: str) -> list:
    """[fn(share) for share in shares]: range(n) split into contiguous
    shares, one per process, at most worker_count() and only as many as
    give each extra process `floor` items or more.

    This process runs the first share while a forked child runs each other
    one and sends back its pickled result.  Every child is reaped on every
    path; a child's failure is raised here as one OSError, its error text
    or `what` followed by its items, 1-based, and how it ended."""
    workers = max(1, min(worker_count(), n))
    while workers > 1 and n // workers < floor:
        workers -= 1
    bounds = [n * i // workers for i in range(workers + 1)]
    shares = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        for share in shares[1:]:
            children.append((_fork_child(fn, share), share))
        results = [fn(shares[0])]
    finally:
        outcomes = [_reap_child(pid, read_end) for (pid, read_end), _ in children]
    for (code, data), (_, share) in zip(outcomes, children):
        if code == 0:
            results.append(pickle.loads(data))
        elif code > 0 and data:
            raise OSError(data.decode("utf-8", "replace"))
        else:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise OSError(f"{what} {share.start + 1}-{share.stop} {how}")
    return results


def _fork_child(fn, share) -> tuple[int, int]:
    """Fork a child that writes pickle(fn(share)) to a pipe and exits 0, or
    writes its error text and exits 1; return its pid and the read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                data, ok = pickle.dumps(fn(share)), True
            except BaseException as exc:
                data, ok = str(exc).encode("utf-8", "replace"), False
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0 if ok else 1
        finally:
            # leave without unwinding the caller's stack or flushing the
            # buffers this process inherited from it, stdout's among them
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _reap_child(pid, read_end) -> tuple[int, bytes]:
    """Read a child's pipe to EOF and wait for it: (exit code, bytes)."""
    try:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code, data


def _run_both(here, there):
    """Run two callables.  When _THREADED, there runs on the worker while
    here runs in this thread; otherwise here runs, then there, to the same
    bytes.  An error in either is raised."""
    global _WORKER
    if not _THREADED:
        here()
        there()
        return
    if _WORKER is None:
        from concurrent.futures import ThreadPoolExecutor
        _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hvector-gru")
    errors = np.geterr()    # numpy's error state does not follow a thread

    def task():
        with np.errstate(**errors):
            there()

    done = _WORKER.submit(task)
    try:
        here()
    finally:
        done.result()


def _forget_worker():
    # a forked child has no worker thread; a submit to the inherited pool
    # would wait forever
    global _WORKER
    _WORKER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, theta: Tensor, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of f(theta) against central differences.

    Returns the max over entries of |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    """
    theta.grad = None
    with record():
        y = f(theta)
    if y.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {y.shape}")
    backward(y)
    g_ad = np.zeros_like(theta.data) if theta.grad is None else theta.grad.copy()

    flat = theta.data.reshape(-1)
    g_fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(theta).data.reshape(-1)[0]
        flat[i] = orig - h
        lo = f(theta).data.reshape(-1)[0]
        flat[i] = orig
        g_fd[i] = (hi - lo) / (2.0 * h)
    g_fd = g_fd.reshape(theta.shape)

    if not (np.isfinite(g_ad).all() and np.isfinite(g_fd).all()):
        raise ValueError("grad_check saw non-finite gradients")
    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-8)
    return float(np.max(np.abs(g_ad - g_fd) / denom))


# ---------------------------------------------------------------------------
# binary serialisation
# ---------------------------------------------------------------------------

# An archive is a zip of stored (uncompressed) `<name>.npy` members, the
# container np.savez writes, so np.load(path, allow_pickle=False) opens it and
# zipfile checks each member's CRC-32.  float32 arrays are stored as float32,
# any other number as little-endian float64, and a str as a 0-d unicode array.
_READ_CHUNK = 1 << 20      # bytes read at a time into an array being loaded
# what zipfile and np.lib.format raise on a cut or corrupted archive
_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError,
                   ValueError, OSError)


def _text(arr) -> str:
    """The str a 0-d unicode array holds, as np.load reads it: its UTF-32 code
    points without trailing NULs.  One that is not a character is refused."""
    return arr.tobytes().decode("utf-32-le").rstrip("\0")


def _read_record(zf, info):
    """One member's array, or str, read to the member's end, where zipfile
    checks its CRC-32.  Its header is checked against the member's size
    before anything is allocated."""
    what = f"member {info.filename!r}"
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{what} is compressed; hvector stores its records")
    fmt = np.lib.format
    with zf.open(info) as fh:
        version = fmt.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"{what}: .npy format version {version} is not read")
        read = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran_order, dtype = read(fh)
        if fortran_order or not (dtype.str in ("<f4", "<f8")
                                 or dtype.str.startswith("<U") and shape == ()):
            raise ValueError(f"{what}: a{' Fortran-ordered' * fortran_order} {dtype.str} "
                             f"array of shape {shape}, not a C-ordered <f4 or <f8 array "
                             "or 0-d <U text")
        if min(shape, default=0) < 0:
            raise ValueError(f"{what}: negative dimension in shape {shape}")
        nbytes = dtype.itemsize * math.prod(shape)
        left = info.file_size - fh.tell()
        if nbytes != left:
            raise ValueError(f"{what}: shape {shape} of {dtype.str} needs {nbytes} bytes, "
                             f"the member holds {left}")
        data = np.empty(shape, dtype)
        view = data.reshape(-1).view(np.uint8)
        for start in range(0, nbytes, _READ_CHUNK):
            chunk = view[start:start + _READ_CHUNK]
            if fh.readinto(chunk) != len(chunk):
                raise EOFError(f"{what} ends inside its array")
    return _text(data) if dtype.kind == "U" else data


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """open() for writing a file that is replaced whole or not at all.

    The bytes go to a temporary file in the same directory, which replaces
    `path` on success and is removed if the write fails.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_archive(path, records: dict):
    """Write a keyed archive of arrays (float32 or float64 each) and str
    values, replaced whole or not at all."""
    fmt = np.lib.format
    with atomic_write(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, value in records.items():
            if isinstance(value, str):
                arr = np.asarray(value, "<U")
            else:
                arr = np.asarray(value)
                arr = np.asarray(arr, "<f4" if arr.dtype == np.float32 else "<f8", order="C")
            info = zipfile.ZipInfo(name + ".npy")     # dated 1980-01-01: fixed bytes
            info.file_size = arr.nbytes    # so a member past 2 GiB gets ZIP64 sizes
            if info.filename != name + ".npy" or arr.dtype.kind == "U" and _text(arr) != value:
                raise ValueError(f"{path}: record {name!r} cannot be stored as .npy")
            with zf.open(info, "w") as out:
                fmt.write_array_header_1_0(out, fmt.header_data_from_array_1_0(arr))
                out.write(arr.reshape(-1).view(np.uint8).data)   # no copy


def load_archive(path) -> dict:
    """The records save_archive wrote, by name, in the order written.  A cut
    or corrupted archive raises one ValueError that names the file."""
    out = {}
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    name = info.filename.removesuffix(".npy")
                    if name == info.filename:
                        raise ValueError(f"member {info.filename!r} is not a .npy record")
                    # no writer gives a member a comment; a corrupt comment
                    # length would hide the members after it
                    if info.comment:
                        raise ValueError(f"member {info.filename!r} has a comment")
                    if name in out:
                        raise ValueError(f"record {name!r} appears twice")
                    out[name] = _read_record(zf, info)
        except _ARCHIVE_ERRORS as exc:
            raise ValueError(f"{path}: {exc}") from None
    return out
