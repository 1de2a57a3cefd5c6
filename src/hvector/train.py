"""Cross-entropy training with Adam and fully seeded, reproducible runs."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as hv
from .model import (
    ModelConfig, ModelParams, batches, build_params, forward_batch, save_checkpoint,
)
from .tensor import Tensor

__all__ = [
    "TrainConfig", "TrainingDiverged", "AdamState", "EpochStats",
    "cross_entropy", "adam_step", "train", "predict", "classify_accuracy",
]


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.95
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    stop_at_dev_acc: float | None = None

    def __post_init__(self):
        """Adam's update needs betas in (0, 1) and eps > 0.  The CLI builds a
        TrainConfig to check each train setting, so these are its rules too."""
        acc = self.stop_at_dev_acc
        for name, ok, rule in [
                ("beta1", 0.0 < self.beta1 < 1.0, "lie in (0, 1) like all Adam betas"),
                ("beta2", 0.0 < self.beta2 < 1.0, "lie in (0, 1) like all Adam betas"),
                ("lr", 0.0 <= self.lr < np.inf, "be finite and non-negative"),
                ("eps", 0.0 < self.eps < np.inf, "be finite and positive"),
                ("epochs", self.epochs >= 1, "be at least 1"),
                ("seed", self.seed >= 0, "be non-negative"),
                ("stop_at_dev_acc", acc is None or 0.0 <= acc <= 1.0, "lie in [0, 1] or be None")]:
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)}")
        list(batches([], (), self.batch_size))   # batches owns the batch_size rule


class TrainingDiverged(RuntimeError):
    """A gradient went non-finite: the run has diverged."""


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true labels: (B, C)
    logits against B class indices."""
    lse = hv.log_sum_exp(logits, axis=-1)
    return hv.mean(hv.sub(lse, hv.pick(logits, labels)))


class AdamState:
    """Step counter and per-parameter moment estimates, in each parameter's dtype."""

    def __init__(self, params: ModelParams):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.tensors.items()}


def adam_step(params: ModelParams, state: AdamState, cfg: TrainConfig):
    """One Adam update; a non-finite gradient raises before anything changes."""
    grads = [(name, p, p.grad) for name, p in params.tensors.items()
             if p.grad is not None]
    for name, _, g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r} "
                                   f"at step {state.step + 1}: training diverged "
                                   f"at lr={cfg.lr!r}")
    state.step += 1
    m_corr = 1.0 - cfg.beta1 ** state.step
    v_corr = 1.0 - cfg.beta2 ** state.step
    for name, p, g in grads:
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.data -= cfg.lr * (m / m_corr) / (np.sqrt(v / v_corr) + cfg.eps)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    train_acc: float
    dev_acc: float
    seconds: float

    def line(self) -> str:
        return (f"{self.epoch}\t{self.loss:.6f}\t{self.train_acc:.4f}"
                f"\t{self.dev_acc:.4f}")


def _labels_for(features, index, role):
    labels = np.empty(len(features), dtype=np.int64)
    for i, u in enumerate(features):
        if u.speaker_id not in index:
            raise ValueError(f"{role} utterance {u.utterance_id!r} has speaker "
                             f"{u.speaker_id!r} not present in the training set")
        labels[i] = index[u.speaker_id]
    return labels


def predict(features, params: ModelParams, cfg: ModelConfig,
            batch_size: int = 64) -> np.ndarray:
    """Inference-mode argmax class index per utterance."""
    out = np.empty(len(features), dtype=np.int64)
    for idx, frags, n_frames in batches(features, range(len(features)), batch_size):
        logits, _ = forward_batch(frags, n_frames, params, cfg, training=False)
        out[idx] = np.argmax(logits.data, axis=1)
    return out


def classify_accuracy(features, labels, params, cfg, batch_size: int = 64) -> float:
    return float(np.mean(predict(features, params, cfg, batch_size) == labels))


def train(train_feats, dev_feats, model_cfg: ModelConfig, cfg: TrainConfig,
          checkpoint_path=None, log_path=None):
    """Fit a float32 model; returns (best parameters, per-epoch stats).

    "Best" means highest dev accuracy, ties broken by the earlier epoch; its
    `speakers` lists the training speakers in output-class order. The
    shuffle order and dropout masks come from named streams off cfg.seed, so
    a rerun with the same inputs reproduces the loss trajectory bit-for-bit.
    """
    if not train_feats:
        raise ValueError("training set is empty")
    if not dev_feats:
        raise ValueError("dev set is empty")
    speakers = sorted({u.speaker_id for u in train_feats})
    index = {s: i for i, s in enumerate(speakers)}
    if model_cfg.n_speakers != len(speakers):
        raise ValueError(f"model expects {model_cfg.n_speakers} speakers but the "
                         f"training set has {len(speakers)}")
    y_train = _labels_for(train_feats, index, "train")
    y_dev = _labels_for(dev_feats, index, "dev")

    # Drawn in float64, so the initial weights are those of build_params;
    # training then computes and stores float32.
    params = build_params(model_cfg, seed=cfg.seed).astype(np.float32)
    params.speakers = speakers
    state = AdamState(params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))

    history: list[EpochStats] = []
    best_acc = -1.0
    best_params = None  # epoch 1 always sets it: cfg.epochs >= 1, dev_acc >= 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        order = shuffle_rng.permutation(len(train_feats))
        loss_sum = 0.0
        correct = 0
        for idx, frags, n_frames in batches(train_feats, order, cfg.batch_size):
            params.zero_grads()
            with hv.record():
                logits, _ = forward_batch(frags, n_frames, params, model_cfg,
                                          training=True, rng=dropout_rng)
                loss = cross_entropy(logits, y_train[idx])
            hv.backward(loss)
            adam_step(params, state, cfg)
            loss_sum += float(loss.data) * len(idx)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == y_train[idx]))
        dev_acc = classify_accuracy(dev_feats, y_dev, params, model_cfg)
        stats = EpochStats(
            epoch=epoch,
            loss=loss_sum / len(train_feats),
            train_acc=correct / len(train_feats),
            dev_acc=dev_acc,
            seconds=time.monotonic() - t0,
        )
        history.append(stats)
        if log_path:
            # replaced whole each epoch, so a crash never leaves half a line
            with hv.atomic_write(log_path, "w", encoding="utf-8") as fh:
                fh.writelines(h.line() + "\n" for h in history)
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_params = params.clone()
        if cfg.stop_at_dev_acc is not None and dev_acc >= cfg.stop_at_dev_acc:
            break
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, best_params, model_cfg)
    return best_params, history

