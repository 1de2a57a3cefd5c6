import contextlib
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hvector import model
from hvector import tensor as hv
from hvector.audio import UtteranceFeatures, load_wav, mfcc_frames, split_fragments
from hvector.corpus import split, synth_corpus
from hvector.model import (
    MODES,
    ModelConfig,
    build_params,
    embed_batch,
    forward_batch,
    load_checkpoint,
)
from hvector.tensor import Tensor
from hvector.train import (
    BETA1,
    BETA2,
    AdamState,
    TrainConfig,
    adam_step,
    classify_accuracy,
    cross_entropy,
    predict,
    train,
)

from helpers import random_frags, set_inference_batch, tiny_config


def toy_features(rng, cfg, n_per_speaker, speakers=("a", "b"), spread=1.0):
    """Linearly separable random features: one mean offset per speaker."""
    feats = []
    for k, spk in enumerate(speakers):
        offset = spread * (k - (len(speakers) - 1) / 2.0)
        for j in range(n_per_speaker):
            frags = random_frags(rng, cfg, batch=1)[0] + offset
            feats.append(UtteranceFeatures(
                fragments=frags, utterance_id=f"{spk}-{j}", speaker_id=spk))
    return feats


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = cross_entropy(Tensor(np.zeros((1, 4))), [2])
        assert abs(loss.item() - np.log(4.0)) < 1e-12

    def test_confident_correct_logits_give_tiny_loss(self):
        loss = cross_entropy(Tensor(np.array([[20.0, 0.0, 0.0]])), [0])
        assert loss.item() < 1e-8

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        labels = np.array([1, 4, 0])
        with hv.record():
            # reuse the recorded tensor so the gradient lands on `logits`
            loss = cross_entropy(logits, labels)
        hv.backward(loss)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        np.testing.assert_allclose(logits.grad, (p - onehot) / 3.0,
                                   rtol=0, atol=1e-10)

    def test_batch_loss_is_mean_of_singles(self):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        whole = cross_entropy(Tensor(batch), labels).item()
        singles = [cross_entropy(Tensor(batch[i:i + 1]), labels[i:i + 1]).item()
                   for i in range(4)]
        assert abs(whole - np.mean(singles)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor(np.zeros((1, 3))), [3])


def _single_param_setup(value):
    cfg = tiny_config(n_speakers=2)
    params = build_params(cfg, seed=0)
    # keep only a known parameter to make the update arithmetic easy to follow
    theta = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    params.tensors = {"theta": theta}
    return params, theta


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        g = np.array([0.5, -2.0, 3.0, -0.1])
        params, theta = _single_param_setup(np.zeros(4))
        theta.grad = g.copy()
        cfg = TrainConfig(lr=1e-4)
        adam_step(params, AdamState(params), cfg)
        np.testing.assert_allclose(theta.data, -cfg.lr * np.sign(g),
                                   rtol=0, atol=cfg.lr * 1e-6)
        assert np.max(np.abs(theta.data)) <= cfg.lr * (1.0 + 1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_algorithm_1(self, dtype):
        # Kingma & Ba's Algorithm 1 at β1 = 0.95, β2 = 0.999 and ε = 1e-8,
        # each operation in adam_step's order and dtype, so the bits match
        rng = np.random.default_rng(3)
        params, theta = _single_param_setup(0.0)
        theta.data = rng.standard_normal(5).astype(dtype)
        state, lr = AdamState(params), 1e-2
        p, m, v = theta.data.copy(), np.zeros(5, dtype), np.zeros(5, dtype)
        for t in range(1, 5):
            g = rng.standard_normal(5).astype(dtype)
            theta.grad = g.copy()
            adam_step(params, state, TrainConfig(lr=lr))
            m = m * 0.95 + (1.0 - 0.95) * g
            v = v * 0.999 + (1.0 - 0.999) * g * g
            p = p - lr * (m / (1.0 - 0.95 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            assert theta.data.dtype == dtype and np.array_equal(theta.data, p), t

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params, theta = _single_param_setup(np.array([1.0, -2.0]))
        theta.grad = np.zeros(2)
        before = theta.data.copy()
        state = AdamState(params)
        for _ in range(3):
            adam_step(params, state, TrainConfig())
        assert np.array_equal(theta.data, before)

    def test_quadratic_objective_decreases(self):
        params, theta = _single_param_setup(1.0)
        state = AdamState(params)
        cfg = TrainConfig(lr=0.1)
        values = [theta.data ** 2]
        for _ in range(10):
            theta.grad = 2.0 * theta.data  # d/dθ of θ²
            adam_step(params, state, cfg)
            values.append(theta.data ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nonfinite_gradient_names_the_parameter(self):
        params, theta = _single_param_setup(np.zeros(3))
        theta.grad = np.array([0.0, np.nan, 1.0])
        with pytest.raises(RuntimeError, match="theta"):
            adam_step(params, AdamState(params), TrainConfig())

    def test_nonfinite_gradient_changes_nothing(self):
        cfg = tiny_config(n_speakers=2)
        params = build_params(cfg, seed=0)
        state = AdamState(params)
        rng = np.random.default_rng(12)
        for t in params.tensors.values():
            t.grad = rng.standard_normal(t.shape)
        adam_step(params, state, TrainConfig(lr=1e-3))   # moments and step now non-zero
        for t in params.tensors.values():
            t.grad = rng.standard_normal(t.shape)
        last = list(params.tensors)[-1]
        params[last].grad.reshape(-1)[-1] = np.nan
        before = ({n: t.data.copy() for n, t in params.tensors.items()},
                  {n: m.copy() for n, m in state.m.items()},
                  {n: v.copy() for n, v in state.v.items()})
        with pytest.raises(RuntimeError, match=f"{last}.*step 2"):
            adam_step(params, state, TrainConfig(lr=1e-3))
        assert state.step == 1
        after = ({n: t.data for n, t in params.tensors.items()}, state.m, state.v)
        for old, new in zip(before, after):
            for name in old:
                assert np.array_equal(old[name], new[name]), name

    def test_missing_gradient_is_skipped(self):
        params, theta = _single_param_setup(np.array([4.0]))
        theta.grad = None
        adam_step(params, AdamState(params), TrainConfig())
        assert theta.data[0] == 4.0


class TestFixedBatchDescent:
    def test_loss_strictly_decreases_and_steps_stay_bounded(self, monkeypatch):
        # dropout off so repeated passes over one batch are deterministic
        monkeypatch.setattr(model, "EMBEDDING_DROPOUT", 0.0)
        cfg = ModelConfig.desk(2)
        params = build_params(cfg, seed=1)
        state = AdamState(params)
        tcfg = TrainConfig()  # default lr
        rng = np.random.default_rng(2)
        frags = np.concatenate([
            random_frags(rng, cfg, batch=8) + 0.5,
            random_frags(rng, cfg, batch=8) - 0.5,
        ])
        labels = np.array([0] * 8 + [1] * 8)

        # With β₁=0.95 > √β₂ the per-entry step can legitimately exceed lr
        # after a gradient spike; (1−β₁)/√(1−β₂) ≈ 1.5811 is the hard ceiling.
        ceiling = tcfg.lr * (1.0 - BETA1) / np.sqrt(1.0 - BETA2) * (1 + 1e-9)
        losses = []
        for _ in range(5):
            params.zero_grads()
            before = {k: t.data.copy() for k, t in params.tensors.items()}
            with hv.record():
                logits, _ = forward_batch(frags, params, cfg, training=True)
                loss = cross_entropy(logits, labels)
            hv.backward(loss)
            adam_step(params, state, tcfg)
            losses.append(loss.item())
            for name, t in params.tensors.items():
                step = np.abs(t.data - before[name])
                assert np.max(step) <= ceiling, name
                assert np.all(np.isfinite(state.m[name]))
                assert np.all(np.isfinite(state.v[name]))
        assert all(b < a for a, b in zip(losses, losses[1:]))


def test_desk_training_step_tape_stays_small():
    # One node for the BiGRU: a per-time-step op chain would put hundreds
    # of nodes on this tape (482 with ten steps of 22 ops each); one for
    # each dense layer, its bias included; six for each h-vector attention
    # site, whose weights come out in the (..., T, 1) shape that multiplies
    # the rows, with no reshape on either side of the softmax.
    nodes = {}
    for mode in MODES:
        cfg = ModelConfig.desk(4, mode=mode)
        params = build_params(cfg, seed=0)
        rng = np.random.default_rng(8)
        frags = random_frags(rng, cfg, batch=8)
        with hv.record() as graph:
            logits, _ = forward_batch(frags, params, cfg, training=True,
                                      rng=np.random.default_rng(9))
            loss = cross_entropy(logits, np.arange(8) % 4)
        hv.backward(loss)
        nodes[mode] = len(graph.nodes)
    assert nodes == {"hvector": 31, "xvector": 27, "xvector_attn": 32}


def test_finished_step_is_freed_without_the_cycle_collector():
    cfg = ModelConfig.desk(4)
    params = build_params(cfg, seed=0)
    rng = np.random.default_rng(8)
    frags = random_frags(rng, cfg, batch=8)
    # with the cycle collector off, only reference counting can free the step
    gc.disable()
    try:
        trace = {}
        with hv.record():
            logits, _ = forward_batch(frags, params, cfg, training=True,
                                      rng=np.random.default_rng(9), trace=trace)
            loss = cross_entropy(logits, np.arange(8) % 4)
        hv.backward(loss)
        activation = weakref.ref(trace["frame_encoded"].data)
        del trace, logits, loss
        assert activation() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_step_computes_in_the_parameters_dtype(mode, dtype):
    # numpy 2 upcasts float32 mixed with any float64 array, 0-d ones included,
    # so one stray float64 constant would show up on the tape
    cfg = tiny_config(n_speakers=3, mode=mode)
    params = build_params(cfg, seed=0).astype(dtype)
    rng = np.random.default_rng(13)
    frags = random_frags(rng, cfg, batch=4)
    with hv.record() as graph:
        logits, _ = forward_batch(frags, params, cfg, training=True,
                                  rng=np.random.default_rng(14))
        loss = cross_entropy(logits, np.arange(4) % 3)
    assert {node.out.dtype for node in graph.nodes} == {np.dtype(dtype)}
    # the features are cast before the first layer, not mixed into it
    same, _ = forward_batch(frags.astype(dtype), params, cfg, training=True,
                            rng=np.random.default_rng(14))
    assert np.array_equal(same.data, logits.data)
    hv.backward(loss)
    assert {t.grad.dtype for t in params.tensors.values()} == {np.dtype(dtype)}
    state = AdamState(params)
    adam_step(params, state, TrainConfig(lr=1e-3))
    kept = [t.data for t in params.tensors.values()] + list(params.buffers.values())
    kept += list(state.m.values()) + list(state.v.values())
    assert {a.dtype for a in kept} == {np.dtype(dtype)}
    assert embed_batch(toy_features(rng, cfg, 2), params, cfg).dtype == np.float64


class TestTrainLoop:
    def test_two_synthetic_speakers_reach_95_percent(self, tmp_path):
        manifest = synth_corpus(2, 20, 1.0, seed=11, out_dir=tmp_path)
        train_m, dev_m = split(manifest, 0.9, seed=11)

        def featurize(m):
            return [split_fragments(mfcc_frames(load_wav(e.path)),
                                    e.utterance_id, e.speaker_id)
                    for e in m.entries]

        cfg = ModelConfig.desk(2)
        tcfg = TrainConfig(epochs=30, seed=0, stop_at_dev_acc=0.95)
        _, history = train(featurize(train_m), featurize(dev_m), cfg, tcfg)
        assert len(history) <= 30
        assert max(h.dev_acc for h in history) >= 0.95

    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(3)
        feats = toy_features(rng, cfg, 6)
        tcfg = TrainConfig(lr=0.0, epochs=2, seed=5, batch_size=4)
        params, history = train(feats[:8], feats[8:], cfg, tcfg)
        # train draws the float64 build_params weights and computes in float32
        fresh = build_params(cfg, seed=5).astype(np.float32)
        assert len(history) == 2
        for name, t in fresh.tensors.items():
            assert params[name].dtype == np.float32
            assert np.array_equal(params[name].data, t.data), name

    def test_same_seed_reproduces_the_loss_trajectory(self):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(4)
        feats = toy_features(rng, cfg, 5)
        runs = []
        for _ in range(2):
            tcfg = TrainConfig(lr=1e-3, epochs=3, seed=7, batch_size=4)
            _, history = train(feats[:8], feats[8:], cfg, tcfg)
            runs.append(history)
        assert runs[0][0].line() == runs[1][0].line()
        for a, b in zip(runs[0], runs[1]):
            assert a.loss == b.loss
            assert a.dev_acc == b.dev_acc

    def test_empty_sets_rejected(self):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(5)
        feats = toy_features(rng, cfg, 2)
        with pytest.raises(ValueError, match="empty"):
            train([], feats, cfg, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="empty"):
            train(feats, [], cfg, TrainConfig(epochs=1))

    def test_unknown_dev_speaker_rejected(self):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(6)
        feats = toy_features(rng, cfg, 3)
        stranger = toy_features(rng, cfg, 1, speakers=("zz",))
        with pytest.raises(ValueError, match="zz"):
            train(feats, stranger, cfg, TrainConfig(epochs=1))

    def test_speaker_count_mismatch_rejected(self):
        cfg = tiny_config(n_speakers=3)
        rng = np.random.default_rng(7)
        feats = toy_features(rng, cfg, 3)
        with pytest.raises(ValueError, match="expects 3 speakers"):
            train(feats, feats, cfg, TrainConfig(epochs=1))

    def test_log_file_and_best_checkpoint(self, tmp_path):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(8)
        feats = toy_features(rng, cfg, 8, spread=2.0)
        dev = feats[12:]
        tcfg = TrainConfig(lr=1e-3, epochs=4, seed=1, batch_size=4)
        ckpt = tmp_path / "model.hvt"
        log = tmp_path / "train.log"
        params, history = train(feats[:12], dev, cfg, tcfg,
                                checkpoint_path=ckpt, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == len(history)
        assert all(len(line.split("\t")) == 4 for line in lines)
        assert lines[0] == history[0].line()

        assert params.speakers == ["a", "b"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["model.hvt", "train.log"]
        loaded, cfg2 = load_checkpoint(ckpt)
        assert loaded.speakers == params.speakers
        labels = np.array([params.speakers.index(u.speaker_id) for u in dev])
        best = max(h.dev_acc for h in history)
        assert classify_accuracy(dev, labels, loaded, cfg2) == best

    def test_log_is_replaced_whole_each_epoch(self, tmp_path, monkeypatch):
        cfg = tiny_config(n_speakers=2)
        feats = toy_features(np.random.default_rng(8), cfg, 8, spread=2.0)
        log = tmp_path / "train.log"
        log.write_text("a stale line\n")
        written = []
        atomic_write = hv.atomic_write

        @contextlib.contextmanager
        def spy(path, *args, **kwargs):
            with atomic_write(path, *args, **kwargs) as fh:
                yield fh
            written.append(Path(path).read_text())

        monkeypatch.setattr(hv, "atomic_write", spy)
        _, history = train(feats[:12], feats[12:], cfg,
                           TrainConfig(lr=1e-3, epochs=3, seed=1, batch_size=4),
                           log_path=log)
        lines = [h.line() + "\n" for h in history]
        assert len(history) == 3
        assert written == ["".join(lines[:k]) for k in range(1, 4)]
        assert [p.name for p in tmp_path.iterdir()] == ["train.log"]

    def test_failed_speaker_list_write_keeps_the_previous_checkpoint(
            self, tmp_path, monkeypatch):
        cfg = tiny_config(n_speakers=2)
        feats = toy_features(np.random.default_rng(8), cfg, 4, spread=2.0)
        ckpt = tmp_path / "model.hvt"
        train(feats, feats, cfg, TrainConfig(epochs=1, seed=1), checkpoint_path=ckpt)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class FullDisk:
            """Fails the write of the speaker list, inside the checkpoint."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if data == "a\nb\n".encode("utf-32-le"):   # stored as .npy unicode
                    raise OSError("no space left on device")
                return self.fh.write(data)

        def full_disk(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return FullDisk(fh) if Path(file).name.startswith(".model.hvt.") else fh

        monkeypatch.setattr(hv, "open", full_disk, raising=False)
        with pytest.raises(OSError, match="no space"):
            train(feats, feats, cfg, TrainConfig(epochs=1, seed=2), checkpoint_path=ckpt)
        # the speaker list is part of the one checkpoint file, which stays whole
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_early_stop_honours_threshold(self):
        cfg = tiny_config(n_speakers=2)
        rng = np.random.default_rng(9)
        feats = toy_features(rng, cfg, 8, spread=3.0)
        tcfg = TrainConfig(lr=1e-2, epochs=30, seed=2, batch_size=8,
                           stop_at_dev_acc=1.0)
        _, history = train(feats[:12], feats[12:], cfg, tcfg)
        assert history[-1].dev_acc >= 1.0
        assert len(history) < 30

    @pytest.mark.parametrize("mode", ["hvector", "xvector"])
    def test_mixed_window_lengths_train_predict_and_embed(self, mode, monkeypatch):
        cfg = tiny_config(n_speakers=2, mode=mode)
        rng = np.random.default_rng(11)
        feats = toy_features(rng, cfg, 8, spread=2.0)
        # as from two `prepare` runs with different --len: half the windows
        # have fragments half as long
        short = cfg.frames_per_fragment // 2
        for u in feats[::2]:
            u.fragments = u.fragments[:, :short].copy()
        tcfg = TrainConfig(lr=1e-3, epochs=1, seed=3, batch_size=4)
        params, history = train(feats[:12], feats[12:], cfg, tcfg)
        assert len(history) == 1

        set_inference_batch(monkeypatch, cfg, 3)   # each length in 3, 3 and 2
        preds = predict(feats, params, cfg)
        table = embed_batch(feats, params, cfg)
        for idx in (np.arange(0, len(feats), 2), np.arange(1, len(feats), 2)):
            group = [feats[i] for i in idx]
            logits, emb = forward_batch(np.stack([u.fragments for u in group]),
                                        params, cfg)
            np.testing.assert_array_equal(preds[idx], np.argmax(logits.data, axis=1))
            np.testing.assert_allclose(table[idx], emb.data, rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(lr=-1e-4)
        with pytest.raises(ValueError, match="at least 1"):
            TrainConfig(batch_size=0)
        for bad, match in [({"lr": np.nan}, "lr must be finite"),
                           ({"seed": -1}, "seed must be non-negative"),
                           ({"stop_at_dev_acc": np.nan}, r"stop_at_dev_acc must lie in \[0, 1\]")]:
            with pytest.raises(ValueError, match=match):
                TrainConfig(**bad)
