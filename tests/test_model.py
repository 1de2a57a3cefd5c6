import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvector
from hvector import model
from hvector import tensor as hv
from hvector.audio import AudioClip, UtteranceFeatures, save_wav
from hvector.cli import main
from hvector.corpus import Manifest, ManifestEntry
from hvector.model import (
    MODES,
    ModelConfig,
    attention_normalize,
    batches,
    build_params,
    embed_batch,
    forward_batch,
    frame_attention,
    frame_encode,
    load_checkpoint,
    save_checkpoint,
    segment_attention,
    segment_encode,
)
from hvector.scoring import (
    EmbeddingRecord, save_eer_report, save_embeddings, save_score_matrix,
)
from hvector.tensor import Tensor
from hvector.train import TrainConfig, classify_accuracy, predict

from helpers import set_inference_batch, tiny_config


def labelled(params, cfg):
    """`params` with a speaker id per output class, as `train` sets them."""
    params.speakers = [f"spk{i}" for i in range(cfg.n_speakers)]
    return params


def save_legacy_checkpoint(path, params, cfg):
    """The older layout: a weights-only archive, with the config and the
    speaker list in model.cfg and model.spk beside it."""
    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update({"buffer." + name: b for name, b in params.buffers.items()})
    hv.save_archive(path, arrays)
    Path(path).with_suffix(".cfg").write_text(cfg.to_text(), encoding="utf-8")
    Path(path).with_suffix(".spk").write_text(
        "".join(f"{s}\n" for s in params.speakers), encoding="utf-8")


def desk_cfg(mode="hvector", n_speakers=5):
    return ModelConfig.desk(n_speakers, mode=mode)


def random_frags(rng, cfg, batch=3):
    return rng.standard_normal(
        (batch, cfg.n_fragments, cfg.frames_per_fragment, cfg.feat_dim))


class TestConfig:
    @pytest.mark.parametrize("preset", [ModelConfig, ModelConfig.desk])
    @pytest.mark.parametrize("mode", MODES)
    def test_text_roundtrip(self, preset, mode):
        cfg = preset(7, mode=mode)
        assert ModelConfig.from_text(cfg.to_text()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^line 2: unknown config key 'widgets'"):
            ModelConfig.from_text("n_speakers=3\nwidgets=4\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="^line 1: expected key=value"):
            ModelConfig.from_text("n_speakers\n")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ModelConfig(n_speakers=3, mode="zvector")

    def test_bad_dropout_rejected(self):
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(n_speakers=3, dropout=1.0)

    def test_default_dimensions(self):
        cfg = ModelConfig(n_speakers=100)
        assert cfg.frame_cnn_out == 512
        assert cfg.frame_out_dim == 1024
        assert cfg.seg_cnn_out == 1500
        assert cfg.frames_per_fragment == 30

    # from_text reads what to_text writes and nothing else
    @pytest.mark.parametrize("before, message", [
        ("\n", "line 1: expected key=value, got ''"),
        ("# saved config\n", "line 1: expected key=value, got '# saved config'"),
        ("n_speakers=5\n", "line 2: config key 'n_speakers' given twice"),
        ("dropout=0.5\nn_speakers\n", "line 2: expected key=value, got 'n_speakers'"),
    ])
    def test_other_lines_rejected(self, before, message):
        text = before + ModelConfig(n_speakers=4).to_text()
        with pytest.raises(ValueError) as exc:
            ModelConfig.from_text(text)
        assert str(exc.value) == message


class TestBuildParams:
    def test_deterministic_by_seed(self):
        cfg = tiny_config()
        a = build_params(cfg, seed=5)
        b = build_params(cfg, seed=5)
        c = build_params(cfg, seed=6)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data)
        assert not np.array_equal(a["fc1.w"].data, c["fc1.w"].data)

    def test_hvector_shapes(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=0)
        assert p["frame_conv.w"].shape == (5, 20, 64)
        assert p["gru_f.wz"].shape == (64, 32)
        assert p["gru_b.uh"].shape == (32, 32)
        assert p["frame_att.w0"].shape == (64, 64)
        assert p["frame_att.w1"].shape == (64, 1)
        assert p["seg_conv.w"].shape == (1, 128, 64)
        assert p["seg_att.w0"].shape == (64, 64)
        assert p["fc1.w"].shape == (128, 64)
        assert p["out.w"].shape == (64, 5)

    def test_xvector_shapes(self):
        cfg = desk_cfg(mode="xvector")
        p = build_params(cfg, seed=0)
        assert p["conv1.w"].shape == (5, 20, 64)
        assert p["conv2.w"].shape == (3, 64, 64)
        assert p["conv4.w"].shape == (1, 64, 64)
        assert p["conv5.w"].shape == (1, 64, 64)
        assert p["fc1.w"].shape == (128, 64)
        assert "att.w1" not in p.tensors

    def test_biases_zero_and_gains_one(self):
        p = build_params(tiny_config(), seed=2)
        assert np.all(p["frame_conv.b"].data == 0.0)
        assert np.all(p["gru_f.bz"].data == 0.0)
        assert np.all(p["frame_bn.gamma"].data == 1.0)
        assert np.all(p["frame_bn.beta"].data == 0.0)
        assert np.all(p.buffers["frame_bn.var"] == 1.0)

    def test_weight_scale_bound(self):
        p = build_params(tiny_config(), seed=3)
        w = p["fc1.w"]
        assert np.max(np.abs(w.data)) <= 1.0 / np.sqrt(w.shape[0])
        conv = p["frame_conv.w"]
        fan_in = conv.shape[0] * conv.shape[1]
        assert np.max(np.abs(conv.data)) <= 1.0 / np.sqrt(fan_in)


class TestForwardShapes:
    def test_hvector_trace(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        frags = random_frags(rng, cfg, batch=3)
        trace = {}
        logits, emb = forward_batch(frags, p, cfg, trace=trace)
        assert logits.shape == (3, 5)
        assert emb.shape == (3, 64)
        assert trace["frame_encoded"].shape == (30, 10, 64)
        assert trace["frame_alpha"].shape == (30, 10)
        assert trace["segments"].shape == (3, 10, 128)
        assert trace["segment_encoded"].shape == (3, 10, 64)
        assert trace["seg_alpha"].shape == (3, 10)
        assert trace["utterance_vector"].shape == (3, 128)

    def test_xvector_trace(self):
        cfg = desk_cfg(mode="xvector")
        p = build_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        frags = random_frags(rng, cfg, batch=2)
        trace = {}
        logits, emb = forward_batch(frags, p, cfg, trace=trace)
        assert logits.shape == (2, 5)
        assert emb.shape == (2, 64)
        assert trace["frame_encoded"].shape == (2, 100, 64)
        assert trace["frame_alpha"] is None
        assert trace["utterance_vector"].shape == (2, 128)

    def test_wrong_rank_rejected(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=0)
        with pytest.raises(ValueError, match=r"\(B, N, M, F\)"):
            forward_batch(np.zeros((10, 10, 20)), p, cfg)

    def test_wrong_feat_dim_rejected(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=0)
        with pytest.raises(ValueError, match="feat_dim"):
            forward_batch(np.zeros((1, 10, 10, 13)), p, cfg)


class TestDegenerateCases:
    @pytest.mark.parametrize("mode", ["hvector", "xvector", "xvector_attn"])
    def test_all_zero_parameters_give_zero_outputs(self, mode):
        cfg = desk_cfg(mode=mode)
        p = build_params(cfg, seed=0)
        for t in p.tensors.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(3)
        frags = random_frags(rng, cfg, batch=2)
        logits, emb = forward_batch(frags, p, cfg)
        assert np.all(logits.data == 0.0)
        assert np.all(emb.data == 0.0)

    def test_zero_scorer_gives_uniform_attention(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=4)
        p["frame_att.w1"].data[...] = 0.0
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 9, cfg.frame_out_dim))
        pooled, alpha = frame_attention(h, p)
        assert np.array_equal(alpha.data, np.full((4, 9), 1.0 / 9.0))
        expected = hv.stats_pool(Tensor(h * (1.0 / 9.0)))
        assert np.array_equal(pooled.data, expected.data)

    def test_single_row_attention_passes_row_through(self):
        cfg = desk_cfg()
        p = build_params(cfg, seed=6)
        rng = np.random.default_rng(7)
        row = rng.standard_normal((1, 1, cfg.frame_out_dim))
        pooled, alpha = frame_attention(row, p)
        e = cfg.frame_out_dim
        assert np.array_equal(alpha.data, np.ones((1, 1)))
        assert np.array_equal(pooled.data[0, :e], row[0, 0])
        # identical "population" of one row: the variance floor sets the std
        assert np.allclose(pooled.data[0, e:], 1e-6, rtol=0, atol=0)

    def test_attentive_pooling_with_zero_scorer_matches_plain_xvector(self):
        cfg_a = desk_cfg(mode="xvector_attn")
        pa = build_params(cfg_a, seed=8)
        pa["att.w1"].data[...] = 0.0
        cfg_x = desk_cfg(mode="xvector")
        px = build_params(cfg_x, seed=9)
        for name, t in px.tensors.items():
            t.data[...] = pa[name].data
        rng = np.random.default_rng(10)
        frags = random_frags(rng, cfg_x, batch=3)
        la, ea = forward_batch(frags, pa, cfg_a)
        lx, ex = forward_batch(frags, px, cfg_x)
        assert np.array_equal(la.data, lx.data)
        assert np.array_equal(ea.data, ex.data)


class TestGruDirections:
    def test_backward_pass_is_forward_on_reversed_input(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=11)
        p, q = params.gru("gru_f"), params.gru("gru_b")
        rng = np.random.default_rng(12)
        seq = rng.standard_normal((2, 5, cfg.frame_cnn_out))
        h = cfg.gru_hidden
        out = hv.bigru_sequence(Tensor(seq), p, q).data
        flipped = hv.bigru_sequence(Tensor(seq[:, ::-1].copy()), q, p).data[:, ::-1]
        # each half of one run is the other half of the run on reversed input
        assert np.array_equal(out[..., h:], flipped[..., :h])
        assert np.array_equal(out[..., :h], flipped[..., h:])

    def test_zero_input_zero_state_stays_zero(self):
        cfg = tiny_config()
        params = build_params(cfg, seed=13)
        p, q = params.gru("gru_f"), params.gru("gru_b")
        for k in ("bz", "br", "bh"):
            p[k].data[...] = q[k].data[...] = 0.0
        out = hv.bigru_sequence(Tensor(np.zeros((1, 4, cfg.frame_cnn_out))), p, q)
        assert np.all(out.data == 0.0)


def _np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _np_conv_same(x, w, b):
    width = w.shape[0]
    pad = (width - 1) // 2
    batch, steps, _ = x.shape
    xp = np.zeros((batch, steps + 2 * pad, x.shape[2]))
    xp[:, pad:pad + steps] = x
    out = np.stack(
        [sum(xp[:, t + d] @ w[d] for d in range(width)) for t in range(steps)],
        axis=1,
    )
    return out + b


def _np_bn_inference(x, gamma, beta, mean, var):
    return gamma * (x - mean) / np.sqrt(var + 1e-5) + beta


def _np_gru(seq, p, reverse):
    batch, steps, _ = seq.shape
    hidden = p["uz"].shape[0]
    state = np.zeros((batch, hidden))
    outs = [None] * steps
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        xt = seq[:, t]
        z = _np_sigmoid(xt @ p["wz"].data + state @ p["uz"].data + p["bz"].data)
        r = _np_sigmoid(xt @ p["wr"].data + state @ p["ur"].data + p["br"].data)
        c = np.tanh(xt @ p["wh"].data + (r * state) @ p["uh"].data + p["bh"].data)
        state = (1.0 - z) * c + z * state
        outs[t] = state
    return np.stack(outs, axis=1)


def _np_attention(h, p, prefix):
    z = np.maximum(h @ p[f"{prefix}.w0"].data + p[f"{prefix}.b0"].data, 0.0)
    scores = (z @ p[f"{prefix}.w1"].data)[..., 0]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True))[..., None]


def _np_attend_pool(h, p, prefix):
    """The h-vector sites' rule: the plain mean and std of alpha * h."""
    rows = h * _np_attention(h, p, prefix)
    mu = rows.mean(axis=-2)
    var = np.maximum((rows ** 2).mean(axis=-2) - mu ** 2, 1e-12)
    return np.concatenate([mu, np.sqrt(var)], axis=-1)


def _np_weighted_stats(h, p, prefix):
    """xvector_attn's rule, attentive statistics pooling: the alpha-weighted
    mean and std of h."""
    alpha = _np_attention(h, p, prefix)
    mu = (alpha * h).sum(axis=-2)
    var = np.maximum((alpha * (h - mu[..., None, :]) ** 2).sum(axis=-2), 1e-12)
    return np.concatenate([mu, np.sqrt(var)], axis=-1)


class TestAgainstHandwrittenPipeline:
    @staticmethod
    def _setup(mode, seed):
        """Tiny params with non-trivial normalisation, so the check has teeth."""
        cfg = tiny_config(n_speakers=4, mode=mode)
        p = build_params(cfg, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for name, buf in p.buffers.items():
            if name.endswith(".var"):
                buf[...] = rng.uniform(0.5, 2.0, buf.shape)
            else:
                buf[...] = rng.uniform(-0.5, 0.5, buf.shape)
        for name, t in p.tensors.items():
            if ".gamma" in name or ".beta" in name:
                t.data[...] = rng.uniform(0.5, 1.5, t.shape)

        def bn(x, name):
            return _np_bn_inference(
                x, p[f"{name}.gamma"].data, p[f"{name}.beta"].data,
                p.buffers[f"{name}.mean"], p.buffers[f"{name}.var"])

        return cfg, p, random_frags(rng, cfg, batch=2), bn

    @staticmethod
    def _check_head(got, utt, p, bn):
        got_logits, got_emb = got
        emb = bn(np.maximum(utt @ p["fc1.w"].data + p["fc1.b"].data, 0.0), "fc1_bn")
        z2 = np.maximum(emb @ p["fc2.w"].data + p["fc2.b"].data, 0.0)
        logits = z2 @ p["out.w"].data + p["out.b"].data
        np.testing.assert_allclose(got_emb.data, emb, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got_logits.data, logits, rtol=1e-9, atol=1e-12)

    def test_hvector_inference_matches_plain_numpy(self):
        cfg, p, frags, bn = self._setup("hvector", 14)
        batch, n_frag, m, feat = frags.shape
        x = frags.reshape(batch * n_frag, m, feat)
        h = bn(np.maximum(_np_conv_same(x, p["frame_conv.w"].data,
                                        p["frame_conv.b"].data), 0.0), "frame_bn")
        enc = np.concatenate(
            [_np_gru(h, p.gru("gru_f"), False), _np_gru(h, p.gru("gru_b"), True)],
            axis=-1,
        )
        segments = _np_attend_pool(enc, p, "frame_att").reshape(batch, n_frag, -1)
        seg = bn(np.maximum(segments @ p["seg_conv.w"].data[0]
                            + p["seg_conv.b"].data, 0.0), "seg_bn")
        utt = _np_attend_pool(seg, p, "seg_att")
        self._check_head(forward_batch(frags, p, cfg), utt, p, bn)

    def test_xvector_attn_inference_matches_plain_numpy(self):
        cfg, p, frags, bn = self._setup("xvector_attn", 20)
        batch, n_frag, m, feat = frags.shape
        h = frags.reshape(batch, n_frag * m, feat)
        for i in range(1, 6):
            conv = _np_conv_same(h, p[f"conv{i}.w"].data, p[f"conv{i}.b"].data)
            h = bn(np.maximum(conv, 0.0), f"bn{i}")
        utt = _np_weighted_stats(h, p, "att")
        self._check_head(forward_batch(frags, p, cfg), utt, p, bn)


def _reshape_chain_weights(h, p, name):
    """The attention weights built with reshapes, kept as the sites' oracle:
    (..., T, 1) scores squeezed to (..., T) for attention_normalize, the map
    acceptance criterion 3 checks."""
    z = hv.relu(hv.matmul(h, p[f"{name}.w0"], p[f"{name}.b0"]))
    return attention_normalize(hv.reshape(hv.matmul(z, p[f"{name}.w1"]), h.shape[:-1]))


def _reshape_chain_attend_and_pool(h, p, name):
    """The h-vector sites' oracle: the (..., T) weights reshaped back to
    (..., T, 1) to multiply h, then stats pooling.  8 tape nodes."""
    alpha = _reshape_chain_weights(h, p, name)
    return hv.stats_pool(hv.mul(h, hv.reshape(alpha, alpha.shape + (1,)))), alpha


@settings(max_examples=200, deadline=None)
@given(lead=st.lists(st.integers(1, 4), max_size=2), t=st.integers(1, 40),
       dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.floats(0.1, 100.0), seed=st.integers(0, 2**32 - 1))
def test_softmax_over_a_unit_last_axis_is_bit_equal(lead, t, dtype, scale, seed):
    """softmax(s[..., None], axis=-2)[..., 0] is softmax(s, axis=-1), bit for
    bit in value and gradient: what lets the sites drop their reshapes."""
    rng = np.random.default_rng(seed)
    s = (rng.standard_normal((*lead, t)) * scale).astype(dtype)
    g = rng.standard_normal((*lead, t)).astype(dtype)
    flat, column = Tensor(s, requires_grad=True), Tensor(s, requires_grad=True)
    with hv.record():
        want = hv.softmax(flat, axis=-1)
        loss = hv.tsum(hv.mul(want, g))
    hv.backward(loss)
    with hv.record():
        got = hv.softmax(hv.reshape(column, (*lead, t, 1)), axis=-2)
        loss = hv.tsum(hv.mul(got, g[..., None]))
    hv.backward(loss)
    assert np.array_equal(got.data[..., 0], want.data)
    assert np.array_equal(column.grad, flat.grad)


class TestAttentionSitesMatchTheReshapeChain:
    """Each attention site softmaxes its (..., T, 1) scores over the rows and
    multiplies h by the result as it comes; the reshape chain above is the
    oracle, and every value and gradient must equal it bit for bit."""

    @staticmethod
    def _step(cfg, params, frags):
        """Trace, logits and parameter gradients of one training step."""
        params = params.clone()
        trace = {}
        with hv.record():
            logits, _ = forward_batch(frags, params, cfg, training=True,
                                      rng=np.random.default_rng(2), trace=trace)
            cotangent = np.random.default_rng(3).standard_normal(logits.shape)
            loss = hv.tsum(hv.mul(logits, cotangent.astype(params.dtype)))
        hv.backward(loss)
        return trace, logits, {k: t.grad for k, t in params.tensors.items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 9, 10, 29, 30])
    @pytest.mark.parametrize("mode", ["hvector", "xvector_attn"])
    def test_training_step_is_bit_equal(self, monkeypatch, mode, rows, dtype):
        # h-vector: `rows` frames per fragment at the frame site, whose input
        # is the flattened (B*N, M, E) stack, and `rows` segments at the
        # segment site; xvector_attn: one fragment of `rows` frames
        n_frag = rows if mode == "hvector" else 1
        cfg = dataclasses.replace(tiny_config(mode=mode), n_fragments=n_frag,
                                  frames_per_fragment=rows)
        params = build_params(cfg, seed=rows).astype(dtype)
        frags = random_frags(np.random.default_rng(rows), cfg, batch=2)
        trace, logits, grads = self._step(cfg, params, frags)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_attend_and_pool", _reshape_chain_attend_and_pool)
            patch.setattr(model, "_attention_weights", _reshape_chain_weights)
            want_trace, want_logits, want_grads = self._step(cfg, params, frags)
        sites = ([("frame_encoded", "frame_alpha", "segments"),
                  ("segment_encoded", "seg_alpha", "utterance_vector")]
                 if mode == "hvector" else
                 [("frame_encoded", "frame_alpha", "utterance_vector")])
        for h, alpha, pooled in sites:
            assert trace[alpha].shape == trace[h].shape[:-1]
            # the oracle's weights are attention_normalize of the squeezed scores
            assert np.array_equal(trace[alpha].data, want_trace[alpha].data), alpha
            assert np.array_equal(trace[pooled].data, want_trace[pooled].data), pooled
            assert np.array_equal(trace[h].grad, want_trace[h].grad), h
        assert np.array_equal(logits.data, want_logits.data)
        for name, grad in grads.items():
            assert grad.dtype == dtype
            assert np.array_equal(grad, want_grads[name]), name

    @pytest.mark.parametrize("site,name", [(frame_attention, "frame_att"),
                                           (segment_attention, "seg_att")])
    def test_isolated_site_records_six_nodes(self, site, name):
        cfg = desk_cfg()
        p = build_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((6, 10, p[f"{name}.w0"].shape[0])),
                   requires_grad=True)
        with hv.record() as graph:
            pooled, alpha = site(h, p)
        with hv.record() as oracle:
            want_pooled, want_alpha = _reshape_chain_attend_and_pool(h, p, name)
        # dense with bias, relu, dense, softmax, multiply, stats pooling; the
        # weights come back as an off-tape (..., T) view for the trace
        assert (len(graph.nodes), len(oracle.nodes)) == (6, 8)
        assert alpha.node is None and not alpha.requires_grad
        assert np.array_equal(alpha.data, want_alpha.data)
        assert np.array_equal(pooled.data, want_pooled.data)


class TestStageHelpers:
    def test_frame_encode_single_matches_batch_row(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=16)
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((3, cfg.frames_per_fragment, cfg.feat_dim))
        batch = frame_encode(stack, p, cfg)
        single = frame_encode(stack[1:2], p, cfg)
        assert single.shape == (1, cfg.frames_per_fragment, cfg.frame_out_dim)
        np.testing.assert_allclose(single.data[0], batch.data[1], rtol=0, atol=1e-12)

    def test_segment_stages_single_matches_batch_row(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=18)
        rng = np.random.default_rng(19)
        segs = rng.standard_normal((2, cfg.n_fragments, 2 * cfg.frame_out_dim))
        enc = segment_encode(segs, p, cfg)
        assert enc.shape == (2, cfg.n_fragments, cfg.seg_cnn_out)
        enc_single = segment_encode(segs[:1], p, cfg)
        np.testing.assert_allclose(enc_single.data[0], enc.data[0], rtol=0, atol=1e-12)
        pooled, alpha = segment_attention(enc.data[:1], p)
        pooled_all, _ = segment_attention(enc, p)
        assert pooled.shape == (1, 2 * cfg.seg_cnn_out)
        assert alpha.shape == (1, cfg.n_fragments)
        assert abs(float(alpha.data.sum()) - 1.0) < 1e-12
        np.testing.assert_allclose(pooled.data[0], pooled_all.data[0], rtol=0, atol=1e-12)

    def test_embed_batch_matches_per_utterance_forward(self, monkeypatch):
        cfg = tiny_config(n_speakers=3)
        p = build_params(cfg, seed=20)
        rng = np.random.default_rng(21)
        feats = [
            UtteranceFeatures(fragments=random_frags(rng, cfg, batch=1)[0])
            for _ in range(5)
        ]
        set_inference_batch(monkeypatch, cfg, 2)   # batches of 2, 2 and 1
        table = embed_batch(feats, p, cfg)
        assert table.shape == (5, cfg.fc1_dim)
        frags = np.stack([u.fragments for u in feats])
        _, emb = forward_batch(frags, p, cfg)
        np.testing.assert_allclose(table, emb.data, rtol=0, atol=1e-12)


class TestBatches:
    def test_groups_by_shape_in_first_seen_order_and_keeps_given_order(self):
        def utt(m, tag):
            return UtteranceFeatures(np.full((2, m, 3), float(tag)))
        feats = [utt(4, 0), utt(2, 1), utt(4, 2), utt(3, 3),
                 utt(2, 4), utt(4, 5), utt(4, 6)]
        order = [6, 1, 3, 0, 5, 4, 2]
        got = [(idx.tolist(), frags[:, 0, 0, 0].tolist(), frags.shape[2])
               for idx, frags in batches(feats, order, batch_size=2)]
        assert got == [
            ([6, 0], [6.0, 0.0], 4), ([5, 2], [5.0, 2.0], 4),
            ([1, 4], [1.0, 4.0], 2),
            ([3], [3.0], 3),
        ]

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused_by_every_caller(self, batch_size):
        # unchecked, range() refused 0 with its own message and a negative
        # size gave no batch; training sets the only batch size a user picks,
        # and TrainConfig refuses it through batches of nothing
        for call in (lambda: list(batches([], (), batch_size)),
                     lambda: TrainConfig(batch_size=batch_size)):
            with pytest.raises(ValueError, match=f"^batch_size must be at least 1, "
                                                 f"got {batch_size}$"):
                call()


def _full_windows(n, m, seed=0):
    return [UtteranceFeatures(f) for f in
            np.random.default_rng(seed).standard_normal((n, 10, m, 20))]


class TestInferenceBatch:
    """Inference sizes its batch from the model's config and the longest
    window it is given: 64 windows, or as many as keep the widest layer
    output within the budget."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The (windows, fragments, frames) shape of each batch that the
        stubbed forward_batch is given."""
        shapes = []

        def spy(frags, params, cfg, training=False, rng=None, trace=None):
            shapes.append(frags.shape[:3])
            return (Tensor(np.zeros((len(frags), cfg.n_speakers))),
                    Tensor(np.zeros((len(frags), cfg.fc1_dim))))
        monkeypatch.setattr(model, "forward_batch", spy)
        return shapes

    # (config, frames per fragment of the windows given, batch size); a
    # full-preset checkpoint trained on 1-s windows (M = 9) embeds 3-s
    # windows 19 to a batch, as one trained on 3-s windows does
    @pytest.mark.parametrize("cfg, m, size", [
        (tiny_config(), 4, 64),
        *[(ModelConfig.desk(5, mode, frames_per_fragment=9), 9, 64)
          for mode in ("hvector", "xvector", "xvector_attn")],
        *[(ModelConfig(5, mode, frames_per_fragment=trained), m, size)
          for mode in ("hvector", "xvector")
          for trained, m, size in [(29, 29, 19), (30, 30, 18), (9, 29, 19)]],
    ], ids=["tiny", "desk-hvector", "desk-xvector", "desk-xvector_attn",
            "full-hvector-m29", "full-hvector-m30", "full-hvector-m9-embeds-m29",
            "full-xvector-m29", "full-xvector-m30", "full-xvector-m9-embeds-m29"])
    def test_every_inference_pass_runs_the_derived_batch(self, seen, cfg, m, size):
        n = 2 * size + 3
        feats = _full_windows(n, m)
        labels = np.zeros(n, dtype=np.int64)
        for call in (lambda: embed_batch(feats, None, cfg),
                     lambda: predict(feats, None, cfg),
                     lambda: classify_accuracy(feats, labels, None, cfg)):
            seen.clear()
            call()
            assert [shape[0] for shape in seen] == [size, size, 3]

    def test_mixed_windows_batch_by_the_longest(self, seen):
        # 1-s and 3-s windows in one manifest: every batch is sized for 3 s
        cfg = ModelConfig(5, frames_per_fragment=9)
        embed_batch(_full_windows(20, 9) + _full_windows(2, 29), None, cfg)
        assert seen == [(19, 10, 9), (1, 10, 9), (2, 10, 29)]

    def test_full_preset_embedding_holds_a_bounded_batch(self):
        # 40 float32 windows of 3 s: traced peak 157 MB in batches of 19;
        # in one batch of 40 (64 windows a batch, as before) it was 320 MB
        cfg = ModelConfig(n_speakers=10, frames_per_fragment=29)
        params = build_params(cfg, seed=0).astype(np.float32)
        feats = _full_windows(40, 29)
        tracemalloc.start()
        try:
            embed_batch(feats, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20, f"traced peak {peak / 2**20:.0f} MB"


class TestTrainingMode:
    def test_training_updates_normalisation_buffers(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=22)
        before = p.buffers["frame_bn.mean"].copy()
        rng = np.random.default_rng(23)
        frags = random_frags(rng, cfg, batch=2) + 1.5
        forward_batch(frags, p, cfg, training=True,
                      rng=np.random.default_rng(0))
        assert not np.array_equal(p.buffers["frame_bn.mean"], before)

    def test_inference_leaves_buffers_alone(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=24)
        snap = {k: v.copy() for k, v in p.buffers.items()}
        rng = np.random.default_rng(25)
        forward_batch(random_frags(rng, cfg, batch=2), p, cfg)
        for k, v in snap.items():
            assert np.array_equal(p.buffers[k], v)

    def test_training_dropout_requires_generator(self):
        cfg = tiny_config()
        p = build_params(cfg, seed=26)
        rng = np.random.default_rng(27)
        with pytest.raises(ValueError, match="random generator"):
            forward_batch(random_frags(rng, cfg, batch=1), p, cfg, training=True, rng=None)

    def test_training_forward_reproducible_with_same_generator_seed(self):
        cfg = tiny_config()
        rng = np.random.default_rng(28)
        frags = random_frags(rng, cfg, batch=2)
        outs = []
        for _ in range(2):
            p = build_params(cfg, seed=29)
            logits, _ = forward_batch(frags, p, cfg,
                                      training=True, rng=np.random.default_rng(9))
            outs.append(logits.data)
        assert np.array_equal(outs[0], outs[1])


class TestCheckpoint:
    def test_roundtrip_is_exact(self, tmp_path):
        cfg = tiny_config(n_speakers=6, mode="xvector_attn")
        p = labelled(build_params(cfg, seed=30), cfg)
        p.buffers["bn1.mean"][...] = 0.25
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.speakers == p.speakers
        assert set(loaded.tensors) == set(p.tensors)
        for name, t in p.tensors.items():
            assert np.array_equal(loaded[name].data, t.data)
        for name, b in p.buffers.items():
            assert np.array_equal(loaded.buffers[name], b)

    def test_missing_config_file(self, tmp_path):
        # the older layout is refused, with its .cfg and .spk beside it
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=31), cfg)
        path = tmp_path / "model.hvt"
        save_legacy_checkpoint(path, p, cfg)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: no config record, so not a checkpoint that "
                                   "`hvector train` wrote (its <out>/model.hvt)")

    def test_arrays_the_mode_lacks_are_refused(self, tmp_path):
        cfg = tiny_config(mode="xvector_attn")
        path = tmp_path / "model.hvt"
        save_checkpoint(path, labelled(build_params(cfg, seed=39), cfg), cfg)
        records = hv.load_archive(path)
        # the config says xvector: the attention weights would go unused
        xvector = dataclasses.replace(cfg, mode="xvector")
        hv.save_archive(path, {**records, "config": xvector.to_text()})
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == \
            f"{path}: checkpoint holds att.w0, which a mode=xvector model does not have"

    def test_missing_tensor_detected(self, tmp_path):
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=32), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        arrays = hv.load_archive(path)
        del arrays["fc2.w"]
        hv.save_archive(path, arrays)
        with pytest.raises(ValueError, match="fc2.w"):
            load_checkpoint(path)

    def test_shape_mismatch_detected(self, tmp_path):
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=33), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        arrays = hv.load_archive(path)
        arrays["out.w"] = arrays["out.w"][:, :-1]
        hv.save_archive(path, arrays)
        with pytest.raises(ValueError, match="out.w"):
            load_checkpoint(path)
        arrays = hv.load_archive(path)
        arrays["out.w"] = p["out.w"].data
        arrays["buffer.fc1_bn.var"] = np.ones(3)
        hv.save_archive(path, arrays)
        with pytest.raises(ValueError, match="buffer fc1_bn.var"):
            load_checkpoint(path)

    def test_float32_roundtrip_keeps_the_dtype(self, tmp_path):
        cfg = tiny_config(n_speakers=3)
        p = labelled(build_params(cfg, seed=35).astype(np.float32), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        loaded, _ = load_checkpoint(path)
        assert loaded.dtype == np.float32
        for name, t in p.tensors.items():
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name].data, t.data)
        for name, b in p.buffers.items():
            assert loaded.buffers[name].dtype == np.float32
            assert np.array_equal(loaded.buffers[name], b)

    def test_mixed_dtypes_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.hvt"
        save_checkpoint(path, labelled(build_params(cfg, seed=36).astype(np.float32), cfg), cfg)
        arrays = hv.load_archive(path)
        arrays["fc2.w"] = arrays["fc2.w"].astype(np.float64)
        hv.save_archive(path, arrays)
        with pytest.raises(ValueError, match="mix dtypes float32, float64"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode", ["hvector", "xvector"])
    def test_float64_checkpoint_embeds_in_float64(self, tmp_path, mode):
        cfg = tiny_config(n_speakers=3, mode=mode)
        p = labelled(build_params(cfg, seed=37), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        # every array is stored as float64, beside the two text records
        with np.load(path, allow_pickle=False) as npz:
            dtypes = sorted(npz[k].dtype.str for k in npz.files)
        assert [d[:2] for d in dtypes[:2]] == ["<U", "<U"]
        assert dtypes[2:] == ["<f8"] * (len(p.tensors) + len(p.buffers))
        loaded, _ = load_checkpoint(path)
        assert loaded.dtype == np.float64
        rng = np.random.default_rng(38)
        frags = random_frags(rng, cfg, batch=4)
        feats = [UtteranceFeatures(f, f"u{i}", "s") for i, f in enumerate(frags)]
        _, want = forward_batch(frags, p, cfg, training=False)
        assert want.dtype == np.float64
        assert np.array_equal(embed_batch(feats, loaded, cfg), want.data)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=34), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded["out.w"].data, p["out.w"].data)

    def test_one_file_holds_config_and_speakers(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.hvt"
        save_checkpoint(path, labelled(build_params(cfg, seed=40), cfg), cfg)
        assert [f.name for f in tmp_path.iterdir()] == ["model.hvt"]
        records = hv.load_archive(path)
        assert records["config"] == cfg.to_text()
        assert records["speakers"] == "spk0\nspk1\nspk2\n"

    def test_stale_sidecars_are_ignored(self, tmp_path):
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=41), cfg)
        path = tmp_path / "model.hvt"
        save_checkpoint(path, p, cfg)
        (tmp_path / "model.cfg").write_text(tiny_config(n_speakers=2).to_text())
        (tmp_path / "model.spk").write_text("spk2\nspk1\nspk0\n")
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.speakers == p.speakers

    def test_astype_and_clone_copy_the_speakers(self):
        cfg = tiny_config()
        p = labelled(build_params(cfg, seed=42), cfg)
        for copy in (p.clone(), p.astype(np.float32)):
            assert copy.speakers == p.speakers and copy.speakers is not p.speakers
        assert build_params(cfg).clone().speakers is None

    def test_speaker_count_must_match_the_outputs(self, tmp_path):
        cfg = tiny_config(n_speakers=3)
        p = build_params(cfg, seed=43)
        path = tmp_path / "model.hvt"
        with pytest.raises(ValueError, match="0 speaker ids for 3 model outputs"):
            save_checkpoint(path, p, cfg)
        p.speakers = ["a", "b"]
        with pytest.raises(ValueError, match="2 speaker ids for 3 model outputs"):
            save_checkpoint(path, p, cfg)
        assert not path.exists()
        p.speakers = ["a", "b", "c"]
        save_checkpoint(path, p, cfg)
        records = hv.load_archive(path)
        hv.save_archive(path, {**records, "speakers": "a\nb\nc\nd\n"})
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: 4 speaker ids for 3 model outputs"

    @pytest.mark.parametrize("key, value, message", [
        ("fc2.w", "text", "checkpoint record fc2.w should be an array"),
        ("config", np.ones(2), "checkpoint record config should be text"),
        ("speakers", np.ones(2), "checkpoint record speakers should be text"),
        ("speakers", None, "checkpoint record speakers should be text"),
    ], ids=["text under a tensor key", "config as an array", "speakers as an array",
            "no speakers"])
    def test_text_and_arrays_keep_their_places(self, tmp_path, key, value, message):
        cfg = tiny_config()
        path = tmp_path / "model.hvt"
        save_checkpoint(path, labelled(build_params(cfg, seed=44), cfg), cfg)
        records = hv.load_archive(path)
        records[key] = value
        hv.save_archive(path, {k: v for k, v in records.items() if v is not None})
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("mode, digest", [
        ("hvector", "bfff17818940d17d"),
        ("xvector", "70046d8e2ddabbc4"),
        ("xvector_attn", "e2c89d4fdf0d4261"),
    ])
    def test_seeded_weights_are_pinned(self, mode, digest):
        """A seed keeps drawing the same weights, names and order."""
        p = build_params(tiny_config(n_speakers=3, mode=mode), seed=7)
        h = hashlib.sha256()
        for name, t in p.tensors.items():
            h.update(name.encode())
            h.update(repr(t.data.shape).encode())
            h.update(t.data.tobytes())
        for name, b in p.buffers.items():
            h.update(name.encode())
            h.update(b.tobytes())
        assert h.hexdigest()[:16] == digest


class _TornFile:
    """Passes writes through until `tears(chunk)` holds, writes half of that
    chunk, then fails like a full disk."""

    def __init__(self, fh, tears):
        self.fh = fh
        self.tears = tears

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if not self.tears(data):
            return self.fh.write(data)
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def _tear(monkeypatch, prefix, intact=0, at=None):
    """Make the temporary file of the next atomic write to `prefix`* tear:
    after `intact` writes, or, given `at`, at the write of that chunk."""
    def torn_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if not Path(file).name.startswith(prefix):
            return fh
        writes = itertools.count()
        return _TornFile(fh, lambda data: data == at if at is not None
                         else next(writes) >= intact)

    monkeypatch.setattr(hv, "open", torn_open, raising=False)


def _new_model(cfg):
    """A different model, config and label order from `labelled(seed=1)`."""
    new = build_params(cfg, seed=2)
    new.speakers = ["spk2", "spk1", "spk0"]
    return new, dataclasses.replace(cfg, dropout=0.5)


@pytest.mark.parametrize("torn", [".hvt", ".cfg", ".spk"])
def test_failed_checkpoint_write_keeps_the_previous_files(tmp_path, monkeypatch, torn):
    """The config, the speaker list and the weights, once model.cfg, model.spk
    and model.hvt, are records of one file: a tear inside any of them leaves
    the previous checkpoint whole, and no temporary file behind."""
    cfg = tiny_config()
    ckpt = tmp_path / "model.hvt"
    save_checkpoint(ckpt, labelled(build_params(cfg, seed=1), cfg), cfg)
    before = ckpt.read_bytes()
    new, new_cfg = _new_model(cfg)
    payload = {
        ".cfg": new_cfg.to_text(),
        ".spk": "".join(f"{s}\n" for s in new.speakers),
        ".hvt": next(iter(new.tensors.values())).data,
    }[torn]
    # the chunk that holds the record's value: text is stored as UTF-32
    at = np.asarray(payload, "<U" if isinstance(payload, str) else None).tobytes()
    _tear(monkeypatch, ".model.hvt.", at=at)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(ckpt, new, new_cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["model.hvt"]
    assert ckpt.read_bytes() == before


def test_torn_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = tiny_config()
    ckpt = tmp_path / "model.hvt"
    save_checkpoint(ckpt, labelled(build_params(cfg, seed=1), cfg), cfg)
    before = ckpt.read_bytes()
    new, new_cfg = _new_model(cfg)
    for intact in itertools.count():
        _tear(monkeypatch, ".model.hvt.", intact)
        try:
            save_checkpoint(ckpt, new, new_cfg)
            break          # every write got through
        except OSError as exc:
            assert "no space" in str(exc)
        # no temporary file is left behind, and the old file is whole
        assert [p.name for p in tmp_path.iterdir()] == ["model.hvt"], intact
        assert ckpt.read_bytes() == before, intact
    # a tear was tried at least once for every record
    assert intact > 2 + len(new.tensors) + len(new.buffers)
    loaded, cfg2 = load_checkpoint(ckpt)
    assert (loaded.speakers, cfg2) == (new.speakers, new_cfg)


_OUTPUT_WRITERS = {
    "embeddings.csv": lambda p, v: save_embeddings(
        p, [EmbeddingRecord("u", "s", np.full(3, v))]),
    "trials.csv": lambda p, v: save_score_matrix(
        p, ["s"], ["u", "w"], np.full((1, 2), v), np.array([[True, False]])),
    "eer.txt": lambda p, v: save_eer_report(p, v / 10.0, v),
    "clip.wav": lambda p, v: save_wav(p, AudioClip(np.full(400, v / 4.0))),
    "manifest.tsv": lambda p, v: Manifest(
        [ManifestEntry(f"u{i}", "s", f"f{i}.hvt", 98) for i in range(int(v))]).save(p),
}


@pytest.mark.parametrize("name", sorted(_OUTPUT_WRITERS))
def test_failed_output_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    write = _OUTPUT_WRITERS[name]
    path = tmp_path / name
    write(path, 1.0)
    before = path.read_bytes()
    _tear(monkeypatch, f".{name}.")
    with pytest.raises(OSError, match="no space"):
        write(path, 2.0)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert path.read_bytes() == before


# trains a tiny full-preset model on the feature manifest argv[2], embeds
# its windows and scores them, all in the working directory and through
# hvector.cli.main, on CPU argv[1] alone unless it is "-"
_PIPELINE_PROBE = """
import os, sys
if sys.argv[1] != "-":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from hvector.cli import main
manifest = sys.argv[2]
for argv in (["train", "--manifest", manifest, "--out", "run", "--set", "preset=full",
              "--set", "batch_size=4", "--epochs", "2"],
             ["embed", "--manifest", manifest, "--ckpt", "run/model.hvt", "--out", "emb.csv"],
             ["score-ver", "--enrol", "emb.csv", "--eval", "emb.csv", "--out", "ver"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_pipeline_bytes_agree_across_blas_thread_counts(tmp_path):
    """Importing hvector.tensor sets numpy's OpenBLAS to one thread, so a
    full-preset float32 `train`, `embed` and `score-ver` write the same bytes
    whatever OPENBLAS_NUM_THREADS says and on one CPU, where the BiGRU runs
    its two directions in turn.  Before that, 1 and 2 OpenBLAS 0.3.31
    threads on a 2-CPU machine gave full-preset embeddings 7.1e-8 of their
    largest |value| apart."""
    corpus, feats = tmp_path / "corpus", tmp_path / "feats"
    assert main(["synth", "--out", str(corpus), "--speakers", "3", "--utts", "4",
                 "--dur", "3.2", "--seed", "0"]) == 0
    assert main(["prepare", "--manifest", str(corpus / "manifest.tsv"), "--out", str(feats),
                 "--len", "3.0"]) == 0
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(hvector.__file__).resolve().parent.parent)
    ways = {"unset": (None, "-"), "1": ("1", "-"), "2": ("2", "-")}
    if hasattr(os, "sched_setaffinity"):
        ways["one CPU"] = ("2", str(min(os.sched_getaffinity(0))))
    names = ("run/model.hvt", "run/train.log", "emb.csv", "ver/trials.csv", "ver/eer.txt")
    cwds = [tmp_path / f"way{k}" for k in range(len(ways))]

    def run(cwd, threads, cpu):
        cwd.mkdir()
        return subprocess.run(
            [sys.executable, "-c", _PIPELINE_PROBE, cpu, str(feats / "manifest.tsv")],
            cwd=cwd, capture_output=True, text=True, timeout=300,
            env=env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads))

    # two children at a time (~350 MB each): on a 2-CPU machine the four
    # take 11 s this way and 17 s one after another
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(run, cwds, *zip(*ways.values())))
    outputs = {}
    for way, cwd, done in zip(ways, cwds, runs):
        assert done.returncode == 0, done.stderr
        outputs[way] = {name: (cwd / name).read_bytes() for name in names}
    assert len(outputs["unset"]["emb.csv"].splitlines()) == 1 + 12
    for way, files in outputs.items():
        for name in names:
            assert files[name] == outputs["unset"][name], (way, name)
