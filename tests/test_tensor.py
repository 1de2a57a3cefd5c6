"""Tensor core: op semantics, tape replay, and finite-difference checks."""
import io
import os
import signal
import subprocess
import sys
import textwrap
import warnings
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hvector.tensor as hv
from hvector.tensor import Tensor, backward, grad_check, record

from helpers import save_old_archive


def _t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def _fd_scalar(f, theta, h=1e-5):
    """Plain central differences of a scalar function of one tensor."""
    flat = theta.data.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(theta).data)
        flat[i] = orig - h
        lo = float(f(theta).data)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * h)
    return g.reshape(theta.shape)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = hv.matmul(_t(np.eye(2)), _t(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_value(self):
        out = hv.matmul(_t([[1.0, 2.0]]), _t([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            hv.matmul(_t(np.zeros((2, 3))), _t(np.zeros((2, 2))))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.normal(size=(4, 2)))
        a = _t(rng.normal(size=(3, 4)))
        err = grad_check(lambda t: hv.tsum(hv.matmul(t, b)), a)
        assert err < 1e-6

    def test_batched_ndim(self):
        rng = np.random.default_rng(1)
        a = _t(rng.normal(size=(2, 3, 4)))
        b = _t(rng.normal(size=(4, 5)))
        with record():
            out = hv.matmul(a, b)
            loss = hv.tsum(out)
        assert out.shape == (2, 3, 5)
        backward(loss)
        err = grad_check(lambda t: hv.tsum(hv.matmul(a, t)), b)
        assert err < 1e-6

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1), ()])
    def test_bias_of_wrong_shape_is_refused(self, shape):
        with pytest.raises(ValueError) as info:
            hv.matmul(_t(np.zeros((5, 4))), _t(np.zeros((4, 2))), _t(np.zeros(shape)))
        assert str(info.value) == f"matmul shape mismatch: (5, 4) @ (4, 2) + {shape}"

    @settings(deadline=None)
    @given(lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           k=st.integers(1, 8), n=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           bias_dtype=st.sampled_from([np.float32, np.float64]),
           grads=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    def test_bias_gives_the_bits_of_add(self, lead, k, n, dtype, bias_dtype, grads, seed):
        """One lead dimension makes a 2-D, two a 3-D; a is read again after
        the matmul, so its gradient sums two terms in the tape's order."""
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(size=(*lead, k)).astype(dtype),
                  rng.normal(size=(k, n)).astype(dtype),
                  rng.normal(size=n).astype(bias_dtype))
        out_dtype = np.result_type(dtype, bias_dtype)
        probe = Tensor(rng.normal(size=(*lead, n)).astype(out_dtype))
        probe_a = Tensor(rng.normal(size=(*lead, k)).astype(dtype))
        runs = []
        for fused in (True, False):
            a, w, b = (Tensor(x, requires_grad=r) for x, r in zip(arrays, grads))
            with record():
                out = hv.matmul(a, w, b) if fused else hv.add(hv.matmul(a, w), b)
                loss = hv.add(hv.tsum(hv.mul(out, probe)), hv.tsum(hv.mul(a, probe_a)))
            if any(grads):
                backward(loss)
            runs.append([out.data, a.grad, w.grad, b.grad])
        assert runs[0][0].dtype == out_dtype
        for got, want, needed in zip(*runs, (True, *grads)):
            assert (got is None) == (want is None) == (not needed)
            if needed:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestConv1d:
    def test_width_one_identity_kernel(self):
        x = _t(np.arange(12.0).reshape(4, 3))
        k = _t(np.eye(3)[None])
        b = _t(np.zeros(3))
        out = hv.conv1d(x, k, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_output_keeps_time_length(self):
        rng = np.random.default_rng(2)
        x = _t(rng.normal(size=(30, 20)))
        k = _t(rng.normal(size=(5, 20, 8)))
        b = _t(rng.normal(size=8))
        assert hv.conv1d(x, k, b).shape == (30, 8)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        t_len, cin, cout, w = 7, 3, 2, 3
        x = rng.normal(size=(t_len, cin))
        k = rng.normal(size=(w, cin, cout))
        b = rng.normal(size=cout)
        want = np.zeros((t_len, cout))
        pad = w // 2
        for t in range(t_len):
            for o in range(cout):
                acc = b[o]
                for d in range(w):
                    for c in range(cin):
                        src = t + d - pad
                        if 0 <= src < t_len:
                            acc += x[src, c] * k[d, c, o]
                want[t, o] = acc
        got = hv.conv1d(_t(x), _t(k), _t(b)).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            hv.conv1d(_t(np.zeros((5, 2))), _t(np.zeros((4, 2, 2))), _t(np.zeros(2)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = _t(rng.normal(size=(6, 3)))
        k = _t(rng.normal(size=(3, 3, 2)))
        b = _t(rng.normal(size=2))
        assert grad_check(lambda t: hv.tsum(hv.conv1d(t, k, b)), x) < 1e-6
        assert grad_check(lambda t: hv.tsum(hv.conv1d(x, t, b)), k) < 1e-6
        assert grad_check(lambda t: hv.tsum(hv.conv1d(x, k, t)), b) < 1e-6

    @pytest.mark.parametrize("w", [1, 3, 5])
    def test_batched_gradients(self, w):
        rng = np.random.default_rng(5 + w)
        x = _t(rng.normal(size=(3, 6, 2)))
        k = _t(rng.normal(size=(w, 2, 3)))
        b = _t(rng.normal(size=3))
        probe = Tensor(rng.normal(size=(3, 6, 3)))

        def f(x, k, b):
            return hv.tsum(hv.mul(hv.conv1d(x, k, b), probe))

        assert grad_check(lambda t: f(t, k, b), x) < 1e-6
        assert grad_check(lambda t: f(x, t, b), k) < 1e-6
        assert grad_check(lambda t: f(x, k, t), b) < 1e-6


# The former stacked matmul and per-tap conv1d, kept as oracles for the
# one-GEMM ops: each returns the output and the gradients of sum(out * g).

def _stacked_matmul_ref(a, b, g):
    axes = list(range(a.ndim - 1))
    return a @ b, g @ b.T, np.tensordot(a, g, axes=(axes, axes))


def _per_tap_conv1d_ref(x, k, bias, g):
    squeeze = x.ndim == 2
    x, g = (x[None], g[None]) if squeeze else (x, g)
    batch, t, cin = x.shape
    w = k.shape[0]
    pad = w // 2
    xp = np.zeros((batch, t + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad:pad + t] = x
    out = np.broadcast_to(bias, (batch, t, k.shape[2])).copy()
    gk = np.empty_like(k)
    gxp = np.zeros_like(xp)
    for d in range(w):
        out += xp[:, d:d + t] @ k[d]
        gk[d] = np.tensordot(xp[:, d:d + t], g, axes=([0, 1], [0, 1]))
        gxp[:, d:d + t] += g @ k[d].T
    gx = gxp[:, pad:pad + t]
    return (out[0], gx[0]) if squeeze else (out, gx), gk, g.sum(axis=(0, 1))


def _out_and_grads(op, inputs, probe):
    """op(*inputs) and the gradient of sum(op(*inputs) * probe) for each input."""
    ts = [Tensor(v, requires_grad=True) for v in inputs]
    with record():
        out = op(*ts)
        loss = hv.tsum(hv.mul(out, Tensor(probe)))
    backward(loss)
    return [out.data] + [t.grad for t in ts]


_ORACLE_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _term_err(got, want, size):
    """Error over the largest of ``size``, the oracle run on the inputs'
    absolute values: rounding scales with the terms of a sum, so where they
    cancel, error over the sum itself can exceed one rounding."""
    return np.max(np.abs(got - want)) / max(np.max(size), 1e-300)


class TestOneGemmOracles:
    @settings(deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           k=st.integers(1, 8), n=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matmul_matches_stacked(self, lead, k, n, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(*lead, k)).astype(dtype)
        b = rng.normal(size=(k, n)).astype(dtype)
        g = rng.normal(size=(*lead, n)).astype(dtype)
        got = _out_and_grads(hv.matmul, (a, b), g)
        want = _stacked_matmul_ref(a, b, g)
        sizes = _stacked_matmul_ref(abs(a), abs(b), abs(g))
        for x, y, size in zip(got, want, sizes):
            assert x.shape == y.shape and x.dtype == dtype
            assert _term_err(x, y, size) <= _ORACLE_TOL[dtype]

    @settings(deadline=None)
    @given(batch=st.integers(0, 4), t=st.integers(1, 9), cin=st.integers(1, 5),
           cout=st.integers(1, 5), w=st.sampled_from([1, 3, 5]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    # the input gradient is five products that cancel: -0.00251043 against
    # -0.00251046, 1.2e-5 of the sum but 2.1e-8 of the terms' magnitude
    @example(batch=0, t=1, cin=1, cout=5, w=5, dtype=np.float32, seed=5)
    def test_conv1d_matches_per_tap(self, batch, t, cin, cout, w, dtype, seed):
        """batch 0 stands for the 2-D (T, C_in) input."""
        rng = np.random.default_rng(seed)
        lead = (batch,) if batch else ()
        x = rng.normal(size=(*lead, t, cin)).astype(dtype)
        k = rng.normal(size=(w, cin, cout)).astype(dtype)
        bias = rng.normal(size=cout).astype(dtype)
        g = rng.normal(size=(*lead, t, cout)).astype(dtype)
        got = _out_and_grads(hv.conv1d, (x, k, bias), g)
        (out, gx), gk, gb = _per_tap_conv1d_ref(x, k, bias, g)
        (s_out, s_gx), s_gk, s_gb = _per_tap_conv1d_ref(abs(x), abs(k), abs(bias), abs(g))
        for x, y, size in zip(got, (out, gx, gk, gb), (s_out, s_gx, s_gk, s_gb)):
            assert x.shape == y.shape and x.dtype == dtype
            assert _term_err(x, y, size) <= _ORACLE_TOL[dtype]


def _gru_params(d, h, rng=None, zero=False):
    if zero:
        draw = lambda *s: np.zeros(s)
    else:
        draw = lambda *s: rng.normal(size=s) * 0.5
    return {
        "wz": _t(draw(d, h)), "wr": _t(draw(d, h)), "wh": _t(draw(d, h)),
        "uz": _t(draw(h, h)), "ur": _t(draw(h, h)), "uh": _t(draw(h, h)),
        "bz": _t(draw(h)), "br": _t(draw(h)), "bh": _t(draw(h)),
    }


class TestGruCell:
    def test_zero_params_halve_previous_state(self):
        # z = sigma(0) = 0.5 and hcand = 0, so h' = 0.5 * h_prev
        p = _gru_params(3, 4, zero=True)
        v = np.array([[1.0, -2.0, 0.5, 4.0]])
        out = hv.gru_cell(_t(np.zeros((1, 3))), _t(v), p)
        np.testing.assert_allclose(out.data, 0.5 * v, atol=1e-15)

    def test_zero_everything_is_fixed_point(self):
        p = _gru_params(3, 4, zero=True)
        out = hv.gru_cell(_t(np.zeros((1, 3))), _t(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_dim_mismatch(self):
        p = _gru_params(3, 4, zero=True)
        with pytest.raises(ValueError, match="gru_cell dim mismatch"):
            hv.gru_cell(_t(np.zeros((1, 5))), _t(np.zeros((1, 4))), p)

    def test_gradients_all_params(self):
        rng = np.random.default_rng(5)
        p = _gru_params(3, 4, rng)
        x = _t(rng.normal(size=(2, 3)))
        h0 = _t(rng.normal(size=(2, 4)))
        assert grad_check(lambda t: hv.tsum(hv.gru_cell(t, h0, p)), x) < 1e-6
        assert grad_check(lambda t: hv.tsum(hv.gru_cell(x, t, p)), h0) < 1e-6
        for name, param in p.items():
            err = grad_check(lambda t: hv.tsum(hv.gru_cell(x, h0, p)), param)
            assert err < 1e-6, name


def _gru_cell_loop(seq, p, reverse):
    """Reference for one direction of bigru_sequence: one gru_cell per step,
    sliced off the tape."""
    batch, steps, _ = seq.shape
    hidden = p["uz"].shape[0]
    h = Tensor(np.zeros((batch, hidden)))
    outs = [None] * steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h = hv.gru_cell(hv.reshape(hv.slice_axis(seq, 1, t, t + 1), (batch, -1)), h, p)
        outs[t] = hv.reshape(h, (batch, 1, hidden))
    return hv.concat(outs, axis=1)


def _bigru_half(seq, p, reverse):
    """One direction of bigru_sequence as a node of its own: p steps
    through time backwards when ``reverse`` is set, and a zero GRU of the
    same size, whose half is sliced off, runs the other way."""
    zero = {k: Tensor(np.zeros_like(t.data)) for k, t in p.items()}
    h = p["uz"].shape[0]
    pair, lo = ((zero, p), h) if reverse else ((p, zero), 0)
    return hv.slice_axis(hv.bigru_sequence(seq, *pair), -1, lo, lo + h)


class TestGruSequence:
    """Each half of bigru_sequence against gru_cell, its reference."""

    @settings(deadline=None)
    @given(batch=st.integers(1, 4), steps=st.integers(1, 8), d=st.integers(1, 6),
           h=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    # the reverse uz gradient's entries are at most 6.9e-6, sums of terms
    # that cancel, added in one GEMM here and step by step by the reference
    @example(batch=3, steps=3, d=2, h=1, seed=4)
    def test_matches_gru_cell_loop(self, batch, steps, d, h, seed):
        rng = np.random.default_rng(seed)
        p = _gru_params(d, h, rng)        # biases drawn nonzero like the weights
        seq = _t(rng.normal(size=(batch, steps, d)))
        probe = Tensor(rng.normal(size=(batch, steps, h)))
        for reverse in (False, True):
            runs = []
            for op in (_bigru_half, _gru_cell_loop):
                for t in (seq, *p.values()):
                    t.grad = None
                with record():
                    out = op(seq, p, reverse)
                    loss = hv.tsum(hv.mul(out, probe))
                backward(loss)
                runs.append([out.data, seq.grad] + [p[k].grad for k in sorted(p)])
            # every error against the largest entry the run compares: an
            # entry that is small by cancellation has no precision of its own
            scale = max(np.max(np.abs(want)) for want in runs[1])
            for got, want in zip(*runs):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, reverse

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_all_params(self, reverse):
        rng = np.random.default_rng(6)
        p = _gru_params(3, 4, rng)
        seq = _t(rng.normal(size=(2, 5, 3)))
        probe = Tensor(rng.normal(size=(2, 5, 4)))

        def f(t):
            return hv.tsum(hv.mul(_bigru_half(seq, p, reverse), probe))

        for name, param in p.items():
            assert grad_check(f, param) < 1e-6, name

    def test_shape_errors_name_the_shapes(self):
        p = _gru_params(3, 4, zero=True)
        with pytest.raises(ValueError, match=r"bigru_sequence expects \(B, T, D\).*\(5, 3\)"):
            hv.bigru_sequence(_t(np.zeros((5, 3))), p, p)
        with pytest.raises(ValueError,
                           match=r"bigru_sequence dim mismatch: seq \(2, 5, 6\).*wz \(3, 4\)"):
            hv.bigru_sequence(_t(np.zeros((2, 5, 6))), p, p)
        bad = {**p, "uh": _t(np.zeros((4, 5)))}
        for pair in ((bad, p), (p, bad)):       # in either direction
            with pytest.raises(ValueError, match=r"bigru_sequence dim mismatch.*uh \(4, 5\)"):
                hv.bigru_sequence(_t(np.zeros((2, 5, 3))), *pair)


# one bigru_sequence forward and backward, as the body of a child script
# that imported hvector.tensor as hv
_ONE_BIGRU_STEP = """
    import numpy as np
    rng = np.random.default_rng(0)
    shapes = {"wz": (30, 64), "wr": (30, 64), "wh": (30, 64), "uz": (64, 64),
              "ur": (64, 64), "uh": (64, 64), "bz": (64,), "br": (64,), "bh": (64,)}
    params = [{k: hv.Tensor(rng.normal(size=s), requires_grad=True)
               for k, s in shapes.items()} for _ in range(2)]
    seq = hv.Tensor(rng.normal(size=(4, 300, 30)), requires_grad=True)
    with hv.record():
        loss = hv.tsum(hv.bigru_sequence(seq, *params))
    hv.backward(loss)
"""


def _run_python(*parts, allowed=(0,)):
    """Run the script made of parts, each dedented, in a fresh interpreter
    that imports this checkout's hvector."""
    script = "".join(map(textwrap.dedent, parts))
    env = dict(os.environ, PYTHONPATH=str(Path(hv.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode in allowed, done.stderr
    return done


@contextmanager
def _reverse_on_worker(threaded):
    """bigru_sequence with its reverse direction on the worker thread, under
    a short switch interval so that the two threads interleave often, or
    inline."""
    saved = hv._THREADED, sys.getswitchinterval()
    hv._THREADED = threaded
    if threaded:
        sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        hv._THREADED = saved[0]
        sys.setswitchinterval(saved[1])


def _two_gru_nodes(seq, fwd, rev):
    return hv.concat([_bigru_half(seq, fwd, False), _bigru_half(seq, rev, True)], axis=-1)


class TestBigruSequence:
    @settings(deadline=None, max_examples=60)
    @given(batch=st.integers(1, 4), steps=st.integers(1, 8), d=st.integers(1, 6),
           h=st.integers(1, 6), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_two_gru_nodes_bit_for_bit(self, batch, steps, d, h, dtype, seed):
        rng = np.random.default_rng(seed)
        fwd, rev = ({k: Tensor(t.data.astype(dtype), requires_grad=True)
                     for k, t in _gru_params(d, h, rng).items()} for _ in range(2))
        seq = Tensor(rng.normal(size=(batch, steps, d)).astype(dtype), requires_grad=True)
        probe = Tensor(rng.normal(size=(batch, steps, 2 * h)).astype(dtype))
        runs = []
        for op, threaded in ((_two_gru_nodes, False), (hv.bigru_sequence, True),
                             (hv.bigru_sequence, False)):
            for t in (seq, *fwd.values(), *rev.values()):
                t.grad = None
            with _reverse_on_worker(threaded), record():
                out = op(seq, fwd, rev)
                loss = hv.tsum(hv.mul(out, probe))
            backward(loss)
            runs.append([out.data, seq.grad] + [t.grad for t in (*fwd.values(), *rev.values())])
        for threaded in (True, False):      # off the tape, which keeps no gates
            with _reverse_on_worker(threaded):
                runs.append([hv.bigru_sequence(seq, fwd, rev).data])
        want = runs[0]
        assert len(want) == 20
        for got in runs[1:]:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threaded", [True, False])
    def test_overflow_in_the_reverse_direction_reaches_the_caller(self, threaded):
        rng = np.random.default_rng(7)
        fwd, rev = _gru_params(3, 4, rng), _gru_params(3, 4, rng)
        rev["bz"].data[...] = -1000.0       # exp(1000) in the reverse gates only
        seq = _t(rng.normal(size=(2, 5, 3)))
        with _reverse_on_worker(threaded):
            with np.errstate(over="raise"):
                hv.bigru_sequence(seq, fwd, fwd)       # no overflow without rev
                with pytest.raises(FloatingPointError, match="overflow"):
                    hv.bigru_sequence(seq, fwd, rev)
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                hv.bigru_sequence(seq, fwd, rev)

    def test_forked_child_starts_its_own_worker(self):
        # the child inherits a pool whose thread did not survive the fork;
        # without the at-fork reset its first submit would wait forever
        script = textwrap.dedent("""
            import os, signal, sys
            import numpy as np
            import hvector.tensor as hv
            from hvector.tensor import Tensor
            hv._THREADED = True
            rng = np.random.default_rng(0)
            params = [{k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in
                       [(k, (3, 4)) for k in ("wz", "wr", "wh")]
                       + [(k, (4, 4)) for k in ("uz", "ur", "uh")]
                       + [(k, (4,)) for k in ("bz", "br", "bh")]} for _ in range(2)]
            seq = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)

            def step():
                with hv.record():
                    loss = hv.tsum(hv.bigru_sequence(seq, *params))
                hv.backward(loss)

            step()
            assert hv._WORKER is not None
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)
                step()
                os._exit(0 if hv._WORKER is not None else 3)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
        """)
        src = Path(hv.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("threads", [None, "1", "2"])
    def test_import_pins_one_blas_thread(self, threads):
        # numpy's OpenBLAS starts with the environment's thread count, and
        # importing hvector.tensor leaves it at 1 whatever that count was;
        # the worker runs wherever malloc has one arena and a second CPU is
        # usable
        script = textwrap.dedent("""
            import ctypes, glob, os
            import numpy as np
            libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
            names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")
            get = None
            for lib in glob.glob(os.path.join(libs, "*openblas*")):
                handle = ctypes.CDLL(lib)
                get = get or next((getattr(handle, n) for n in names if hasattr(handle, n)),
                                  None)
            count = get or (lambda: None)
            before = count()
            import hvector.tensor as hv
            print(before, count(), hv._THREADED, hv._one_malloc_arena(), hv.worker_count())
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(hv.__file__).resolve().parent.parent)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        before, after, threaded, arena, workers = done.stdout.split()
        if before == "None":        # no OpenBLAS of numpy's own to set
            assert threaded == "False"
            return
        if threads is not None:
            assert before == threads
        assert after == "1"
        assert threaded == str(arena == "True" and int(workers) >= 2)

    def test_no_worker_without_one_malloc_arena(self):
        # where mallopt cannot be found, as without glibc, the directions
        # run in turn and no worker thread starts
        _run_python("""
            import ctypes

            class NoMallopt(ctypes.CDLL):
                def __getattr__(self, name):
                    if name == "mallopt":
                        raise AttributeError(name)
                    return super().__getattr__(name)

            ctypes.CDLL = NoMallopt
            import hvector.tensor as hv
            assert not hv._one_malloc_arena() and not hv._THREADED
        """, _ONE_BIGRU_STEP, """
            assert hv._WORKER is None
        """)

    def test_threaded_step_keeps_one_malloc_arena(self):
        # memory the worker frees goes back to the calling thread's heap:
        # after a threaded forward and backward, glibc's malloc_info, read
        # through an in-memory stream, reports one arena
        done = _run_python("""
            import ctypes, re, sys
            libc = ctypes.CDLL(None)
            if not all(hasattr(libc, f) for f in ("malloc_info", "open_memstream", "mallopt")):
                sys.exit(77)
            libc.open_memstream.restype = ctypes.c_void_p
            libc.open_memstream.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                                            ctypes.POINTER(ctypes.c_size_t)]
            libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
            libc.fclose.argtypes = [ctypes.c_void_p]
            libc.free.argtypes = [ctypes.c_void_p]
            import hvector.tensor as hv
            hv._THREADED = True
        """, _ONE_BIGRU_STEP, """
            assert hv._WORKER is not None
            buf, size = ctypes.c_void_p(), ctypes.c_size_t()
            stream = libc.open_memstream(ctypes.byref(buf), ctypes.byref(size))
            libc.malloc_info(0, stream)
            libc.fclose(stream)
            info = ctypes.string_at(buf, size.value).decode()
            libc.free(buf)
            arenas = len(re.findall(r'<heap nr="\\d+"', info))
            assert arenas == 1, info
        """, allowed=(0, 77))
        if done.returncode == 77:
            pytest.skip("no glibc malloc_info, open_memstream or mallopt")


class TestForkedMap:
    """forked_map: contiguous shares, results in share order, one error path."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 20), workers=st.integers(1, 4), floor=st.integers(1, 6))
    @example(n=0, workers=4, floor=1)
    @example(n=3, workers=4, floor=1)       # fewer items than workers
    def test_shares_cover_the_items_in_order(self, n, workers, floor):
        parent = os.getpid()
        with mock.patch.object(hv, "worker_count", return_value=workers), \
                mock.patch.object(hv.os, "fork", wraps=os.fork) as fork:
            results = hv.forked_map(lambda share: (list(share), os.getpid() == parent),
                                    n, floor, "items")
        # the largest process count, up to `workers`, that gives each process
        # `floor` items; one process when none does
        expected = max([w for w in range(1, min(workers, n) + 1) if n // w >= floor],
                       default=1)
        assert fork.call_count == len(results) - 1 == expected - 1
        assert [here for _, here in results] == [True] + [False] * (expected - 1)
        shares = [items for items, _ in results]
        assert sum(shares, []) == list(range(n))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1

    @pytest.mark.parametrize("how", ["raise", "kill", "exit"])
    def test_a_failed_child_is_one_os_error(self, how):
        parent = os.getpid()

        def fn(share):
            if os.getpid() != parent and share.start == 6:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "exit":
                    os._exit(3)
                raise ValueError("no good")
            return len(share)

        with mock.patch.object(hv, "worker_count", return_value=3):
            with pytest.raises(OSError) as err:
                hv.forked_map(fn, 9, 1, "the process doing items")
        assert str(err.value) == {
            "raise": "no good",
            "kill": f"the process doing items 7-9 was killed by signal {signal.SIGKILL.value}",
            "exit": "the process doing items 7-9 exited with status 3"}[how]
        with pytest.raises(ChildProcessError):      # no child left unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_failure_here_still_reaps_every_child(self):
        parent = os.getpid()

        def fn(share):
            if os.getpid() == parent:
                raise KeyError("here")
            return list(share)

        with mock.patch.object(hv, "worker_count", return_value=4):
            with pytest.raises(KeyError):
                hv.forked_map(fn, 8, 1, "items")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSoftmax:
    def test_uniform(self):
        out = hv.softmax(_t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_direct_value(self):
        x = np.array([1.0, 2.0, 3.0])
        want = np.exp(x) / np.exp(x).sum()
        out = hv.softmax(_t(x))
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            x = rng.normal(size=n) * rng.uniform(0.1, 50)
            c = rng.uniform(-100, 100)
            a = hv.softmax(_t(x)).data
            b = hv.softmax(_t(x + c)).data
            assert abs(a.sum() - 1.0) < 1e-9
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = _t(rng.normal(size=5))
        w = rng.normal(size=5)
        err = grad_check(lambda t: hv.tsum(hv.mul(hv.softmax(t), Tensor(w))), x)
        assert err < 1e-6


class TestStatsPool:
    def test_identical_rows(self):
        v = np.array([0.5, -1.0, 2.0])
        out = hv.stats_pool(_t(np.tile(v, (6, 1))))
        np.testing.assert_allclose(out.data[:3], v, atol=1e-15)
        # zero variance hits the 1e-12 floor, so the std comes out as 1e-6
        np.testing.assert_allclose(out.data[3:], 0.0, atol=1e-6)

    def test_two_rows(self):
        out = hv.stats_pool(_t([[1.0], [3.0]]))
        np.testing.assert_allclose(out.data, [2.0, 1.0], atol=1e-12)

    def test_output_length_doubles_features(self):
        rng = np.random.default_rng(8)
        out = hv.stats_pool(_t(rng.normal(size=(30, 1024))))
        assert out.shape == (2048,)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hv.stats_pool(_t(np.zeros((0, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x = _t(rng.normal(size=(5, 3)))
        w = rng.normal(size=6)
        err = grad_check(lambda t: hv.tsum(hv.mul(hv.stats_pool(t), Tensor(w))), x)
        assert err < 1e-6


class TestWeightedStatsPool:
    def test_uniform_weights_match_stats_pool(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(7, 4))
        w = np.full(7, 1 / 7)
        a = hv.weighted_stats_pool(_t(x), _t(w)).data
        b = hv.stats_pool(_t(x)).data
        np.testing.assert_array_equal(a, b)

    def test_naive_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=(6, 3))
            w = rng.dirichlet(np.ones(6))
            got = hv.weighted_stats_pool(_t(x), _t(w)).data
            mu = (w[:, None] * x).sum(axis=0)
            var = (w[:, None] * (x - mu) ** 2).sum(axis=0)
            want = np.concatenate([mu, np.sqrt(np.maximum(var, 1e-12))])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        x = _t(rng.normal(size=(5, 3)))
        w = _t(rng.uniform(0.1, 1.0, size=5))
        probe = rng.normal(size=6)
        f = lambda a, b: hv.tsum(hv.mul(hv.weighted_stats_pool(a, b), Tensor(probe)))
        assert grad_check(lambda t: f(t, w), x) < 1e-6
        assert grad_check(lambda t: f(x, t), w) < 1e-6


class TestElementwise:
    def test_relu(self):
        out = hv.relu(_t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_dropout_inference_is_identity(self):
        x = _t(np.ones(10))
        out = hv.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_zero_rate_is_identity(self):
        x = _t(np.ones(10))
        assert hv.dropout(x, 0.0, rng=np.random.default_rng(0)) is x

    def test_dropout_zero_fraction(self):
        rng = np.random.default_rng(13)
        out = hv.dropout(_t(np.ones(100_000)), 0.2, rng=rng).data
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.2) < 0.02
        # survivors are scaled so the expectation is preserved
        np.testing.assert_allclose(out[out != 0], 1.25)

    def test_concat_mismatch(self):
        with pytest.raises(ValueError, match="concat shape mismatch"):
            hv.concat([_t(np.zeros((2, 3))), _t(np.zeros((3, 4)))], axis=1)

    def test_batchnorm_inference_identity_with_unit_stats(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(8, 4))
        out = hv.batchnorm(
            _t(x), _t(np.ones(4)), _t(np.zeros(4)),
            np.zeros(4), np.ones(4), training=False,
        )
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_batchnorm_training_normalises(self):
        rng = np.random.default_rng(15)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
        rm, rv = np.zeros(5), np.ones(5)
        out = hv.batchnorm(_t(x), _t(np.ones(5)), _t(np.zeros(5)), rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)
        # running buffers moved a tenth of the way toward the batch stats
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=0), atol=1e-12)

    def test_batchnorm_gradients(self):
        rng = np.random.default_rng(16)
        x = _t(rng.normal(size=(6, 3)))
        gamma = _t(rng.uniform(0.5, 1.5, size=3))
        beta = _t(rng.normal(size=3))
        probe = rng.normal(size=(6, 3))

        def f(t):
            return hv.tsum(hv.mul(
                hv.batchnorm(x if t is not x else t,
                             gamma if t is not gamma else t,
                             beta if t is not beta else t,
                             np.zeros(3), np.ones(3), training=True),
                Tensor(probe)))

        assert grad_check(f, x) < 1e-6
        assert grad_check(f, gamma) < 1e-6
        assert grad_check(f, beta) < 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = _t(np.arange(6.0).reshape(2, 3))
        with record():
            loss = hv.tsum(w)
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_analytic_gradient(self):
        rng = np.random.default_rng(17)
        w = _t(rng.normal(size=(3, 3)))
        x = Tensor(rng.normal(size=(3, 1)))
        with record():
            y = hv.matmul(w, x)
            loss = hv.tsum(hv.mul(y, y))
        backward(loss)
        want = 2.0 * (w.data @ x.data) @ x.data.T
        np.testing.assert_allclose(w.grad, want, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = _t(np.ones(3))
        with record():
            y = hv.mul(w, w)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_double_backward_rejected(self):
        w = _t(np.ones(3))
        with record():
            loss = hv.tsum(w)
        backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            backward(loss)

    def test_fanout_accumulates(self):
        w = _t(np.array([2.0]))
        with record():
            loss = hv.tsum(hv.add(hv.mul(w, w), hv.mul(w, w)))
        backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])

    def test_forward_replay_is_bit_identical(self):
        rng_a = np.random.default_rng(18)
        rng_b = np.random.default_rng(18)

        def run(rng):
            x = _t(rng.normal(size=(4, 3)))
            k = _t(rng.normal(size=(3, 3, 2)))
            return hv.conv1d(x, k, _t(np.zeros(2))).data.tobytes()

        assert run(rng_a) == run(rng_b)


class TestGradCheck:
    def test_square_function(self):
        theta = _t(np.array([3.0]))
        err = grad_check(lambda t: hv.mul(t, t), theta)
        assert err < 1e-9

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(19)
        theta = _t(rng.normal(size=(2, 4)))

        def f(t):
            return hv.mean(hv.sub(hv.log_sum_exp(t), hv.pick(t, [1, 3])))

        assert grad_check(f, theta) < 1e-6

    def test_unrolled_gru(self):
        rng = np.random.default_rng(20)
        p = _gru_params(3, 4, rng)
        xs = Tensor(rng.normal(size=(5, 2, 3)))

        def f(t):
            h = t
            for i in range(5):
                h = hv.gru_cell(Tensor(xs.data[i]), h, p)
            return hv.tsum(h)

        h0 = _t(rng.normal(size=(2, 4)))
        assert grad_check(f, h0) < 1e-5


REGISTERED_OPS = [
    ("matmul", lambda t, c: hv.matmul(t, c["m"]), (3, 4)),
    ("matmul bias", lambda t, c: hv.mul(hv.matmul(c["b34"], c["m"], t), c["b32"]), (2,)),
    ("conv1d", lambda t, c: hv.conv1d(t, c["k"], c["cb"]), (6, 3)),
    ("gru_cell", lambda t, c: hv.gru_cell(t, c["h0"], c["gru"]), (2, 3)),
    ("bigru_sequence", lambda t, c: hv.bigru_sequence(t, c["gru"], c["gru_b"]), (2, 5, 3)),
    ("softmax", lambda t, c: hv.mul(hv.softmax(t), c["probe5"]), (2, 5)),
    ("log_sum_exp", lambda t, c: hv.log_sum_exp(t), (2, 5)),
    ("pick", lambda t, c: hv.pick(t, [0, 2]), (2, 4)),
    ("stats_pool", lambda t, c: hv.mul(hv.stats_pool(t), c["probe6"]), (4, 3)),
    ("weighted_stats_pool",
     lambda t, c: hv.mul(hv.weighted_stats_pool(t, c["w4"]), c["probe6"]), (4, 3)),
    ("add", lambda t, c: hv.add(t, c["b34"]), (3, 4)),
    ("sub", lambda t, c: hv.sub(t, c["b34"]), (3, 4)),
    ("mul", lambda t, c: hv.mul(t, c["b34"]), (3, 4)),
    ("neg", lambda t, c: hv.neg(t), (3, 4)),
    ("relu", lambda t, c: hv.relu(t), (3, 4)),
    ("sigmoid", lambda t, c: hv.sigmoid(t), (3, 4)),
    ("tanh", lambda t, c: hv.tanh(t), (3, 4)),
    ("mean", lambda t, c: hv.mean(t), (3, 4)),
    ("sum", lambda t, c: hv.tsum(t), (3, 4)),
    ("concat", lambda t, c: hv.concat([t, c["b34"]], axis=1), (3, 4)),
    ("reshape", lambda t, c: hv.mul(hv.reshape(t, (4, 3)), c["b43"]), (3, 4)),
    ("slice", lambda t, c: hv.slice_axis(t, 1, 1, 3), (3, 4)),
    ("batchnorm",
     lambda t, c: hv.mul(hv.batchnorm(t, c["g4"], c["be4"], np.zeros(4), np.ones(4),
                                      training=True), c["b34"]), (3, 4)),
]


@pytest.mark.parametrize("name,build,shape", REGISTERED_OPS, ids=[o[0] for o in REGISTERED_OPS])
def test_every_op_matches_finite_differences(name, build, shape):
    # crc32, unlike hash(), is not salted per process: a failing draw replays
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    ctx = {
        "m": Tensor(rng.normal(size=(4, 2))),
        "k": Tensor(rng.normal(size=(3, 3, 2))),
        "cb": Tensor(rng.normal(size=2)),
        "h0": Tensor(rng.normal(size=(2, 4))),
        "gru": _gru_params(3, 4, rng),
        "w4": Tensor(rng.dirichlet(np.ones(4))),
        "probe5": Tensor(rng.normal(size=5)),
        "probe6": Tensor(rng.normal(size=6)),
        "b34": Tensor(rng.normal(size=(3, 4))),
        "b43": Tensor(rng.normal(size=(4, 3))),
        "g4": Tensor(np.ones(4)),
        "be4": Tensor(np.zeros(4)),
    }
    theta = _t(rng.normal(size=shape))
    # drawn last, so the other ops' draws stay as they were
    ctx["gru_b"] = _gru_params(3, 4, rng)
    ctx["b32"] = Tensor(rng.normal(size=(3, 2)))
    err = grad_check(lambda t: hv.tsum(build(t, ctx)), theta)
    assert err < 1e-6, f"{name}: {err}"


def _npy(header: dict, payload: bytes = b"") -> bytes:
    """A .npy member's bytes: `header` written as numpy writes one, then `payload`."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + payload


def _zip_members(path, members: dict):
    """An archive whose members hold the given bytes, each under its own CRC-32."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, raw in members.items():
            zf.writestr(zipfile.ZipInfo(name), raw)


def _assert_records(got, want):
    """got holds want's records, in its order, with their dtypes, shapes and bytes."""
    assert list(got) == list(want)
    for name, value in want.items():
        if isinstance(value, str):
            assert type(got[name]) is str and got[name] == value, name
        else:
            dtype = np.float32 if np.asarray(value).dtype == np.float32 else np.float64
            assert got[name].dtype == dtype and got[name].shape == np.shape(value), name
            assert got[name].tobytes() == np.asarray(value, dtype).tobytes(), name


class TestSerialisation:
    def test_array_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        arr = rng.normal(size=(3, 4, 5))
        path = tmp_path / "a.hvt"
        hv.save_archive(path, {"a": arr})
        np.testing.assert_array_equal(hv.load_archive(path)["a"], arr)

    def test_scalar_roundtrip(self, tmp_path):
        path = tmp_path / "s.hvt"
        hv.save_archive(path, {"s": np.float64(2.5)})
        got = hv.load_archive(path)["s"]
        assert got.shape == () and got == 2.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hvt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == f"{path}: File is not a zip file"
        _zip_members(path, {"a.npy": b"NOPE" + _npy({"descr": "<f8", "fortran_order": False,
                                                     "shape": ()}, bytes(8))[4:]})
        with pytest.raises(ValueError, match=f"^{path}: the magic string is not correct"):
            hv.load_archive(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.hvt"
        hv.save_archive(path, {"a": np.ones((4, 4))})
        raw = path.read_bytes()
        for keep in (len(raw) - 8, 30, 100):   # in the directory, a header, the payload
            path.write_bytes(raw[:keep])
            with pytest.raises(ValueError, match=f"^{path}: "):
                hv.load_archive(path)

    def test_lying_header_is_rejected_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "lie.hvt"

        def no_alloc(*args, **kwargs):
            raise AssertionError("load_archive allocated for a lying header")

        for descr, shape, message in [
                ("<f8", (2**20, 2**22), "needs 35184372088832 bytes, the member holds 40"),
                ("<f4", (2**20, 2**22), "needs 17592186044416 bytes, the member holds 40"),
                ("<f8", (1, 4), "needs 32 bytes, the member holds 40")]:   # understated
            _zip_members(path, {"a.npy": _npy({"descr": descr, "fortran_order": False,
                                               "shape": shape}, np.ones(5).tobytes())})
            with monkeypatch.context() as patch, pytest.raises(ValueError) as info:
                patch.setattr(hv.np, "empty", no_alloc)
                hv.load_archive(path)
            assert str(info.value) == \
                f"{path}: member 'a.npy': shape {shape} of {descr} {message}"
        _zip_members(path, {"a.npy": _npy({"descr": "<f8", "fortran_order": False,
                                           "shape": (-2, 5)}, np.ones(5).tobytes())})
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == \
            f"{path}: member 'a.npy': negative dimension in shape (-2, 5)"

    @pytest.mark.parametrize("header, what", [
        ({"descr": "|u1", "fortran_order": False, "shape": (2,)}, "a |u1 array of shape (2,)"),
        ({"descr": "<f8", "fortran_order": True, "shape": (2,)},
         "a Fortran-ordered <f8 array of shape (2,)"),
        ({"descr": "<U1", "fortran_order": False, "shape": (2,)}, "a <U1 array of shape (2,)"),
    ], ids=["bytes", "Fortran order", "1-D text"])
    def test_other_npy_records_are_refused(self, tmp_path, header, what):
        path = tmp_path / "o.hvt"
        _zip_members(path, {"a.npy": _npy(header, bytes(8))})
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == (f"{path}: member 'a.npy': {what}, not a C-ordered "
                                   "<f4 or <f8 array or 0-d <U text")

    def test_members_must_be_stored_npy_records(self, tmp_path):
        path = tmp_path / "m.hvt"
        _zip_members(path, {"a.txt": b"hello"})
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == f"{path}: member 'a.txt' is not a .npy record"
        np.savez_compressed(path.with_suffix(".npz"), a=np.ones(3))
        path.with_suffix(".npz").rename(path)
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == \
            f"{path}: member 'a.npy' is compressed; hvector stores its records"

    def test_np_savez_archive_loads(self, tmp_path):
        # the same container: numpy's own writer, with its ZIP64 extra fields
        path = tmp_path / "n.hvt"
        arrays = {"w": np.arange(6.0).reshape(2, 3), "f": np.ones(2, np.float32),
                  "s": np.array("é\n")}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        got = hv.load_archive(path)
        _assert_records(got, {**arrays, "s": "é\n"})

    def test_archive_from_earlier_versions_is_refused(self, tmp_path):
        path = tmp_path / "old.hvt"
        save_old_archive(path, {"config": "mode=hvector\n", "w": np.ones((2, 3))})
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == f"{path}: File is not a zip file"

    def test_float32_roundtrip_keeps_the_dtype(self, tmp_path):
        rng = np.random.default_rng(23)
        arrays = {"w": rng.normal(size=(3, 4)).astype(np.float32), "s": np.float32(1.5),
                  "d": rng.normal(size=2)}
        path = tmp_path / "f4.hvt"
        hv.save_archive(path, arrays)
        got = hv.load_archive(path)
        for k, want in arrays.items():
            assert got[k].dtype == np.asarray(want).dtype, k
            assert np.array_equal(got[k], want), k
        with np.load(path, allow_pickle=False) as npz:
            assert [npz[k].dtype.str for k in arrays] == ["<f4", "<f4", "<f8"]

    def test_archive_roundtrip(self, tmp_path):
        rng = np.random.default_rng(22)
        arrays = {"layer.w": rng.normal(size=(2, 3)), "layer.b": rng.normal(size=3)}
        path = tmp_path / "arch.hvt"
        hv.save_archive(path, arrays)
        got = hv.load_archive(path)
        assert sorted(got) == sorted(arrays)
        for k in arrays:
            np.testing.assert_array_equal(got[k], arrays[k])

    def test_bytes_are_fixed_and_members_are_npy_files(self, tmp_path):
        # no member carries the time it was written, so the same records give
        # the same bytes, and each member is what np.save writes
        records = {"w": np.arange(6.0).reshape(2, 3).T, "n": 2, "config": "mode=hvector\n"}
        first, second = tmp_path / "a.hvt", tmp_path / "b.hvt"
        hv.save_archive(first, records)
        hv.save_archive(second, records)
        assert first.read_bytes() == second.read_bytes()
        with zipfile.ZipFile(first) as zf:
            for info in zf.infolist():
                assert info.date_time == (1980, 1, 1, 0, 0, 0)
                assert info.compress_type == zipfile.ZIP_STORED
            for name, value in records.items():
                buf = io.BytesIO()
                np.save(buf, np.asarray(value, "<U" if isinstance(value, str) else "<f8",
                                        order="C"))
                assert zf.read(f"{name}.npy") == buf.getvalue(), name

    def test_member_past_the_zip64_limit_gets_zip64_sizes(self, tmp_path, monkeypatch):
        # a 2 GiB member, in miniature: zipfile reads the limit when it writes
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
        path = tmp_path / "big.hvt"
        arrays = {"small": np.ones(3), "big": np.arange(200.0)}
        hv.save_archive(path, arrays)
        with zipfile.ZipFile(path) as zf:
            assert zf.getinfo("big.npy").extra and not zf.getinfo("small.npy").extra
        _assert_records(hv.load_archive(path), arrays)

    @pytest.mark.parametrize("records", [{"a\0b": np.ones(2)}, {"t": "ends in NUL\0"}],
                             ids=["NUL in a name", "NUL ending a text"])
    def test_records_npy_cannot_hold_are_refused(self, tmp_path, records):
        # a zip member name stops at NUL, and .npy unicode drops trailing NULs
        path = tmp_path / "r.hvt"
        with pytest.raises(ValueError) as info:
            hv.save_archive(path, records)
        assert str(info.value) == \
            f"{path}: record {next(iter(records))!r} cannot be stored as .npy"
        assert list(tmp_path.iterdir()) == []


_ARRAY_RECORDS = st.sampled_from(["<f4", "<f8", ">f8", "<i8"]).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                     max_side=3)))
# storable text: no surrogate, which is no character, and no trailing NUL,
# which .npy unicode drops (both are refused above)
_TEXT_RECORDS = st.text(st.characters(exclude_categories=("Cs",))).filter(
    lambda t: not t.endswith("\0"))


@settings(max_examples=100, deadline=None)
@given(records=st.dictionaries(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
            max_size=6),
    st.one_of(_ARRAY_RECORDS, _ARRAY_RECORDS.map(np.transpose), _TEXT_RECORDS),
    max_size=5))
@example(records={"é": "é\nb\n", "": np.zeros((2, 0, 3), np.float32), "s": np.float64(2.5)})
def test_archive_round_trips_and_np_load_reads_it(tmp_path_factory, records):
    """Any records come back with their dtypes (float32, or float64 for any
    other number), shapes and bytes, and str as str; np.load reads the same
    arrays, and each text as a 0-d unicode array."""
    path = tmp_path_factory.mktemp("roundtrip") / "a.hvt"
    hv.save_archive(path, records)
    _assert_records(hv.load_archive(path), records)
    with np.load(path, allow_pickle=False) as npz:
        _assert_records({name: str(npz[name]) if npz[name].dtype.kind == "U" else npz[name]
                         for name in npz.files}, records)
        assert all(npz[name].shape == () for name in records
                   if isinstance(records[name], str))


_FUZZ_ARRAYS = {"frame_conv.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                "bn.mean": np.array([0.5, -1.0, 2.0]), "é": np.float64(3.0)}
# the arrays, then text records
_FUZZ_RECORDS = {**_FUZZ_ARRAYS, "config": "mode=hvector\nn=3\n", "speakers": "é\nb\n"}
# and last a record one flip away from a second bn.mean
_FUZZ_FILE = {**_FUZZ_RECORDS, "bn.meam": np.zeros(3)}


# _FUZZ_FILE's archive is 1,542 bytes, its central directory from byte 1,178
@settings(max_examples=300, deadline=None)
@given(cut=st.none() | st.integers(0, 1600), flip=st.tuples(st.integers(0, 1600),
                                                            st.integers(1, 255)))
@example(cut=None, flip=(180, 0x01))     # a float32 of frame_conv.w: its CRC-32
@example(cut=None, flip=(300, 0x04))     # bn.mean's header says (7,), not (3,)
@example(cut=None, flip=(1186, 0x01))    # the first member's encrypted flag
@example(cut=None, flip=(1188, 0x08))    # the first member said to be deflated
@example(cut=None, flip=(1211, 0x80))    # a comment length that hides 5 members
@example(cut=None, flip=(1021, 0x03))    # bn.meam becomes a second bn.mean
@example(cut=760, flip=(0, 1))           # cut inside the config text
def test_archive_loader_fails_cleanly(tmp_path_factory, cut, flip):
    """A truncated or byte-flipped archive loads exactly the records written,
    or raises one ValueError, on one line, that names the file."""
    path = tmp_path_factory.mktemp("fuzz") / "a.hvt"
    hv.save_archive(path, _FUZZ_FILE)
    raw = bytearray(path.read_bytes())
    pos, mask = flip
    if cut is None:
        raw[pos % len(raw)] ^= mask
    else:
        del raw[cut % len(raw):]
    path.write_bytes(bytes(raw))
    try:
        records = hv.load_archive(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
    else:
        _assert_records(records, _FUZZ_FILE)


def test_repeated_record_is_refused(tmp_path):
    path = tmp_path / "a.hvt"
    hv.save_archive(path, {"out.w": np.ones((2, 3)), "out.x": np.zeros((2, 3))})
    path.write_bytes(path.read_bytes().replace(b"out.x", b"out.w"))
    with pytest.raises(ValueError) as info:
        hv.load_archive(path)
    assert str(info.value) == f"{path}: record 'out.w' appears twice"


def test_undecodable_tensor_name_names_the_file(tmp_path):
    # "é" is the one name zipfile flags as UTF-8
    path = tmp_path / "a.hvt"
    hv.save_archive(path, _FUZZ_ARRAYS)
    path.write_bytes(path.read_bytes().replace("é.npy".encode(), b"\xff\xa9.npy"))
    with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
        hv.load_archive(path)


class TestTextRecords:
    def test_roundtrip_keeps_str_and_array_bytes(self, tmp_path):
        path = tmp_path / "t.hvt"
        hv.save_archive(path, _FUZZ_RECORDS)
        _assert_records(hv.load_archive(path), _FUZZ_RECORDS)
        # the arrays' members are written exactly as in an arrays-only archive
        arrays_only = tmp_path / "a.hvt"
        hv.save_archive(arrays_only, _FUZZ_ARRAYS)
        with zipfile.ZipFile(path) as zf, zipfile.ZipFile(arrays_only) as arrays:
            for name in _FUZZ_ARRAYS:
                assert zf.read(f"{name}.npy") == arrays.read(f"{name}.npy"), name

    @staticmethod
    def _text_archive(path, descr, payload):
        _zip_members(path, {"t.npy": _npy({"descr": descr, "fortran_order": False,
                                           "shape": ()}, payload)})

    def test_bad_utf8(self, tmp_path):
        # a code point past U+10FFFF, then a surrogate: neither is a character
        path = tmp_path / "t.hvt"
        for raw in ("a".encode("utf-32-le") + b"\xff\xff\xff\xff", b"\x00\xd8\x00\x00"):
            self._text_archive(path, f"<U{len(raw) // 4}", raw)
            with pytest.raises(ValueError) as info:
                hv.load_archive(path)
            assert str(info.value).startswith(f"{path}: 'utf-32-le' codec can't decode")

    @pytest.mark.parametrize("length", [-1, 4, 2**62])
    def test_implausible_length(self, tmp_path, length):
        # the header's <U length, against a member that holds "abc"
        path = tmp_path / "t.hvt"
        self._text_archive(path, f"<U{length}", "abc".encode("utf-32-le"))
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == {
            4: f"{path}: member 't.npy': shape () of <U4 needs 16 bytes, the member holds 12",
        }.get(length, f"{path}: descr is not a valid dtype descriptor: '<U{length}'")

    @pytest.mark.parametrize("keep", range(1, 15))
    def test_truncated_record(self, tmp_path, keep):
        path = tmp_path / "t.hvt"
        hv.save_archive(path, {"t": "abc"})
        raw = path.read_bytes()
        path.write_bytes(bytes(raw[:len(raw) - keep]))
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
