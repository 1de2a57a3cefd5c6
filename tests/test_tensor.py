"""Tensor core: op semantics, tape replay, and finite-difference checks."""
import os
import signal
import struct
import subprocess
import sys
import textwrap
import warnings
import zlib
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hvector.tensor as hv
from hvector.tensor import Tensor, backward, grad_check, record


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


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestGruSequence:
    """Each half of bigru_sequence against gru_cell, its reference."""

    @settings(deadline=None)
    @given(batch=st.integers(1, 4), steps=st.integers(1, 8), d=st.integers(1, 6),
           h=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
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
            for got, want in zip(*runs):
                assert got.shape == want.shape
                assert _rel_err(got, want) <= 1e-12, reverse

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
        # the worker runs wherever a second CPU is usable
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
            print(before, count(), hv._THREADED, hv.worker_count())
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(hv.__file__).resolve().parent.parent)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        before, after, threaded, workers = done.stdout.split()
        if before == "None":        # no OpenBLAS of numpy's own to set
            assert threaded == "False"
            return
        if threads is not None:
            assert before == threads
        assert after == "1"
        assert threaded == str(int(workers) >= 2)


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
    ctx["gru_b"] = _gru_params(3, 4, rng)   # drawn last: the other ops' draws stay as they were
    err = grad_check(lambda t: hv.tsum(build(t, ctx)), theta)
    assert err < 1e-6, f"{name}: {err}"


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
        with pytest.raises(ValueError, match="magic"):
            hv.load_archive(path)
        hv.save_archive(path, {"a": np.ones(2)})
        raw = bytearray(path.read_bytes())
        raw[21:25] = b"NOPE"          # the array's own magic, after the name
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            hv.load_archive(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.hvt"
        hv.save_archive(path, {"a": np.ones((4, 4))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])        # cut inside the payload
        with pytest.raises(ValueError, match="truncated"):
            hv.load_archive(path)
        path.write_bytes(raw[:30])        # cut inside the shape header
        with pytest.raises(IOError, match="truncated"):
            hv.load_archive(path)

    def test_lying_header_is_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "lie.hvt"
        hv.save_archive(path, {"a": np.ones((1, 5))})
        raw = bytearray(path.read_bytes())
        dims = 4 + 8 + 8 + 1 + 4 + 8      # archive header, name, array magic, rank
        raw[dims:dims + 16] = struct.pack("<qq", 2**20, 2**22)
        path.write_bytes(bytes(raw))
        assert len(raw) == 89
        with pytest.raises(ValueError, match="needs 35184372088832 bytes"):
            hv.load_archive(path)
        raw[dims:dims + 8] = struct.pack("<q", -2)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="negative"):
            hv.load_archive(path)
        # a float32 array is sized by its 4-byte elements
        hv.save_archive(path, {"a": np.ones((1, 5), dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        assert len(raw) == 69
        raw[dims:dims + 16] = struct.pack("<qq", 2**20, 2**22)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="needs 17592186044416 bytes"):
            hv.load_archive(path)

    def test_float64_layout_is_unchanged(self, tmp_path):
        arr = np.arange(6.0).reshape(2, 3)
        # a transposed view, a big-endian array and an empty one are stored
        # as the bytes of their little-endian C-ordered copies, and load back
        records = {"x": arr, "n": 2, "t": arr.T, "b": arr.astype(">f8"), "e": np.zeros((2, 0))}
        path = tmp_path / "f8.hvt"
        hv.save_archive(path, records)
        array_bytes = [b"HVT1" + struct.pack("<q", a.ndim)
                       + b"".join(struct.pack("<q", n) for n in a.shape)
                       + a.astype("<f8").tobytes() for a in map(np.asarray, records.values())]
        assert path.read_bytes() == b"HVTA" + struct.pack("<q", 5) + b"".join(
            struct.pack("<q", 1) + name.encode() + raw
            for name, raw in zip(records, array_bytes))
        got = hv.load_archive(path)
        for name, want in records.items():
            assert got[name].dtype == "<f8" and np.array_equal(got[name], want), name

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
        assert path.read_bytes().count(b"HVF4") == 2

    def test_archive_roundtrip(self, tmp_path):
        rng = np.random.default_rng(22)
        arrays = {"layer.w": rng.normal(size=(2, 3)), "layer.b": rng.normal(size=3)}
        path = tmp_path / "arch.hvt"
        hv.save_archive(path, arrays)
        got = hv.load_archive(path)
        assert sorted(got) == sorted(arrays)
        for k in arrays:
            np.testing.assert_array_equal(got[k], arrays[k])


_FUZZ_ARRAYS = {"frame_conv.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                "bn.mean": np.array([0.5, -1.0, 2.0]), "é": np.float64(3.0)}
# the arrays, then text records: flips and cuts past the arrays land in text
_FUZZ_RECORDS = {**_FUZZ_ARRAYS, "config": "mode=hvector\nn=3\n", "speakers": "é\nb\n"}
# and last a record one flip away from a second bn.mean
_FUZZ_FILE = {**_FUZZ_RECORDS, "bn.meam": np.zeros(3)}


@settings(max_examples=300, deadline=None)
@given(cut=st.none() | st.integers(0, 200), flip=st.tuples(st.integers(0, 200),
                                                           st.integers(1, 255)))
@example(cut=None, flip=(20, 0x99))     # the first name's "f" becomes 0xff
@example(cut=None, flip=(11, 0x80))     # a negative tensor count
@example(cut=None, flip=(198, 0x80))    # the config text's length turns negative
@example(cut=None, flip=(199, 0x80))    # its "m" becomes 0xed, not UTF-8
@example(cut=205, flip=(0, 1))          # cut inside the config text
@example(cut=None, flip=(36, 12))       # a zero dim beside dims numpy cannot hold
@example(cut=None, flip=(263, 0x03))    # bn.meam becomes a second bn.mean
def test_archive_loader_fails_cleanly(tmp_path_factory, cut, flip):
    """A truncated or byte-flipped archive loads, with as many records as its
    header counts, or raises a ValueError or OSError whose message names the
    file."""
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
    except (ValueError, OSError) as exc:
        assert str(path) in str(exc), str(exc)
    else:
        assert len(records) == struct.unpack("<q", raw[4:12])[0]


def test_repeated_record_is_refused(tmp_path):
    path = tmp_path / "a.hvt"
    hv.save_archive(path, {"out.w": np.ones((2, 3)), "out.x": np.zeros((2, 3))})
    path.write_bytes(path.read_bytes().replace(b"out.x", b"out.w"))
    with pytest.raises(ValueError) as info:
        hv.load_archive(path)
    assert str(info.value) == f"{path}: record out.w appears twice"


def test_undecodable_tensor_name_names_the_file(tmp_path):
    path = tmp_path / "a.hvt"
    hv.save_archive(path, _FUZZ_ARRAYS)
    raw = bytearray(path.read_bytes())
    raw[20] = 0xff
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{path}: tensor name .* is not UTF-8"):
        hv.load_archive(path)
    hv.save_archive(path, _FUZZ_ARRAYS)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match=f"{path}: 1 bytes after the last of 3 tensors"):
        hv.load_archive(path)


class TestTextRecords:
    def test_roundtrip_keeps_str_and_array_bytes(self, tmp_path):
        path = tmp_path / "t.hvt"
        hv.save_archive(path, _FUZZ_RECORDS)
        got = hv.load_archive(path)
        assert list(got) == list(_FUZZ_RECORDS)
        for key, want in _FUZZ_RECORDS.items():
            if isinstance(want, str):
                assert got[key] == want and isinstance(got[key], str)
            else:
                assert got[key].dtype == np.asarray(want).dtype
                assert np.array_equal(got[key], want)
        config = "mode=hvector\nn=3\n".encode()
        assert path.read_bytes().endswith(
            struct.pack("<q", 6) + b"config" + b"HVS1" + struct.pack("<q", len(config))
            + config + struct.pack("<q", 8) + b"speakers" + b"HVS1" + struct.pack("<q", 5)
            + "é\nb\n".encode())
        # the arrays before them are written exactly as an arrays-only archive
        arrays_only = tmp_path / "a.hvt"
        hv.save_archive(arrays_only, _FUZZ_ARRAYS)
        assert path.read_bytes()[12:].startswith(arrays_only.read_bytes()[12:])

    def _text_archive(self, path, text):
        hv.save_archive(path, {"t": text})
        return bytearray(path.read_bytes())

    def test_bad_utf8(self, tmp_path):
        path = tmp_path / "t.hvt"
        raw = self._text_archive(path, "abc")
        raw[-2] = 0xff
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == f"{path}: text record 't' b'a\\xffc' is not UTF-8"

    @pytest.mark.parametrize("length", [-1, 4, 2**62])
    def test_implausible_length(self, tmp_path, length):
        path = tmp_path / "t.hvt"
        raw = self._text_archive(path, "abc")
        raw[-11:-3] = struct.pack("<q", length)    # the record's length field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            hv.load_archive(path)
        assert str(info.value) == f"{path}: implausible text record 't' length {length}"

    @pytest.mark.parametrize("keep", range(1, 15))
    def test_truncated_record(self, tmp_path, keep):
        path = tmp_path / "t.hvt"
        raw = self._text_archive(path, "abc")
        path.write_bytes(bytes(raw[:len(raw) - keep]))
        with pytest.raises((ValueError, OSError)) as info:
            hv.load_archive(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
