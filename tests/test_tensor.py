"""Autodiff engine: value oracles, gradient checks, graph semantics."""

import os
import platform
import sys
import threading
import time

import numpy as np
import pytest

from metareplay import tensor as T
from metareplay.tensor import (GraphError, NumericError, ShapeError, Tensor,
                               backward)

from gradcheck import (analytic_grads, check_grad, leaf, primitive_cases, random_net_cases,
                       scalarize)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# value oracles (independent float64 computations)

def test_everything_is_float32(rng):
    x = Tensor(np.ones((2, 3), dtype=np.float64))
    assert x.data.dtype == np.float32
    y = T.add(x, np.ones((2, 3)))
    assert y.data.dtype == np.float32


def test_arithmetic_matches_numpy(rng):
    a = rng.uniform(-2, 2, (3, 4)).astype(np.float32)
    b = rng.uniform(0.5, 2, (3, 4)).astype(np.float32)
    np.testing.assert_allclose(T.add(a, b).data, a + b, rtol=1e-6)
    np.testing.assert_allclose(T.sub(a, b).data, a - b, rtol=1e-6)
    np.testing.assert_allclose(T.mul(a, b).data, a * b, rtol=1e-6)
    np.testing.assert_allclose(T.div(a, b).data, a / b, rtol=1e-6)
    np.testing.assert_allclose((-Tensor(a)).data, -a, rtol=1e-6)


def test_matmul_matches_numpy(rng):
    a = rng.standard_normal((3, 5)).astype(np.float32)
    b = rng.standard_normal((5, 2)).astype(np.float32)
    np.testing.assert_allclose(T.matmul(a, b).data, a @ b, rtol=1e-5)


def test_softmax_rows_sum_to_one(rng):
    x = rng.standard_normal((4, 7)).astype(np.float32)
    s = T.softmax(x, axis=1).data
    np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-6)
    assert (s > 0).all()


def test_log_softmax_matches_float64_oracle(rng):
    x = rng.standard_normal((4, 7)).astype(np.float32)
    x64 = x.astype(np.float64)
    oracle = x64 - np.log(np.exp(x64).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(T.log_softmax(x, axis=1).data, oracle, atol=1e-5)


def test_log_softmax_stable_at_large_logits():
    x = np.array([[1000.0, 0.0, -1000.0]], dtype=np.float32)
    out = T.log_softmax(x, axis=1).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[0, 0], 0.0, atol=1e-5)


def test_layer_norm_standardizes_each_sample(rng):
    x = rng.uniform(-3, 5, (4, 6, 10)).astype(np.float32)
    y = T.layer_norm(x).data
    flat = y.reshape(4, -1)
    np.testing.assert_allclose(flat.mean(axis=1), np.zeros(4), atol=1e-5)
    np.testing.assert_allclose(flat.std(axis=1), np.ones(4), atol=1e-3)


def conv1d_loop_oracle(x, w, stride, padding):
    """Direct nested-loop cross-correlation in float64."""
    n, c, t = x.shape
    f, _, k = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding)))
    t_out = (t + 2 * padding - k) // stride + 1
    out = np.zeros((n, f, t_out))
    for i in range(n):
        for j in range(f):
            for o in range(t_out):
                patch = xp[i, :, o * stride:o * stride + k]
                out[i, j, o] = (patch * w[j].astype(np.float64)).sum()
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
def test_conv1d_matches_loop_oracle(rng, stride, padding):
    x = rng.standard_normal((2, 3, 11)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3)).astype(np.float32)
    got = T.conv1d(x, w, stride=stride, padding=padding).data
    want = conv1d_loop_oracle(x, w, stride, padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-4)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
def test_conv1d_weight_grad_is_one_product_with_the_forward_im2col(rng, stride, padding):
    # backward rebuilds the im2col matrix instead of keeping it; the weight
    # gradient must still be the one product g2.T @ cols, bit for bit
    x = rng.standard_normal((2, 3, 11)).astype(np.float32)
    w = Tensor(rng.standard_normal((4, 3, 3)).astype(np.float32), requires_grad=True)
    out = T.conv1d(x, w, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (dw,) = backward(T.sum_(T.mul(out, g)), [w])
    n, c, t = x.shape
    f, _, k = w.shape
    t_out = out.shape[2]
    xpt = np.zeros((n, t + 2 * padding, c), dtype=np.float32)
    xpt[:, padding:padding + t, :] = x.transpose(0, 2, 1)
    cols4 = np.empty((n, t_out, c, k), dtype=np.float32)
    for kk in range(k):
        cols4[:, :, :, kk] = xpt[:, kk:kk + stride * t_out:stride, :]
    cols = cols4.reshape(n * t_out, c * k)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * t_out, f)
    np.testing.assert_array_equal(dw, (g2.T @ cols).reshape(f, c, k))


def test_conv1d_input_without_grad_gets_none_and_same_weight_grad(rng):
    # the first encoder block sees raw windows: its dx is skipped, and the
    # weight gradient is the one computed when dx is needed too
    x0 = rng.standard_normal((2, 5, 13)).astype(np.float32)
    w0 = rng.standard_normal((4, 5, 3)).astype(np.float32)
    grads = []
    for x_needs in (True, False):
        x = Tensor(x0.copy(), requires_grad=x_needs)
        w = Tensor(w0.copy(), requires_grad=True)
        dx, dw = backward(T.sum_(T.mul(T.conv1d(x, w, stride=2, padding=1), 0.5)), [x, w])
        assert (dx is None) != x_needs
        grads.append(dw)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_relu_values_and_gradient_mask():
    x0 = np.array([[-2.0, -0.0, 0.0, 1e-30, 3.0]], dtype=np.float32)
    x = Tensor(x0, requires_grad=True)
    out = T.relu(x)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(
        out.data, np.array([[0.0, 0.0, 0.0, 1e-30, 3.0]], dtype=np.float32))
    (dx,) = backward(T.sum_(T.mul(out, np.arange(1, 6, dtype=np.float32))), [x])
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 0.0, 4.0, 5.0]])


def _block_epilogue(fused, head):
    """Loss, values and x / gain / bias gradients of layer-norm, gain, bias
    and relu over a conv1d-shaped input, read by the next block's conv or
    by the encoder's mean pool: both reduce over the block's output in
    memory order, and each sends back a gradient of its own layout."""
    rng = np.random.default_rng(3)
    # big enough that numpy may reuse temporaries (256 KiB and up), and laid
    # out [N, T, F] as conv1d's output is
    base = rng.standard_normal((16, 128, 64)).astype(np.float32)
    x = Tensor(base.transpose(0, 2, 1), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, (64, 1)).astype(np.float32), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, (64, 1)).astype(np.float32), requires_grad=True)
    if fused:
        h = T.layer_norm(x, epilogue=(gain, bias))
    else:
        h = T.relu(T.add(T.mul(T.layer_norm(x), gain), bias))
    if head == "conv":
        w = rng.standard_normal((8, 64, 3)).astype(np.float32)
        out = T.conv1d(h, w, stride=2, padding=1)
    else:
        out = T.global_mean_pool(h)
    loss = T.sum_(T.mul(out, np.cos(np.arange(out.size, dtype=np.float32)).reshape(out.shape)))
    return (loss.data, h.data, *backward(loss, [x, gain, bias]))


@pytest.mark.parametrize("head", ["conv", "pool"])
def test_layer_norm_epilogue_matches_chain_bit_for_bit(head):
    fused = _block_epilogue(True, head)
    chain = _block_epilogue(False, head)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_layer_norm_epilogue_gradcheck(rng):
    x = leaf(rng, 2, 3, 5)
    # bias +-2 and gain <= 0.45 keep every pre-activation at least
    # 0.3 from the kink (|y| <= sqrt(14) over 15 entries), so channel 1 is
    # all blocked and channels 0 and 2 all pass
    gain = leaf(rng, 3, 1, lo=0.2, hi=0.45)
    bias = Tensor(np.array([[2.0], [-2.0], [2.0]], dtype=np.float32), requires_grad=True)

    def f(x, g, b):
        return scalarize(T.layer_norm(x, epilogue=(g, b)))
    check_grad(f, [x, gain, bias], tol=1e-3)
    _, dgain, _ = analytic_grads(f, [x, gain, bias])
    assert not dgain[1].any() and dgain[0].all()


def test_layer_norm_epilogue_raises_where_the_chain_does():
    x = np.array([[0.0, 0.0, 0.0, 10.0]], dtype=np.float32)   # y up to 1.73
    gain = np.array([3e38], dtype=np.float32)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            T.mul(T.layer_norm(x), gain)
        with pytest.raises(NumericError):
            T.layer_norm(x, epilogue=(gain, np.zeros(1, np.float32)))


def test_layer_norm_epilogue_argument_checks():
    x = np.zeros((2, 3, 4), dtype=np.float32)
    g = np.ones((3, 1), dtype=np.float32)
    with pytest.raises(ShapeError):
        T.layer_norm(x, epilogue=(np.ones((2, 3, 3, 1), np.float32), g))
    with pytest.raises(ShapeError):
        T.layer_norm(x, epilogue=(g, np.ones((2, 2, 3, 1), np.float32)))


def test_encoder_block_is_two_graph_nodes():
    from collections import Counter

    from metareplay.models import EncoderConfig, encode, init_encoder_params
    from metareplay.params import ParamVector
    for blocks in (((8, 3, 1),), ((8, 5, 2), (16, 3, 2), (4, 3, 1))):
        cfg = EncoderConfig(blocks=blocks, embedding_dim=blocks[-1][0])
        params = ParamVector(init_encoder_params(cfg, np.random.default_rng(0)))
        loss = T.sum_(encode(params, np.ones((2, 3, 32), np.float32), cfg))
        ops, seen, stack = Counter(), set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in seen and t._vjp is not None:
                seen.add(id(t))
                ops[t._op] += 1
                stack.extend(t._parents)
        assert ops == {"conv1d": len(blocks), "layer_norm": len(blocks),
                       "global_mean_pool": 1, "sum": 1}


def max_pool_loop_oracle(x, kernel, stride):
    n, c, t = x.shape
    t_out = (t - kernel) // stride + 1
    out = np.zeros((n, c, t_out), dtype=x.dtype)
    for o in range(t_out):
        out[:, :, o] = x[:, :, o * stride:o * stride + kernel].max(axis=2)
    return out


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (2, 3)])
def test_max_pool1d_matches_loop_oracle(rng, kernel, stride):
    x = rng.standard_normal((2, 3, 10)).astype(np.float32)
    got = T.max_pool1d(x, kernel, stride).data
    np.testing.assert_allclose(got, max_pool_loop_oracle(x, kernel, stride))


def test_global_mean_pool_is_time_mean(rng):
    x = rng.standard_normal((2, 5, 9)).astype(np.float32)
    np.testing.assert_allclose(T.global_mean_pool(x).data, x.mean(axis=2),
                               atol=1e-6)


def test_sigmoid_stable_at_extremes():
    x = np.array([80.0, -80.0, 0.0], dtype=np.float32)
    out = T.sigmoid(x).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0, 0.5], atol=1e-6)


def test_bce_matches_float64_oracle_at_extremes():
    x = np.array([[50.0, -50.0, 0.3]], dtype=np.float32)
    y = np.array([[0.0, 1.0, 1.0]], dtype=np.float32)
    got = T.binary_cross_entropy_with_logits(x, y).data
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    want = np.maximum(x64, 0) - x64 * y64 + np.log1p(np.exp(-np.abs(x64)))
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_cross_entropy_picks_label_log_prob(rng):
    logits = rng.standard_normal((5, 4)).astype(np.float32)
    labels = np.array([0, 3, 1, 2, 2])
    got = float(T.cross_entropy_with_logits(logits, labels).data)
    lp = T.log_softmax(logits, axis=1).data
    want = -lp[np.arange(5), labels].mean()
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_l2_normalize_gives_unit_rows(rng):
    x = rng.uniform(0.5, 2.0, (4, 6)).astype(np.float32)
    z = T.l2_normalize(x, axis=1).data
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), np.ones(4), atol=1e-5)


# ---------------------------------------------------------------------------
# gradient checks

def _case_id(case):
    return case[0]


@pytest.mark.parametrize("case", primitive_cases(np.random.default_rng(7)),
                         ids=_case_id)
def test_gradcheck_primitive(case):
    name, f, xs = case
    check_grad(f, xs, tol=1e-3)


@pytest.mark.parametrize("case", random_net_cases(np.random.default_rng(11)),
                         ids=_case_id)
def test_gradcheck_random_net(case):
    name, f, xs = case
    check_grad(f, xs, tol=1e-3)


# ---------------------------------------------------------------------------
# graph semantics

def test_fanout_gradients_accumulate():
    x = Tensor(np.array([1.5, -0.5], dtype=np.float32), requires_grad=True)
    y = T.sum_(T.add(T.mul(x, x), x))     # x^2 + x -> 2x + 1
    (dx,) = backward(y, [x])
    np.testing.assert_allclose(dx, 2 * x.data + 1, rtol=1e-6)


def _shared_leaf_losses(rng):
    """Three differently shaped losses over the same two leaves."""
    x, w = leaf(rng, 4, 6), leaf(rng, 6, 3)
    losses = [lambda: T.cross_entropy_with_logits(T.matmul(T.tanh(x), w),
                                                  np.array([0, 1, 2, 0])),
              lambda: T.sum_(T.mul(T.matmul(x, w), T.matmul(x, w))),
              lambda: T.mean(T.exp(T.mul(T.matmul(x, w), 0.25)))]
    return [x, w], losses


def _grad_bytes(grads):
    return [g.tobytes() for g in grads]


def test_graphs_on_shared_leaves_give_their_own_gradients(rng):
    # every graph is built before any backward runs: each call must return
    # the bytes its loss gets when taken alone, and no leaf is written to
    leaves, losses = _shared_leaf_losses(rng)
    alone = [_grad_bytes(backward(loss(), leaves)) for loss in losses]
    before = [x.data.tobytes() for x in leaves]
    built = [loss() for loss in losses]
    assert [_grad_bytes(backward(loss, leaves)) for loss in reversed(built)] \
        == alone[::-1]
    assert [x.data.tobytes() for x in leaves] == before
    assert all(not hasattr(x, "grad") for x in leaves)


def test_graphs_on_shared_leaves_on_threads_match_serial(rng, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    leaves, losses = _shared_leaf_losses(rng)
    losses = losses * 4
    serial = [_grad_bytes(backward(loss(), leaves)) for loss in losses]
    threads = set()

    def run(loss):
        threads.add(threading.get_ident())
        built = loss()
        time.sleep(0.001)                   # let the other threads build theirs
        return _grad_bytes(backward(built, leaves))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert list(T.parallel_map(run, losses)) == serial
    finally:
        sys.setswitchinterval(old)
    assert len(threads) > 1


def test_backward_returns_none_for_what_is_not_a_reached_leaf(rng):
    x, unused = leaf(rng, 3, 4), leaf(rng, 2)
    h = T.tanh(x)
    loss = T.sum_(T.mul(h, h))
    dx, dh, dloss, dunused = backward(loss, [x, h, loss, unused])
    assert dx is not None and dx.shape == (3, 4)
    assert dh is None and dloss is None and dunused is None


def test_backward_consumes_the_graph(rng):
    x = leaf(rng, 3, 4)
    h = T.tanh(x)
    loss = T.sum_(h)
    backward(loss, [x])
    with pytest.raises(GraphError, match="consumed"):
        backward(loss, [x])
    # a second loss on the consumed node must not look like one on a leaf
    with pytest.raises(GraphError, match="consumed"):
        backward(T.sum_(T.mul(h, 2.0)), [x])


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def test_conv1d_outputs_die_once_encode_returns(monkeypatch):
    import weakref

    from metareplay.models import EncoderConfig, encode, init_encoder_params
    from metareplay.params import ParamVector, grad_of
    cfg = EncoderConfig(blocks=((8, 5, 2), (16, 3, 2), (4, 3, 1)), embedding_dim=4)
    x = np.random.default_rng(0).standard_normal((4, 3, 32)).astype(np.float32)
    conv = T.conv1d

    def grads(hold):
        refs, held = [], []

        def traced(*args, **kwargs):
            out = conv(*args, **kwargs)
            refs.append(weakref.ref(_owner(out.data)))
            held.extend([out] if hold else [])
            return out

        monkeypatch.setattr(T, "conv1d", traced)
        params = ParamVector(init_encoder_params(cfg, np.random.default_rng(1)))
        loss = T.sum_(encode(params, x, cfg))
        assert len(refs) == len(cfg.blocks) and loss.requires_grad
        assert all((r() is None) != hold for r in refs)
        return grad_of(loss, params)

    freed, kept = grads(hold=False), grads(hold=True)
    for (name, a), (_, b) in zip(freed, kept):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_backward_leaves_a_held_op_output_intact(rng):
    x, w = leaf(rng, 2, 3, 9), leaf(rng, 4, 3, 3)
    h = T.conv1d(x, w, padding=1)
    before = h.data.copy()
    ones, zeros = np.ones((4, 1), np.float32), np.zeros((4, 1), np.float32)
    dh, dx, dw = backward(T.sum_(T.layer_norm(h, epilogue=(ones, zeros))), [h, x, w])
    np.testing.assert_array_equal(h.data, before)
    assert dh is None and dx is not None and dw is not None


def _training_step(kind="simclr", batch=64):
    """The default bundle of an objective kind, a batch of 256-sample
    windows and a training step that does not hold its loss across steps."""
    from metareplay.optim import adam_step
    from metareplay.params import grad_of
    from metareplay.pretext import OBJECTIVES, eval_ssl, init_for_objective
    obj = OBJECTIVES[kind]()
    params = init_for_objective(obj, 4, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((batch, 3, 256)).astype(np.float32)

    def loss_of(params, seed):
        return eval_ssl(obj, params, x, np.random.default_rng(seed))

    def step(params, state, seed):
        return adam_step(params, grad_of(loss_of(params, seed), params), state, lr=1e-3)

    return params, loss_of, step


def test_grad_of_frees_the_graph_while_the_loss_is_held():
    import tracemalloc

    from metareplay.params import grad_of
    params, loss_of, _step = _training_step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_of(params, 0)
        grads = grad_of(loss, params)
        alive = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad and len(grads) == len(params)
    assert alive < 1 << 20          # the parameter gradients are 0.13 MiB


def test_simclr_graph_keeps_only_what_backward_reads():
    import tracemalloc
    params, loss_of, _step = _training_step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_of(params, 0)
        alive = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    # 11.7 MiB; 26.8 MiB while the graph kept each block's conv output and
    # im2col matrix
    assert alive < 14 << 20


@pytest.mark.parametrize("kind,budget_mib", [("simclr", 18), ("cpc", 9.5),
                                             ("multitask", 9.5)])
def test_backward_peak_stays_within_budget(kind, budget_mib):
    import tracemalloc

    from metareplay.params import grad_of
    params, loss_of, _step = _training_step(kind)
    tracemalloc.start()
    try:
        loss = loss_of(params, 0)
        tracemalloc.reset_peak()
        grad_of(loss, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the graph plus backward's buffers: 16.5 / 8.8 / 8.2 MiB; 20.6 / 10.9 /
    # 10.3 MiB while the layer-norm, pooling and conv vjps held every
    # buffer until they returned
    assert peak < budget_mib * (1 << 20)


# One training step's loss and parameter gradients (each gradient's name,
# shape, strides and bytes), sha256-hashed per objective kind and batch:
# a rounding or layout change anywhere in the engine moves them. BLAS
# kernels round by build, so the digests hold for the numpy and BLAS
# build they were recorded with.
_STEP_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0")
_STEP_DIGESTS = {
    ("simclr", 64): "d4dd1364ce3e474e", ("simclr", 16): "24e873c3104dfed8",
    ("cpc", 64): "da7f49376f396e66", ("cpc", 16): "2a38081ef2cdcac5",
    ("multitask", 64): "7d4a17152f6c51d2", ("multitask", 16): "9a135a1b899cb246",
}


def _numpy_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):           # numpy before 1.26
        return None
    return np.__version__, blas.get("name"), blas.get("version")


@pytest.mark.skipif(_numpy_build() != _STEP_BUILD,
                    reason=f"digests recorded with numpy, BLAS {_STEP_BUILD}")
@pytest.mark.parametrize("kind,batch", list(_STEP_DIGESTS))
def test_one_training_step_is_pinned_to_the_byte(kind, batch):
    import hashlib

    from metareplay.params import grad_of
    params, loss_of, _step = _training_step(kind, batch)
    loss = loss_of(params, 2)
    h = hashlib.sha256(loss.data.tobytes())
    for name, g in grad_of(loss, params):
        h.update(name.encode())
        h.update(repr((g.data.shape, g.data.strides)).encode())
        h.update(g.data.tobytes())
    assert h.hexdigest()[:16] == _STEP_DIGESTS[kind, batch]


# Each objective's default bundle as init_for_objective draws it from
# default_rng(0): every entry's name, shape, strides and bytes, hashed.
# Moving a head's initializer or its draws moves the digest. No BLAS call
# is involved, so the digests do not depend on the build.
_INIT_DIGESTS = {"simclr": "e117deabcd2d8ad4", "cpc": "4455b176d020e043",
                 "multitask": "39c7aaee1f16ba53"}


@pytest.mark.parametrize("kind", list(_INIT_DIGESTS))
def test_initial_bundle_is_pinned_to_the_byte(kind):
    import hashlib

    from metareplay.pretext import OBJECTIVES, init_for_objective
    params = init_for_objective(OBJECTIVES[kind](), 4, np.random.default_rng(0))
    h = hashlib.sha256()
    for name, p in params:
        h.update(name.encode())
        h.update(repr((p.data.shape, p.data.strides)).encode())
        h.update(p.data.tobytes())
    assert h.hexdigest()[:16] == _INIT_DIGESTS[kind]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_steady_training_steps_do_not_fault_the_heap_back_in():
    import resource
    params, _loss_of, step = _training_step()
    state = None
    for seed in range(3):
        params, state = step(params, state, seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in range(3, 8):
        params, state = step(params, state, seed)
    # a heap trimmed after every step is faulted back in at ~9,000 per step
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = T.mul(x, 3.0)
    with pytest.raises(GraphError):
        backward(y, [x])


def test_backward_rejects_detached_scalar():
    x = Tensor(np.float32(2.0))
    with pytest.raises(GraphError):
        backward(x, [x])


def test_detach_stops_gradient():
    x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
    y = T.sum_(T.mul(Tensor(x.data), x))  # d/dx (c * x) = c
    (dx,) = backward(y, [x])
    np.testing.assert_allclose(dx, x.data)


def test_no_graph_without_requires_grad():
    a = Tensor(np.ones(3, dtype=np.float32))
    out = T.sum_(T.mul(a, a))
    with pytest.raises(GraphError):
        backward(out, [a])


def test_broadcast_gradient_shapes(rng):
    a = leaf(rng, 3, 1)
    b = leaf(rng, 1, 4)
    loss = T.sum_(T.add(a, b))
    da, db = backward(loss, [a, b])
    assert da.shape == (3, 1)
    assert db.shape == (1, 4)
    np.testing.assert_allclose(da, np.full((3, 1), 4.0))
    np.testing.assert_allclose(db, np.full((1, 4), 3.0))


def test_getitem_sugar_routes_through_slice(rng):
    x = leaf(rng, 4, 5)
    y = x[1:3, ::2]
    assert y.shape == (2, 3)
    (dx,) = backward(T.sum_(y), [x])
    assert dx.shape == (4, 5)
    assert dx.sum() == pytest.approx(6.0)


def test_backward_linearity(rng):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g)."""
    x0 = rng.uniform(0.5, 1.5, (3, 4)).astype(np.float32)

    def f(x):
        return T.sum_(T.mul(T.tanh(x), x))

    def g(x):
        return T.mean(T.exp(T.mul(x, 0.5)))

    a, b = 0.7, -1.3
    x = Tensor(x0.copy(), requires_grad=True)
    (combined,) = backward(T.add(T.mul(f(x), a), T.mul(g(x), b)), [x])
    (df,) = backward(f(x), [x])
    (dg,) = backward(g(x), [x])
    np.testing.assert_allclose(combined, a * df + b * dg, atol=1e-5)


def test_forward_and_backward_bit_deterministic():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)

    def run(rng):
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)).astype(np.float32),
                   requires_grad=True)
        out = T.cross_entropy_with_logits(T.matmul(T.tanh(x), w),
                                          np.array([0, 1, 2, 0]))
        dx, dw = backward(out, [x, w])
        return out.data.tobytes(), dx.tobytes(), dw.tobytes()

    assert run(rng1) == run(rng2)


# ---------------------------------------------------------------------------
# numeric and shape guards

def test_div_by_zero_raises():
    with pytest.raises(NumericError):
        T.div(np.ones(2, dtype=np.float32), np.zeros(2, dtype=np.float32))


def test_log_of_zero_raises():
    with pytest.raises(NumericError):
        T.log(np.zeros(2, dtype=np.float32))


def test_exp_overflow_raises():
    with pytest.raises(NumericError):
        T.exp(np.array([200.0], dtype=np.float32))


def test_sqrt_of_negative_raises():
    with pytest.raises(NumericError):
        T.sqrt(np.array([-1.0], dtype=np.float32))


def test_matmul_rejects_1d():
    with pytest.raises(ShapeError):
        T.matmul(np.ones(3, dtype=np.float32), np.ones(3, dtype=np.float32))


def test_matmul_rejects_inner_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(np.ones((2, 3), dtype=np.float32),
                 np.ones((4, 2), dtype=np.float32))


def test_concat_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        T.concat([np.ones((2, 3), dtype=np.float32),
                  np.ones((2, 4), dtype=np.float32)], axis=0)


def test_conv1d_rejects_channel_mismatch(rng):
    with pytest.raises(ShapeError):
        T.conv1d(np.ones((1, 3, 8), dtype=np.float32),
                 np.ones((2, 4, 3), dtype=np.float32))


def test_conv1d_rejects_kernel_longer_than_input():
    with pytest.raises(ShapeError):
        T.conv1d(np.ones((1, 2, 3), dtype=np.float32),
                 np.ones((2, 2, 5), dtype=np.float32))


# ---------------------------------------------------------------------------
# parallel_map

def test_parallel_map_keeps_item_order_with_more_workers_than_cores(monkeypatch):
    # eight workers on however many cores, items finishing out of order and
    # a short switch interval: results must still come back in item order
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    threads = set()

    def product(i, j):
        threads.add(threading.get_ident())
        time.sleep(0.001 * (i * 7 % 5))
        return i * j

    runs = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for blas_threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
            threads.clear()
            runs[blas_threads] = list(T.parallel_map(product, range(40), range(40))), \
                set(threads)
    finally:
        sys.setswitchinterval(old)
    assert runs["1"][0] == runs["2"][0] == [i * i for i in range(40)]
    assert len(runs["1"][1]) > 1
    assert runs["2"][1] == {threading.get_ident()}      # unpinned: calling thread
