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

from gradcheck import check_grad, leaf, primitive_cases, random_net_cases, scalarize


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
    backward(T.sum_(T.mul(out, g)))
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
    np.testing.assert_array_equal(w.grad, (g2.T @ cols).reshape(f, c, k))


def test_conv1d_input_without_grad_gets_none_and_same_weight_grad(rng):
    # the first encoder block sees raw windows: its dx is skipped, and the
    # weight gradient is the one computed when dx is needed too
    x0 = rng.standard_normal((2, 5, 13)).astype(np.float32)
    w0 = rng.standard_normal((4, 5, 3)).astype(np.float32)
    grads = []
    for x_needs in (True, False):
        x = Tensor(x0.copy(), requires_grad=x_needs)
        w = Tensor(w0.copy(), requires_grad=True)
        backward(T.sum_(T.mul(T.conv1d(x, w, stride=2, padding=1), 0.5)))
        assert (x.grad is None) != x_needs
        grads.append(w.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_relu_values_and_gradient_mask():
    x0 = np.array([[-2.0, -0.0, 0.0, 1e-30, 3.0]], dtype=np.float32)
    x = Tensor(x0, requires_grad=True)
    out = T.relu(x)
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(
        out.data, np.array([[0.0, 0.0, 0.0, 1e-30, 3.0]], dtype=np.float32))
    backward(T.sum_(T.mul(out, np.arange(1, 6, dtype=np.float32))))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0, 4.0, 5.0]])


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
    backward(loss)
    return loss.data, h.data, x.grad, gain.grad, bias.grad


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
    assert not gain.grad[1].any() and gain.grad[0].all()


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
    backward(y)
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, rtol=1e-6)


def test_backward_overwrites_grad():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    loss = T.sum_(T.mul(x, 2.0))
    backward(loss)
    first = x.grad.copy()
    loss2 = T.sum_(T.mul(x, 2.0))
    backward(loss2)
    np.testing.assert_allclose(x.grad, first)


def test_backward_keeps_grads_on_leaves_only(rng):
    x = leaf(rng, 3, 4)
    h = T.tanh(x)
    loss = T.sum_(T.mul(h, h))
    backward(loss)
    assert x.grad is not None and x.grad.shape == (3, 4)
    assert h.grad is None and loss.grad is None


def test_backward_consumes_the_graph(rng):
    x = leaf(rng, 3, 4)
    h = T.tanh(x)
    loss = T.sum_(h)
    backward(loss)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)
    # a second loss on the consumed node must not look like one on a leaf
    with pytest.raises(GraphError, match="consumed"):
        backward(T.sum_(T.mul(h, 2.0)))


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
    backward(T.sum_(T.layer_norm(h, epilogue=(ones, zeros))))
    np.testing.assert_array_equal(h.data, before)
    assert h.grad is None and x.grad is not None and w.grad is not None


def _simclr_batch64():
    """Default SimCLR bundle, a batch of 64 256-sample windows and a
    training step that does not hold its loss across steps."""
    from metareplay.optim import adam_step
    from metareplay.params import grad_of
    from metareplay.pretext import SimCLRObjective, eval_ssl, init_for_objective
    obj = SimCLRObjective()
    params = init_for_objective(obj, 4, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((64, 3, 256)).astype(np.float32)

    def loss_of(params, seed):
        return eval_ssl(obj, params, x, np.random.default_rng(seed))

    def step(params, state, seed):
        return adam_step(params, grad_of(loss_of(params, seed), params), state, lr=1e-3)

    return params, loss_of, step


def test_grad_of_frees_the_graph_while_the_loss_is_held():
    import tracemalloc

    from metareplay.params import grad_of
    params, loss_of, _step = _simclr_batch64()
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
    params, loss_of, _step = _simclr_batch64()
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_steady_training_steps_do_not_fault_the_heap_back_in():
    import resource
    params, _loss_of, step = _simclr_batch64()
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
        backward(y)


def test_backward_rejects_detached_scalar():
    x = Tensor(np.float32(2.0))
    with pytest.raises(GraphError):
        backward(x)


def test_detach_stops_gradient():
    x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
    y = T.sum_(T.mul(Tensor(x.data), x))  # d/dx (c * x) = c
    backward(y)
    np.testing.assert_allclose(x.grad, x.data)


def test_no_graph_without_requires_grad():
    a = Tensor(np.ones(3, dtype=np.float32))
    out = T.sum_(T.mul(a, a))
    with pytest.raises(GraphError):
        backward(out)


def test_broadcast_gradient_shapes(rng):
    a = leaf(rng, 3, 1)
    b = leaf(rng, 1, 4)
    loss = T.sum_(T.add(a, b))
    backward(loss)
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))


def test_getitem_sugar_routes_through_slice(rng):
    x = leaf(rng, 4, 5)
    y = x[1:3, ::2]
    assert y.shape == (2, 3)
    backward(T.sum_(y))
    assert x.grad.shape == (4, 5)
    assert x.grad.sum() == pytest.approx(6.0)


def test_backward_linearity(rng):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g)."""
    x0 = rng.uniform(0.5, 1.5, (3, 4)).astype(np.float32)

    def f(x):
        return T.sum_(T.mul(T.tanh(x), x))

    def g(x):
        return T.mean(T.exp(T.mul(x, 0.5)))

    a, b = 0.7, -1.3
    x = Tensor(x0.copy(), requires_grad=True)
    backward(T.add(T.mul(f(x), a), T.mul(g(x), b)))
    combined = x.grad.copy()

    x1 = Tensor(x0.copy(), requires_grad=True)
    backward(f(x1))
    x2 = Tensor(x0.copy(), requires_grad=True)
    backward(g(x2))
    np.testing.assert_allclose(combined, a * x1.grad + b * x2.grad, atol=1e-5)


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
        backward(out)
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

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
