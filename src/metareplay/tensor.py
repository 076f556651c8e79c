"""Minimal dense float32 tensor engine with reverse-mode autodiff.

Supports exactly the operations needed for small 1D CNNs, a gated
recurrent aggregator, and the contrastive / detection losses built on
top: elementwise arithmetic, matmul, conv1d, pooling, normalization,
softmax-family ops, and the stable loss primitives.

The graph is rebuilt on every forward pass (define-by-run) and consumed
by the one backward pass that runs on it: each node drops its saved
buffers and its parents as soon as its vjp has run, and only leaves keep
a gradient. Any op that produces a non-finite value raises immediately
instead of letting NaN or Inf propagate.

Graph structure is kept apart from tensor data. An op output's
:class:`Node` links the nodes of its inputs and holds no array; the only
arrays the graph keeps are the ones its vjps close over, and a vjp closes
over exactly what it reads (an input's shape where that is all it needs).
An op output's ``data`` therefore lives only as long as the caller holds
the Tensor or a vjp reads it: an encoder block's conv output dies as soon
as its layer-norm has run, and ``conv1d`` rebuilds its im2col matrix in
backward instead of keeping it.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's rule."""


class NumericError(ArithmeticError):
    """An op produced NaN or Inf."""


class GraphError(RuntimeError):
    """Backward called on an invalid target (non-scalar, detached, or a
    graph that an earlier backward already consumed)."""


def one_blas_thread() -> bool:
    """Whether the environment pins BLAS to one thread: one of the
    OpenBLAS, MKL or OpenMP thread variables is 1 and none is set to
    anything else."""
    settings = {os.environ.get(v) for v in
                ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}
    return settings - {None} == {"1"}


def parallel_map(fn: Callable, *items: Sequence) -> Iterator:
    """fn over the zipped item sequences, results yielded in item order.

    The calls run on one worker thread per usable CPU (at most one per
    item) when one_blas_thread() holds, and on the calling thread
    otherwise: an unpinned OpenBLAS already spreads each matmul over the
    cores, and worker threads on top of it made a meta pre-training run
    about 28% slower. Each call must own every Tensor it takes a gradient
    through, because backward writes .grad onto the leaves it reaches.
    """
    workers = 1
    if one_blas_thread():
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:              # no affinity call on this OS
            cpus = os.cpu_count() or 1
        workers = min(len(items[0]), cpus)
    if workers <= 1:
        yield from map(fn, *items)
        return
    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(fn, *items)


def _keep_freed_heap() -> None:
    """Let glibc keep the heap that a consumed graph frees.

    Backward frees each step's graph while it runs, so the heap top is
    free at the end of every step. With glibc's default dynamic thresholds
    the allocator then trims it and the next forward pass faults it back
    in: about 8,800 minor faults per batch-64 SimCLR step (256-sample
    windows, default encoder), against none with both thresholds below.
    Both are set because setting either one switches the dynamic
    thresholds off: with the trim threshold alone a step took about
    29,000 faults (113 MiB), with the mmap threshold alone about 12,000
    (48 MiB), and the step ran up to twice as long. 32 MiB is the ceiling
    glibc's own dynamic mmap threshold reaches on 64-bit hosts.

    With BLAS pinned to one thread, parallel_map runs the meta loops'
    tasks (meta.py) and the sweep's cells (harness.py) on threads, and one
    arena (M_ARENA_MAX) keeps those threads on this same heap: with
    glibc's per-thread arenas, each thread's freed graphs stayed in an
    arena of its own, and peak RSS of a benchmark meta pre-training run
    rose from 86.8 to 99.7 MiB (+15%) with two task threads, against
    +4.4% with one arena. The sweep's cell threads, which replay and
    fine-tune one cell each, allocate from the same one arena. Without the
    pin there are no worker threads, and one arena made a meta
    pre-training run a few percent slower next to OpenBLAS's own threads,
    so the default stays. Where there is no mallopt, nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)          # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    if one_blas_thread():
        mallopt(-8, 1)              # M_ARENA_MAX


_keep_freed_heap()


ArrayLike = Union["Tensor", np.ndarray, float, int, list]


class Node:
    """One recorded op: its name, its vjp and the graph nodes of its inputs.

    A node holds no array itself. Its parents are other nodes, leaves
    (which are Tensors, so that ``.grad`` lands on them) or ``_CONSTANT``
    for an input that needs no gradient, in the order the vjp returns
    their gradients.
    """

    __slots__ = ("requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, op: str, parents: tuple,
                 vjp: Optional[Callable[[np.ndarray], tuple]]):
        self.requires_grad = True
        self._parents = parents
        self._vjp = vjp
        self._op = op


# stands in for every input that needs no gradient, so the graph keeps none
_CONSTANT = Node("constant", (), None)
_CONSTANT.requires_grad = False


class Tensor:
    """A float32 ndarray plus the bookkeeping for reverse-mode autodiff.

    ``grad`` is populated by :func:`backward` for every leaf (a tensor
    built with ``requires_grad=True``, not by an op) reachable from the
    loss; op outputs keep ``grad = None``. Data arrays are treated as
    immutable once wrapped; ops always allocate fresh outputs.

    An op output that requires grad points at its graph :class:`Node`;
    ``_parents``, ``_vjp`` and ``_op`` read through to it (a leaf has
    none, no vjp and op ``"leaf"``). The graph does not point back at
    the Tensor, so the Tensor and its ``data`` go when the caller drops
    them, unless a vjp reads that array.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[Node] = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self) -> Optional[Callable[[np.ndarray], tuple]]:
        return None if self._node is None else self._node._vjp

    @property
    def _op(self) -> str:
        return "leaf" if self._node is None else self._node._op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # Operator sugar; all routed through the module-level ops.
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(other, self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def __getitem__(self, key) -> "Tensor":
        return slice_(self, key)


def as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


def _graph_node(t: Tensor):
    """What the graph links for input ``t``: its op node, the leaf itself,
    or the shared constant."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else _CONSTANT


def _result(op: str, data: np.ndarray, parents: Sequence[Tensor],
            vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    data = np.asarray(data, dtype=np.float32)
    _check_finite(op, data)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = Node(op, tuple(_graph_node(p) for p in parents), vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _consumed(g: np.ndarray) -> tuple:
    raise GraphError("graph already consumed by backward")


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; consumes the graph.

    Populates ``t.grad`` (overwriting any previous value) for every leaf
    with ``requires_grad`` reachable from ``loss``. Each node in the
    recorded graph is visited exactly once; gradients accumulate
    additively across fan-out. Once a node's vjp has run, the node lets go
    of its parents and saved buffers, so the graph's memory is freed as
    the pass goes and not when the caller drops the loss. A graph serves
    one backward: running backward again on the same loss, or on another
    loss built on a consumed node, raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward target must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("backward target is detached from any differentiable input")

    root = _graph_node(loss)
    topo: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
        node._vjp, node._parents = _consumed, ()


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules)

# Each vjp closes over the arrays or shapes it reads, never over an input
# Tensor: the graph would otherwise keep that input's data alive.

def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _result("add", a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _result("sub", a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    return _result("mul", ad * bd, (a, b),
                   lambda g: (_unbroadcast(g * bd, ad.shape),
                              _unbroadcast(g * ad, bd.shape)))


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ad / bd
    return _result("div", out, (a, b),
                   lambda g: (_unbroadcast(g / bd, ad.shape),
                              _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _result("matmul", ad @ bd, (a, b),
                   lambda g: (g @ bd.T, ad.T @ g))


# ---------------------------------------------------------------------------
# shape ops

def reshape(x: ArrayLike, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape, in_shape = tuple(shape), x.shape
    return _result("reshape", x.data.reshape(shape), (x,),
                   lambda g: (g.reshape(in_shape),))


def transpose(x: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _result("transpose", x.data.transpose(axes), (x,),
                   lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of empty sequence")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result("concat", data, ts, vjp)


def slice_(x: ArrayLike, key) -> Tensor:
    """Basic indexing (ints / slices / tuples thereof) with gradient scatter."""
    x = as_tensor(x)
    data = x.data[key]
    shape = x.shape

    def vjp(g):
        dx = np.zeros(shape, dtype=np.float32)
        dx[key] = g
        return (dx,)

    return _result("slice", data, (x,), vjp)


# ---------------------------------------------------------------------------
# activations / pointwise

def relu(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def vjp(g):
        # a float32 copy of the mask: multiplying by the boolean mask
        # itself takes numpy's slow mixed-dtype loop. It is bound to a
        # name on purpose: numpy may write a product into a temporary
        # operand, handing its memory layout to the gradient, and the
        # reductions downstream would then round differently.
        gate = mask.astype(np.float32)
        return (g * gate,)

    # maximum, not where: the same values, and where is much slower
    return _result("relu", np.maximum(x.data, np.float32(0.0)), (x,), vjp)


def tanh(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)
    return _result("tanh", t, (x,), lambda g: (g * (1.0 - t * t),))


def sigmoid(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    # stable in both tails
    s = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                 np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    s = s.astype(np.float32)
    return _result("sigmoid", s, (x,), lambda g: (g * s * (1.0 - s),))


def exp(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        e = np.exp(x.data)
    return _result("exp", e, (x,), lambda g: (g * e,))


def log(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xd)
    return _result("log", out, (x,), lambda g: (g / xd,))


def sqrt(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    with np.errstate(invalid="ignore"):
        s = np.sqrt(x.data)
    return _result("sqrt", s, (x,), lambda g: (g * 0.5 / s,))


# ---------------------------------------------------------------------------
# reductions

def _restore_axes(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def sum_(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    shape = x.shape
    return _result("sum", x.data.sum(axis=axis, keepdims=keepdims), (x,),
                   lambda g: (_restore_axes(g, shape, axis, keepdims),))


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    shape = x.shape
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else x.size // max(out.size, 1)
    return _result("mean", out, (x,),
                   lambda g: (_restore_axes(g, shape, axis, keepdims) / count,))


# ---------------------------------------------------------------------------
# softmax family

def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _result("softmax", s, (x,), vjp)


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(lsm) * g.sum(axis=axis, keepdims=True),)

    return _result("log_softmax", lsm, (x,), vjp)


# ---------------------------------------------------------------------------
# normalization

def layer_norm(x: ArrayLike, eps: float = 1e-5, *,
               epilogue: Optional[tuple[ArrayLike, ArrayLike]] = None) -> Tensor:
    """Normalize each sample (axis 0 is the batch) to zero mean, unit variance.

    Statistics are computed over all non-batch axes per sample; there are
    no running statistics. With ``epilogue=(gain, bias)``, each
    broadcasting over one sample (per-channel [C, 1] for [N, C, T]), the op
    is an encoder block's tail: it returns ``max(y * gain + bias, 0)`` as
    one graph node. Its values and gradients equal those of the chain
    layer_norm -> mul -> add -> relu bit for bit, but it keeps only the
    normalized ``y``, the per-sample ``1/sigma`` and its own output (the
    relu gate is ``out > 0``) for the backward pass.
    """
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"layer_norm expects batched input, got shape {x.shape}")
    axes = tuple(range(1, x.ndim))
    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv

    def norm_vjp(g):
        gm = g.mean(axis=axes, keepdims=True)
        gy = (g * y).mean(axis=axes, keepdims=True)
        return (g - gm - y * gy) * inv

    if epilogue is None:
        return _result("layer_norm", y, (x,), lambda g: (norm_vjp(g),))

    gain, bias = (as_tensor(p) for p in epilogue)
    for name, p in (("gain", gain), ("bias", bias)):
        try:
            fits = np.broadcast_shapes(x.shape, p.shape) == x.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"layer_norm {name} shape {p.shape} does not broadcast "
                             f"over input {x.shape}")
    # the chain's expressions in its operand order; the in-place steps
    # only touch this op's own fresh array
    gd, g_shape, b_shape = gain.data, gain.shape, bias.shape
    out = y * gd
    out += bias.data
    np.maximum(out, np.float32(0.0), out=out)

    def vjp(g):
        # named for the reason given in relu()
        gate = (out > 0).astype(np.float32)
        g = g * gate
        return (norm_vjp(g * gd), _unbroadcast(g * y, g_shape),
                _unbroadcast(g, b_shape))

    return _result("layer_norm", out, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# convolution / pooling

def _im2col(xd: np.ndarray, k: int, stride: int, padding: int, t_out: int) -> np.ndarray:
    """cols[(i, t), (ch, kk)] = xpad[i, ch, t * stride + kk] for x [N, C, T].

    The padded input is laid out [N, T_pad, C] and copied one tap at a
    time, which is far faster than gathering the [N, T_out, C, K] window
    view in one go once C is more than a few channels.
    """
    n, c, t = xd.shape
    xpt = np.empty((n, t + 2 * padding, c), dtype=np.float32)
    xpt[:, :padding, :] = 0.0               # only the pad needs zeros
    xpt[:, padding + t:, :] = 0.0
    xpt[:, padding:padding + t, :] = xd.transpose(0, 2, 1)
    cols4 = np.empty((n, t_out, c, k), dtype=np.float32)
    for kk in range(k):
        cols4[:, :, :, kk] = xpt[:, kk:kk + stride * t_out:stride, :]
    return cols4.reshape(n * t_out, c * k)


def conv1d(x: ArrayLike, w: ArrayLike, stride: int = 1, padding: int = 0) -> Tensor:
    """1-d cross-correlation without bias.

    x: [N, C, T], w: [F, C, K]. Output [N, F, T_out] with
    T_out = (T + 2*padding - K) // stride + 1. Backward keeps only the
    input and the kernel arrays: the im2col matrix, K times the input's
    size, is built again from the input when the weight gradient needs it.
    """
    x = as_tensor(x)
    w = as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects x [N,C,T] and w [F,C,K], got {x.shape}, {w.shape}")
    n, c, t = x.shape
    f, cw, k = w.shape
    if c != cw:
        raise ShapeError(f"conv1d channel mismatch: input has {c}, kernel expects {cw}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv1d invalid stride={stride} padding={padding}")
    t_pad = t + 2 * padding
    if t_pad < k:
        raise ShapeError(f"conv1d length {t} + 2*{padding} shorter than kernel {k}")
    t_out = (t_pad - k) // stride + 1

    xd, x_needs = x.data, x.requires_grad
    wmat = w.data.reshape(f, c * k)
    out = (_im2col(xd, k, stride, padding, t_out) @ wmat.T
           ).reshape(n, t_out, f).transpose(0, 2, 1)

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * t_out, f)
        dw = (g2.T @ _im2col(xd, k, stride, padding, t_out)).reshape(f, c, k)
        dx = None
        if x_needs:                         # raw input windows need no dx
            # one product per sample lays the taps out [N, C, K, T_out], so
            # the scatter below reads contiguous rows
            dcols = np.matmul(wmat.T, g).reshape(n, c, k, t_out)
            dxp = np.zeros((n, c, t_pad), dtype=np.float32)
            for kk in range(k):
                dxp[:, :, kk:kk + stride * t_out:stride] += dcols[:, :, kk, :]
            dx = dxp[:, :, padding:padding + t] if padding else dxp
        return dx, dw

    return _result("conv1d", out, [x, w], vjp)


def max_pool1d(x: ArrayLike, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the time axis of [N, C, T]; no padding."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"max_pool1d expects [N,C,T], got {x.shape}")
    if stride is None:
        stride = kernel
    n, c, t = x.shape
    if t < kernel:
        raise ShapeError(f"max_pool1d kernel {kernel} exceeds length {t}")
    win = sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride, :]
    t_out = win.shape[2]
    arg = win.argmax(axis=3)                       # [N,C,T_out]
    out = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]

    def vjp(g):
        dx = np.zeros((n, c, t), dtype=np.float32)
        starts = np.arange(t_out) * stride
        pos = starts[None, None, :] + arg           # absolute time index of each max
        ni, ci = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        np.add.at(dx, (ni[..., None], ci[..., None], pos), g)
        return (dx,)

    return _result("max_pool1d", out, (x,), vjp)


def global_mean_pool(x: ArrayLike) -> Tensor:
    """[N, C, T] -> [N, C], mean over time."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"global_mean_pool expects [N,C,T], got {x.shape}")
    t = x.shape[2]
    return _result("global_mean_pool", x.data.mean(axis=2), (x,),
                   lambda g: (np.repeat(g[:, :, None], t, axis=2) / t,))


# ---------------------------------------------------------------------------
# losses and similarity (composites over the primitives above, except the
# numerically fused binary cross-entropy)

def l2_normalize(x: ArrayLike, axis: int = -1, eps: float = 1e-8) -> Tensor:
    x = as_tensor(x)
    norm = sqrt(sum_(mul(x, x), axis=axis, keepdims=True) + eps * eps)
    return div(x, norm)


def cross_entropy_with_logits(logits: ArrayLike, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; labels are integer class indices [n]."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_with_logits expects [n, classes], got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits rows {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"label out of range for {c} classes")
    onehot = np.zeros((n, c), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    return div(sum_(mul(log_softmax(logits, axis=1), onehot)), -float(n))


def binary_cross_entropy_with_logits(logits: ArrayLike, targets: ArrayLike) -> Tensor:
    """Elementwise stable BCE; compose with mean() for a scalar."""
    logits = as_tensor(logits)
    tg = as_tensor(targets).data
    if tg.shape != logits.shape:
        raise ShapeError(f"bce shapes differ: logits {logits.shape}, targets {tg.shape}")
    x = logits.data
    out = np.maximum(x, 0.0) - x * tg + np.log1p(np.exp(-np.abs(x)))
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _result("bce_with_logits", out, (logits,), lambda g: (g * (s - tg),))
