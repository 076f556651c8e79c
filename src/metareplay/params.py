"""Named parameter collections and their on-disk format.

A ParamVector is an ordered, immutable mapping name -> Tensor. All of
the training code is written functionally: optimizer steps and inner
adaptation return a new ParamVector and never touch the input, so two
branches of a computation (say, a meta inner loop and its oracle
re-composition) can share a starting point safely.

File format (little-endian throughout): magic ``ADP2``, u16 version (1),
u32 entry count, then per entry u16 name length, UTF-8 name, u8 ndim,
u32 per dim, and the float32 payload.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Iterator

import numpy as np

from .tensor import Tensor, backward

MAGIC = b"ADP2"
VERSION = 1


class ParamFormatError(ValueError):
    """Corrupt or unsupported parameter file."""


class ParamMismatchError(ValueError):
    """Two vectors with different names/shapes were combined."""


class ParamVector:
    """Ordered name -> Tensor map with vector-space helpers."""

    __slots__ = ("_names", "_tensors", "_index")

    def __init__(self, items: Iterable[tuple[str, Tensor]]):
        names = []
        tensors = []
        for name, t in items:
            if not isinstance(t, Tensor):
                t = Tensor(t, requires_grad=True)
            names.append(name)
            tensors.append(t)
        if len(set(names)) != len(names):
            raise ParamMismatchError("duplicate parameter names")
        self._names = tuple(names)
        self._tensors = tuple(tensors)
        self._index = {n: i for i, n in enumerate(names)}

    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[tuple[str, Tensor]]:
        return iter(zip(self._names, self._tensors))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[self._index[name]]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def n_values(self) -> int:
        return sum(t.size for t in self._tensors)

    def _check_compatible(self, other: "ParamVector") -> None:
        if self._names != other._names:
            raise ParamMismatchError("parameter names differ")
        for n, a, b in zip(self._names, self._tensors, other._tensors):
            if a.shape != b.shape:
                raise ParamMismatchError(f"shape mismatch for {n}: {a.shape} vs {b.shape}")

    def map(self, fn: Callable[[str, np.ndarray], np.ndarray]) -> "ParamVector":
        return ParamVector((n, Tensor(fn(n, t.data), requires_grad=True))
                           for n, t in self)

    def zip_map(self, other: "ParamVector",
                fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ParamVector":
        self._check_compatible(other)
        return ParamVector((n, Tensor(fn(a.data, b.data), requires_grad=True))
                           for n, a, b in zip(self._names, self._tensors, other._tensors))

    def add(self, other: "ParamVector") -> "ParamVector":
        return self.zip_map(other, lambda a, b: a + b)

    def scale(self, c: float) -> "ParamVector":
        c = np.float32(c)
        return self.map(lambda _, a: a * c)

    def zeros_like(self) -> "ParamVector":
        return self.map(lambda _, a: np.zeros_like(a))

    def no_grad(self) -> "ParamVector":
        """The same arrays as tensors that need no gradient. Ops on them
        record no graph, so a forward-only pass keeps nothing for backward."""
        return ParamVector((n, Tensor(t.data)) for n, t in self)

    def select(self, pred: Callable[[str], bool]) -> "ParamVector":
        return ParamVector((n, t) for n, t in self if pred(n))

    def merge_overrides(self, other: "ParamVector") -> "ParamVector":
        """Replace entries present in ``other``; order and names unchanged."""
        return ParamVector((n, other[n] if n in other else t) for n, t in self)

    def max_abs_diff(self, other: "ParamVector") -> float:
        self._check_compatible(other)
        return max(float(np.max(np.abs(a.data - b.data))) if a.size else 0.0
                   for a, b in zip(self._tensors, other._tensors))

    # ------------------------------------------------------------------
    # serialization

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<HI", VERSION, len(self._names)))
            for name, t in self:
                raw = name.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<B", t.ndim))
                fh.write(struct.pack(f"<{t.ndim}I", *t.shape))
                fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "ParamVector":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise ParamFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
        version, count = struct.unpack_from("<HI", blob, 4)
        if version != VERSION:
            raise ParamFormatError(f"unsupported version {version}")
        off = 10
        items = []
        try:
            for _ in range(count):
                (nlen,) = struct.unpack_from("<H", blob, off)
                off += 2
                name = blob[off:off + nlen].decode("utf-8")
                off += nlen
                (ndim,) = struct.unpack_from("<B", blob, off)
                off += 1
                shape = struct.unpack_from(f"<{ndim}I", blob, off)
                off += 4 * ndim
                n_el = int(np.prod(shape, dtype=np.int64)) if ndim else 1
                data = np.frombuffer(blob, dtype="<f4", count=n_el, offset=off)
                off += 4 * n_el
                items.append((name, Tensor(data.reshape(shape).copy(), requires_grad=True)))
        except (struct.error, ValueError) as e:
            raise ParamFormatError(f"truncated parameter file: {e}") from None
        if off != len(blob):
            raise ParamFormatError(f"{len(blob) - off} trailing bytes after last entry")
        return cls(items)


def grad_of(loss: Tensor, params: ParamVector) -> ParamVector:
    """Gradients of ``loss`` for ``params``; zeros where the loss does not reach."""
    grads = backward(loss, params._tensors)
    return ParamVector((n, Tensor(np.zeros_like(t.data) if g is None else g))
                       for (n, t), g in zip(params, grads))
