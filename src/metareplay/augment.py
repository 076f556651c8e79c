"""Stochastic sensor-signal transformations.

Used in two ways: building paired contrastive views and generating
transformation-detection batches where the model must report which
augmentations were applied. Every transform acts on a batch of [C, T]
window arrays at once, each row drawing from its own stream, preserves
their shape, and the batch builders clamp the result to [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


class AugmentError(ValueError):
    """Invalid augmentation parameters."""


@dataclass(frozen=True)
class Jitter:
    """Additive Gaussian noise per sample."""
    sigma: float = 0.05

    def __post_init__(self):
        if self.sigma < 0:
            raise AugmentError(f"jitter sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Scale:
    """Multiply all channels by one factor drawn uniformly from [low, high]."""
    low: float = 0.9
    high: float = 1.1

    def __post_init__(self):
        if self.low > self.high:
            raise AugmentError(f"scale range empty: [{self.low}, {self.high}]")


@dataclass(frozen=True)
class Rotate3D:
    """One random 3-d rotation per window, about a random axis, angle
    uniform in [-max_angle_deg, max_angle_deg]."""
    max_angle_deg: float = 30.0

    def __post_init__(self):
        if self.max_angle_deg < 0:
            raise AugmentError(f"max_angle_deg must be >= 0, got {self.max_angle_deg}")


@dataclass(frozen=True)
class Negate:
    pass


@dataclass(frozen=True)
class TimeFlip:
    pass


@dataclass(frozen=True)
class Permute:
    """Split the time axis into n_segments chunks and shuffle their order."""
    n_segments: int = 4

    def __post_init__(self):
        if self.n_segments < 1:
            raise AugmentError(f"n_segments must be >= 1, got {self.n_segments}")


@dataclass(frozen=True)
class ChannelShuffle:
    pass


AugmentKind = Union[Jitter, Scale, Rotate3D, Negate, TimeFlip, Permute, ChannelShuffle]

_KIND_NAMES = {"jitter": Jitter, "scale": Scale, "rotate3d": Rotate3D, "negate": Negate,
               "timeflip": TimeFlip, "permute": Permute, "channelshuffle": ChannelShuffle}


def kind_from_config(entry: dict | str) -> AugmentKind:
    """Build a kind from a config entry, either a name or {"kind": name, ...params}."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    entry = dict(entry)
    name = str(entry.pop("kind", "")).lower()
    if name not in _KIND_NAMES:
        raise AugmentError(f"unknown augmentation kind {name!r}; "
                           f"expected one of {sorted(_KIND_NAMES)}")
    try:
        return _KIND_NAMES[name](**entry)
    except TypeError as e:
        raise AugmentError(f"bad parameters for {name}: {e}") from None


def kind_name(kind: AugmentKind) -> str:
    return type(kind).__name__.lower()


def _rotation_matrices(axes: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rodrigues' formula, one rotation per row: unit axes [m, 3], cosines
    and sines [m] -> [m, 3, 3]."""
    x, y, z = axes.T
    k = np.zeros((len(axes), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -z, y
    k[:, 1, 0], k[:, 1, 2] = z, -x
    k[:, 2, 0], k[:, 2, 1] = -y, x
    return np.eye(3) + s[:, None, None] * k + (1.0 - c)[:, None, None] * np.matmul(k, k)


def _apply_batch(kind: AugmentKind, x: np.ndarray,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Transform each [C, T] array of x [m, C, T], drawing row i's randomness
    from rngs[i] only; no clamping. Draws are made row by row in the order
    one row alone would make them, so a row's result does not depend on
    the rest of the batch. Scalar maths (norms, cos, sin) stays per row for
    the same reason."""
    if not len(x):
        return x
    if isinstance(kind, Jitter):
        if kind.sigma == 0:
            return x
        noise = np.empty(x.shape, dtype=np.float32)
        for i, r in enumerate(rngs):
            noise[i] = r.normal(0.0, kind.sigma, size=x.shape[1:])
        return x + noise
    if isinstance(kind, Scale):
        f = np.array([r.uniform(kind.low, kind.high) for r in rngs]).astype(np.float32)
        return x * f[:, None, None]
    if isinstance(kind, Rotate3D):
        if x.shape[1] != 3:
            raise AugmentError(f"rotation needs 3 channels, got {x.shape[1]}")
        axes = np.empty((len(x), 3))
        c, s = np.empty(len(x)), np.empty(len(x))
        for i, r in enumerate(rngs):
            v = r.normal(size=3)
            axes[i] = v / np.linalg.norm(v)
            angle = r.uniform(-1.0, 1.0) * np.deg2rad(kind.max_angle_deg)
            c[i], s[i] = np.cos(angle), np.sin(angle)
        return np.matmul(_rotation_matrices(axes, c, s), x).astype(np.float32)
    if isinstance(kind, Negate):
        return -x
    if isinstance(kind, TimeFlip):
        return x[:, :, ::-1]
    if isinstance(kind, Permute):
        if kind.n_segments == 1:
            return x
        segs = np.array_split(np.arange(x.shape[2]), kind.n_segments)
        idx = np.stack([np.concatenate([segs[j] for j in r.permutation(len(segs))])
                        for r in rngs])
        return np.take_along_axis(x, idx[:, None, :], axis=2)
    if isinstance(kind, ChannelShuffle):
        perm = np.stack([r.permutation(x.shape[1]) for r in rngs])
        return np.take_along_axis(x, perm[:, :, None], axis=1)
    raise AugmentError(f"unknown augmentation kind {kind!r}")


def paired_views_batch(windows: np.ndarray, pipeline: Sequence[AugmentKind],
                       rng: np.random.Generator) -> np.ndarray:
    """[n, C, T] -> [2n, C, T] with views of window i at rows 2i and 2i+1.

    View 2i+j draws from ``rng.spawn(n)[i].spawn(2)[j]``; the streams are
    spawned from the seed sequences directly, which skips the n
    intermediate Generators.
    """
    if not pipeline:
        raise AugmentError("empty augmentation pipeline")
    bitgen = type(rng.bit_generator)
    rngs = [np.random.Generator(bitgen(seq))
            for child in rng.bit_generator.seed_seq.spawn(windows.shape[0])
            for seq in child.spawn(2)]
    x = np.repeat(windows, 2, axis=0)
    for kind in pipeline:
        x = _apply_batch(kind, x, rngs)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def sample_task_batch(windows: np.ndarray, kinds: Sequence[AugmentKind],
                      rng: np.random.Generator, p: float = 0.5
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Detection batch: each window independently receives each kind with
    probability p, in the listed order. Returns the transformed windows and
    the [n, m] float32 label matrix (1 = kind applied).

    The i-th window draws from ``rng.spawn(n)[i]``: first its whole coin vector, so
    that label patterns do not depend on how many random numbers each
    transform consumes, then the draws of the kinds it receives, in order.
    """
    if not kinds:
        raise AugmentError("need at least one augmentation kind")
    n = windows.shape[0]
    streams = rng.spawn(n)
    coins = np.array([r.random(len(kinds)) < p for r in streams]).reshape(n, len(kinds))
    out = windows.copy()
    for j, kind in enumerate(kinds):
        rows = np.flatnonzero(coins[:, j])
        if rows.size:
            out[rows] = _apply_batch(kind, out[rows], [streams[i] for i in rows])
    np.clip(out, -1.0, 1.0, out=out)
    return out, coins.astype(np.float32)


def default_simclr_pipeline() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0))


def default_multitask_kinds() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0), Negate(), TimeFlip(),
            Permute(4))
