"""Stochastic sensor-signal transformations.

Used in two ways: building paired contrastive views and generating
transformation-detection batches where the model must report which
augmentations were applied. All transforms act on [C, T] window arrays,
preserve their shape, and the batch builders clamp the result to [-1, 1].
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


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues' formula for a rotation about a unit axis."""
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def apply_array(kind: AugmentKind, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Transform one [C, T] array; no clamping (callers clamp once at the end)."""
    if isinstance(kind, Jitter):
        if kind.sigma == 0:
            return x
        return x + rng.normal(0.0, kind.sigma, size=x.shape).astype(np.float32)
    if isinstance(kind, Scale):
        f = rng.uniform(kind.low, kind.high)
        return x * np.float32(f)
    if isinstance(kind, Rotate3D):
        if x.shape[0] != 3:
            raise AugmentError(f"rotation needs 3 channels, got {x.shape[0]}")
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        angle = rng.uniform(-1.0, 1.0) * np.deg2rad(kind.max_angle_deg)
        return (_rotation_matrix(v, angle) @ x).astype(np.float32)
    if isinstance(kind, Negate):
        return -x
    if isinstance(kind, TimeFlip):
        return x[:, ::-1]
    if isinstance(kind, Permute):
        if kind.n_segments == 1:
            return x
        segs = np.array_split(np.arange(x.shape[1]), kind.n_segments)
        order = rng.permutation(len(segs))
        return np.concatenate([x[:, segs[i]] for i in order], axis=1)
    if isinstance(kind, ChannelShuffle):
        return x[rng.permutation(x.shape[0])]
    raise AugmentError(f"unknown augmentation kind {kind!r}")


def apply_pipeline_array(pipeline: Sequence[AugmentKind], x: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Apply the kinds of a pipeline in order to one [C, T] array, then
    clamp once to [-1, 1]."""
    for kind in pipeline:
        x = apply_array(kind, x, rng)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def paired_views_batch(windows: np.ndarray, pipeline: Sequence[AugmentKind],
                       rng: np.random.Generator) -> np.ndarray:
    """[n, C, T] -> [2n, C, T] with views of window i at rows 2i and 2i+1."""
    if not pipeline:
        raise AugmentError("empty augmentation pipeline")
    n = windows.shape[0]
    out = np.empty((2 * n,) + windows.shape[1:], dtype=np.float32)
    streams = rng.spawn(n)
    for i in range(n):
        ra, rb = streams[i].spawn(2)
        out[2 * i] = apply_pipeline_array(pipeline, windows[i], ra)
        out[2 * i + 1] = apply_pipeline_array(pipeline, windows[i], rb)
    return out


def sample_task_batch(windows: np.ndarray, kinds: Sequence[AugmentKind],
                      rng: np.random.Generator, p: float = 0.5
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Detection batch: each window independently receives each kind with
    probability p, in the listed order. Returns the transformed windows and
    the [n, m] float32 label matrix (1 = kind applied)."""
    if not kinds:
        raise AugmentError("need at least one augmentation kind")
    n = windows.shape[0]
    m = len(kinds)
    out = np.empty_like(windows)
    labels = np.zeros((n, m), dtype=np.float32)
    streams = rng.spawn(n)
    for i in range(n):
        r = streams[i]
        x = windows[i]
        # draw the full coin vector first so label patterns do not depend on
        # how many random numbers each transform consumes
        coins = r.random(m) < p
        for j, kind in enumerate(kinds):
            if coins[j]:
                x = apply_array(kind, x, r)
                labels[i, j] = 1.0
        out[i] = np.clip(x, -1.0, 1.0)
    return out, labels


def default_simclr_pipeline() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0))


def default_multitask_kinds() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0), Negate(), TimeFlip(),
            Permute(4))
