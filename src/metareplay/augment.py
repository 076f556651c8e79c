"""Stochastic sensor-signal transformations.

Used in two ways: building paired contrastive views and generating
transformation-detection batches where the model must report which
augmentations were applied. Every transform acts on a batch of [C, T]
window arrays at once and preserves their shape, and the batch builders
clamp the result to [-1, 1]. Randomness is per batch: a builder draws
every row from the one generator it is given, kind by kind in order,
each kind in one whole-batch draw, so a row's draws depend on its place
in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .config import from_config, json_object


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
    entry = json_object(entry, AugmentError, "augmentation kind")
    name = str(entry.pop("kind", "")).lower()
    if name not in _KIND_NAMES:
        raise AugmentError(f"unknown augmentation kind {name!r}; "
                           f"expected one of {sorted(_KIND_NAMES)}")
    return from_config(_KIND_NAMES[name], entry, AugmentError, name)


def kind_name(kind: AugmentKind) -> str:
    return type(kind).__name__.lower()


def _row_perms(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m independent permutations of range(n), one per row, in one draw."""
    return rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)


def _apply_batch(kind: AugmentKind, x: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Transform each [C, T] array of x [m, C, T]; no clamping. All m rows
    draw from the one generator rng, each kind in one whole-batch draw:
    Jitter normal(size=x.shape), Scale uniform(size=m), Rotate3D
    normal(size=(m, 3)) axes then uniform(size=m) angles, Permute and
    ChannelShuffle one permuted(..., axis=1) over an [m, n] index table.
    Negate and TimeFlip draw nothing."""
    m = len(x)
    if not m:
        return x
    if isinstance(kind, Jitter):
        if kind.sigma == 0:
            return x
        return x + rng.normal(0.0, kind.sigma, size=x.shape).astype(np.float32)
    if isinstance(kind, Scale):
        f = rng.uniform(kind.low, kind.high, size=m).astype(np.float32)
        return x * f[:, None, None]
    if isinstance(kind, Rotate3D):
        if x.shape[1] != 3:
            raise AugmentError(f"rotation needs 3 channels, got {x.shape[1]}")
        axes = rng.normal(size=(m, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angle = rng.uniform(-1.0, 1.0, size=(m, 1, 1)) * np.deg2rad(kind.max_angle_deg)
        k = np.cross(np.eye(3), axes[:, None, :])  # cross-product matrices [m, 3, 3]
        rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)  # Rodrigues
        return np.matmul(rot, x).astype(np.float32)
    if isinstance(kind, Negate):
        return -x
    if isinstance(kind, TimeFlip):
        return x[:, :, ::-1]
    if isinstance(kind, Permute):
        if kind.n_segments == 1:
            return x
        segs = np.array_split(np.arange(x.shape[2]), kind.n_segments)
        # each time step keyed by its segment's new position, sorted stably
        pos = np.argsort(_row_perms(rng, m, len(segs)), axis=1)
        idx = np.argsort(np.repeat(pos, [len(s) for s in segs], axis=1), axis=1,
                         kind="stable")
        return np.take_along_axis(x, idx[:, None, :], axis=2)
    if isinstance(kind, ChannelShuffle):
        perm = _row_perms(rng, m, x.shape[1])
        return np.take_along_axis(x, perm[:, :, None], axis=1)
    raise AugmentError(f"unknown augmentation kind {kind!r}")


def paired_views_batch(windows: np.ndarray, pipeline: Sequence[AugmentKind],
                       rng: np.random.Generator) -> np.ndarray:
    """[n, C, T] -> [2n, C, T] with views of window i at rows 2i and 2i+1.

    The pipeline's kinds run in order over all 2n rows, each drawing from
    rng once for the whole batch (see _apply_batch).
    """
    if not pipeline:
        raise AugmentError("empty augmentation pipeline")
    x = np.repeat(windows, 2, axis=0)
    for kind in pipeline:
        x = _apply_batch(kind, x, rng)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def sample_task_batch(windows: np.ndarray, kinds: Sequence[AugmentKind],
                      rng: np.random.Generator, p: float = 0.5
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Detection batch: each window independently receives each kind with
    probability p, in the listed order. Returns the transformed windows and
    the [n, m] float32 label matrix (1 = kind applied).

    rng first draws the whole [n, m] coin matrix, so label patterns do not
    depend on how many random numbers the transforms consume; then each
    kind, in order, draws once for the rows that receive it.
    """
    if not kinds:
        raise AugmentError("need at least one augmentation kind")
    coins = rng.random((windows.shape[0], len(kinds))) < p
    out = windows.copy()
    for j, kind in enumerate(kinds):
        rows = np.flatnonzero(coins[:, j])
        if rows.size:
            out[rows] = _apply_batch(kind, out[rows], rng)
    np.clip(out, -1.0, 1.0, out=out)
    return out, coins.astype(np.float32)


def default_simclr_pipeline() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0))


def default_multitask_kinds() -> tuple[AugmentKind, ...]:
    return (Jitter(0.05), Scale(0.9, 1.1), Rotate3D(30.0), Negate(), TimeFlip(),
            Permute(4))
