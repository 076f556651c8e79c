"""Windowed multi-domain sensor datasets.

Covers windowing of raw series, per-channel normalization, domain
bookkeeping, deterministic leave-one-domain-out splits with stratified
few-shot sampling, a synthetic multi-domain generator, and the binary /
CSV dataset formats.

A Dataset is immutable after construction: values [N, C, T] float32,
labels [N] (-1 = unlabeled), domains [N] with dense ids 0..D-1. A window
set (a split's index sets, a meta task's support and query) is an int64
index array into Dataset.values; no per-window record exists.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, replace

import numpy as np

DATASET_MAGIC = b"ADS1"
DATASET_VERSION = 2


class DataError(ValueError):
    """Malformed dataset, impossible split, or bad generator spec."""


@dataclass(frozen=True)
class DomainId:
    id: int
    tag: str


@dataclass(frozen=True)
class NormStats:
    """Per-channel affine map y = (x - mid) * scale; scale 0 for constant channels."""
    mid: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray                      # [N, C, T] float32
    labels: np.ndarray                      # [N] int16, -1 = unlabeled
    domains: np.ndarray                     # [N] uint16
    domain_tags: tuple[str, ...]
    n_classes: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise DataError(f"values must be [N,C,T], got shape {v.shape}")
        n = v.shape[0]
        labels = np.asarray(self.labels, dtype=np.int16)
        domains = np.asarray(self.domains, dtype=np.uint16)
        if labels.shape != (n,) or domains.shape != (n,):
            raise DataError("labels/domains length does not match number of windows")
        if not np.all(np.isfinite(v)):
            raise DataError("dataset contains NaN or Inf values")
        if n and domains.size and domains.max(initial=0) >= len(self.domain_tags):
            raise DataError("domain id outside tag table")
        if n and labels.max(initial=-1) >= self.n_classes:
            raise DataError(f"label exceeds n_classes={self.n_classes}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "domain_tags", tuple(self.domain_tags))

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def timesteps(self) -> int:
        return self.values.shape[2]

    @property
    def n_domains(self) -> int:
        return len(self.domain_tags)

    def domain_indices(self, d: int) -> np.ndarray:
        return np.flatnonzero(self.domains == d)


@dataclass(frozen=True)
class SplitPlan:
    """Index sets for one leave-one-domain-out experiment."""
    pretrain_train: np.ndarray
    pretrain_val: np.ndarray
    finetune_shots: np.ndarray
    target_val: np.ndarray
    target_test: np.ndarray
    target_domain: DomainId
    seed: int

    def __post_init__(self):
        for name in ("pretrain_train", "pretrain_val", "finetune_shots",
                     "target_val", "target_test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        sets = self.index_sets()
        total = np.concatenate(list(sets.values()))
        if len(np.unique(total)) != len(total):
            raise DataError("split index sets overlap")

    def index_sets(self) -> dict[str, np.ndarray]:
        return {"pretrain_train": self.pretrain_train,
                "pretrain_val": self.pretrain_val,
                "finetune_shots": self.finetune_shots,
                "target_val": self.target_val,
                "target_test": self.target_test}

    def validate_against(self, ds: Dataset) -> None:
        for name, idx in self.index_sets().items():
            if idx.size and (idx.min() < 0 or idx.max() >= ds.n_windows):
                raise DataError(f"{name} references windows outside the dataset")
        t = self.target_domain.id
        for name in ("pretrain_train", "pretrain_val"):
            idx = getattr(self, name)
            if idx.size and np.any(ds.domains[idx] == t):
                raise DataError(f"{name} contains windows of the held-out domain {t}")
        for name in ("finetune_shots", "target_val", "target_test"):
            idx = getattr(self, name)
            if idx.size and np.any(ds.domains[idx] != t):
                raise DataError(f"{name} contains windows outside the held-out domain {t}")

    def to_json_dict(self) -> dict:
        d = {name: idx.tolist() for name, idx in self.index_sets().items()}
        d["target_domain"] = {"id": self.target_domain.id, "tag": self.target_domain.tag}
        d["seed"] = int(self.seed)
        return d

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SplitPlan":
        td = d["target_domain"]
        return cls(pretrain_train=d["pretrain_train"], pretrain_val=d["pretrain_val"],
                   finetune_shots=d["finetune_shots"], target_val=d["target_val"],
                   target_test=d["target_test"],
                   target_domain=DomainId(int(td["id"]), str(td["tag"])),
                   seed=int(d["seed"]))

    @classmethod
    def load_json(cls, path) -> "SplitPlan":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# windowing and normalization

def windowize(series: np.ndarray, window: int = 256, overlap: int = 128) -> np.ndarray:
    """Slice a [C, T] series into overlapping windows in temporal order;
    returns [n, C, window] float32.

    The trailing remainder shorter than ``window`` is dropped.
    """
    series = np.asarray(series, dtype=np.float32)
    if series.ndim != 2:
        raise DataError(f"series must be [channels, T], got shape {series.shape}")
    t = series.shape[1]
    if t < window:
        raise DataError(f"series length {t} is shorter than window size {window}")
    if not 0 <= overlap < window:
        raise DataError(f"overlap {overlap} must be in [0, window)")
    step = window - overlap
    count = (t - window) // step + 1
    return np.stack([series[:, i * step:i * step + window] for i in range(count)])


def compute_norm_stats(values: np.ndarray) -> NormStats:
    """Per-channel affine coefficients mapping min -> -1, max -> +1."""
    if values.size == 0:
        raise DataError("cannot compute normalization statistics of an empty pool")
    if not np.all(np.isfinite(values)):
        raise DataError("normalization input contains NaN or Inf")
    lo = values.min(axis=(0, 2))
    hi = values.max(axis=(0, 2))
    mid = (hi + lo) / 2.0
    span = hi - lo
    scale = np.where(span > 0, 2.0 / np.where(span > 0, span, 1.0), 0.0)
    return NormStats(mid=mid.astype(np.float32), scale=scale.astype(np.float32))


def apply_norm(ds: Dataset, stats: NormStats) -> Dataset:
    """A copy of ds mapped by stats and clipped to [-1, 1]; one float32
    buffer is built and scaled and clipped in place."""
    v = ds.values - stats.mid[None, :, None]
    v *= stats.scale[None, :, None]
    np.clip(v, -1.0, 1.0, out=v)
    return replace(ds, values=v)


def normalize(ds: Dataset, pool=None) -> Dataset:
    """The whole dataset mapped by statistics from the windows of pool
    (an index array into ds; all windows by default, which makes it
    idempotent). Leave-one-domain-out runs pass the pretraining pool, so
    the held-out domain is scaled as the model saw its training data.
    """
    if ds.n_windows == 0:
        raise DataError("cannot normalize an empty dataset")
    return apply_norm(ds, compute_norm_stats(ds.values if pool is None
                                             else ds.values[pool]))


def exclude_small_domains(ds: Dataset, min_count: int) -> Dataset:
    """Drop domains with fewer than min_count windows and re-index densely."""
    counts = np.bincount(ds.domains, minlength=ds.n_domains)
    keep = np.flatnonzero(counts >= min_count)
    if keep.size == 0:
        raise DataError(f"all {ds.n_domains} domains have fewer than {min_count} windows")
    if keep.size == ds.n_domains:
        return ds
    remap = np.full(ds.n_domains, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    mask = remap[ds.domains] >= 0
    return Dataset(values=ds.values[mask],
                   labels=ds.labels[mask],
                   domains=remap[ds.domains[mask]].astype(np.uint16),
                   domain_tags=tuple(ds.domain_tags[d] for d in keep),
                   n_classes=ds.n_classes)


# ---------------------------------------------------------------------------
# splits

def pool_split(indices: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """70% of the given windows form the pretraining pool, split 90/10
    into train/val; the remaining 30% is returned as the third array."""
    perm = rng.permutation(indices)
    n_pool = int(0.7 * len(indices))
    pool = perm[:n_pool]
    n_tr = int(0.9 * n_pool)
    return np.sort(pool[:n_tr]), np.sort(pool[n_tr:]), np.sort(perm[n_pool:])


def stratified_shot_split(ds: Dataset, candidates: np.ndarray, k: int,
                          rng: np.random.Generator, what: str
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified k shots per class; remainder 50/50 into val/test."""
    labs = ds.labels[candidates]
    classes = np.unique(labs[labs >= 0])
    if classes.size == 0:
        raise DataError(f"no labeled windows in {what}")
    shots = []
    for c in classes:
        idx_c = candidates[labs == c]
        if len(idx_c) < k:
            raise DataError(f"class {int(c)} has {len(idx_c)} windows in {what}, "
                            f"need {k} shots")
        shots.append(rng.choice(idx_c, size=k, replace=False))
    shots = np.sort(np.concatenate(shots))
    rest = np.setdiff1d(candidates, shots)
    if len(rest) < 2:
        raise DataError(f"only {len(rest)} windows left in {what} for val/test, need >= 2")
    perm = rng.permutation(rest)
    n_val = len(rest) // 2
    return shots, np.sort(perm[:n_val]), np.sort(perm[n_val:])


def make_split(ds: Dataset, target: int, k: int, seed: int) -> SplitPlan:
    """Leave-one-domain-out split: non-target windows feed pretraining
    (70% pool, then 90/10 train/val); the target domain contributes k
    stratified shots per class and a 50/50 val/test remainder."""
    t = int(target)
    if not 0 <= t < ds.n_domains:
        raise DataError(f"target domain {t} not in dataset (D={ds.n_domains})")
    if k < 1:
        raise DataError(f"shots k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    non_target = np.flatnonzero(ds.domains != t)
    if non_target.size == 0:
        raise DataError("no non-target windows to pretrain on")
    pretrain_train, pretrain_val, _rest = pool_split(non_target, rng)
    tgt = np.flatnonzero(ds.domains == t)
    if tgt.size == 0:
        raise DataError(f"held-out domain {t} has no windows")
    shots, target_val, target_test = stratified_shot_split(ds, tgt, k, rng,
                                                           f"target domain {t}")
    return SplitPlan(pretrain_train=pretrain_train, pretrain_val=pretrain_val,
                     finetune_shots=shots, target_val=target_val,
                     target_test=target_test,
                     target_domain=DomainId(t, ds.domain_tags[t]), seed=int(seed))


# ---------------------------------------------------------------------------
# synthetic multi-domain generator

@dataclass(frozen=True)
class DomainRecipe:
    """Per-domain transform: rotate about a channel axis, then a global gain
    and per-channel gains (sensor miscalibration), noise, and a phase offset
    folded into the class sinusoids."""
    rotation_deg: float = 0.0
    rotation_axis: int = 2
    gain: float = 1.0
    channel_gains: tuple[float, ...] = (1.0, 1.0, 1.0)
    noise_sigma: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "channel_gains",
                           tuple(float(g) for g in self.channel_gains))
        if self.rotation_axis not in (0, 1, 2):
            raise DataError(f"rotation_axis must be 0..2, got {self.rotation_axis}")
        if self.gain <= 0:
            raise DataError(f"gain must be positive, got {self.gain}")
        if len(self.channel_gains) != 3 or any(g <= 0 for g in self.channel_gains):
            raise DataError(f"channel_gains must be 3 positive factors, "
                            f"got {self.channel_gains}")
        if self.noise_sigma < 0:
            raise DataError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class SynthSpec:
    domains: tuple[DomainRecipe, ...]
    n_classes: int = 4
    samples_per_class: int = 60
    channels: int = 3
    timesteps: int = 256

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.domains:
            raise DataError("need at least one domain recipe")
        if self.n_classes < 1 or self.samples_per_class < 1:
            raise DataError("n_classes and samples_per_class must be >= 1")
        if self.channels != 3:
            raise DataError("generator produces 3-channel windows only")
        if self.timesteps < 8:
            raise DataError(f"timesteps {self.timesteps} too short")


def _axis_rotation(axis: int, deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    i, j = [(1, 2), (0, 2), (0, 1)][axis]
    r = np.eye(3, dtype=np.float64)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def _class_directions(c: int, n_classes: int, da1: float = 0.0,
                      da2: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors in channel space per class, both on cones about the
    third channel axis. Classes live at distinct azimuths, so a domain
    rotation about that axis slides every class along the class circle and
    toward its neighbours - the geometric source of the cross-domain
    confusion this generator is meant to produce. da1/da2 wobble the
    azimuths per draw."""
    a1 = 2.0 * np.pi * c / n_classes + 0.4 + da1
    a2 = 2.0 * np.pi * c / n_classes + 1.9 + da2
    u1 = np.array([np.cos(a1), np.sin(a1), 0.45])
    u2 = np.array([np.cos(a2), np.sin(a2), -0.35])
    return u1 / np.linalg.norm(u1), u2 / np.linalg.norm(u2)


def _class_templates(spec: SynthSpec, c: int, seed: int
                     ) -> tuple[np.ndarray, ...]:
    """The phase-free templates of class c's S = samples_per_class draws:
    the directions u1 and 0.8 * u2 [S, 3], the sinusoid arguments [S, T]
    before the domain phase, the amplitudes [S] and the envelopes [S, T].

    One draw: two sinusoids at mildly class-specific frequencies, each
    oscillating along a class-specific channel direction, under a slow
    envelope carrying no class information. Frequency spacing between
    adjacent classes is comparable to the per-draw jitter, so orientation
    rather than frequency carries most of the class identity. Draw s comes
    from its own generator keyed by (seed, c, s), in the order direction
    wobble, phases, frequency jitter, amplitude.
    """
    n, t_len = spec.samples_per_class, spec.timesteps
    t = np.linspace(0.0, 2.0 * np.pi, t_len, endpoint=False)
    f1 = 4.0 + 0.15 * c
    f2 = 7.5 + 0.2 * c
    u1, u2 = np.empty((n, 3)), np.empty((n, 3))
    arg1, arg2, env = np.empty((n, t_len)), np.empty((n, t_len)), np.empty((n, t_len))
    amp = np.empty(n)
    for s in range(n):
        rng = np.random.default_rng([seed, c, s])
        da1, da2 = 0.3 * rng.standard_normal(2)
        u1[s], u2[s] = _class_directions(c, spec.n_classes, da1, da2)
        p1, p2, pe = rng.uniform(0.0, 2.0 * np.pi, size=3)
        j1, j2 = 1.0 + 0.08 * rng.standard_normal(2)
        amp[s] = 1.0 + 0.3 * rng.standard_normal()
        arg1[s] = f1 * j1 * t + p1
        arg2[s] = f2 * j2 * t + p2
        env[s] = 0.7 + 0.3 * np.sin(t + pe)
    return u1, 0.8 * u2, arg1, arg2, amp, env


def synth_generate(spec: SynthSpec, seed: int) -> Dataset:
    """Balanced multi-domain dataset where every domain shares the class
    templates but sees them rotated, scaled, phase-shifted, and noised.

    Windows are ordered (domain, class, sample), so window
    (d * n_classes + c) * samples_per_class + s is draw s of class c in
    domain d. The template of (class c, sample s) is drawn once from a
    generator keyed by (seed, c, s) and shared by every domain, so two
    domains with identity recipes contain identical windows. The noise of
    a window is keyed by (seed, 7919, d, c, s).

    The work runs per class: the class's templates once (_class_templates),
    then one [samples_per_class, 3, T] float64 block per domain. A block
    adds the domain's phase, takes the sines, applies the amplitude and
    envelope, the rotation, the gain and channel gains and the noise, in
    that order, and is cast to float32 into the dataset. No float64 array
    larger than one block is built.
    """
    n_dom, n_cls, n = len(spec.domains), spec.n_classes, spec.samples_per_class
    values = np.empty((n_dom * n_cls * n, 3, spec.timesteps), dtype=np.float32)
    rots = [_axis_rotation(r.rotation_axis, r.rotation_deg) for r in spec.domains]
    gains = [r.gain * np.asarray(r.channel_gains, dtype=np.float64)[:, None]
             for r in spec.domains]
    for c in range(n_cls):
        u1, u2, arg1, arg2, amp, env = _class_templates(spec, c, seed)
        for d, recipe in enumerate(spec.domains):
            x = u1[:, :, None] * np.sin(arg1 + recipe.phase)[:, None, :]
            x += u2[:, :, None] * np.sin(arg2 + recipe.phase)[:, None, :]
            x *= amp[:, None, None]
            x *= env[:, None, :]
            x = gains[d] * (rots[d] @ x)
            if recipe.noise_sigma > 0:
                for s in range(n):
                    rng_n = np.random.default_rng([seed, 7919, d, c, s])
                    x[s] += recipe.noise_sigma * rng_n.standard_normal(x.shape[1:])
            lo = (d * n_cls + c) * n
            values[lo:lo + n] = x
    labels = np.tile(np.repeat(np.arange(n_cls, dtype=np.int16), n), n_dom)
    domains = np.repeat(np.arange(n_dom, dtype=np.uint16), n_cls * n)
    tags = tuple(f"synth{d}" for d in range(n_dom))
    return Dataset(values, labels, domains, tags, spec.n_classes)


def default_synth_spec(n_domains: int = 4, n_classes: int = SynthSpec.n_classes,
                       samples_per_class: int = SynthSpec.samples_per_class
                       ) -> SynthSpec:
    """Four-domain recipe with orientation, gain, noise, and phase shift
    growing with the domain index. Rotations step by 65 degrees about the
    class-circle axis, deliberately wider than the 30-degree augmentation
    range, so a held-out domain sits outside the orientation span the
    encoder was trained to absorb and its classes slide toward the
    neighbouring class of the pre-training domains."""
    recipes = tuple(
        DomainRecipe(rotation_deg=65.0 * d,
                     rotation_axis=2,
                     gain=1.0 + 0.18 * ((d % 3) - 1),
                     noise_sigma=0.25 + 0.05 * d,
                     phase=0.9 * d)
        for d in range(n_domains))
    return SynthSpec(domains=recipes, n_classes=n_classes,
                     samples_per_class=samples_per_class)


# ---------------------------------------------------------------------------
# on-disk formats

def write_dataset(ds: Dataset, path) -> None:
    """Binary dataset file, version 2 (little-endian throughout).

    Magic ``ADS1``, then u16 version, u32 window count, u16 channels,
    u16 timesteps, u16 domain count, u16 class count; then one domain
    tag per domain as u16 byte length plus UTF-8 bytes; then one record
    per window: i16 label, u16 domain, float32 values [channels,
    timesteps]. Version-1 files (no tag block) are still read.
    """
    tags = [tag.encode("utf-8") for tag in ds.domain_tags]
    for raw in tags:
        if len(raw) > 0xFFFF:
            raise DataError(f"domain tag of {len(raw)} bytes exceeds the 65535-byte limit")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HIHHHH", DATASET_VERSION, ds.n_windows, ds.channels,
                             ds.timesteps, ds.n_domains, ds.n_classes))
        for raw in tags:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        per = np.empty(ds.n_windows, dtype=[("label", "<i2"), ("domain", "<u2"),
                                            ("values", "<f4", (ds.channels, ds.timesteps))])
        per["label"] = ds.labels
        per["domain"] = ds.domains
        per["values"] = ds.values
        fh.write(per.tobytes())


def _read_tags(blob: bytes, off: int, n_dom: int) -> tuple[tuple[str, ...], int]:
    """The version-2 tag block starting at ``off``; returns (tags, end offset)."""
    tags = []
    for d in range(n_dom):
        if off + 2 > len(blob):
            raise DataError(f"truncated domain tag block at tag {d}")
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        if off + nlen > len(blob):
            raise DataError(f"truncated domain tag block at tag {d}")
        try:
            tags.append(blob[off:off + nlen].decode("utf-8"))
        except UnicodeDecodeError:
            raise DataError(f"domain tag {d} is not valid UTF-8") from None
        off += nlen
    return tuple(tags), off


def read_dataset(path) -> Dataset:
    """Read a dataset file: a path ending in ``.csv`` as CSV
    (read_csv_dataset), any other as a binary file (layout in
    write_dataset).

    Version 2 carries the domain tags. Version-1 files hold none, so
    their domains are tagged ``domain{d}``.
    """
    if str(path).endswith(".csv"):
        return read_csv_dataset(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DATASET_MAGIC:
        raise DataError(f"bad magic {blob[:4]!r}, expected {DATASET_MAGIC!r}")
    try:
        version, n, c, t, n_dom, n_cls = struct.unpack_from("<HIHHHH", blob, 4)
    except struct.error:
        raise DataError("truncated dataset header") from None
    header = 4 + struct.calcsize("<HIHHHH")
    if version == 1:
        tags = tuple(f"domain{d}" for d in range(n_dom))
    elif version == DATASET_VERSION:
        tags, header = _read_tags(blob, header, n_dom)
    else:
        raise DataError(f"unsupported dataset version {version}")
    rec = np.dtype([("label", "<i2"), ("domain", "<u2"), ("values", "<f4", (c, t))])
    expected = header + n * rec.itemsize
    if len(blob) != expected:
        raise DataError(f"dataset payload is {len(blob)} bytes, expected {expected}")
    per = np.frombuffer(blob, dtype=rec, count=n, offset=header)
    return Dataset(values=per["values"].copy(), labels=per["label"].copy(),
                   domains=per["domain"].copy(), domain_tags=tags, n_classes=n_cls)


def write_csv_dataset(ds: Dataset, path) -> None:
    """CSV dataset, UTF-8: the metadata rows ``#n_classes,<k>`` and
    ``#domain_tags,<tag 0>,<tag 1>,...``, then the header
    ``domain,label,c0t0,...,c0t{T-1},c1t0,...`` and one window per row.
    Values are written with repr, so they read back bit for bit."""
    header = ["domain", "label"] + [f"c{c}t{t}" for c in range(ds.channels)
                                    for t in range(ds.timesteps)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["#n_classes", ds.n_classes])
        w.writerow(["#domain_tags", *ds.domain_tags])
        w.writerow(header)
        flat = ds.values.reshape(ds.n_windows, -1)
        for i in range(ds.n_windows):
            w.writerow([int(ds.domains[i]), int(ds.labels[i])]
                       + [repr(float(v)) for v in flat[i]])


def read_csv_dataset(path) -> Dataset:
    """Read a CSV dataset (layout in write_csv_dataset).

    A file without the metadata rows, as hand-made fixtures and older
    writers produce, gets the tags ``domain{d}`` up to its largest domain
    id and ``n_classes`` one more than its largest label.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    meta: dict[str, list[str]] = {}
    while rows and rows[0] and rows[0][0].startswith("#"):
        key, *vals = rows.pop(0)
        if key not in ("#n_classes", "#domain_tags") or key in meta:
            raise DataError(f"unknown or repeated CSV metadata row {key!r}")
        meta[key] = vals
    if not rows or rows[0][:2] != ["domain", "label"]:
        raise DataError("CSV must start with header domain,label,c0t0,...")
    header = rows[0]
    n_val = len(header) - 2
    chans = {h[1:].split("t")[0] for h in header[2:]}
    c = len(chans)
    if n_val % max(c, 1) != 0:
        raise DataError("CSV value columns do not factor into channels x timesteps")
    t = n_val // c
    if header[2:] != [f"c{cc}t{tt}" for cc in range(c) for tt in range(t)]:
        raise DataError("CSV value columns must be c0t0..c0t{T-1},c1t0,... in order")
    doms, labs, vals = [], [], []
    for r in rows[1:]:
        if not r:
            continue
        if len(r) != len(header):
            raise DataError(f"CSV row has {len(r)} columns, expected {len(header)}")
        doms.append(int(r[0]))
        labs.append(int(r[1]))
        vals.append(np.array(r[2:], dtype=np.float32).reshape(c, t))
    if not vals:
        raise DataError("CSV contains no data rows")
    domains = np.array(doms, dtype=np.uint16)
    labels = np.array(labs, dtype=np.int16)
    if "#n_classes" in meta:
        try:
            (n_cls,) = (int(v) for v in meta["#n_classes"])
        except ValueError:
            n_cls = -1
        if n_cls < 0:
            raise DataError(f"CSV #n_classes must be one non-negative integer, "
                            f"got {meta['#n_classes']}")
    else:
        n_cls = int(labels.max()) + 1 if labels.max() >= 0 else 0
    if "#domain_tags" in meta:
        tags = tuple(meta["#domain_tags"])
    else:
        tags = tuple(f"domain{d}" for d in range(int(domains.max()) + 1))
    return Dataset(values=np.stack(vals), labels=labels, domains=domains,
                   domain_tags=tags, n_classes=n_cls)
