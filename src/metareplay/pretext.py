"""Self-supervised pretext objectives.

Three interchangeable implementations of the pretext loss behind one
interface: contrastive views (NT-Xent over paired augmentations),
predictive-contrastive (InfoNCE on future frame embeddings), and
multi-task augmentation detection (per-kind binary heads). An objective
describes the whole self-supervised network: its last field is the
encoder its loss runs through, so pre-training, the meta inner loop and
replay all build one network. Everything that differs between the three
lives on the objective's class: its kind name, the smallest batch it can
score, its head's initializer and its loss. Its JSON form is a plan's
"pretext" section and a model sidecar's "pretext" entry. eval_ssl is the
single entry point the pre-training and adaptation loops call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np

from . import tensor as T
from .augment import (AugmentKind, default_multitask_kinds, default_simclr_pipeline,
                      kind_from_config, kind_name, paired_views_batch,
                      sample_task_batch)
from .config import from_config, json_object
from .models import (EncoderConfig, aggregate_and_predict, detect, encode,
                     encode_frames, encoder_from_config, encoder_to_config,
                     init_dense, init_encoder_params, project, split_frames)
from .params import ParamVector
from .tensor import ShapeError, Tensor


class PretextError(ValueError):
    """Invalid objective parameters or an unusable batch."""


@dataclass(frozen=True)
class SimCLRObjective:
    # kind and min_batch are class attributes, not fields: no config or hash holds them
    kind = "simclr"
    min_batch = 2          # negatives need company
    tau: float = 0.1
    pipeline: tuple[AugmentKind, ...] = field(default_factory=default_simclr_pipeline)
    proj_dim: int = 50
    encoder: EncoderConfig = EncoderConfig()

    def __post_init__(self):
        if self.tau <= 0:
            raise PretextError(f"temperature must be > 0, got {self.tau}")
        object.__setattr__(self, "pipeline", tuple(self.pipeline))
        if not self.pipeline:
            raise PretextError("pipeline must contain at least one augmentation kind")

    def init_head(self, d: int, rng: np.random.Generator) -> list[tuple[str, Tensor]]:
        return init_dense("head.proj", d, self.proj_dim, rng)

    def loss(self, params: ParamVector, windows: np.ndarray,
             rng: np.random.Generator) -> Tensor:
        views = paired_views_batch(windows, self.pipeline, rng)
        z = project(params, encode(params, views, self.encoder))
        return simclr_loss(z, self.tau)


@dataclass(frozen=True)
class CPCObjective:
    kind = "cpc"
    min_batch = 2
    tau: float = 1.0
    horizon: int = 2
    frame_len: int = 32
    encoder: EncoderConfig = EncoderConfig()

    def __post_init__(self):
        if self.tau <= 0:
            raise PretextError(f"temperature must be > 0, got {self.tau}")
        if self.horizon < 1:
            raise PretextError(f"horizon must be >= 1, got {self.horizon}")
        if self.frame_len < 8:
            raise PretextError(f"frame_len {self.frame_len} too short to encode")

    def init_head(self, d: int, rng: np.random.Generator) -> list[tuple[str, Tensor]]:
        std = np.sqrt(1.0 / d)
        items = [(name, Tensor(rng.normal(0.0, std, size=(d, 3 * d)).astype(np.float32),
                               requires_grad=True))
                 for name in ("head.gru.wx", "head.gru.wh")]
        items += [(name, Tensor(np.zeros(3 * d, np.float32), requires_grad=True))
                  for name in ("head.gru.bx", "head.gru.bh")]
        for h in range(1, self.horizon + 1):
            items += init_dense(f"head.pred{h}", d, d, rng)
        return items

    def loss(self, params: ParamVector, windows: np.ndarray,
             rng: np.random.Generator) -> Tensor:
        frames = split_frames(windows, windows.shape[2] // self.frame_len)
        emb = encode_frames(params, frames, self.encoder)
        steps = emb.shape[1]
        if self.horizon >= steps:
            raise PretextError(f"horizon {self.horizon} needs more than "
                               f"{steps} frames per window")
        _ctx, preds = aggregate_and_predict(params, emb, self.horizon)
        targets = emb[:, steps - self.horizon:, :]
        return cpc_loss(preds, targets, self.tau)


@dataclass(frozen=True)
class MultiTaskObjective:
    kind = "multitask"
    min_batch = 1
    kinds: tuple[AugmentKind, ...] = field(default_factory=default_multitask_kinds)
    apply_prob: float = 0.5
    encoder: EncoderConfig = EncoderConfig()

    def __post_init__(self):
        if not self.kinds:
            raise PretextError("need at least one detection kind")
        if not 0.0 <= self.apply_prob <= 1.0:
            raise PretextError(f"apply_prob must be in [0,1], got {self.apply_prob}")
        object.__setattr__(self, "kinds", tuple(self.kinds))

    def init_head(self, d: int, rng: np.random.Generator) -> list[tuple[str, Tensor]]:
        return init_dense("head.det", d, len(self.kinds), rng)

    def loss(self, params: ParamVector, windows: np.ndarray,
             rng: np.random.Generator) -> Tensor:
        aug, labels = sample_task_batch(windows, self.kinds, rng, self.apply_prob)
        logits = detect(params, encode(params, aug, self.encoder))
        return multitask_loss(logits, labels)


PretextObjective = Union[SimCLRObjective, CPCObjective, MultiTaskObjective]

# kind name -> objective class; the classes' fields are the config keys
OBJECTIVES = {cls.kind: cls for cls in (SimCLRObjective, CPCObjective, MultiTaskObjective)}


def objective_kind(obj: PretextObjective) -> str:
    return obj.kind


def min_batch(obj: PretextObjective) -> int:
    """Smallest batch the objective can score."""
    return obj.min_batch


def pretext_kind(name) -> str:
    """A pretext kind name, case-folded; PretextError unless it names one."""
    kind = str(name).lower()
    if kind not in OBJECTIVES:
        raise PretextError(f"unknown pretext kind {kind!r}")
    return kind


def _kinds(entries) -> tuple[AugmentKind, ...]:
    return tuple(kind_from_config(e) for e in entries)


_BUILDERS = {"encoder": encoder_from_config, "pipeline": _kinds, "kinds": _kinds,
             "tau": float, "apply_prob": float}


def objective_from_config(cfg: dict) -> PretextObjective:
    """Build an objective from "kind" (default simclr, any case) plus any
    of its class's fields, read by config.from_config with _BUILDERS:
    floats are read as floats, so a JSON 1 for a temperature is 1.0. A
    rejected key or value raises PretextError naming pretext.key.
    """
    cfg = json_object(cfg, PretextError, "pretext")
    cls = OBJECTIVES[pretext_kind(cfg.pop("kind", SimCLRObjective.kind))]
    return from_config(cls, cfg, PretextError, "pretext", _BUILDERS)


def objective_to_config(obj: PretextObjective) -> dict:
    cfg = {"kind": objective_kind(obj)}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, EncoderConfig):
            cfg[f.name] = encoder_to_config(value)
        elif isinstance(value, tuple):
            cfg[f.name] = [{"kind": kind_name(k), **asdict(k)} for k in value]
        else:
            cfg[f.name] = value
    return cfg


def init_for_objective(obj: PretextObjective, n_classes: int, rng: np.random.Generator,
                       in_channels: int = 3) -> ParamVector:
    """A fresh bundle of the objective's network for in_channels inputs:
    the encoder, the objective's head, then the linear classifier, which
    starts at zero (uniform logits). Draws come from rng in that order."""
    d = obj.encoder.embedding_dim
    items = init_encoder_params(obj.encoder, rng, in_channels)
    items += obj.init_head(d, rng)
    items += init_dense("clf", d, n_classes, rng, zero=True)
    return ParamVector(items)


# ---------------------------------------------------------------------------
# losses

def simclr_loss(z: Tensor, tau: float = 0.1) -> Tensor:
    """NT-Xent over [2n, d] projections; rows 2i and 2i+1 are a positive pair.

    Mean over the 2n anchors of -log softmax of the positive's cosine
    similarity among all other rows.
    """
    z = T.as_tensor(z)
    if z.ndim != 2 or z.shape[0] % 2 != 0:
        raise ShapeError(f"expected [2n, d] projections, got {z.shape}")
    rows = z.shape[0]
    if rows < 4:
        raise PretextError(f"need at least 2 pairs for negatives, got {rows // 2}")
    zn = T.l2_normalize(z, axis=1)
    sim = T.div(T.matmul(zn, T.transpose(zn)), tau)
    mask = (-1e9 * np.eye(rows)).astype(np.float32)   # excludes self-similarity
    logp = T.log_softmax(T.add(sim, Tensor(mask)), axis=1)
    partner = np.arange(rows) ^ 1
    pos = np.zeros((rows, rows), np.float32)
    pos[np.arange(rows), partner] = 1.0
    return T.div(T.sum_(T.mul(logp, Tensor(pos))), -float(rows))


def cpc_loss(preds: Tensor, targets: Tensor, tau: float = 1.0) -> Tensor:
    """InfoNCE over future-frame predictions [n, h, d] against the true
    frame embeddings. For each (sample, step) the candidates are the true
    frame plus the same-step frames of the other batch samples; scoring is
    a dot product of L2-normalized vectors over temperature tau."""
    preds, targets = T.as_tensor(preds), T.as_tensor(targets)
    if preds.ndim != 3 or preds.shape != targets.shape:
        raise ShapeError(f"predictions {preds.shape} and targets {targets.shape} "
                         "must both be [n, h, d]")
    n, h, _d = preds.shape
    if n < 2:
        raise PretextError(f"need batch >= 2 for negatives, got {n}")
    pn = T.l2_normalize(preds, axis=2)
    tn = T.l2_normalize(targets, axis=2)
    eye = Tensor(np.eye(n, dtype=np.float32))
    terms = []
    for k in range(h):
        scores = T.div(T.matmul(pn[:, k, :], T.transpose(tn[:, k, :])), tau)
        logp = T.log_softmax(scores, axis=1)
        terms.append(T.div(T.sum_(T.mul(logp, eye)), -float(n)))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.div(total, float(h))


def multitask_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all n*m detection outputs."""
    logits = T.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.float32)
    if logits.shape != labels.shape:
        raise ShapeError(f"logits {logits.shape} and labels {labels.shape} differ")
    if labels.size and not np.all((labels == 0.0) | (labels == 1.0)):
        raise PretextError("detection labels must be binary")
    return T.mean(T.binary_cross_entropy_with_logits(logits, labels))


# ---------------------------------------------------------------------------
# full pipeline evaluation

def eval_ssl(obj: PretextObjective, params: ParamVector, windows: np.ndarray,
             rng: np.random.Generator) -> Tensor:
    """The scalar pretext loss of one batch of raw windows [n, C, T].

    Checks the batch's shape and size, then returns the objective's
    loss, which runs its augmentation or frame splitting, the encoder and
    its head. Deterministic given the rng seed; gradients flow to every
    bundle parameter the objective touches.
    """
    windows = np.asarray(windows, dtype=np.float32)
    if windows.ndim != 3:
        raise ShapeError(f"expected a batch [n, C, T], got shape {windows.shape}")
    n = windows.shape[0]
    if n < obj.min_batch:
        raise PretextError(f"batch of {n} below objective minimum {obj.min_batch}")
    return obj.loss(params, windows, rng)
