"""Self-supervised pretext objectives.

Three interchangeable implementations of the pretext loss behind one
interface: contrastive views (NT-Xent over paired augmentations),
predictive-contrastive (InfoNCE on future frame embeddings), and
multi-task augmentation detection (per-kind binary heads). An objective
describes the whole self-supervised network: its last field is the
encoder its loss runs through, so pre-training, the meta inner loop and
replay all build one network. Its JSON form is a plan's "pretext"
section and a model sidecar's "pretext" entry. eval_ssl is the single
entry point the pre-training and adaptation loops call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np

from . import tensor as T
from .augment import (AugmentKind, default_multitask_kinds, default_simclr_pipeline,
                      kind_from_config, kind_name, paired_views_batch,
                      sample_task_batch)
from .models import (EncoderConfig, aggregate_and_predict, detect, encode,
                     encode_frames, encoder_from_config, encoder_to_config,
                     init_bundle, project, split_frames)
from .params import ParamVector
from .tensor import ShapeError, Tensor


class PretextError(ValueError):
    """Invalid objective parameters or an unusable batch."""


@dataclass(frozen=True)
class SimCLRObjective:
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


@dataclass(frozen=True)
class CPCObjective:
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


@dataclass(frozen=True)
class MultiTaskObjective:
    kinds: tuple[AugmentKind, ...] = field(default_factory=default_multitask_kinds)
    apply_prob: float = 0.5
    encoder: EncoderConfig = EncoderConfig()

    def __post_init__(self):
        if not self.kinds:
            raise PretextError("need at least one detection kind")
        if not 0.0 <= self.apply_prob <= 1.0:
            raise PretextError(f"apply_prob must be in [0,1], got {self.apply_prob}")
        object.__setattr__(self, "kinds", tuple(self.kinds))


PretextObjective = Union[SimCLRObjective, CPCObjective, MultiTaskObjective]

# kind name -> objective class; the classes' fields are the config keys
OBJECTIVES = {"simclr": SimCLRObjective, "cpc": CPCObjective,
              "multitask": MultiTaskObjective}
_KIND_OF = {cls: kind for kind, cls in OBJECTIVES.items()}


def objective_kind(obj: PretextObjective) -> str:
    return _KIND_OF[type(obj)]


def min_batch(obj: PretextObjective) -> int:
    """Smallest batch the objective can score (negatives need company)."""
    if isinstance(obj, (SimCLRObjective, CPCObjective)):
        return 2
    return 1


def objective_from_config(cfg: dict) -> PretextObjective:
    """Build an objective from "kind" plus any of its class's fields.

    Augmentation lists and the encoder are built with kind_from_config
    and encoder_from_config; scalars take the type of the field's
    default, so a JSON 1 for a temperature is 1.0.
    """
    cfg = dict(cfg)
    kind = str(cfg.pop("kind", "simclr")).lower()
    if kind not in OBJECTIVES:
        raise PretextError(f"unknown pretext kind {kind!r}")
    cls = OBJECTIVES[kind]
    defaults = cls()
    kwargs = {}
    for f in fields(cls):
        if f.name in cfg:
            default, value = getattr(defaults, f.name), cfg.pop(f.name)
            try:
                if isinstance(default, EncoderConfig):
                    kwargs[f.name] = encoder_from_config(value)
                elif isinstance(default, tuple):
                    kwargs[f.name] = tuple(kind_from_config(e) for e in value)
                else:
                    kwargs[f.name] = type(default)(value)
            except TypeError as e:          # a value of the wrong JSON type
                raise PretextError(f"bad value for pretext {f.name}: {e}") from None
    obj = cls(**kwargs)
    if cfg:
        raise PretextError(f"unknown pretext config keys: {sorted(cfg)}")
    return obj


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
    """A fresh bundle of the objective's network for in_channels inputs."""
    if isinstance(obj, SimCLRObjective):
        head = {"proj_dim": obj.proj_dim}
    elif isinstance(obj, CPCObjective):
        head = {"horizon": obj.horizon}
    else:
        head = {"n_det_heads": len(obj.kinds)}
    return init_bundle(objective_kind(obj), obj.encoder, n_classes, rng,
                       in_channels=in_channels, **head)


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

    Runs augmentation / frame splitting as the objective requires, then
    the encoder and its head. Deterministic given the rng seed; gradients
    flow to every bundle parameter the objective touches.
    """
    windows = np.asarray(windows, dtype=np.float32)
    if windows.ndim != 3:
        raise ShapeError(f"expected a batch [n, C, T], got shape {windows.shape}")
    n = windows.shape[0]
    if n < min_batch(obj):
        raise PretextError(f"batch of {n} below objective minimum {min_batch(obj)}")

    if isinstance(obj, SimCLRObjective):
        views = paired_views_batch(windows, obj.pipeline, rng)
        z = project(params, encode(params, views, obj.encoder))
        return simclr_loss(z, obj.tau)

    if isinstance(obj, CPCObjective):
        frames = split_frames(windows, windows.shape[2] // obj.frame_len)
        emb = encode_frames(params, frames, obj.encoder)
        steps = emb.shape[1]
        if obj.horizon >= steps:
            raise PretextError(f"horizon {obj.horizon} needs more than "
                               f"{steps} frames per window")
        anchor = steps - obj.horizon
        _ctx, preds = aggregate_and_predict(params, emb, obj.horizon, anchor)
        targets = emb[:, anchor:anchor + obj.horizon, :]
        return cpc_loss(preds, targets, obj.tau)

    aug, labels = sample_task_batch(windows, obj.kinds, rng, obj.apply_prob)
    logits = detect(params, encode(params, aug, obj.encoder))
    return multitask_loss(logits, labels)
