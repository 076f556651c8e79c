"""Target-side adaptation: pretext replay followed by fine-tuning.

Replay runs a few self-supervised gradient steps on the unlabeled
fine-tuning shots (theta <- theta - lr * grad of the pretext loss on the
shot set), nudging the encoder toward the new domain before any label is
consulted. Fine-tuning then trains the classifier, either on frozen
features (linear evaluation) or jointly with the encoder.

Each stage returns its record as the plain dict it is written to JSON
as: pretext_replay {"loss_before", "loss_after", "step_losses"},
finetune {"losses", "accuracies"} (one entry per epoch), and
run_pipeline {"mode", "protocol", "replay", "finetune"} holding the two
(replay None when the mode does not replay).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .meta import inner_adapt
from .models import CLF_PREFIX, ENC_PREFIX, EncoderConfig, classify, encode
from .optim import adam_step
from .params import ParamVector, grad_of
from .pretext import (PretextObjective, eval_ssl, min_batch, objective_from_config,
                      objective_kind, objective_to_config)


class AdaptError(ValueError):
    """Unusable shot set or invalid adaptation settings."""


class ConfigError(ValueError):
    """Incompatible mode / pre-training / objective combination."""


@dataclass(frozen=True)
class ReplayConfig:
    steps: int = 10
    lr: float = 5e-3
    kind: Optional[str] = None       # must match the pre-training objective if set

    def __post_init__(self):
        if self.steps < 0:
            raise AdaptError(f"replay steps must be >= 0, got {self.steps}")
        if self.lr <= 0:
            raise AdaptError(f"replay lr must be > 0, got {self.lr}")


LINEAR = "linear"
END_TO_END = "end_to_end"


@dataclass(frozen=True)
class FinetuneConfig:
    protocol: str = LINEAR
    lr: Optional[float] = None       # None -> 0.005 linear / 0.001 end-to-end
    epochs: int = 20

    def __post_init__(self):
        if self.protocol not in (LINEAR, END_TO_END):
            raise AdaptError(f"protocol must be {LINEAR!r} or {END_TO_END!r}, "
                             f"got {self.protocol!r}")
        if self.epochs < 0:
            raise AdaptError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr is not None and self.lr <= 0:
            raise AdaptError(f"lr must be > 0, got {self.lr}")

    @property
    def effective_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 0.005 if self.protocol == LINEAR else 0.001


def pretext_replay(objective: PretextObjective, params: ParamVector,
                   shot_values: np.ndarray, cfg: ReplayConfig,
                   rng: np.random.Generator) -> tuple[ParamVector, dict]:
    """cfg.steps full-batch pretext gradient steps on the shot windows,
    the same steps meta pre-training's inner loop takes (inner_adapt).
    Returns the adapted parameters and the replay record.

    Takes raw window values only; labels never enter. One rng stream is
    spawned per loss evaluation, in step order, plus one for the closing
    measurement.
    """
    shot_values = np.asarray(shot_values, dtype=np.float32)
    if shot_values.ndim != 3:
        raise AdaptError(f"expected shot windows [n, C, T], got {shot_values.shape}")
    if shot_values.shape[0] < min_batch(objective):
        raise AdaptError(f"{shot_values.shape[0]} shots below the objective's "
                         f"minimum batch {min_batch(objective)}")
    step_losses: list[float] = []
    theta = inner_adapt(objective, params, shot_values, cfg.lr, cfg.steps, rng,
                        loss_sink=step_losses)
    final = eval_ssl(objective, theta.no_grad(), shot_values, rng.spawn(1)[0]).item()
    before = step_losses[0] if step_losses else final
    return theta, {"loss_before": before, "loss_after": final,
                   "step_losses": step_losses}


def _trainable_prefixes(protocol: str) -> tuple[str, ...]:
    if protocol == LINEAR:
        return (CLF_PREFIX,)
    return (ENC_PREFIX, CLF_PREFIX)        # pretext head stays frozen either way


def finetune(params: ParamVector, shot_values: np.ndarray, shot_labels: np.ndarray,
             cfg: FinetuneConfig, encoder: EncoderConfig) -> tuple[ParamVector, dict]:
    """Train the classification head on the labeled shots with full-batch
    Adam and cross-entropy; returns the bundle and the fine-tune record.

    Linear evaluation freezes everything but "clf." (frozen tensors are
    the same objects before and after); end-to-end also trains the
    encoder. The classifier restarts from zero weights, so epochs=0
    yields uniform logits. The procedure is deterministic.
    """
    shot_values = np.asarray(shot_values, dtype=np.float32)
    shot_labels = np.asarray(shot_labels, dtype=np.int64)
    n_classes = params["clf.b"].size
    counts = np.bincount(shot_labels[shot_labels >= 0], minlength=n_classes)
    if shot_labels.size == 0 or np.any(counts == 0):
        empty = [int(c) for c in np.flatnonzero(counts == 0)] if shot_labels.size else "all"
        raise AdaptError(f"every class needs at least one labeled shot; empty: {empty}")

    bundle = params.map(lambda n, a: np.zeros_like(a) if n.startswith(CLF_PREFIX) else a)
    prefixes = _trainable_prefixes(cfg.protocol)
    log = {"losses": [], "accuracies": []}
    opt_state = None
    frozen_embedding = None
    if cfg.protocol == LINEAR:
        frozen_embedding = encode(bundle.no_grad(), shot_values, encoder)

    for _ in range(cfg.epochs):
        emb = frozen_embedding if frozen_embedding is not None \
            else encode(bundle, shot_values, encoder)
        logits = classify(bundle, emb)
        loss = T.cross_entropy_with_logits(logits, shot_labels)
        trainable = bundle.select(lambda n: n.startswith(prefixes))
        grads = grad_of(loss, trainable)
        stepped, opt_state = adam_step(trainable, grads, opt_state, lr=cfg.effective_lr)
        bundle = bundle.merge_overrides(stepped)
        log["losses"].append(loss.item())
        log["accuracies"].append(float((logits.data.argmax(axis=1) == shot_labels).mean()))
    return bundle, log


# ---------------------------------------------------------------------------
# persisted pre-trained models and the four ablation pipelines

PLAIN = "plain"
META = "meta"
MODES = ("baseline", "replay_only", "meta_only", "full")
_MODE_NEEDS = {"baseline": PLAIN, "replay_only": PLAIN, "meta_only": META, "full": META}
_MODE_REPLAYS = {"baseline": False, "replay_only": True, "meta_only": False, "full": True}


@dataclass(frozen=True)
class PretrainedModel:
    params: ParamVector
    method: str                      # "plain" or "meta"
    objective: PretextObjective      # encoder included
    n_classes: int

    def __post_init__(self):
        if self.method not in (PLAIN, META):
            raise ConfigError(f"method must be {PLAIN!r} or {META!r}, got {self.method!r}")


def save_pretrained(model: PretrainedModel, path) -> None:
    """ParamVector file plus a JSON sidecar (path + '.json'),
    {"method", "pretext", "n_classes"}, from which adaptation rebuilds the
    model; "pretext" is the objective's config, encoder included, as in a
    plan file. Older sidecars keep the encoder in a top-level "encoder"."""
    model.params.save(path)
    meta = {"method": model.method,
            "pretext": objective_to_config(model.objective),
            "n_classes": model.n_classes}
    with open(f"{path}.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def load_pretrained(path) -> PretrainedModel:
    params = ParamVector.load(path)
    try:
        with open(f"{path}.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"missing model sidecar {path}.json") from None
    try:
        pretext = dict(meta["pretext"])
        if "encoder" in meta:                    # an older sidecar
            pretext["encoder"] = meta["encoder"]
        return PretrainedModel(params=params, method=meta["method"],
                               objective=objective_from_config(pretext),
                               n_classes=int(meta.get("n_classes", 0)))
    except (KeyError, TypeError) as e:
        raise ConfigError(f"malformed model sidecar {path}.json: {e!r}") from None


def run_pipeline(mode: str, pretrained: PretrainedModel, ds, split,
                 replay_cfg: ReplayConfig, finetune_cfg: FinetuneConfig,
                 rng: np.random.Generator) -> tuple[ParamVector, dict]:
    """One ablation arm on one split; returns the bundle and the pipeline
    record.

    baseline: plain pre-training, fine-tune only. replay_only: plain
    pre-training + replay. meta_only: meta pre-training, fine-tune only.
    full: meta pre-training + replay, always linear evaluation. The mode
    must match how the model was pre-trained.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if _MODE_NEEDS[mode] != pretrained.method:
        raise ConfigError(f"mode {mode!r} expects {_MODE_NEEDS[mode]}-pretrained "
                          f"parameters, got {pretrained.method!r}")
    if replay_cfg.kind is not None and replay_cfg.kind != objective_kind(pretrained.objective):
        raise ConfigError(f"replay objective {replay_cfg.kind!r} does not match "
                          f"pre-training objective {objective_kind(pretrained.objective)!r}")
    if mode == "full" and finetune_cfg.protocol != LINEAR:
        # the full pipeline always runs linear evaluation (at the matching lr)
        finetune_cfg = FinetuneConfig(protocol=LINEAR, lr=None, epochs=finetune_cfg.epochs)
    shots = split.finetune_shots
    shot_values = ds.values[shots]
    params = pretrained.params
    replay_log = None
    if _MODE_REPLAYS[mode]:
        params, replay_log = pretext_replay(pretrained.objective, params, shot_values,
                                            replay_cfg, rng.spawn(1)[0])
    bundle, ft_log = finetune(params, shot_values, ds.labels[shots], finetune_cfg,
                              pretrained.objective.encoder)
    return bundle, {"mode": mode, "protocol": finetune_cfg.protocol,
                    "replay": replay_log, "finetune": ft_log}
