"""Encoder and head architectures.

One shared 1-d conv encoder feeds pretext-specific heads and a linear
classifier. Parameters live in a single ParamVector whose name prefixes
partition the bundle: "enc." (backbone), "head." (pretext head), "clf."
(classifier). Freezing during fine-tuning operates on these prefixes.
The encoder's EncoderConfig belongs to the pretext objective that trains
it; every forward function takes it, with no default to fall back on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamVector
from .tensor import ShapeError, Tensor

ENC_PREFIX = "enc."
HEAD_PREFIX = "head."
CLF_PREFIX = "clf."


@dataclass(frozen=True)
class EncoderConfig:
    """Conv blocks as (out_channels, kernel, stride); each block is two
    graph nodes: a bias-free conv with padding kernel//2, then a layer-norm
    whose epilogue applies the per-channel gain and bias and the relu.
    Global mean pooling yields the embedding."""
    blocks: tuple[tuple[int, int, int], ...] = ((32, 7, 2), (64, 5, 2), (96, 3, 2))
    embedding_dim: int = 96

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        if not self.blocks:
            raise ShapeError("encoder needs at least one conv block")
        for out, k, s in self.blocks:
            if out < 1 or k < 1 or s < 1:
                raise ShapeError(f"bad conv block ({out},{k},{s})")
        if self.embedding_dim != self.blocks[-1][0]:
            raise ShapeError(f"embedding_dim {self.embedding_dim} must equal the last "
                             f"block's channels {self.blocks[-1][0]}")


def encoder_to_config(cfg: EncoderConfig) -> dict:
    """The JSON form of an encoder config, as plan files and model
    sidecars store it."""
    return {"blocks": [list(b) for b in cfg.blocks], "embedding_dim": cfg.embedding_dim}


def encoder_from_config(raw: dict) -> EncoderConfig:
    """Inverse of encoder_to_config; {} or None is the default encoder."""
    if not raw:
        return EncoderConfig()
    if set(raw) != {"blocks", "embedding_dim"}:
        raise ShapeError(f"encoder config needs exactly the keys blocks and "
                         f"embedding_dim, got {sorted(raw)}")
    return EncoderConfig(blocks=tuple(tuple(b) for b in raw["blocks"]),
                         embedding_dim=int(raw["embedding_dim"]))


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator,
                        in_channels: int = 3) -> list[tuple[str, Tensor]]:
    items = []
    c_in = in_channels
    for i, (c_out, k, _s) in enumerate(cfg.blocks):
        std = np.sqrt(2.0 / (c_in * k))
        w = rng.normal(0.0, std, size=(c_out, c_in, k)).astype(np.float32)
        items.append((f"enc.b{i}.w", Tensor(w, requires_grad=True)))
        items.append((f"enc.b{i}.g", Tensor(np.ones((c_out, 1), np.float32), requires_grad=True)))
        items.append((f"enc.b{i}.b", Tensor(np.zeros((c_out, 1), np.float32), requires_grad=True)))
        c_in = c_out
    return items


def _dense(name: str, n_in: int, n_out: int, rng: np.random.Generator,
           zero: bool = False) -> list[tuple[str, Tensor]]:
    if zero:
        w = np.zeros((n_in, n_out), np.float32)
    else:
        w = rng.normal(0.0, np.sqrt(1.0 / n_in), size=(n_in, n_out)).astype(np.float32)
    return [(f"{name}.w", Tensor(w, requires_grad=True)),
            (f"{name}.b", Tensor(np.zeros(n_out, np.float32), requires_grad=True))]


def init_bundle(kind: str, cfg: EncoderConfig, n_classes: int,
                rng: np.random.Generator, proj_dim: int = 50, horizon: int = 2,
                n_det_heads: int = 6, in_channels: int = 3) -> ParamVector:
    """Fresh ModelBundle for one pretext kind.

    kind: "simclr" (projection head), "cpc" (recurrent aggregator +
    per-step predictors), or "multitask" (detection heads). The linear
    classifier is always present and starts at zero (uniform logits).
    """
    d = cfg.embedding_dim
    items = init_encoder_params(cfg, rng, in_channels)
    if kind == "simclr":
        items += _dense("head.proj", d, proj_dim, rng)
    elif kind == "cpc":
        std = np.sqrt(1.0 / d)
        for name, shape in (("head.gru.wx", (d, 3 * d)), ("head.gru.wh", (d, 3 * d))):
            items.append((name, Tensor(rng.normal(0.0, std, size=shape).astype(np.float32),
                                       requires_grad=True)))
        for name in ("head.gru.bx", "head.gru.bh"):
            items.append((name, Tensor(np.zeros(3 * d, np.float32), requires_grad=True)))
        if horizon < 1:
            raise ShapeError(f"horizon must be >= 1, got {horizon}")
        for h in range(1, horizon + 1):
            items += _dense(f"head.pred{h}", d, d, rng)
    elif kind == "multitask":
        if n_det_heads < 1:
            raise ShapeError(f"need at least one detection head, got {n_det_heads}")
        items += _dense("head.det", d, n_det_heads, rng)
    else:
        raise ShapeError(f"unknown pretext kind {kind!r}")
    items += _dense("clf", d, n_classes, rng, zero=True)
    return ParamVector(items)


# ---------------------------------------------------------------------------
# forward functions (pure in (params, input))

def encode(params: ParamVector, x, cfg: EncoderConfig) -> Tensor:
    """Batch of windows [n, C, T] -> embeddings [n, embedding_dim]."""
    h = T.as_tensor(x)
    if h.ndim != 3:
        raise ShapeError(f"encode expects [n, channels, T], got shape {h.shape}")
    for i, (_c_out, k, s) in enumerate(cfg.blocks):
        h = T.conv1d(h, params[f"enc.b{i}.w"], stride=s, padding=k // 2)
        h = T.layer_norm(h, epilogue=(params[f"enc.b{i}.g"], params[f"enc.b{i}.b"]))
    return T.global_mean_pool(h)


def project(params: ParamVector, emb) -> Tensor:
    return T.add(T.matmul(T.as_tensor(emb), params["head.proj.w"]), params["head.proj.b"])


def classify(params: ParamVector, emb) -> Tensor:
    return T.add(T.matmul(T.as_tensor(emb), params["clf.w"]), params["clf.b"])


def detect(params: ParamVector, emb) -> Tensor:
    return T.add(T.matmul(T.as_tensor(emb), params["head.det.w"]), params["head.det.b"])


def split_frames(x, n_frames: int) -> Tensor:
    """[n, C, T] -> [n, n_frames, C, T/n_frames], frames in temporal order."""
    x = T.as_tensor(x)
    n, c, t = x.shape
    if t % n_frames != 0:
        raise ShapeError(f"window length {t} not divisible into {n_frames} frames")
    fl = t // n_frames
    return T.transpose(T.reshape(x, (n, c, n_frames, fl)), (0, 2, 1, 3))


def encode_frames(params: ParamVector, frames: Tensor, cfg: EncoderConfig) -> Tensor:
    """[n, steps, C, fl] -> per-frame embeddings [n, steps, dim]."""
    n, steps, c, fl = frames.shape
    flat = T.reshape(frames, (n * steps, c, fl))
    emb = encode(params, flat, cfg)
    return T.reshape(emb, (n, steps, cfg.embedding_dim))


def _gru_cell(params: ParamVector, x_t: Tensor, h: Tensor) -> Tensor:
    d = x_t.shape[1]
    gx = T.add(T.matmul(x_t, params["head.gru.wx"]), params["head.gru.bx"])
    gh = T.add(T.matmul(h, params["head.gru.wh"]), params["head.gru.bh"])
    r = T.sigmoid(T.add(gx[:, :d], gh[:, :d]))
    z = T.sigmoid(T.add(gx[:, d:2 * d], gh[:, d:2 * d]))
    n = T.tanh(T.add(gx[:, 2 * d:], T.mul(r, gh[:, 2 * d:])))
    return T.add(T.sub(n, T.mul(z, n)), T.mul(z, h))


def aggregate_and_predict(params: ParamVector, frame_emb: Tensor, horizon: int,
                          anchor: int | None = None) -> tuple[Tensor, Tensor]:
    """Run the gated recurrent aggregator over frames 1..anchor and predict
    the next ``horizon`` frame embeddings from the final context.

    frame_emb: [n, steps, dim]. anchor defaults to steps - horizon so the
    predictions cover the last frames. Returns (context [n, dim],
    predictions [n, horizon, dim]).
    """
    if frame_emb.ndim != 3:
        raise ShapeError(f"expected [n, steps, dim], got {frame_emb.shape}")
    n, steps, d = frame_emb.shape
    if horizon < 1:
        raise ShapeError(f"horizon must be >= 1, got {horizon}")
    if horizon >= steps:
        raise ShapeError(f"horizon {horizon} must be < steps {steps}")
    if anchor is None:
        anchor = steps - horizon
    if not 1 <= anchor <= steps - horizon:
        raise ShapeError(f"anchor {anchor} outside [1, {steps - horizon}]")
    h = Tensor(np.zeros((n, d), np.float32))
    for t in range(anchor):
        h = _gru_cell(params, frame_emb[:, t, :], h)
    preds = [T.reshape(T.add(T.matmul(h, params[f"head.pred{k}.w"]),
                             params[f"head.pred{k}.b"]), (n, 1, d))
             for k in range(1, horizon + 1)]
    return h, T.concat(preds, axis=1)
