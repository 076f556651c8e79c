"""Encoder, heads, and the recurrent aggregator for the predictive objective."""

import json

import numpy as np
import pytest

from metareplay import tensor as T
from metareplay.models import (EncoderConfig, aggregate_and_predict, classify,
                               encode, encode_frames,
                               encoder_from_config, encoder_to_config, init_bundle,
                               project, split_frames)
from metareplay.params import ParamVector
from metareplay.tensor import ShapeError, Tensor


ENC = EncoderConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def bundle(kind="simclr", rng=None, n_classes=4):
    rng = rng or np.random.default_rng(21)
    return init_bundle(kind, ENC, n_classes, rng)


# ---------------------------------------------------------------------------
# encoder

def test_encode_output_shape(rng):
    params = bundle(rng=rng)
    x = rng.uniform(-1, 1, size=(8, 3, 256)).astype(np.float32)
    emb = encode(params, x, ENC)
    assert emb.shape == (8, 96)
    assert np.isfinite(emb.data).all()


def test_encoder_golden_param_count():
    # three conv blocks (32k7, 64k5, 96k3 on 3 channels) plus per-channel
    # gain and bias after each layer norm:
    # 3*32*7 + 2*32 = 736; 32*64*5 + 2*64 = 10368; 64*96*3 + 2*96 = 18624
    # (so the count is the same for every pretext kind)
    for kind in ("simclr", "cpc", "multitask"):
        params = bundle(kind)
        assert sum(t.size for n, t in params if n.startswith("enc.")) == 29728


def test_encoder_count_identical_across_pretext_kinds():
    counts = {kind: sum(t.size for n, t in bundle(kind) if n.startswith("enc."))
              for kind in ("simclr", "cpc", "multitask")}
    assert len(set(counts.values())) == 1


def test_identical_windows_identical_rows(rng):
    params = bundle(rng=rng)
    w = rng.uniform(-1, 1, size=(1, 3, 256)).astype(np.float32)
    x = np.concatenate([w, w], axis=0)
    emb = encode(params, x, ENC).data
    np.testing.assert_array_equal(emb[0], emb[1])


def test_zero_encoder_gives_zero_embeddings(rng):
    params = bundle(rng=rng).map(lambda n, a: np.zeros_like(a)
                                 if n.startswith("enc.") else a)
    x = rng.uniform(-1, 1, size=(4, 3, 256)).astype(np.float32)
    np.testing.assert_array_equal(encode(params, x, ENC).data, 0.0)


def test_encode_rejects_wrong_rank(rng):
    params = bundle(rng=rng)
    with pytest.raises(ShapeError):
        encode(params, np.zeros((3, 256), dtype=np.float32), ENC)


def test_pooling_stage_permutation_invariant(rng):
    # global mean pooling ignores the order of the time axis it averages
    x = rng.standard_normal((2, 5, 16)).astype(np.float32)
    perm = rng.permutation(16)
    a = T.global_mean_pool(x).data
    b = T.global_mean_pool(x[:, :, perm]).data
    np.testing.assert_allclose(a, b, atol=1e-6)


# ---------------------------------------------------------------------------
# dense heads

def test_project_shape_and_zero(rng):
    params = bundle("simclr", rng=rng)
    emb = Tensor(rng.standard_normal((8, 96)).astype(np.float32))
    z = project(params, emb)
    assert z.shape == (8, 50)
    zeroed = params.map(lambda n, a: np.zeros_like(a)
                        if n.startswith("head.") else a)
    np.testing.assert_array_equal(project(zeroed, emb).data, 0.0)


def test_identity_projection_passes_through(rng):
    emb = Tensor(rng.standard_normal((4, 96)).astype(np.float32))
    params = ParamVector([
        ("head.proj.w", Tensor(np.eye(96, dtype=np.float32), requires_grad=True)),
        ("head.proj.b", Tensor(np.zeros(96, dtype=np.float32), requires_grad=True)),
    ])
    np.testing.assert_allclose(project(params, emb).data, emb.data, atol=1e-6)


def test_classifier_starts_at_zero_logits(rng):
    params = bundle(rng=rng)
    emb = Tensor(rng.standard_normal((5, 96)).astype(np.float32))
    logits = classify(params, emb)
    assert logits.shape == (5, 4)
    np.testing.assert_array_equal(logits.data, 0.0)


# ---------------------------------------------------------------------------
# frames and the recurrent aggregator

def test_split_frames_layout(rng):
    x = rng.standard_normal((2, 3, 256)).astype(np.float32)
    frames = split_frames(T.as_tensor(x), 8)
    assert frames.shape == (2, 8, 3, 32)
    np.testing.assert_array_equal(frames.data[0, 0], x[0, :, :32])
    np.testing.assert_array_equal(frames.data[0, 7], x[0, :, 224:])


def test_split_frames_rejects_indivisible(rng):
    with pytest.raises(ShapeError):
        split_frames(T.as_tensor(np.zeros((1, 3, 250), dtype=np.float32)), 8)


def test_encode_frames_shape(rng):
    params = bundle("cpc", rng=rng)
    x = rng.uniform(-1, 1, size=(2, 3, 256)).astype(np.float32)
    frames = split_frames(T.as_tensor(x), 8)
    emb = encode_frames(params, frames, ENC)
    assert emb.shape == (2, 8, 96)


def test_aggregate_and_predict_shapes(rng):
    params = bundle("cpc", rng=rng)
    frame_emb = Tensor(rng.standard_normal((3, 8, 96)).astype(np.float32))
    ctx, preds = aggregate_and_predict(params, frame_emb, horizon=2)
    assert ctx.shape == (3, 96)
    assert preds.shape == (3, 2, 96)


def test_aggregate_anchor_indexing(rng):
    params = bundle("cpc", rng=rng, )
    frame_emb = Tensor(rng.standard_normal((2, 8, 96)).astype(np.float32))
    # context at t=4 (frames 1..4 consumed), one prediction for frame 5
    ctx, preds = aggregate_and_predict(params, frame_emb, horizon=1, anchor=4)
    assert preds.shape == (2, 1, 96)
    # consuming only the first 4 frames must give the same context
    ctx2, _ = aggregate_and_predict(params,
                                    Tensor(frame_emb.data[:, :5].copy()),
                                    horizon=1, anchor=4)
    np.testing.assert_allclose(ctx.data, ctx2.data, atol=1e-6)


def test_zero_weight_predictors_give_zero(rng):
    params = bundle("cpc", rng=rng).map(
        lambda n, a: np.zeros_like(a) if n.startswith("head.pred") else a)
    frame_emb = Tensor(rng.standard_normal((2, 8, 96)).astype(np.float32))
    _, preds = aggregate_and_predict(params, frame_emb, horizon=2)
    np.testing.assert_array_equal(preds.data, 0.0)


def test_aggregate_rejects_horizon_too_long(rng):
    params = bundle("cpc", rng=rng)
    frame_emb = Tensor(rng.standard_normal((2, 4, 96)).astype(np.float32))
    with pytest.raises(ShapeError):
        aggregate_and_predict(params, frame_emb, horizon=4)


# ---------------------------------------------------------------------------
# config validation

def test_encoder_config_embedding_must_match_last_block():
    with pytest.raises(ShapeError):
        EncoderConfig(blocks=((32, 7, 2), (64, 5, 2)), embedding_dim=96)


def test_encoder_config_json_round_trip():
    cfg = EncoderConfig(blocks=((16, 5, 2), (24, 3, 1)), embedding_dim=24)
    raw = json.loads(json.dumps(encoder_to_config(cfg)))
    assert raw == {"blocks": [[16, 5, 2], [24, 3, 1]], "embedding_dim": 24}
    assert encoder_from_config(raw) == cfg
    assert encoder_from_config({}) == EncoderConfig()
    with pytest.raises(ShapeError, match="exactly the keys"):
        encoder_from_config({**raw, "depth": 2})
    with pytest.raises(ShapeError, match="exactly the keys"):
        encoder_from_config({"blocks": raw["blocks"]})


def test_bundle_rejects_unknown_kind(rng):
    with pytest.raises(ValueError):
        init_bundle("masked", ENC, 4, rng)


def test_gradients_reach_every_encoder_param(rng):
    params = bundle(rng=rng)
    x = rng.uniform(-1, 1, size=(2, 3, 256)).astype(np.float32)
    loss = T.mean(encode(params, x, ENC))
    from metareplay.params import grad_of
    grads = grad_of(loss, params)
    for name, t in grads:
        if name.startswith("enc."):
            assert np.any(t.data != 0.0) or t.data.size == 0, name
