"""The three self-supervised objectives against closed-form oracles.

Every expected number below is computed independently in float64 from the
loss definition (softmax over the documented candidate sets), not copied
from the implementation.
"""

import numpy as np
import pytest

from metareplay import tensor as T
from metareplay.augment import Jitter, Negate, Permute, Scale
from metareplay.models import EncoderConfig, encoder_to_config
from metareplay.pretext import (CPCObjective, MultiTaskObjective, PretextError,
                                SimCLRObjective, cpc_loss, eval_ssl,
                                init_for_objective, min_batch, multitask_loss,
                                objective_from_config, objective_kind,
                                objective_to_config, simclr_loss)
from metareplay.tensor import ShapeError, Tensor

from gradcheck import check_grad


@pytest.fixture
def rng():
    return np.random.default_rng(31)


# ---------------------------------------------------------------------------
# simclr oracle values

def test_simclr_orthogonal_negatives_oracle():
    # two pairs; views within a pair identical, pairs mutually orthogonal,
    # tau=1: each anchor sees positive sim 1 and two negatives at 0
    # -> -log(e / (e + 2)), independently: ln((e+2)/e)
    z = np.array([[1, 0, 0, 0],
                  [1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 1, 0, 0]], dtype=np.float32)
    got = float(simclr_loss(Tensor(z), tau=1.0).data)
    want = np.log((np.e + 2.0) / np.e)
    assert abs(got - want) < 1e-4


def test_simclr_all_identical_oracle():
    # every similarity is 1 -> uniform softmax over 2n-1 = 3 candidates
    z = np.ones((4, 8), dtype=np.float32)
    got = float(simclr_loss(Tensor(z), tau=1.0).data)
    assert abs(got - np.log(3.0)) < 1e-4


def test_simclr_scale_invariance(rng):
    z = rng.standard_normal((8, 16)).astype(np.float32)
    a = float(simclr_loss(Tensor(z), tau=0.1).data)
    b = float(simclr_loss(Tensor(5.0 * z), tau=0.1).data)
    assert abs(a - b) < 1e-5


def test_simclr_view_swap_symmetry(rng):
    z = rng.standard_normal((8, 16)).astype(np.float32)
    swapped = z.copy()
    swapped[[2, 3]] = swapped[[3, 2]]      # swap the views of pair 1
    a = float(simclr_loss(Tensor(z), tau=0.5).data)
    b = float(simclr_loss(Tensor(swapped), tau=0.5).data)
    assert abs(a - b) < 1e-5


def test_simclr_upper_bound(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        tau = float(rng.uniform(0.05, 1.0))
        z = rng.standard_normal((2 * n, 12)).astype(np.float32)
        loss = float(simclr_loss(Tensor(z), tau=tau).data)
        assert 0.0 <= loss <= 2.0 / tau + np.log(2 * n - 1) + 1e-5


def test_simclr_needs_two_pairs(rng):
    with pytest.raises(PretextError):
        simclr_loss(Tensor(rng.standard_normal((2, 8)).astype(np.float32)))


def test_simclr_rejects_odd_rows(rng):
    with pytest.raises(ShapeError):
        simclr_loss(Tensor(rng.standard_normal((5, 8)).astype(np.float32)))


def test_simclr_grad_matches_fd(rng):
    z = Tensor(rng.standard_normal((6, 10)).astype(np.float32),
               requires_grad=True)
    check_grad(lambda z: simclr_loss(z, tau=0.5), [z], tol=1e-3)


# ---------------------------------------------------------------------------
# cpc oracle values

def test_cpc_perfect_prediction_orthogonal_negatives_oracle():
    # batch 3, h=1: prediction equals the true frame; the other two
    # candidates are orthogonal -> same 3-term softmax as above
    d = 6
    targets = np.zeros((3, 1, d), dtype=np.float32)
    targets[0, 0, 0] = 1.0
    targets[1, 0, 1] = 1.0
    targets[2, 0, 2] = 1.0
    preds = targets.copy()
    got = float(cpc_loss(Tensor(preds), Tensor(targets), tau=1.0).data)
    want = np.log((np.e + 2.0) / np.e)
    assert abs(got - want) < 1e-4


def test_cpc_identical_candidates_uniform_oracle():
    for n in (2, 3, 5):
        targets = np.ones((n, 2, 4), dtype=np.float32)
        preds = np.ones((n, 2, 4), dtype=np.float32)
        got = float(cpc_loss(Tensor(preds), Tensor(targets), tau=1.0).data)
        assert abs(got - np.log(n)) < 1e-4


def test_cpc_batch_one_rejected():
    z = np.ones((1, 2, 4), dtype=np.float32)
    with pytest.raises(PretextError):
        cpc_loss(Tensor(z), Tensor(z))


def test_cpc_scale_invariance(rng):
    p = rng.standard_normal((4, 2, 8)).astype(np.float32)
    t = rng.standard_normal((4, 2, 8)).astype(np.float32)
    a = float(cpc_loss(Tensor(p), Tensor(t)).data)
    b = float(cpc_loss(Tensor(3.0 * p), Tensor(7.0 * t)).data)
    assert abs(a - b) < 1e-5


def test_cpc_gradients_flow_to_both_sides(rng):
    p = Tensor(rng.standard_normal((3, 2, 6)).astype(np.float32),
               requires_grad=True)
    t = Tensor(rng.standard_normal((3, 2, 6)).astype(np.float32),
               requires_grad=True)
    dp, dt = T.backward(cpc_loss(p, t), [p, t])
    assert dp is not None and np.any(dp != 0)
    assert dt is not None and np.any(dt != 0)


def test_cpc_grad_matches_fd(rng):
    p = Tensor(rng.standard_normal((3, 2, 5)).astype(np.float32),
               requires_grad=True)
    t = Tensor(rng.standard_normal((3, 2, 5)).astype(np.float32),
               requires_grad=True)
    check_grad(lambda p, t: cpc_loss(p, t, tau=0.7), [p, t], tol=1e-3)


# ---------------------------------------------------------------------------
# multitask oracle values

def test_multitask_saturated_correct_is_tiny():
    logits = np.array([[20.0, -20.0]], dtype=np.float32)
    labels = np.array([[1.0, 0.0]], dtype=np.float32)
    got = float(multitask_loss(Tensor(logits), labels).data)
    assert got < 1e-8


def test_multitask_zero_logits_ln2():
    logits = np.zeros((5, 3), dtype=np.float32)
    labels = (np.arange(15).reshape(5, 3) % 2).astype(np.float32)
    got = float(multitask_loss(Tensor(logits), labels).data)
    assert abs(got - np.log(2.0)) < 1e-6


def test_multitask_one_wrong_saturated_head_oracle():
    # n=1, m=2: one perfectly right head, one saturated wrong head
    # -> (0 + 20) / 2 = 10
    logits = np.array([[20.0, 20.0]], dtype=np.float32)
    labels = np.array([[1.0, 0.0]], dtype=np.float32)
    got = float(multitask_loss(Tensor(logits), labels).data)
    assert abs(got - 10.0) < 1e-4


def test_multitask_rejects_non_binary_labels():
    logits = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(PretextError):
        multitask_loss(Tensor(logits), np.full((2, 2), 0.5, dtype=np.float32))


def test_multitask_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        multitask_loss(Tensor(np.zeros((2, 3), dtype=np.float32)),
                       np.zeros((2, 2), dtype=np.float32))


def test_multitask_grad_matches_fd(rng):
    logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                    requires_grad=True)
    labels = (rng.random((3, 4)) < 0.5).astype(np.float32)
    check_grad(lambda x: multitask_loss(x, labels), [logits], tol=1e-3)


# ---------------------------------------------------------------------------
# eval_ssl pipeline

def windows_batch(rng, n=6):
    return rng.uniform(-0.9, 0.9, size=(n, 3, 256)).astype(np.float32)


def test_eval_ssl_deterministic_per_seed(rng):
    for obj in (SimCLRObjective(), CPCObjective(),
                MultiTaskObjective(kinds=(Negate(), Jitter(0.05)))):
        params = init_for_objective(obj, 4, np.random.default_rng(1))
        wins = windows_batch(rng)
        a = eval_ssl(obj, params, wins, np.random.default_rng(42))
        b = eval_ssl(obj, params, wins, np.random.default_rng(42))
        assert a.data == b.data, objective_kind(obj)
        assert np.isfinite(a.data)
        assert float(a.data) >= 0.0


def test_eval_ssl_simclr_identity_pipeline_reduces_to_identical_views(rng):
    # identity augmentations -> both views equal the source window, so the
    # projections coincide pairwise; with every window ALSO identical the
    # batch reduces to the all-identical oracle ln(2n-1)
    obj = SimCLRObjective(pipeline=(Jitter(0.0), Scale(1.0, 1.0), Permute(1)))
    params = init_for_objective(obj, 4, np.random.default_rng(2))
    one = rng.uniform(-0.5, 0.5, size=(1, 3, 256)).astype(np.float32)
    wins = np.repeat(one, 4, axis=0)
    out = eval_ssl(obj, params, wins, np.random.default_rng(0))
    assert abs(float(out.data) - np.log(2 * 4 - 1)) < 1e-3


def test_eval_ssl_multitask_p_zero_zero_heads_ln2(rng):
    obj = MultiTaskObjective(kinds=(Negate(), Jitter(0.05)), apply_prob=0.0)
    params = init_for_objective(obj, 4, np.random.default_rng(3))
    params = params.map(lambda n, a: np.zeros_like(a)
                        if n.startswith("head.") else a)
    out = eval_ssl(obj, params, windows_batch(rng), np.random.default_rng(0))
    assert abs(float(out.data) - np.log(2.0)) < 1e-6


def test_eval_ssl_batch_too_small(rng):
    obj = SimCLRObjective()
    params = init_for_objective(obj, 4, np.random.default_rng(4))
    with pytest.raises(PretextError):
        eval_ssl(obj, params, windows_batch(rng, n=1), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# config plumbing

def test_objective_config_round_trip():
    objs = (SimCLRObjective(tau=0.2), CPCObjective(horizon=3),
            MultiTaskObjective(kinds=(Negate(), Jitter(0.1))))
    for obj in objs:
        back = objective_from_config(objective_to_config(obj))
        assert objective_kind(back) == objective_kind(obj)
        assert back == obj
    # an int-valued float is read as the float the field holds
    cpc = objective_from_config({"kind": "cpc", "tau": 1, "horizon": 3.0})
    assert cpc == CPCObjective(tau=1.0, horizon=3)
    assert type(cpc.tau) is float and type(cpc.horizon) is int
    assert objective_from_config(objective_to_config(cpc)) == cpc
    mt = objective_to_config(objective_from_config({"kind": "multitask",
                                                    "apply_prob": 1}))
    assert type(mt["apply_prob"]) is float


def test_objective_carries_its_encoder():
    enc = EncoderConfig(blocks=((8, 5, 2), (12, 3, 2)), embedding_dim=12)
    for cls in (SimCLRObjective, CPCObjective, MultiTaskObjective):
        assert cls().encoder == EncoderConfig()
        obj = cls(encoder=enc)
        cfg = objective_to_config(obj)
        assert list(cfg)[-1] == "encoder"
        assert cfg["encoder"] == encoder_to_config(enc)
        assert objective_from_config(cfg) == obj
        for empty in (None, {}):                 # the default encoder
            assert objective_from_config({**cfg, "encoder": empty}) == cls()
        params = init_for_objective(obj, 4, np.random.default_rng(0), in_channels=6)
        assert params["enc.b0.w"].shape == (8, 6, 5)
        assert params["clf.w"].shape == (12, 4)
    cpc = CPCObjective(encoder=enc)
    windows = np.random.default_rng(1).uniform(-1, 1, (3, 6, 128)).astype(np.float32)
    params = init_for_objective(cpc, 4, np.random.default_rng(0), in_channels=6)
    assert np.isfinite(eval_ssl(cpc, params, windows, np.random.default_rng(2)).item())
    with pytest.raises(PretextError, match=r"bad value for pretext\.encoder"):
        objective_from_config({"kind": "cpc", "encoder": {"blocks": 3, "embedding_dim": 8}})


def test_objective_integer_fields_take_only_integral_numbers():
    for kind, key in (("cpc", "horizon"), ("cpc", "frame_len"), ("simclr", "proj_dim")):
        for bad in (2.5, "40", "x", False):
            with pytest.raises(PretextError, match=rf"bad value for pretext\.{key}"):
                objective_from_config({"kind": kind, key: bad})
        value = getattr(objective_from_config({"kind": kind, key: 40.0}), key)
        assert value == 40 and type(value) is int


def test_objective_from_config_rejects_unknown_keys():
    with pytest.raises(PretextError):
        objective_from_config({"kind": "simclr", "warmup": 5})
    with pytest.raises(PretextError):
        objective_from_config({"kind": "diffusion"})


def test_min_batch_per_kind():
    assert min_batch(SimCLRObjective()) == 2
    assert min_batch(CPCObjective()) == 2
    assert min_batch(MultiTaskObjective(kinds=(Negate(),))) == 1


def test_objective_validation():
    with pytest.raises(PretextError):
        SimCLRObjective(tau=0.0)
    with pytest.raises(PretextError, match="pipeline"):
        SimCLRObjective(pipeline=())
    with pytest.raises(PretextError, match="pipeline"):
        objective_from_config({"kind": "simclr", "pipeline": []})
    with pytest.raises(PretextError):
        CPCObjective(horizon=0)
    with pytest.raises(PretextError):
        MultiTaskObjective(kinds=())
