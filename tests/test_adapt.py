"""Replay and fine-tuning contracts.

Replay must be exactly the documented SGD composition (steps=0 identity,
steps=1 one step) and must never read labels; linear evaluation must
leave everything but the classifier byte-identical.
"""

import json

import numpy as np
import pytest

from metareplay.adapt import (AdaptError, ConfigError, FinetuneConfig,
                              PretrainedModel, ReplayConfig, finetune,
                              load_pretrained, pretext_replay, run_pipeline,
                              save_pretrained)
from metareplay.data import Dataset, compute_norm_stats, make_split
from metareplay.models import EncoderConfig, encoder_to_config
from metareplay.optim import sgd_step
from metareplay.params import ParamVector, grad_of
from metareplay.pretext import (CPCObjective, SimCLRObjective, eval_ssl,
                                init_for_objective)


def small_dataset(seed=7, t=64):
    rng = np.random.default_rng(seed)
    n = 120
    values = rng.uniform(-0.9, 0.9, size=(n, 3, t)).astype(np.float32)
    labels = (np.arange(n) % 4).astype(np.int16)
    domains = np.repeat(np.arange(3), 40).astype(np.uint16)
    return Dataset(values=values, labels=labels, domains=domains,
                   domain_tags=("a", "b", "c"), n_classes=4)


@pytest.fixture
def ds():
    return small_dataset()


@pytest.fixture
def obj():
    return SimCLRObjective()


def params_for(obj, seed=0):
    return init_for_objective(obj, 4, np.random.default_rng(seed))


def as_bytes(params):
    return {n: t.data.tobytes() for n, t in params}


# ---------------------------------------------------------------------------
# pretext replay

def test_replay_zero_steps_is_identity(ds, obj):
    params = params_for(obj)
    out, log = pretext_replay(obj, params, ds.values[:8],
                              ReplayConfig(steps=0), np.random.default_rng(0))
    assert out.max_abs_diff(params) == 0.0
    assert log["step_losses"] == []
    assert log["loss_before"] == log["loss_after"]


def test_replay_one_step_equals_composed_sgd(ds, obj):
    params = params_for(obj)
    shots = ds.values[:8]
    cfg = ReplayConfig(steps=1, lr=3e-3)
    got, log = pretext_replay(obj, params, shots, cfg, np.random.default_rng(17))

    r = np.random.default_rng(17)
    out = eval_ssl(obj, params, shots, r.spawn(1)[0])
    want = sgd_step(params, grad_of(out, params), cfg.lr)
    assert got.max_abs_diff(want) == 0.0
    assert log["loss_before"] == out.item()
    assert log["loss_after"] == eval_ssl(obj, want, shots, r.spawn(1)[0]).item()


def test_replay_ignores_labels(ds, obj):
    # identical window values with scrambled labels must give the same
    # adapted parameters: labels are not an input to replay at all
    params = params_for(obj)
    shots = ds.values[:8]
    cfg = ReplayConfig(steps=2, lr=3e-3)
    a, _ = pretext_replay(obj, params, shots, cfg, np.random.default_rng(5))
    scrambled = Dataset(values=ds.values.copy(),
                        labels=ds.labels[::-1].copy(), domains=ds.domains,
                        domain_tags=ds.domain_tags, n_classes=4)
    b, _ = pretext_replay(obj, params, scrambled.values[:8], cfg,
                          np.random.default_rng(5))
    assert as_bytes(a) == as_bytes(b)


def test_replay_only_touches_params_it_uses(ds, obj):
    # simclr replay trains encoder + projection head; the classifier has
    # zero gradient and must come back bit-identical
    params = params_for(obj)
    out, _ = pretext_replay(obj, params, ds.values[:8],
                            ReplayConfig(steps=3, lr=5e-3),
                            np.random.default_rng(1))
    assert np.array_equal(out["clf.w"].data, params["clf.w"].data)
    assert not np.array_equal(out["enc.b0.w"].data, params["enc.b0.w"].data)


def test_replay_descends_on_its_shot_set(ds, obj):
    params = params_for(obj)
    _, log = pretext_replay(obj, params, ds.values[:16],
                            ReplayConfig(steps=5, lr=5e-3),
                            np.random.default_rng(2))
    assert log["loss_after"] < log["loss_before"]
    assert len(log["step_losses"]) == 5


def test_replay_cpc_runs(ds):
    obj = CPCObjective()
    params = params_for(obj)
    big = small_dataset(t=96)
    out, log = pretext_replay(obj, params, big.values[:6],
                              ReplayConfig(steps=1, lr=1e-3),
                              np.random.default_rng(0))
    assert np.isfinite(log["loss_after"])
    assert out.max_abs_diff(params) > 0.0


def test_replay_batch_too_small(ds, obj):
    with pytest.raises(AdaptError, match="minimum"):
        pretext_replay(obj, params_for(obj), ds.values[:1],
                       ReplayConfig(steps=1), np.random.default_rng(0))
    with pytest.raises(AdaptError, match="n, C, T"):
        pretext_replay(obj, params_for(obj), ds.values[0],
                       ReplayConfig(steps=1), np.random.default_rng(0))


def test_replay_config_validation():
    with pytest.raises(AdaptError):
        ReplayConfig(steps=-1)
    with pytest.raises(AdaptError):
        ReplayConfig(lr=0.0)


def test_replay_deterministic(ds, obj):
    params = params_for(obj)
    a, _ = pretext_replay(obj, params, ds.values[:8], ReplayConfig(steps=2),
                          np.random.default_rng(9))
    b, _ = pretext_replay(obj, params, ds.values[:8], ReplayConfig(steps=2),
                          np.random.default_rng(9))
    assert as_bytes(a) == as_bytes(b)


# ---------------------------------------------------------------------------
# fine-tuning

def test_linear_eval_freezes_everything_but_classifier(ds, obj):
    params = params_for(obj)
    shots = np.arange(8)
    bundle, log = finetune(params, ds.values[shots], ds.labels[shots],
                           FinetuneConfig(), obj.encoder)
    for name, t in bundle:
        if name.startswith("clf."):
            continue
        assert t.data.tobytes() == params[name].data.tobytes(), name
    assert not np.array_equal(bundle["clf.w"].data, np.zeros_like(bundle["clf.w"].data))
    assert len(log["losses"]) == 20


def test_finetune_zero_epochs_gives_uniform_logits(ds, obj):
    from metareplay.models import classify, encode
    params = params_for(obj)
    shots = np.arange(8)
    bundle, log = finetune(params, ds.values[shots], ds.labels[shots],
                           FinetuneConfig(epochs=0), obj.encoder)
    logits = classify(bundle, encode(bundle, ds.values[:4], obj.encoder))
    assert np.array_equal(logits.data, np.zeros_like(logits.data))
    assert log["accuracies"] == []


def test_finetune_classifier_restarts_from_zero(ds, obj):
    # a pre-existing classifier state must not leak into fine-tuning
    params = params_for(obj)
    dirty = params.map(lambda n, a: a + 1.0 if n.startswith("clf.") else a)
    a, _ = finetune(params, ds.values[:8], ds.labels[:8], FinetuneConfig(), obj.encoder)
    b, _ = finetune(dirty, ds.values[:8], ds.labels[:8], FinetuneConfig(), obj.encoder)
    assert np.array_equal(a["clf.w"].data, b["clf.w"].data)


def test_finetune_separable_shots_reach_full_training_accuracy(obj):
    # two well-separated windows per class
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.0, 1.0, size=(4, 3, 64)).astype(np.float32)
    values = np.concatenate([3.0 * base, 3.0 * base + 0.01], axis=0)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.int64)
    params = params_for(obj)
    _, log = finetune(params, values, labels, FinetuneConfig(), obj.encoder)
    assert log["accuracies"][-1] == 1.0


def test_finetune_missing_class_rejected(ds, obj):
    vals = ds.values[:8]
    labels = np.zeros(8, dtype=np.int64)     # only class 0 present
    with pytest.raises(AdaptError, match=r"\[1, 2, 3\]"):
        finetune(params_for(obj), vals, labels, FinetuneConfig(), obj.encoder)


def test_end_to_end_trains_encoder_but_not_pretext_head(ds, obj):
    params = params_for(obj)
    bundle, _ = finetune(params, ds.values[:8], ds.labels[:8],
                         FinetuneConfig(protocol="end_to_end", epochs=3), obj.encoder)
    assert not np.array_equal(bundle["enc.b0.w"].data, params["enc.b0.w"].data)
    assert np.array_equal(bundle["head.proj.w"].data, params["head.proj.w"].data)


def test_finetune_lr_defaults():
    assert FinetuneConfig().effective_lr == 0.005
    assert FinetuneConfig(protocol="end_to_end").effective_lr == 0.001
    assert FinetuneConfig(lr=0.1).effective_lr == 0.1
    with pytest.raises(AdaptError):
        FinetuneConfig(lr=-1.0)
    with pytest.raises(AdaptError):
        FinetuneConfig(protocol="frozen")


# ---------------------------------------------------------------------------
# pretrained-model files

def test_pretrained_round_trip(tmp_path, obj):
    params = params_for(obj)
    model = PretrainedModel(params=params, method="meta", objective=obj, n_classes=4)
    path = tmp_path / "enc.adp2"
    save_pretrained(model, path)
    back = load_pretrained(path)
    assert back.params.max_abs_diff(params) == 0.0
    assert back.objective == obj
    assert back.method == "meta"
    assert back.objective.encoder == EncoderConfig()
    assert back.n_classes == 4


def test_pretrained_round_trips_its_norm_stats(tmp_path, obj, ds):
    norm = compute_norm_stats(ds.values * np.float32(1 / 3))   # values with long expansions
    path = tmp_path / "normed.adp2"
    save_pretrained(PretrainedModel(params=params_for(obj), method="plain", objective=obj,
                                    n_classes=4, norm=norm), path)
    assert list(json.loads((tmp_path / "normed.adp2.json").read_text())["norm"]) == \
        ["mid", "scale"]
    back = load_pretrained(path).norm
    for a, b in ((back.mid, norm.mid), (back.scale, norm.scale)):
        assert a.dtype == np.float32 and a.tobytes() == b.tobytes()


def test_pretrained_missing_sidecar(tmp_path, obj):
    params = params_for(obj)
    params.save(tmp_path / "bare.adp2")
    with pytest.raises(ConfigError, match="sidecar"):
        load_pretrained(tmp_path / "bare.adp2")


def test_pretrained_method_validated(obj):
    with pytest.raises(ConfigError):
        PretrainedModel(params=params_for(obj), method="scratch", objective=obj,
                        n_classes=4)


SMALL_ENCODER = EncoderConfig(blocks=((8, 5, 2), (12, 3, 2)), embedding_dim=12)


def test_pretrained_sidecar_keeps_the_encoder_in_pretext(tmp_path):
    obj = CPCObjective(encoder=SMALL_ENCODER)
    path = tmp_path / "cpc.adp2"
    save_pretrained(PretrainedModel(params=params_for(obj), method="plain",
                                    objective=obj, n_classes=4), path)
    sidecar = json.loads((tmp_path / "cpc.adp2.json").read_text())
    assert list(sidecar) == ["method", "pretext", "n_classes"]
    assert sidecar["pretext"]["encoder"] == encoder_to_config(SMALL_ENCODER)
    assert load_pretrained(path).objective == obj


def test_pretrained_loads_the_old_sidecar_layout(tmp_path):
    # before the objective carried its encoder, the sidecar kept it in a
    # top-level "encoder" next to an encoder-less "pretext"
    obj = SimCLRObjective(encoder=SMALL_ENCODER)
    params = params_for(obj)
    path = tmp_path / "old.adp2"
    save_pretrained(PretrainedModel(params=params, method="meta", objective=obj,
                                    n_classes=4), path)
    sidecar = json.loads((tmp_path / "old.adp2.json").read_text())
    encoder = sidecar["pretext"].pop("encoder")
    (tmp_path / "old.adp2.json").write_text(json.dumps(
        {"method": "meta", "pretext": sidecar["pretext"], "encoder": encoder,
         "n_classes": 4}))
    back = load_pretrained(path)
    assert back.objective == obj
    assert back.objective.encoder == SMALL_ENCODER
    assert back.method == "meta" and back.n_classes == 4
    assert back.params.max_abs_diff(params) == 0.0


# pretext sections with a non-integral size, and the key each names; a
# plan with one of them fails to load the same way (test_harness)
NOT_INTEGRAL = [
    ({"encoder": {"blocks": [[8, 5.5, 2]], "embedding_dim": 8}}, "encoder.blocks"),
    ({"encoder": {"blocks": [[8, 5, 2]], "embedding_dim": 8.7}}, "encoder.embedding_dim"),
    ({"pipeline": [{"kind": "permute", "n_segments": 2.5}]}, "permute.n_segments"),
    ({"pipeline": [{"kind": "permute", "n_segments": True}]}, "permute.n_segments"),
]


MALFORMED_SIDECARS = [(s, "") for s in (
    {}, {"pretext": {"kind": "simclr"}}, {"method": "meta", "pretext": [1]},
    {"method": "meta"}, [],
    {"method": "meta", "pretext": {"kind": "simclr",
                                   "encoder": {"blocks": [], "embedding_dim": 8}}})]
MALFORMED_SIDECARS += [({"method": "meta", "pretext": pretext}, key)
                       for pretext, key in NOT_INTEGRAL]
# a bool, NaN or an infinity in a float field (test_harness checks plans)
MALFORMED_SIDECARS += [({"method": "meta", "pretext": pretext}, key) for pretext, key in [
    ({"kind": "cpc", "tau": "nan"}, "pretext.tau"),
    ({"kind": "multitask", "apply_prob": True}, "pretext.apply_prob"),
    ({"pipeline": [{"kind": "jitter", "sigma": float("inf")}]}, "jitter.sigma")]]
# a "norm" entry that is not one finite number per channel in mid and scale
MALFORMED_SIDECARS += [({"method": "meta", "pretext": {}, "norm": norm}, key)
                       for norm, key in [
    ([1.0], "norm must be a JSON object"), ({"mid": [0.0]}, "scale"),
    ({"mid": [0.0], "scale": [1.0], "lo": [0.0]}, "unknown keys in 'norm'"),
    ({"mid": [0.0, 0.0], "scale": [1.0]}, "one number per channel"),
    ({"mid": [], "scale": []}, "one number per channel"),
    ({"mid": [0.0], "scale": ["1"]}, "expected a number"),
    ({"mid": [True], "scale": [1.0]}, "expected a finite number"),
    ({"mid": [0.0], "scale": [float("nan")]}, "expected a finite number")]]


@pytest.mark.parametrize("sidecar,key", MALFORMED_SIDECARS,
                         ids=[f"sidecar{i}" for i in range(len(MALFORMED_SIDECARS))])
def test_pretrained_malformed_sidecar(tmp_path, obj, sidecar, key):
    params_for(obj).save(tmp_path / "bad.adp2")
    (tmp_path / "bad.adp2.json").write_text(json.dumps(sidecar))
    with pytest.raises(ConfigError, match=f"malformed model sidecar.*{key}"):
        load_pretrained(tmp_path / "bad.adp2")


# ---------------------------------------------------------------------------
# the four pipeline arms

def pretrained(obj, method):
    return PretrainedModel(params=params_for(obj), method=method, objective=obj,
                           n_classes=4)


def test_baseline_is_finetune_only(ds, obj):
    split = make_split(ds, target=2, k=2, seed=0)
    model = pretrained(obj, "plain")
    bundle, log = run_pipeline("baseline", model, ds, split, ReplayConfig(),
                               FinetuneConfig(), np.random.default_rng(4))
    direct, _ = finetune(model.params, ds.values[split.finetune_shots],
                         ds.labels[split.finetune_shots], FinetuneConfig(), obj.encoder)
    assert bundle.max_abs_diff(direct) == 0.0
    assert log["replay"] is None


def test_full_with_zero_steps_equals_meta_only(ds, obj):
    split = make_split(ds, target=0, k=2, seed=1)
    model = pretrained(obj, "meta")
    a, _ = run_pipeline("full", model, ds, split, ReplayConfig(steps=0),
                        FinetuneConfig(), np.random.default_rng(6))
    b, _ = run_pipeline("meta_only", model, ds, split, ReplayConfig(steps=0),
                        FinetuneConfig(), np.random.default_rng(6))
    assert a.max_abs_diff(b) == 0.0


def test_full_forces_linear_protocol(ds, obj):
    split = make_split(ds, target=1, k=2, seed=2)
    model = pretrained(obj, "meta")
    _, log = run_pipeline("full", model, ds, split, ReplayConfig(steps=1),
                          FinetuneConfig(protocol="end_to_end"),
                          np.random.default_rng(0))
    assert log["protocol"] == "linear"


def test_mode_pretraining_mismatch(ds, obj):
    split = make_split(ds, target=0, k=2, seed=0)
    with pytest.raises(ConfigError, match="expects"):
        run_pipeline("full", pretrained(obj, "plain"), ds, split,
                     ReplayConfig(), FinetuneConfig(), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="mode"):
        run_pipeline("ablate", pretrained(obj, "plain"), ds, split,
                     ReplayConfig(), FinetuneConfig(), np.random.default_rng(0))


def test_replay_kind_mismatch(ds, obj):
    split = make_split(ds, target=0, k=2, seed=0)
    with pytest.raises(ConfigError, match="match"):
        run_pipeline("replay_only", pretrained(obj, "plain"), ds, split,
                     ReplayConfig(kind="cpc"), FinetuneConfig(),
                     np.random.default_rng(0))


def test_replay_only_actually_replays(ds, obj):
    split = make_split(ds, target=0, k=2, seed=0)
    model = pretrained(obj, "plain")
    bundle, log = run_pipeline("replay_only", model, ds, split,
                               ReplayConfig(steps=2), FinetuneConfig(),
                               np.random.default_rng(0))
    assert log["replay"] is not None
    assert len(log["replay"]["step_losses"]) == 2
    assert not np.array_equal(bundle["enc.b0.w"].data, model.params["enc.b0.w"].data)
