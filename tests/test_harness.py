"""Plan parsing, stream derivation, plain pre-training, and the sweep
drivers on a micro-scale synthetic configuration."""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from metareplay.data import DataError, Dataset, write_dataset
from metareplay.harness import (PRESETS, ExperimentPlan, PlanError,
                                PretrainHyper, SweepResult, domain_shift_study,
                                dump_embeddings, epoch_order,
                                leave_one_domain_out, load_plan,
                                load_plan_dataset, plain_pretrain,
                                pretrain_for_target, rng_for, seed_of,
                                seed_seq)
from metareplay.models import EncoderConfig, init_bundle
from metareplay.pretext import (SimCLRObjective, eval_ssl, init_for_objective,
                                objective_to_config)


def micro_plan_dict(**sweep_extra):
    """2 domains x 2 classes, everything shrunk until a full sweep takes
    seconds: the structure of the outputs is what is under test here."""
    sweep = {"modes": ["baseline", "full"], "shots": [2], "seeds": 1, "seed": 9,
             "plain_epochs": 2, "plain_batch": 16}
    sweep.update(sweep_extra)
    return {
        "data": {"synth": {"n_domains": 2, "n_classes": 2,
                           "samples_per_class": 12, "timesteps": 64, "seed": 5},
                 "min_count": 10},
        "pretext": {"kind": "simclr"},
        "meta": {"M": 2, "M_dom": 1, "K": 4, "epochs": 2},
        "replay": {"steps": 2},
        "sweep": sweep,
    }


# ---------------------------------------------------------------------------
# plan parsing

def test_default_plan():
    plan = load_plan({})
    assert plan.synth_spec is not None
    assert len(plan.synth_spec.domains) == 4
    assert plan.meta_hyper.K == 16 and plan.meta_hyper.epochs == 200
    assert plan.replay_cfg.steps == 10
    assert plan.replay_cfg.lr == plan.meta_hyper.alpha   # replay reuses alpha
    assert plan.modes == ("baseline", "replay_only", "meta_only", "full")
    assert plan.shots == (1, 2, 5, 10)
    assert plan.n_seeds == 5
    assert plan.plain_hyper == PretrainHyper()
    assert plan.finetune_cfg.protocol == "linear"


def test_unknown_section_and_keys_rejected():
    with pytest.raises(PlanError, match="sections"):
        load_plan({"dataa": {}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"meta": {"gamma": 1.0}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"data": {"synth": {"rotation": 3}}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"sweep": {"mode": ["full"]}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"data": {"synth": {"recipes": [{"rotation": 3}]}}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"replay": {"step": 1}})
    with pytest.raises(PlanError, match="unknown keys"):
        load_plan({"finetune": {"rate": 1}})
    for bad in ({"pretext": []}, {"meta": []}, {"replay": []},
                {"data": {"synth": {"recipes": [3]}}}):
        with pytest.raises(PlanError, match="must be a JSON object"):
            load_plan(bad)


def test_path_and_synth_exclusive():
    with pytest.raises(PlanError, match="not both"):
        load_plan({"data": {"path": "x.ads", "synth": {}}})


def test_mode_shot_seed_validation():
    with pytest.raises(PlanError, match="mode"):
        load_plan({"sweep": {"modes": ["full", "ablate"]}})
    with pytest.raises(PlanError, match="shots"):
        load_plan({"sweep": {"shots": []}})
    with pytest.raises(PlanError, match="shots"):
        load_plan({"sweep": {"shots": [0]}})
    with pytest.raises(PlanError, match="seeds"):
        load_plan({"sweep": {"seeds": 0}})
    with pytest.raises(PlanError, match="shots"):
        load_plan({"sweep": {"shots": 5}})
    with pytest.raises(PlanError, match="modes must be a list"):
        load_plan({"sweep": {"modes": "full"}})
    with pytest.raises(PlanError, match="study_kinds"):
        load_plan({"sweep": {"study_kinds": ["nope"]}})
    with pytest.raises(PlanError, match="study_shots"):
        load_plan({"sweep": {"study_shots": 0}})
    # a value of the wrong type is a plan error, not a TypeError
    with pytest.raises(PlanError, match="bad value in 'meta'"):
        load_plan({"meta": {"M": "12"}})
    for bad in ({"sweep": {"seeds": None}}, {"sweep": {"seed": None}},
                {"sweep": {"plain_epochs": None}},
                {"pretext": {"kind": "cpc", "tau": None}},
                {"pretext": {"kind": "simclr", "pipeline": [3]}},
                {"data": {"synth": {"n_domains": None}}},
                {"pretext": {"encoder": {"blocks": 3, "embedding_dim": 8}}},
                # encoders that EncoderConfig rejects: not a ShapeError
                {"pretext": {"encoder": {"blocks": [[8, 5, 2]], "embedding_dim": 9}}},
                {"pretext": {"encoder": {"blocks": [], "embedding_dim": 8}}},
                {"pretext": {"encoder": "abc"}}):
        with pytest.raises(PlanError, match="bad value"):
            load_plan(bad)
    # a non-string data path fails at parse time, before it reaches plan.raw
    for path in (3, ["a"], {"x": 1}):
        with pytest.raises(PlanError, match="data.path must be a string"):
            load_plan({"data": {"path": path}})


def test_preset_merging_and_override():
    plan = load_plan({"sweep": {"preset": "paper_scale"}})
    assert plan.meta_hyper.epochs == 5000 and plan.meta_hyper.K == 128
    assert plan.plain_hyper.epochs == 100 and plan.plain_hyper.batch_size == 128
    assert plan.min_count == 500
    # explicit keys beat the preset
    plan = load_plan({"sweep": {"preset": "paper_scale"},
                      "meta": {"epochs": 7}})
    assert plan.meta_hyper.epochs == 7
    with pytest.raises(PlanError, match="preset"):
        load_plan({"sweep": {"preset": "warehouse_scale"}})
    with pytest.raises(PlanError, match="preset"):
        load_plan({"sweep": {"preset": ["paper_scale"]}})
    assert "desk_scale" in PRESETS


def test_replay_lr_explicit_wins():
    plan = load_plan({"replay": {"lr": 0.02}})
    assert plan.replay_cfg.lr == 0.02


def test_config_hash_stable_and_sensitive(tmp_path):
    a = load_plan(micro_plan_dict())
    b = load_plan(micro_plan_dict())
    assert a.config_hash == b.config_hash
    changed = micro_plan_dict()
    changed["meta"]["K"] = 6
    assert load_plan(changed).config_hash != a.config_hash
    # the normalized form is a fixed point: re-loading it changes nothing
    again = load_plan(json.loads(json.dumps(a.raw)))
    assert again.config_hash == a.config_hash
    # file and dict input agree
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(micro_plan_dict()))
    assert load_plan(p).config_hash == a.config_hash


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("source", [{}, micro_plan_dict(),
                                    FIXTURES / "transfer_plan.json",
                                    FIXTURES / "study_plan.json"],
                         ids=["defaults", "micro", "transfer", "study"])
def test_normalized_plan_is_json_native(source):
    raw = load_plan(source).raw
    assert raw == json.loads(json.dumps(raw))


# Pinned config_hash per plan: the normalized form, and so every stored
# hash, must not drift. Together the plans spell out every key, with an
# int-valued float where the parser coerces (objective scalars, plain_*,
# synth sizes) and where it keeps the JSON type (meta, replay, finetune).
_PINNED_HASHES = {
    "transfer": (FIXTURES / "transfer_plan.json", "9261f0b8dd249c2e"),
    "study": (FIXTURES / "study_plan.json", "9a081d5084d1ef1c"),
    "defaults": ({}, "ba16aca64a637a5f"),
    "micro": (micro_plan_dict(), "d68a2bfa36ec6bb3"),
    "paper_scale": ({"sweep": {"preset": "paper_scale"}}, "793a3a29474a6728"),
    # the cpc default's hash: the int temperature is read as a float
    "cpc_tau_int": ({"pretext": {"kind": "cpc", "tau": 1}}, "f49b25e9bb0fc7b6"),
    "simclr_tau_int": ({"pretext": {"kind": "simclr", "tau": 1}}, "76009327b9c7aa80"),
    "simclr_all": ({"pretext": {"kind": "SimCLR", "tau": 1, "proj_dim": 32.0,
                                "pipeline": [{"kind": "jitter", "sigma": 1},
                                             {"kind": "scale", "low": 1, "high": 2},
                                             "negate",
                                             {"kind": "rotate3d", "max_angle_deg": 10},
                                             {"kind": "permute", "n_segments": 2}]}},
                   "cf77f67d3f1e8289"),
    "cpc_all": ({"pretext": {"kind": "cpc", "tau": 2, "horizon": 3.0, "frame_len": 16}},
                "3d2cce899350b0d3"),
    "multitask_all": ({"pretext": {"kind": "multitask", "apply_prob": 1,
                                   "kinds": ["negate", {"kind": "jitter", "sigma": 1}]}},
                      "6c6ff909f7c3b303"),
    "encoder": ({"pretext": {"encoder": {"blocks": [[8, 5, 2], [16, 3, 1]],
                                         "embedding_dim": 16}}},
                "85f26f144da46606"),
    "meta_all": ({"meta": {"M": 6, "M_dom": 2, "K": 8, "alpha": 1, "beta": 2,
                           "inner_steps": 0, "epochs": 3, "outer": "sgd",
                           "val_tasks": 1, "multi_task_fraction": 0.9}},
                 "d43548c9c419e43e"),
    "replay_all": ({"replay": {"steps": 3, "lr": 1, "kind": "cpc"}}, "404e6fa04107db65"),
    "finetune_all": ({"finetune": {"protocol": "end_to_end", "lr": 1, "epochs": 4}},
                     "38b439cc6ee3363f"),
    "sweep_all": ({"sweep": {"modes": ["full"], "shots": [1.0, 3], "seeds": 2.0,
                             "seed": 4.0, "plain_epochs": 3.0, "plain_batch": 8,
                             "plain_lr": 1, "plain_weight_decay": 0,
                             "study_kinds": ["cpc", "SimCLR"], "study_shots": 2.0,
                             "preset": "paper_scale"}},
                  "fdf0925dc4f29827"),
    "synth_all": ({"data": {"synth": {"n_domains": 3.0, "n_classes": 2,
                                      "timesteps": 64.0, "samples_per_class": 7,
                                      "seed": 3.0},
                            "min_count": 4.0}},
                  "9d1215b3fe0858a5"),
    "recipes": ({"data": {"synth": {"recipes": [{"rotation_deg": 10, "gain": 2,
                                                 "channel_gains": [1, 2, 3]}, {}],
                                    "n_classes": 3}}},
                "763f4c3f357d7432"),
}


@pytest.mark.parametrize("name", list(_PINNED_HASHES))
def test_fixture_config_hashes_are_pinned(name):
    source, expected = _PINNED_HASHES[name]
    assert load_plan(source).config_hash == expected


def test_plan_pretext_section_is_the_objective_config():
    enc = {"blocks": [[8, 5, 2], [16, 3, 1]], "embedding_dim": 16}
    plan = load_plan({"pretext": {"kind": "cpc", "encoder": enc}})
    assert plan.raw["pretext"] == objective_to_config(plan.objective)
    assert plan.objective.encoder == EncoderConfig(blocks=((8, 5, 2), (16, 3, 1)),
                                                   embedding_dim=16)
    assert plan.enc_cfg is plan.objective.encoder
    assert load_plan({}).enc_cfg == EncoderConfig()


def test_normalized_plan_does_not_alias_the_spec():
    plan = load_plan(FIXTURES / "transfer_plan.json")
    recipe = plan.raw["data"]["synth"]["recipes"][1]
    recipe["rotation_deg"] = -1.0
    recipe["channel_gains"][0] = 9.0
    assert plan.synth_spec.domains[1].rotation_deg == 65.0
    assert plan.synth_spec.domains[1].channel_gains == (1.0, 2.0, 0.5)


def test_load_plan_dataset_synth_and_min_count():
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    assert ds.n_domains == 2
    assert ds.n_windows == 2 * 2 * 12
    # min_count larger than any domain empties the dataset
    starved = micro_plan_dict()
    starved["data"]["min_count"] = 1000
    with pytest.raises(DataError, match="fewer than"):
        load_plan_dataset(load_plan(starved))


# ---------------------------------------------------------------------------
# stream derivation

def test_seed_streams_are_keyed_and_reproducible():
    a = rng_for(3, "pretrain", 0, "meta").integers(0, 10**9, 4)
    b = rng_for(3, "pretrain", 0, "meta").integers(0, 10**9, 4)
    c = rng_for(3, "pretrain", 1, "meta").integers(0, 10**9, 4)
    d = rng_for(4, "pretrain", 0, "meta").integers(0, 10**9, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert seed_seq(3, "x").generate_state(1)[0] != seed_seq(3, "y").generate_state(1)[0]


def test_epoch_order_is_seeded_permutation():
    pool = np.array([4, 9, 2, 7])
    a = epoch_order(pool, np.random.default_rng(0))
    b = epoch_order(pool, np.random.default_rng(0))
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == sorted(pool.tolist())


# ---------------------------------------------------------------------------
# plain pre-training loop

def test_plain_pretrain_checkpoints_argmin_epoch():
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    obj = SimCLRObjective()
    init = init_for_objective(obj, 2, np.random.default_rng(0))
    hyper = PretrainHyper(epochs=3, batch_size=8, lr=1e-3)
    best, log = plain_pretrain(obj, init, ds, np.arange(0, 16), np.arange(16, 24),
                               hyper, np.random.default_rng(2),
                               record_trajectory=True)
    vals = [e["val_loss"] for e in log.epochs]
    assert all(v is not None for v in vals)
    k = int(np.argmin(vals))
    assert log.best_epoch == k + 1
    assert best.max_abs_diff(log.trajectory[k]) == 0.0


def test_plain_pretrain_empty_pool_rejected():
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    obj = SimCLRObjective()
    init = init_for_objective(obj, 2, np.random.default_rng(0))
    with pytest.raises(PlanError, match="no usable batch"):
        plain_pretrain(obj, init, ds, np.arange(1), np.arange(0),
                       PretrainHyper(epochs=1), np.random.default_rng(0))


def test_pretrain_for_target_methods():
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    model, log, dsn = pretrain_for_target(plan, ds, 0, "plain")
    assert model.method == "plain"
    assert len(log.epochs) == plan.plain_hyper.epochs
    assert dsn.norm is not None
    model, log, _ = pretrain_for_target(plan, ds, 0, "meta")
    assert model.method == "meta"
    assert len(log.epochs) == plan.meta_hyper.epochs


# ---------------------------------------------------------------------------
# the sweep driver

@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    plan = load_plan(micro_plan_dict())
    out1 = tmp_path_factory.mktemp("sweep1")
    out2 = tmp_path_factory.mktemp("sweep2")
    r1 = leave_one_domain_out(plan, out_dir=str(out1))
    r2 = leave_one_domain_out(plan, out_dir=str(out2))
    return plan, out1, out2, r1, r2


def test_sweep_shape_and_success(sweep_runs):
    plan, out1, _out2, r1, _r2 = sweep_runs
    assert r1.n_failed == 0
    assert len(r1.cells) == 2 * len(plan.shots) * plan.n_seeds * len(plan.modes)
    assert {c["mode"] for c in r1.cells} == set(plan.modes)
    assert {c["domain"] for c in r1.cells} == {0, 1}
    for row in r1.per_domain:
        assert 0.0 <= row["macro_f1_mean"] <= 1.0
        assert row["n_seeds"] == plan.n_seeds
    for mode in plan.modes:
        assert r1.grand[mode]["2"]["n_domains"] == 2


def test_sweep_writes_artifacts(sweep_runs):
    plan, out1, _out2, r1, _r2 = sweep_runs
    assert (out1 / "results.json").exists()
    assert (out1 / "checkpoints" / "plain_d0.adp2").exists()
    assert (out1 / "checkpoints" / "meta_d1.adp2").exists()
    assert (out1 / "checkpoints" / "meta_d1.adp2.json").exists()
    assert (out1 / "logs" / "pretrain_plain_d0.json").exists()
    assert (out1 / "logs" / "cell_d0_k2_s0_full.json").exists()
    loaded = SweepResult.load(out1 / "results.json")
    assert loaded.to_json_dict() == r1.to_json_dict()
    assert loaded.config_hash == plan.config_hash


def test_sweep_rerun_is_identical(sweep_runs):
    _plan, out1, out2, r1, r2 = sweep_runs
    assert r1.to_json_dict() == r2.to_json_dict()
    assert json.loads((out1 / "results.json").read_text()) == \
        json.loads((out2 / "results.json").read_text())


def test_cell_stores_the_pipeline_record(monkeypatch):
    # run_pipeline's record is already the JSON it is written as, and a
    # sweep cell stores its replay and fine-tune parts unchanged
    from metareplay import harness
    from metareplay.adapt import PretrainedModel, run_pipeline
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    params = init_for_objective(plan.objective, ds.n_classes, np.random.default_rng(0))
    model = PretrainedModel(params=params, method="meta", objective=plan.objective,
                            n_classes=ds.n_classes)
    records = []

    def recording(*args):
        bundle, record = run_pipeline(*args)
        records.append(record)
        return bundle, record

    monkeypatch.setattr(harness, "run_pipeline", recording)
    cell = harness._run_cell(plan, ds, ds, {"meta": model}, 0, 2, 0, "full")
    (record,) = records
    assert cell["error"] is None
    assert record == json.loads(json.dumps(record))
    assert list(record) == ["mode", "protocol", "replay", "finetune"]
    assert list(record["replay"]) == ["loss_before", "loss_after", "step_losses"]
    assert list(record["finetune"]) == ["losses", "accuracies"]
    assert cell["replay"] == record["replay"]
    assert cell["finetune"] == record["finetune"]


def test_failed_cell_keeps_its_traceback(monkeypatch):
    from metareplay import harness
    plan = load_plan(micro_plan_dict())
    clean = leave_one_domain_out(plan)
    real = harness.run_pipeline

    def failing(mode, pretrained, dsn, split, *rest):
        if mode == "full" and split.target_domain.id == 1:
            raise RuntimeError("replay diverged")
        return real(mode, pretrained, dsn, split, *rest)

    monkeypatch.setattr(harness, "run_pipeline", failing)
    res = leave_one_domain_out(plan)
    (bad,) = [c for c in res.cells if c["error"] is not None]
    assert (bad["domain"], bad["mode"]) == (1, "full")
    assert bad["error"] == "RuntimeError: replay diverged"
    assert "in failing" in bad["traceback"]
    assert bad["traceback"].rstrip().endswith("RuntimeError: replay diverged")
    # every cell that did not fail is exactly what it is without the failure
    assert [c for c in res.cells if c is not bad] == \
        [c for c in clean.cells if (c["domain"], c["mode"]) != (1, "full")]
    assert all("traceback" not in c for c in clean.cells)


def test_failed_pretraining_fails_only_its_cells(monkeypatch, tmp_path):
    from metareplay import harness
    plan = load_plan(micro_plan_dict())
    clean = leave_one_domain_out(plan)
    real = harness.pretrain_for_target

    def failing(plan, ds, target, method):
        if (target, method) == (1, "meta"):
            raise RuntimeError("meta pre-training diverged")
        return real(plan, ds, target, method)

    monkeypatch.setattr(harness, "pretrain_for_target", failing)
    res = leave_one_domain_out(plan, out_dir=str(tmp_path))
    bad = [c for c in res.cells if c["error"] is not None]
    assert [(c["domain"], c["shots"], c["seed"], c["mode"]) for c in bad] == \
        [(1, 2, 0, "full")]
    assert res.n_failed == len(bad)
    for cell in bad:
        assert cell["error"] == "RuntimeError: meta pre-training diverged"
        assert "in failing" in cell["traceback"]
        assert cell["report"] is None and cell["replay"] is None
    assert [c for c in res.cells if c["error"] is None] == \
        [c for c in clean.cells if (c["domain"], c["mode"]) != (1, "full")]
    assert not (tmp_path / "checkpoints" / "meta_d1.adp2").exists()
    assert not (tmp_path / "logs" / "pretrain_meta_d1.json").exists()
    assert (tmp_path / "checkpoints" / "meta_d0.adp2").exists()
    assert (tmp_path / "logs" / "pretrain_plain_d1.json").exists()
    saved = json.loads((tmp_path / "logs" / "cell_d1_k2_s0_full.json").read_text())
    assert saved == bad[0]


def test_cell_threads_match_one_worker(monkeypatch, tmp_path):
    # with BLAS pinned to one thread a target's cells run on a pool; every
    # file the sweep writes must be that of the calling-thread loop, byte
    # for byte. Replay's backward writes .grad onto the leaves it reaches,
    # so no leaf may reach two gradient-taking losses: a race on shared
    # leaves shows only when two backward passes end at the same moment,
    # which a byte comparison alone misses
    # (two shot seeds, so that two replaying cells share a pre-trained model)
    from metareplay import adapt, harness, meta
    plan = load_plan(micro_plan_dict(seeds=2))
    threads, leaves = set(), []

    def recording_eval_ssl(*args):
        leaves.extend(t for _, t in args[1] if t.requires_grad)
        return eval_ssl(*args)

    real_pipeline = harness.run_pipeline

    def recording_pipeline(*args):
        threads.add(threading.get_ident())
        return real_pipeline(*args)

    for module in (adapt, harness, meta):
        monkeypatch.setattr(module, "eval_ssl", recording_eval_ssl)
    monkeypatch.setattr(harness, "run_pipeline", recording_pipeline)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    runs = []
    for blas_threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        threads.clear()
        out = tmp_path / blas_threads
        leave_one_domain_out(plan, out_dir=str(out))
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((files, set(threads)))
    (pooled, pooled_threads), (serial, serial_threads) = runs
    assert sorted(map(str, pooled)) == sorted(map(str, serial))
    assert any(p.suffix == ".adp2" for p in pooled)
    assert pooled == serial
    assert len({id(t) for t in leaves}) == len(leaves)
    assert serial_threads == {threading.get_ident()}
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: the pool has a single worker")
    assert len(pooled_threads) > 1


def test_failing_cells_are_isolated():
    # 40 shots per class cannot be cut from a 24-window domain: every
    # cell fails, the sweep itself must survive and say so
    plan = load_plan(micro_plan_dict(shots=[40]))
    res = leave_one_domain_out(plan)
    assert res.n_failed == len(res.cells) > 0
    assert all(c["error"] is not None for c in res.cells)
    assert res.grand["full"]["40"]["macro_f1_mean"] is None


def test_sweep_runs_every_mode_on_a_custom_encoder():
    # meta pre-training and replay must build the plan's encoder, not the
    # default one: the default has a third block this bundle lacks
    raw = micro_plan_dict(modes=["baseline", "replay_only", "meta_only", "full"])
    raw["pretext"]["encoder"] = {"blocks": [[16, 5, 2], [24, 3, 2]], "embedding_dim": 24}
    res = leave_one_domain_out(load_plan(raw))
    assert [c["error"] for c in res.cells] == [None] * len(res.cells)


def test_six_channel_dataset_pretrains(tmp_path):
    # the first conv is built for the dataset's channels, not for three
    raw = micro_plan_dict(modes=["baseline", "replay_only", "meta_only", "full"],
                          study_kinds=["cpc"], study_shots=1)
    raw["data"]["synth"]["timesteps"] = 128
    ds = load_plan_dataset(load_plan(raw))
    six = Dataset(values=np.concatenate([ds.values, -ds.values], axis=1),
                  labels=ds.labels, domains=ds.domains, domain_tags=ds.domain_tags,
                  n_classes=ds.n_classes)
    write_dataset(six, tmp_path / "six.ads")
    raw["data"] = {"path": str(tmp_path / "six.ads"), "min_count": 10}
    raw["pretext"] = {"kind": "cpc"}
    plan = load_plan(raw)
    res = leave_one_domain_out(plan)
    assert res.n_failed == 0 and len(res.cells) == 2 * 4
    study = domain_shift_study(plan)
    assert set(study["kinds"]) == {"cpc"}
    # Rotate3D needs 3 channels: caught before any pre-training
    for kind in ("simclr", "multitask"):
        raw["pretext"] = {"kind": kind}
        with pytest.raises(PlanError, match=f"{kind} pretext holds Rotate3D.* has 6"):
            leave_one_domain_out(load_plan(raw))
    raw["pretext"] = {"kind": "cpc"}
    raw["sweep"]["study_kinds"] = ["cpc", "multitask"]
    with pytest.raises(PlanError, match="multitask pretext holds Rotate3D.* has 6"):
        domain_shift_study(load_plan(raw))


def test_sweep_needs_two_domains():
    solo = micro_plan_dict()
    solo["data"]["synth"]["n_domains"] = 1
    with pytest.raises(PlanError, match="2 domains"):
        leave_one_domain_out(load_plan(solo))


# ---------------------------------------------------------------------------
# shift study and embedding dump

def test_shift_study_structure(tmp_path):
    plan = load_plan(micro_plan_dict(study_kinds=["simclr"], study_shots=1))
    res = domain_shift_study(plan, out_dir=str(tmp_path))
    assert set(res["kinds"]) == {"simclr"}
    entry = res["kinds"]["simclr"]
    assert len(entry["per_domain"]) == 2
    for row in entry["per_domain"]:
        assert 0.0 <= row["in_domain_f1"] <= 1.0
        assert 0.0 <= row["out_of_domain_f1"] <= 1.0
        assert row["drop_pp"] == pytest.approx(
            100.0 * (row["in_domain_f1"] - row["out_of_domain_f1"]))
    assert (tmp_path / "study.json").exists()
    again = domain_shift_study(plan)
    assert again == res


def test_dump_embeddings(tmp_path):
    plan = load_plan(micro_plan_dict())
    ds = load_plan_dataset(plan)
    params = init_bundle("simclr", EncoderConfig(), 2, np.random.default_rng(0))
    path = tmp_path / "emb.csv"
    dump_embeddings(params, ds, path, EncoderConfig(), indices=np.arange(5))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("domain,label,e0,")
    assert lines[0].count(",") == 2 + 96 - 1
    first = lines[1].split(",")
    assert first[0] == str(int(ds.domains[0]))
    assert all(np.isfinite(float(v)) for v in first[2:])
