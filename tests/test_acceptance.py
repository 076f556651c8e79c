"""The ten checks this package promises: gradient fidelity, closed-form
loss and metric oracles, sampler invariants, exact reductions between the
training loops, the replay contract, the two desk-scale experiment
directions, and end-to-end determinism with stable file formats.

Each check is one test so the verbose run reads as one line per
promise. The two experiment checks (transfer margins, in-domain
advantage) run the real pipelines on the committed fixture plan and take
a few minutes each; everything else is seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_grad, primitive_cases, random_net_cases
from metareplay import harness, meta
from metareplay.data import (Dataset, make_split, read_dataset, synth_generate,
                             write_dataset)
from metareplay.harness import (PretrainHyper, leave_one_domain_out, load_plan,
                                load_plan_dataset, domain_shift_study,
                                epoch_order, plain_pretrain)
from metareplay.adapt import ReplayConfig, pretext_replay
from metareplay.meta import MetaHyper, MetaTask, generate_tasks, meta_epoch, meta_pretrain
from metareplay.metrics import ConfusionMatrix, aggregate, macro_f1
from metareplay.optim import sgd_step
from metareplay.params import ParamVector, grad_of
from metareplay.pretext import (SimCLRObjective, eval_ssl, init_for_objective,
                                cpc_loss, multitask_loss, simclr_loss)
from metareplay.tensor import Tensor

FIXTURES = Path(__file__).parent / "fixtures"


def _tiny_dataset(n_domains=3, per_domain=40, t=32, n_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    n = n_domains * per_domain
    return Dataset(values=rng.standard_normal((n, 3, t)).astype(np.float32),
                   labels=rng.integers(0, n_classes, n).astype(np.int16),
                   domains=np.repeat(np.arange(n_domains), per_domain).astype(np.uint16),
                   domain_tags=tuple(f"d{i}" for i in range(n_domains)),
                   n_classes=n_classes)


# -- 1 ----------------------------------------------------------------------

def test_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for name, f, xs in primitive_cases(rng) + random_net_cases(rng):
        worst = max(worst, check_grad(f, xs, tol=1e-3))
    assert worst < 1e-3
    assert time.time() - t0 < 60.0


# -- 2 ----------------------------------------------------------------------

def test_pretext_loss_closed_forms():
    # adjacent rows are a view pair; identical views, orthogonal pairs,
    # tau=1: positive sim 1, two negatives at 0 -> ln((e + 2) / e)
    z = Tensor(np.array([[1, 0, 0, 0], [1, 0, 0, 0],
                         [0, 1, 0, 0], [0, 1, 0, 0]], dtype=np.float32))
    want = np.log((np.e + 2.0) / np.e)
    assert abs(simclr_loss(z, tau=1.0).item() - want) < 1e-4

    # all-identical embeddings: uniform over 2n-1 = 3 candidates -> ln 3
    z = Tensor(np.ones((4, 8), dtype=np.float32))
    assert abs(simclr_loss(z, tau=1.0).item() - np.log(3.0)) < 1e-4

    # cpc, batch 3, one step: perfect orthogonal prediction -> same
    # three-term softmax; identical candidates -> uniform ln n
    targets = np.zeros((3, 1, 6), dtype=np.float32)
    for i in range(3):
        targets[i, 0, i] = 1.0
    got = cpc_loss(Tensor(targets.copy()), Tensor(targets), tau=1.0).item()
    assert abs(got - want) < 1e-4
    ones = Tensor(np.ones((5, 2, 4), dtype=np.float32))
    assert abs(cpc_loss(ones, ones, tau=1.0).item() - np.log(5.0)) < 1e-4

    # detection heads: zero logits -> ln 2 per head
    logits = Tensor(np.zeros((6, 4), dtype=np.float32))
    labels = (np.arange(24).reshape(6, 4) % 2).astype(np.float32)
    assert abs(multitask_loss(logits, labels).item() - np.log(2.0)) < 1e-4


# -- 3 ----------------------------------------------------------------------

def test_task_sampler_invariants_randomized():
    ds = _tiny_dataset()
    rng = np.random.default_rng(99)
    for trial in range(1000):
        m_dom = int(rng.integers(0, 4))
        hyper = MetaHyper(M=int(rng.integers(m_dom + 1, m_dom + 4)), M_dom=m_dom,
                          K=int(rng.integers(2, 9)), epochs=1)
        pool = np.sort(rng.choice(ds.n_windows, int(rng.integers(40, 120)), False))
        if m_dom > 0 and all(np.sum(ds.domains[pool] == d) < 2 * hyper.K
                             for d in range(ds.n_domains)):
            continue
        seed = int(rng.integers(2**32))
        tasks = generate_tasks(ds, pool, hyper, np.random.default_rng(seed))
        again = generate_tasks(ds, pool, hyper, np.random.default_rng(seed))
        assert len(tasks) == hyper.M
        pure = [t for t in tasks if t.pure_domain is not None]
        assert len(pure) == hyper.M_dom
        for t, t2 in zip(tasks, again):
            s, q = t.support, t.query
            assert s.size == hyper.K and q.size == hyper.K
            assert np.intersect1d(s, q).size == 0
            assert np.all(np.isin(s, pool)) and np.all(np.isin(q, pool))
            if t.pure_domain is not None:
                assert np.all(ds.domains[np.concatenate([s, q])]
                              == t.pure_domain)
            assert np.array_equal(s, t2.support)
            assert np.array_equal(q, t2.query)


# -- 4 ----------------------------------------------------------------------

def test_zero_inner_step_meta_equals_plain_training(monkeypatch, epoch_params):
    ds = _tiny_dataset(n_domains=1, per_domain=24)
    pool = np.arange(24)
    obj = SimCLRObjective()
    init = init_for_objective(obj, ds.n_classes, np.random.default_rng(0))

    def batch_as_task(dset, p, hyper, rng):
        perm = epoch_order(p, rng)
        return [MetaTask(perm, perm)]

    monkeypatch.setattr(meta, "generate_tasks", batch_as_task)
    mtraj, ptraj = epoch_params(meta), epoch_params(harness)
    mh = MetaHyper(M=1, M_dom=0, K=12, inner_steps=0, epochs=3,
                   outer="adam", beta=1e-3)
    mp, mlog = meta_pretrain(obj, init, ds, pool, np.arange(0), mh,
                             np.random.default_rng(5))
    ph = PretrainHyper(epochs=3, batch_size=24, lr=1e-3, weight_decay=0.0)
    pp, plog = plain_pretrain(obj, init, ds, pool, np.arange(0), ph,
                              np.random.default_rng(5))
    assert len(mtraj) == len(ptraj) == 3
    for a, b in zip(mtraj, ptraj):
        assert a.max_abs_diff(b) < 1e-5


# -- 5 ----------------------------------------------------------------------

def test_one_step_meta_update_composition():
    ds = _tiny_dataset(n_domains=1, per_domain=30)
    obj = SimCLRObjective()
    params = init_for_objective(obj, ds.n_classes, np.random.default_rng(1))
    hyper = MetaHyper(M=1, M_dom=0, K=8, inner_steps=1, alpha=5e-3, beta=1e-3,
                      outer="sgd", epochs=1)
    task = MetaTask(np.arange(8), np.arange(8, 16))

    stepped, row, _state = meta_epoch(obj, params, ds, [task], hyper,
                                      np.random.default_rng(42))

    r = np.random.default_rng(42)
    r_query = r.spawn(1)[0]
    r_inner = r.spawn(1)[0]
    s_loss = eval_ssl(obj, params, ds.values[task.support], r_inner.spawn(1)[0])
    adapted = sgd_step(params, grad_of(s_loss, params), hyper.alpha)
    q_loss = eval_ssl(obj, adapted, ds.values[task.query], r_query)
    want = sgd_step(params, grad_of(q_loss, adapted), hyper.beta)
    assert stepped.max_abs_diff(want) < 1e-6
    assert row["query_loss"] == q_loss.item()


# -- 6 ----------------------------------------------------------------------

def test_replay_contract():
    ds = _tiny_dataset(n_domains=1, per_domain=16, t=64)
    obj = SimCLRObjective()
    params = init_for_objective(obj, ds.n_classes, np.random.default_rng(2))
    shots = ds.values[:8]

    # steps=0: identity
    out, log = pretext_replay(obj, params, shots, ReplayConfig(steps=0),
                              np.random.default_rng(3))
    assert out.max_abs_diff(params) == 0.0 and log["step_losses"] == []

    # steps=1: one composed SGD step on the same stream
    cfg = ReplayConfig(steps=1, lr=5e-3)
    out, log = pretext_replay(obj, params, shots, cfg, np.random.default_rng(3))
    r = np.random.default_rng(3)
    s = eval_ssl(obj, params, shots, r.spawn(1)[0])
    want = sgd_step(params, grad_of(s, params), cfg.lr)
    assert out.max_abs_diff(want) == 0.0

    # label corruption cannot matter: replay never sees labels
    scrambled = Dataset(values=ds.values,
                        labels=(ds.labels[::-1]).copy(),
                        domains=ds.domains, domain_tags=ds.domain_tags,
                        n_classes=ds.n_classes)
    out2, _ = pretext_replay(obj, params, scrambled.values[:8], cfg,
                             np.random.default_rng(3))
    assert out2.max_abs_diff(out) == 0.0


# -- 7 ----------------------------------------------------------------------

def test_five_shot_transfer_margins():
    t0 = time.time()
    plan = load_plan(json.loads((FIXTURES / "transfer_plan.json").read_text()))
    res = leave_one_domain_out(plan)
    assert res.n_failed == 0
    full = res.grand["full"]["5"]["macro_f1_mean"]
    base = res.grand["baseline"]["5"]["macro_f1_mean"]
    replay_only = res.grand["replay_only"]["5"]["macro_f1_mean"]
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    assert full - base >= 0.05, (
        f"adapted pipeline {full:.3f} vs frozen baseline {base:.3f}")
    assert full > replay_only, (
        f"adapted pipeline {full:.3f} vs replay-only {replay_only:.3f}")


# -- 8 ----------------------------------------------------------------------

def test_in_domain_pretraining_advantage():
    t0 = time.time()
    plan = load_plan(json.loads((FIXTURES / "study_plan.json").read_text()))
    res = domain_shift_study(plan)
    wins = sum(1 for rec in res["kinds"].values()
               if rec["in_domain_f1_mean"] >= rec["out_of_domain_f1_mean"])
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    assert len(res["kinds"]) == 3
    assert wins >= 2, {k: round(rec["drop_pp"], 2)
                       for k, rec in res["kinds"].items()}


# -- 9 ----------------------------------------------------------------------

def test_metric_closed_forms():
    # balanced two-class set, everything predicted as class 0:
    # F1 = (2/3, 0) -> macro 1/3
    cm = ConfusionMatrix.from_predictions(np.array([0, 0, 1, 1]),
                                          np.array([0, 0, 0, 0]), 2)
    assert macro_f1(cm) == pytest.approx(1.0 / 3.0)
    # hand-worked 3-class example
    cm = ConfusionMatrix(np.array([[8, 2, 0], [3, 6, 1], [5, 0, 5]]))
    f1_0 = 2 * 8 / (2 * 8 + 8 + 2)      # tp=8 fp=8 fn=2
    f1_1 = 2 * 6 / (2 * 6 + 2 + 4)      # tp=6 fp=2 fn=4
    f1_2 = 2 * 5 / (2 * 5 + 1 + 5)      # tp=5 fp=1 fn=5
    assert macro_f1(cm) == pytest.approx((f1_0 + f1_1 + f1_2) / 3.0)
    # aggregation closed forms (ddof-1 std)
    assert aggregate([0.5, 0.5]) == (0.5, 0.0)
    m, s = aggregate([0.4, 0.6])
    assert m == pytest.approx(0.5) and s == pytest.approx(np.sqrt(0.02))


# -- 10 ---------------------------------------------------------------------

def test_rerun_determinism_and_file_roundtrips(tmp_path):
    plan_dict = {
        "data": {"synth": {"n_domains": 2, "n_classes": 2,
                           "samples_per_class": 12, "timesteps": 64, "seed": 5},
                 "min_count": 10},
        "pretext": {"kind": "simclr"},
        "meta": {"M": 2, "M_dom": 1, "K": 4, "epochs": 2},
        "replay": {"steps": 2},
        "sweep": {"modes": ["baseline", "full"], "shots": [2], "seeds": 1,
                  "seed": 9, "plain_epochs": 2, "plain_batch": 16},
    }
    plan = load_plan(plan_dict)
    first = leave_one_domain_out(plan, out_dir=str(tmp_path / "a"))
    second = leave_one_domain_out(plan, out_dir=str(tmp_path / "b"))
    assert first.to_json_dict() == second.to_json_dict()
    assert json.loads((tmp_path / "a" / "results.json").read_text()) == \
        json.loads((tmp_path / "b" / "results.json").read_text())
    for cell in first.cells:
        assert cell["report"]["config_hash"] == plan.config_hash

    # dataset and parameter files round-trip bit-exactly
    ds = load_plan_dataset(plan)
    write_dataset(ds, tmp_path / "ds.ads")
    ds2 = read_dataset(tmp_path / "ds.ads")
    assert np.array_equal(ds.values, ds2.values)
    assert np.array_equal(ds.labels, ds2.labels)
    assert np.array_equal(ds.domains, ds2.domains)
    assert ds.domain_tags == ds2.domain_tags

    params = init_for_objective(SimCLRObjective(), 2, np.random.default_rng(0))
    params.save(tmp_path / "p.adp2")
    back = ParamVector.load(tmp_path / "p.adp2")
    assert back.max_abs_diff(params) == 0.0
    for (n1, t1), (n2, t2) in zip(params, back):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()
