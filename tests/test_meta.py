"""Task sampling invariants and the meta-training loop's reduction oracles.

The two load-bearing oracles: (a) a single meta step with a plain-SGD
outer loop must equal the hand-composed adapt/evaluate/step sequence;
(b) with zero inner steps and one task per epoch the whole meta loop
must reproduce ordinary mini-batch training step for step.
"""

import os
import threading

import numpy as np
import pytest

from metareplay import harness, meta
from metareplay.data import Dataset
from metareplay.harness import PretrainHyper, epoch_order, plain_pretrain
from metareplay.meta import (MetaError, MetaHyper, MetaTask, generate_tasks,
                             inner_adapt, meta_epoch, meta_pretrain,
                             meta_validation_loss)
from metareplay.optim import adam_step, sgd_step
from metareplay.params import grad_of
from metareplay.pretext import SimCLRObjective, eval_ssl, init_for_objective


def tiny_dataset(rng, n_per_domain=40, n_domains=3, t=32):
    n = n_per_domain * n_domains
    values = rng.uniform(-0.9, 0.9, size=(n, 3, t)).astype(np.float32)
    labels = (np.arange(n) % 4).astype(np.int16)
    domains = np.repeat(np.arange(n_domains), n_per_domain).astype(np.uint16)
    return Dataset(values=values, labels=labels, domains=domains,
                   domain_tags=tuple(f"d{i}" for i in range(n_domains)),
                   n_classes=4)


@pytest.fixture
def ds():
    return tiny_dataset(np.random.default_rng(7))


@pytest.fixture
def obj():
    return SimCLRObjective()


def small_params(obj, seed=0):
    return init_for_objective(obj, 4, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# task generation invariants

def check_task_invariants(tasks, hyper, ds, pool):
    assert len(tasks) == hyper.M
    pure = [t for t in tasks if t.pure_domain is not None]
    assert len(pure) == hyper.M_dom
    pool_set = set(np.asarray(pool).tolist())
    for i, task in enumerate(tasks):
        assert len(task.support) == hyper.K
        assert len(task.query) == hyper.K
        s = set(task.support.tolist())
        q = set(task.query.tolist())
        assert len(s) == hyper.K and len(q) == hyper.K   # no repeats
        assert not (s & q)                                # disjoint
        assert s <= pool_set and q <= pool_set
        if i < hyper.M_dom:
            doms = set(ds.domains[task.support].tolist()
                       + ds.domains[task.query].tolist())
            assert doms == {task.pure_domain}
        else:
            assert task.pure_domain is None


def test_task_invariants_randomized(ds):
    rng = np.random.default_rng(123)
    for trial in range(300):
        m = int(rng.integers(1, 8))
        m_dom = int(rng.integers(0, m + 1))
        k = int(rng.integers(2, 13))
        hyper = MetaHyper(M=m, M_dom=m_dom, K=k)
        pool = rng.choice(ds.n_windows, size=int(rng.integers(2 * k, ds.n_windows)),
                          replace=False)
        bad = all(np.sum(ds.domains[pool] == d) < 2 * k
                  for d in range(ds.n_domains))
        if m_dom > 0 and bad:
            with pytest.raises(MetaError):
                generate_tasks(ds, pool, hyper, np.random.default_rng(trial))
            continue
        tasks = generate_tasks(ds, pool, hyper, np.random.default_rng(trial))
        check_task_invariants(tasks, hyper, ds, pool)


def test_task_generation_deterministic(ds):
    hyper = MetaHyper(M=6, M_dom=4, K=8)
    pool = np.arange(ds.n_windows)
    a = generate_tasks(ds, pool, hyper, np.random.default_rng(99))
    b = generate_tasks(ds, pool, hyper, np.random.default_rng(99))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.support, tb.support)
        assert np.array_equal(ta.query, tb.query)
        assert ta.pure_domain == tb.pure_domain


def test_all_tasks_pure_when_m_dom_equals_m(ds):
    tasks = generate_tasks(ds, np.arange(ds.n_windows), MetaHyper(M=5, M_dom=5, K=6),
                           np.random.default_rng(1))
    assert all(t.pure_domain is not None for t in tasks)


def test_pool_smaller_than_2k_rejected(ds):
    with pytest.raises(MetaError, match="2K"):
        generate_tasks(ds, np.arange(10), MetaHyper(M=2, M_dom=0, K=8),
                       np.random.default_rng(0))


def test_no_qualifying_domain_rejected(ds):
    # 12 windows per domain < 2K = 16, but the pool as a whole has enough
    pool = np.concatenate([ds.domain_indices(d)[:12] for d in range(3)])
    with pytest.raises(MetaError, match="domain"):
        generate_tasks(ds, pool, MetaHyper(M=4, M_dom=2, K=8),
                       np.random.default_rng(0))
    tasks = generate_tasks(ds, pool, MetaHyper(M=4, M_dom=0, K=8),
                           np.random.default_rng(0))
    assert len(tasks) == 4


def test_meta_task_rejects_mixed_pure(ds, obj):
    task = MetaTask([0, 1], [45, 46], pure_domain=0)    # domains 0 and 1
    with pytest.raises(MetaError, match="mixes"):
        meta_epoch(obj, small_params(obj), ds, [task], MetaHyper(M=1, M_dom=1, K=2),
                   np.random.default_rng(0))


def test_meta_epoch_rejects_task_outside_dataset(ds, obj):
    for bad in ([-1, 0], [0, ds.n_windows]):
        with pytest.raises(MetaError, match="outside the dataset"):
            meta_epoch(obj, small_params(obj), ds, [MetaTask(bad, [1, 2])],
                       MetaHyper(M=1, M_dom=0, K=2), np.random.default_rng(0))


def test_meta_task_rejects_unequal_sets():
    with pytest.raises(MetaError, match="support"):
        MetaTask([0, 1, 2], [3, 4])


def test_hyper_validation():
    with pytest.raises(MetaError):
        MetaHyper(M=4, M_dom=5)
    with pytest.raises(MetaError):
        MetaHyper(alpha=0.0)
    with pytest.raises(MetaError):
        MetaHyper(beta=-1.0)
    with pytest.raises(MetaError):
        MetaHyper(outer="rmsprop")
    assert MetaHyper(M=12, M_dom=8).multi_task_fraction == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# inner loop

def test_inner_zero_steps_is_identity(ds, obj):
    params = small_params(obj)
    sup = ds.values[:6]
    out = inner_adapt(obj, params, sup, 5e-3, 0, np.random.default_rng(0))
    assert out.max_abs_diff(params) == 0.0


def test_inner_one_step_equals_manual_composition(ds, obj):
    params = small_params(obj)
    sup = ds.values[:6]
    got = inner_adapt(obj, params, sup, 5e-3, 1, np.random.default_rng(11))
    r = np.random.default_rng(11).spawn(1)[0]
    loss = eval_ssl(obj, params, sup, r)
    want = sgd_step(params, grad_of(loss, params), 5e-3)
    assert got.max_abs_diff(want) == 0.0


def test_inner_adapt_never_mutates_input(ds, obj):
    params = small_params(obj)
    before = {n: t.data.tobytes() for n, t in params}
    inner_adapt(obj, params, ds.values[:6], 5e-2, 2, np.random.default_rng(3))
    assert {n: t.data.tobytes() for n, t in params} == before


# ---------------------------------------------------------------------------
# meta epoch

def make_tasks(ds, hyper, seed=5):
    return generate_tasks(ds, np.arange(ds.n_windows), hyper,
                          np.random.default_rng(seed))


def test_meta_step_unroll_oracle(ds, obj):
    # single task, one inner step, sgd outer: the update must equal the
    # hand-rolled adapt -> query-gradient -> outer step composition
    hyper = MetaHyper(M=1, M_dom=0, K=6, alpha=5e-3, beta=2e-3,
                      inner_steps=1, outer="sgd")
    tasks = make_tasks(ds, hyper)
    params = small_params(obj)
    got, row, _ = meta_epoch(obj, params, ds, tasks, hyper, np.random.default_rng(77))

    r = np.random.default_rng(77)
    r_query = r.spawn(1)[0]
    r_inner = r.spawn(1)[0]
    s_loss = eval_ssl(obj, params, ds.values[tasks[0].support], r_inner.spawn(1)[0])
    theta_1 = sgd_step(params, grad_of(s_loss, params), hyper.alpha)
    q_loss = eval_ssl(obj, theta_1, ds.values[tasks[0].query], r_query)
    want = sgd_step(params, grad_of(q_loss, theta_1), hyper.beta)

    assert got.max_abs_diff(want) < 1e-6
    assert row["query_loss"] == q_loss.item()


def test_meta_epoch_is_first_order_maml_over_many_tasks(ds, obj):
    # the desk-scale shape: several pure and mixed tasks, one inner step
    # each from the shared start, an Adam outer step on the summed
    # first-order query gradients, and the documented stream order
    hyper = MetaHyper(M=4, M_dom=2, K=5, alpha=5e-3, beta=1e-3,
                      inner_steps=1, outer="adam")
    tasks = make_tasks(ds, hyper, seed=12)
    params = small_params(obj, seed=4)
    got, row, state = meta_epoch(obj, params, ds, tasks, hyper, np.random.default_rng(3))

    r = np.random.default_rng(3)
    total, query_losses = None, []
    for task in tasks:
        r_query = r.spawn(1)[0]
        r_inner = r.spawn(1)[0]
        s_loss = eval_ssl(obj, params, ds.values[task.support], r_inner.spawn(1)[0])
        adapted = sgd_step(params, grad_of(s_loss, params), hyper.alpha)
        q_loss = eval_ssl(obj, adapted, ds.values[task.query], r_query)
        g = grad_of(q_loss, adapted)
        total = g if total is None else total.add(g)
        query_losses.append(q_loss.item())
    want, want_state = adam_step(params, total, None, lr=hyper.beta)
    assert got.max_abs_diff(want) < 1e-6
    assert row["query_loss"] == float(np.mean(query_losses))
    assert state.step == want_state.step == 1
    assert state.m.max_abs_diff(want_state.m) < 1e-6


def test_meta_validation_loss_is_mean_adapted_query_loss(ds, obj):
    # mixed tasks only, K capped by half the validation pool, each scored
    # after the same inner adaptation the training tasks get
    hyper = MetaHyper(M=3, M_dom=2, K=8, alpha=5e-3, inner_steps=1, val_tasks=3)
    val_pool = np.arange(60, 72)
    params = small_params(obj, seed=6)
    got = meta_validation_loss(obj, params, ds, val_pool, hyper,
                               np.random.default_rng(9))

    r = np.random.default_rng(9)
    tasks = generate_tasks(ds, val_pool, MetaHyper(M=3, M_dom=0, K=6), r)
    losses = []
    for task in tasks:
        assert task.pure_domain is None and len(task.support) == 6
        r_query = r.spawn(1)[0]
        r_inner = r.spawn(1)[0]
        adapted = inner_adapt(obj, params, ds.values[task.support], hyper.alpha, 1,
                              r_inner)
        losses.append(eval_ssl(obj, adapted, ds.values[task.query], r_query).item())
    assert got == float(np.mean(losses))


def test_meta_validation_scores_queries_without_a_graph(ds, obj, monkeypatch):
    # validation reads only the query losses' values, so no query loss
    # may record a graph; the inner steps before them still need one.
    # Tasks may run concurrently, so each call is matched to its task by
    # the windows it was given, not by the order of the calls.
    from metareplay import meta
    hyper = MetaHyper(M=3, M_dom=2, K=8, alpha=5e-3, inner_steps=1, val_tasks=3)
    calls, tasks = [], []

    def recording(*args):
        loss = eval_ssl(*args)
        calls.append((args[2], loss))
        return loss

    def recording_tasks(*args):
        drawn = generate_tasks(*args)
        tasks.extend(drawn)
        return drawn

    monkeypatch.setattr(meta, "eval_ssl", recording)
    monkeypatch.setattr(meta, "generate_tasks", recording_tasks)
    got = meta_validation_loss(obj, small_params(obj, seed=6), ds, np.arange(60, 72),
                               hyper, np.random.default_rng(9))

    def loss_on(idx):
        [loss] = [loss for windows, loss in calls
                  if np.array_equal(windows, ds.values[idx])]
        return loss

    inner = [loss_on(task.support) for task in tasks]
    query = [loss_on(task.query) for task in tasks]
    assert len(inner) == len(query) == 3 and len(calls) == 6
    assert all(loss.requires_grad for loss in inner)
    assert not any(loss.requires_grad for loss in query)
    assert got == float(np.mean([loss.item() for loss in query]))


def test_meta_epoch_duplicate_task_doubles_gradient(ds, obj):
    # two copies of one task sum their query gradients; with an sgd outer
    # step, the movement is twice the single-task movement
    hyper1 = MetaHyper(M=1, M_dom=0, K=6, inner_steps=0, outer="sgd", beta=1e-3)
    tasks = make_tasks(ds, hyper1)
    params = small_params(obj)
    one, _, _ = meta_epoch(obj, params, ds, tasks, hyper1, np.random.default_rng(5))
    two, _, _ = meta_epoch(obj, params, ds, tasks * 2,
                           MetaHyper(M=2, M_dom=0, K=6, inner_steps=0,
                                     outer="sgd", beta=1e-3),
                           np.random.default_rng(5))
    # same augmentation stream for both evaluations of the duplicated task?
    # no -- each task consumes its own stream, so compare against the sum
    # of the two single-task gradients instead
    r = np.random.default_rng(5)
    g_total = None
    for _ in range(2):
        rq = r.spawn(1)[0]
        loss = eval_ssl(obj, params, ds.values[tasks[0].query], rq)
        g = grad_of(loss, params)
        g_total = g if g_total is None else g_total.add(g)
    want = sgd_step(params, g_total, 1e-3)
    assert two.max_abs_diff(want) == 0.0
    assert one.max_abs_diff(want) > 0.0    # one task moved less


def test_meta_epoch_does_not_mutate_params(ds, obj):
    hyper = MetaHyper(M=2, M_dom=1, K=4)
    params = small_params(obj)
    before = {n: t.data.tobytes() for n, t in params}
    meta_epoch(obj, params, ds, make_tasks(ds, hyper), hyper, np.random.default_rng(0))
    assert {n: t.data.tobytes() for n, t in params} == before


def test_meta_epoch_deterministic(ds, obj):
    hyper = MetaHyper(M=3, M_dom=2, K=4)
    tasks = make_tasks(ds, hyper)
    params = small_params(obj)
    a, _, _ = meta_epoch(obj, params, ds, tasks, hyper, np.random.default_rng(21))
    b, _, _ = meta_epoch(obj, params, ds, tasks, hyper, np.random.default_rng(21))
    assert a.max_abs_diff(b) == 0.0


def test_meta_epoch_empty_tasks(ds, obj):
    with pytest.raises(MetaError):
        meta_epoch(obj, small_params(obj), ds, [], MetaHyper(),
                   np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full loop reductions

def test_meta_pretrain_zero_epochs_returns_init(ds, obj):
    params = small_params(obj)
    hyper = MetaHyper(M=1, M_dom=0, K=4, epochs=0)
    out, log = meta_pretrain(obj, params, ds, np.arange(ds.n_windows),
                             np.arange(0), hyper, np.random.default_rng(0))
    assert out.max_abs_diff(params) == 0.0
    assert log.epochs == []


def test_zero_inner_steps_reduces_to_plain_pretraining(ds, obj, monkeypatch,
                                                       epoch_params):
    """With inner_steps=0, one task per epoch, and the task's query set
    taken to be exactly the batch plain training would draw, the two
    loops must produce the same parameter trajectory."""
    pool = np.arange(24)
    epochs = 3
    meta_hyper = MetaHyper(M=1, M_dom=0, K=12, alpha=5e-3, beta=1e-3,
                           inner_steps=0, epochs=epochs, outer="adam")
    plain_hyper = PretrainHyper(epochs=epochs, batch_size=24, lr=1e-3,
                                weight_decay=0.0)

    def batch_as_task(dset, p, hyper, rng):
        perm = epoch_order(p, rng)
        return [MetaTask(perm, perm)]

    monkeypatch.setattr(meta, "generate_tasks", batch_as_task)
    m_trajectory, p_trajectory = epoch_params(meta), epoch_params(harness)
    params = small_params(obj)
    m_best, m_log = meta_pretrain(obj, params, ds, pool, np.arange(0),
                                  meta_hyper, np.random.default_rng(404))
    p_best, p_log = plain_pretrain(obj, params, ds, pool, np.arange(0),
                                   plain_hyper, np.random.default_rng(404))
    assert len(m_trajectory) == len(p_trajectory) == epochs
    for mt, pt in zip(m_trajectory, p_trajectory):
        assert mt.max_abs_diff(pt) < 1e-5


def test_meta_pretrain_checkpoints_best_validation_epoch(ds, obj, epoch_params):
    hyper = MetaHyper(M=2, M_dom=1, K=6, epochs=4, val_tasks=2)
    pool = np.arange(0, 90)
    val_pool = np.arange(90, 120)
    params = small_params(obj)
    trajectory = epoch_params(meta)
    best, log = meta_pretrain(obj, params, ds, pool, val_pool, hyper,
                              np.random.default_rng(31))
    vals = [e["val_loss"] for e in log.epochs]
    assert all(v is not None for v in vals)
    k = int(np.argmin(vals))
    assert log.best_epoch == k + 1
    assert best.max_abs_diff(trajectory[k]) == 0.0
    # the checkpointed loss is reproducible because every epoch rebuilds
    # its validation generator from one seed drawn off the third stream
    r_val = np.random.default_rng(31).spawn(3)[2]
    rv = np.random.default_rng(int(r_val.integers(np.iinfo(np.int64).max)))
    again = meta_validation_loss(obj, best, ds, val_pool, hyper, rv)
    assert again == log.best_val_loss
    # and identical parameters at different epochs would get identical
    # losses: the scoring function is fixed across the run
    rv = np.random.default_rng(int(np.random.default_rng(31).spawn(3)[2]
                                   .integers(np.iinfo(np.int64).max)))
    assert meta_validation_loss(obj, best, ds, val_pool, hyper, rv) == again


def test_validation_none_when_pool_too_small(ds, obj):
    hyper = MetaHyper(M=1, M_dom=0, K=6, epochs=1)
    _, log = meta_pretrain(obj, small_params(obj), ds, np.arange(40),
                           np.arange(2), hyper, np.random.default_rng(0))
    assert log.epochs[0]["val_loss"] is None
    assert log.best_epoch == 1


def test_task_threads_match_one_worker(ds, obj, monkeypatch):
    # with BLAS pinned to one thread the tasks of an epoch run on a pool;
    # its parameters and log must be those of the one-worker loop, byte for
    # byte, with every task taking its gradients through the shared leaves
    from metareplay import meta
    hyper = MetaHyper(M=4, M_dom=2, K=6, alpha=5e-3, inner_steps=1, epochs=2,
                      val_tasks=2)
    params = small_params(obj, seed=2)
    threads = set()

    def recording(*args):
        threads.add(threading.get_ident())
        return eval_ssl(*args)

    monkeypatch.setattr(meta, "eval_ssl", recording)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    runs = []
    for blas_threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        threads.clear()
        best, log = meta_pretrain(obj, params, ds, np.arange(90), np.arange(90, 120),
                                  hyper, np.random.default_rng(17))
        runs.append(([(n, t.data.tobytes()) for n, t in best], log.to_json_dict(),
                     set(threads)))
    (pooled, pooled_log, pooled_threads), (serial, serial_log, serial_threads) = runs
    assert pooled == serial
    assert pooled_log == serial_log
    assert serial_threads == {threading.get_ident()}
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: the pool has a single worker")
    assert len(pooled_threads) > 1


def test_meta_pretrain_deterministic(ds, obj):
    hyper = MetaHyper(M=2, M_dom=1, K=4, epochs=2)
    params = small_params(obj)
    a, _ = meta_pretrain(obj, params, ds, np.arange(80), np.arange(80, 120),
                         hyper, np.random.default_rng(8))
    b, _ = meta_pretrain(obj, params, ds, np.arange(80), np.arange(80, 120),
                         hyper, np.random.default_rng(8))
    assert a.max_abs_diff(b) == 0.0
