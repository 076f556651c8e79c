"""Task generation and self-supervised meta-pre-training.

Tasks pair a support and a query set of K windows each, held as int64
index arrays into the dataset; the windows are gathered from
Dataset.values only when a task is trained or scored. The first M_dom
tasks per epoch are domain-specific (both sets drawn from one uniformly
chosen source domain); the rest mix windows from the whole pool and act
as synthetic domains. One meta epoch adapts a copy of the parameters on
each task's support set (a few SGD steps on the pretext loss), measures
the pretext loss of the adapted copy on the query set, and applies the
summed first-order query gradients to the shared parameters. It returns
its row of the TrainLog as a plain dict, {"support_loss", "query_loss"}:
the mean inner-step and query losses, support_loss None without inner
steps. meta_validation_loss adapts the same way but scores the query set
on a no-grad copy, so it records no graph.

rng discipline (documented because the oracle tests re-derive it): every
function splits its generator with spawn() in a fixed order, so two
training loops given equal seeds consume identical augmentation streams.
meta_epoch and meta_validation_loss draw, per task in order, one stream
for the query evaluation and then, only when inner_steps > 0, one stream
for the inner loop, which spawns one child per SGD step. A
zero-step inner loop therefore consumes exactly one stream per task,
the same as one mini-batch of ordinary pre-training.

Parallel tasks: every task depends only on the shared parameters, whose
leaf Tensors backward reads and never writes, so both loops run the
tasks' adapt-then-query work through tensor.parallel_map, on a thread
pool when BLAS is pinned to one thread and one task at a time otherwise.
All streams are spawned on the calling thread before any task runs, and
the query gradients are summed, and the losses averaged, strictly in
task order, so the rng order above and every float of the result are
those of a serial loop (the exact replay step, the 1e-6 meta-step
composition and the 1e-5 zero-inner-step oracles see no difference).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .data import Dataset
from .optim import AdamState, adam_step, sgd_step
from .params import ParamVector, grad_of
from .pretext import PretextObjective, eval_ssl, min_batch
from .tensor import parallel_map


class MetaError(ValueError):
    """Unsatisfiable task generation or bad hyperparameters."""


@dataclass(frozen=True)
class MetaTask:
    """Support and query windows as int64 index arrays into the dataset
    the task was drawn from; pure_domain is the id of the one source
    domain a domain-pure task draws from, None for a mixed task."""
    support: np.ndarray
    query: np.ndarray
    pure_domain: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64))
        object.__setattr__(self, "query", np.asarray(self.query, dtype=np.int64))
        if self.support.size != self.query.size:
            raise MetaError(f"|support|={self.support.size} != |query|={self.query.size}")


@dataclass(frozen=True)
class MetaHyper:
    """Alg.-style knobs: M tasks per epoch of which M_dom are domain-pure,
    task size K per set, inner lr alpha, outer lr beta."""
    M: int = 12
    M_dom: int = 8
    K: int = 16
    alpha: float = 5e-3
    beta: float = 1e-3
    inner_steps: int = 1
    epochs: int = 200
    outer: str = "adam"
    val_tasks: int = 4

    def __post_init__(self):
        if not 0 <= self.M_dom <= self.M or self.M < 1:
            raise MetaError(f"need 0 <= M_dom <= M with M >= 1, got M={self.M}, "
                            f"M_dom={self.M_dom}")
        if self.alpha <= 0 or self.beta <= 0:
            raise MetaError(f"learning rates must be > 0, got alpha={self.alpha}, "
                            f"beta={self.beta}")
        if self.K < 1 or self.inner_steps < 0 or self.epochs < 0:
            raise MetaError("K >= 1, inner_steps >= 0, epochs >= 0 required")
        if self.outer not in ("adam", "sgd"):
            raise MetaError(f"outer optimizer must be adam or sgd, got {self.outer!r}")

    @property
    def multi_task_fraction(self) -> float:
        return (self.M - self.M_dom) / self.M


def generate_tasks(ds: Dataset, pool: np.ndarray, hyper: MetaHyper,
                   rng: np.random.Generator) -> list[MetaTask]:
    """Sample M tasks from the pretraining pool (index array into ds).

    Domain-pure tasks draw support and query without replacement (hence
    disjoint) from one domain holding at least 2K pool windows; mixed
    tasks draw 2K windows from the whole pool the same way.
    """
    pool = np.asarray(pool, dtype=np.int64)
    k2 = 2 * hyper.K
    if pool.size < k2:
        raise MetaError(f"pool of {pool.size} windows cannot supply 2K={k2} per task")
    domains = ds.domains[pool]
    counts = np.bincount(domains, minlength=ds.n_domains)
    qualifying = np.flatnonzero(counts >= k2)
    if hyper.M_dom > 0 and qualifying.size == 0:
        raise MetaError(f"no source domain has 2K={k2} windows "
                        f"(largest has {int(counts.max())})")
    tasks: list[MetaTask] = []
    for j in range(hyper.M):
        if j < hyper.M_dom:
            d = int(qualifying[rng.integers(qualifying.size)])
            cand = pool[domains == d]
        else:
            d = None
            cand = pool
        pick = rng.choice(cand, size=k2, replace=False)
        tasks.append(MetaTask(pick[:hyper.K], pick[hyper.K:], d))
    return tasks


def inner_adapt(objective: PretextObjective, params: ParamVector, support: np.ndarray,
                alpha: float, inner_steps: int, rng: np.random.Generator,
                loss_sink: Optional[list] = None) -> ParamVector:
    """inner_steps full-batch SGD steps on the pretext loss over the
    support windows [n, C, T], one spawned stream per step; returns a
    fresh vector, the input is never mutated. Appends the per-step losses
    to loss_sink when given. Meta pre-training's inner loop and the
    target-side pretext replay both run here."""
    theta = params
    for _ in range(inner_steps):
        loss = eval_ssl(objective, theta, support, rng.spawn(1)[0])
        grads = grad_of(loss, theta)
        if loss_sink is not None:
            loss_sink.append(loss.item())
        theta = sgd_step(theta, grads, alpha)
    return theta


def _adapt_each_task(objective: PretextObjective, params: ParamVector, ds: Dataset,
                     tasks: Sequence[MetaTask], hyper: MetaHyper,
                     rng: np.random.Generator,
                     score: Callable[[ParamVector, np.ndarray, np.random.Generator],
                                     object]
                     ) -> Iterator[tuple[list[float], object]]:
    """Per task, in task order: the inner-step losses of adapting a copy
    on the support set, and score(adapted copy, query windows, query
    stream).

    The streams are spawned here, before any task runs: per task the
    query stream, then the inner stream only when hyper.inner_steps > 0.
    Each task adapts from the shared parameters and runs through
    parallel_map. A task's graphs are consumed by its own backward
    passes, so what waits for the caller is its gradient at most.
    """
    streams = [(rng.spawn(1)[0], rng.spawn(1)[0] if hyper.inner_steps > 0 else None)
               for _ in tasks]

    def run(task: MetaTask, task_streams: tuple) -> tuple[list[float], object]:
        r_query, r_inner = task_streams
        theta, support_losses = params, []
        if r_inner is not None:
            theta = inner_adapt(objective, params, ds.values[task.support], hyper.alpha,
                                hyper.inner_steps, r_inner, support_losses)
        return support_losses, score(theta, ds.values[task.query], r_query)

    return parallel_map(run, tasks, streams)


def meta_epoch(objective: PretextObjective, params: ParamVector, ds: Dataset,
               tasks: Sequence[MetaTask], hyper: MetaHyper,
               rng: np.random.Generator, opt_state: Optional[AdamState] = None
               ) -> tuple[ParamVector, dict, Optional[AdamState]]:
    """One first-order meta update over tasks drawn from ds.

    Per task: adapt a copy on the support set, take the gradient of the
    adapted copy's query loss, and accumulate. The summed gradient then
    drives one outer step (Adam by default, threading opt_state; plain
    SGD when hyper.outer == "sgd"). Returns the new parameters, the
    epoch's TrainLog row (mean inner-step and query losses; support_loss
    None without inner steps) and the optimizer state. A task indexing
    outside ds, or a domain-pure task whose windows span more than its
    one domain, is rejected before any work.
    """
    if not tasks:
        raise MetaError("meta_epoch needs at least one task")
    for task in tasks:
        idx = np.concatenate([task.support, task.query])
        if idx.size and (idx.min() < 0 or idx.max() >= ds.n_windows):
            raise MetaError(f"task references windows outside the dataset "
                            f"of {ds.n_windows}")
        if task.pure_domain is not None:
            doms = set(ds.domains[idx].tolist())
            if doms != {task.pure_domain}:
                raise MetaError(f"pure task of domain {task.pure_domain} mixes "
                                f"domains {sorted(doms)}")
    support_losses: list[float] = []
    query_losses: list[float] = []

    def query_grad(theta: ParamVector, query: np.ndarray,
                   r_query: np.random.Generator) -> tuple[ParamVector, float]:
        loss = eval_ssl(objective, theta, query, r_query)
        return grad_of(loss, theta), loss.item()

    def add_query_grad(total: Optional[ParamVector], result: tuple) -> ParamVector:
        inner, (g, query_loss) = result
        support_losses.extend(inner)
        query_losses.append(query_loss)
        return g if total is None else total.add(g)

    total = reduce(add_query_grad,
                   _adapt_each_task(objective, params, ds, tasks, hyper, rng, query_grad),
                   None)
    if hyper.outer == "adam":
        new_params, opt_state = adam_step(params, total, opt_state, lr=hyper.beta)
    else:
        new_params = sgd_step(params, total, hyper.beta)
    row = {"support_loss": float(np.mean(support_losses)) if support_losses else None,
           "query_loss": float(np.mean(query_losses))}
    return new_params, row, opt_state


@dataclass
class TrainLog:
    """Per-epoch loss record shared by meta and plain pre-training."""
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")

    def to_json_dict(self) -> dict:
        return {"epochs": self.epochs, "best_epoch": self.best_epoch,
                "best_val_loss": self.best_val_loss}


def train_epochs(init_params: ParamVector, epochs: int, rng: np.random.Generator,
                 run_epoch: Callable[..., tuple[ParamVector, dict, float]],
                 validate: Callable[..., Optional[float]]
                 ) -> tuple[ParamVector, TrainLog]:
    """The epoch loop and checkpoint rule of meta and plain pre-training.

    Streams split once as (sampling, training, validation), so validation
    never perturbs training. run_epoch(params, r_sample, r_train) returns
    the new parameters, the epoch's loss columns and its training loss.
    validate(params, r_val) gets a generator rebuilt from one fixed seed
    every epoch, so epochs are compared on identical draws. Returns the
    parameters of the epoch with the lowest validation loss (training
    loss when validate gives None), the earliest on ties.
    """
    r_sample, r_train, r_val = rng.spawn(3)
    val_seed = int(r_val.integers(np.iinfo(np.int64).max))
    params = best = init_params
    log = TrainLog()
    for epoch in range(1, epochs + 1):
        params, row, train_loss = run_epoch(params, r_sample, r_train)
        val = validate(params, np.random.default_rng(val_seed))
        log.epochs.append({"epoch": epoch, **row, "val_loss": val})
        crit = val if val is not None else train_loss
        if crit < log.best_val_loss:
            log.best_val_loss = crit
            log.best_epoch = epoch
            best = params
    return best, log


def _validation_hyper(hyper: MetaHyper, n_val: int, obj_min: int) -> Optional[MetaHyper]:
    k = min(hyper.K, n_val // 2)
    if k < obj_min:
        return None
    return replace(hyper, M=max(hyper.val_tasks, 1), M_dom=0, K=k)


def meta_validation_loss(objective: PretextObjective, params: ParamVector,
                         ds: Dataset, val_pool: np.ndarray, hyper: MetaHyper,
                         rng: np.random.Generator) -> Optional[float]:
    """Mean adapted query loss over mixed tasks built from the validation
    pool, each query scored on a no-grad copy of its task's adapted
    parameters; None when the pool is too small to form a task."""
    val_pool = np.asarray(val_pool, dtype=np.int64)
    vh = _validation_hyper(hyper, val_pool.size, min_batch(objective))
    if vh is None:
        return None
    tasks = generate_tasks(ds, val_pool, vh, rng)

    def query_loss(theta: ParamVector, query: np.ndarray,
                   r_query: np.random.Generator) -> float:
        return eval_ssl(objective, theta.no_grad(), query, r_query).item()

    return float(np.mean([loss for _, loss in
                          _adapt_each_task(objective, params, ds, tasks, vh, rng,
                                           query_loss)]))


def meta_pretrain(objective: PretextObjective, init_params: ParamVector,
                  ds: Dataset, train_pool: np.ndarray, val_pool: np.ndarray,
                  hyper: MetaHyper, rng: np.random.Generator
                  ) -> tuple[ParamVector, TrainLog]:
    """Full meta-pre-training loop.

    Each epoch: fresh tasks from the training pool (the sampling stream),
    one meta_epoch (the training stream), then the validation meta loss.
    Checkpoint choice and stream split follow train_epochs; without a
    usable validation pool the mean query loss decides.
    """
    pool = np.asarray(train_pool, dtype=np.int64)
    opt_state: Optional[AdamState] = None

    def run_epoch(params, r_task, r_train):
        nonlocal opt_state
        tasks = generate_tasks(ds, pool, hyper, r_task)
        params, row, opt_state = meta_epoch(objective, params, ds, tasks, hyper,
                                            r_train, opt_state)
        return params, row, row["query_loss"]

    def validate(params, r_val):
        return meta_validation_loss(objective, params, ds, val_pool, hyper, r_val)

    return train_epochs(init_params, hyper.epochs, rng, run_epoch, validate)
