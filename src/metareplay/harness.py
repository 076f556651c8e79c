"""Experiment orchestration.

Owns the plan file format, plain (non-meta) pre-training, the
leave-one-domain-out sweep over shots x seeds x pipeline modes, the
in-domain vs out-of-domain shift study, and embedding dumps.

Plan files are JSON with exactly the sections data, pretext, meta,
replay, finetune, sweep; unknown sections or keys are errors. Every
derived rng stream is keyed by the plan's master seed plus the cell
coordinates, so re-running a plan reproduces its results exactly.

Parallel cells: a sweep cell depends only on its target's pre-trained
models and on streams keyed by its own coordinates, so the sweep runs a
target's cells through tensor.parallel_map, one thread per usable CPU
when BLAS is pinned to one thread and on the calling thread otherwise.
Each cell replays on its own leaf Tensors over the pre-trained arrays,
and the results are collected in coordinate order, so the cells, the
logs and results.json are byte-identical to a serial loop. Pre-training
and every file write stay on the calling thread. The pool works at cell
level, not target level: running whole targets on it was no faster and
ran two pre-trainings at once, and peak RSS of the benchmark sweep rose
from 80.1 to 112.5 MiB (+40%).
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .adapt import (FinetuneConfig, PretrainedModel, ReplayConfig, _MODE_NEEDS, MODES,
                    META, finetune, run_pipeline, save_pretrained)
from .augment import Rotate3D
from .data import (Dataset, DomainRecipe, SynthSpec, compute_norm_stats,
                   apply_norm, default_synth_spec, exclude_small_domains, make_split,
                   pool_split, read_csv_dataset, read_dataset, stratified_shot_split,
                   synth_generate)
from .meta import MetaHyper, TrainLog, meta_pretrain, train_epochs
from .metrics import aggregate, evaluate
from .models import EncoderConfig, encode
from .optim import adam_step
from .params import ParamVector, grad_of
from .pretext import (OBJECTIVES, PretextError, PretextObjective, eval_ssl,
                      init_for_objective, min_batch, objective_from_config,
                      objective_kind, objective_to_config)
from .tensor import parallel_map


class PlanError(ValueError):
    """Malformed experiment plan."""


# ---------------------------------------------------------------------------
# deterministic stream derivation

def _token_int(token) -> int:
    if isinstance(token, str):
        return int.from_bytes(hashlib.blake2s(token.encode(), digest_size=4).digest(),
                              "little")
    return int(token)


def seed_seq(master: int, *tokens) -> np.random.SeedSequence:
    """SeedSequence keyed by the master seed and a coordinate path, so every
    sweep cell owns an independent, reproducible stream."""
    return np.random.SeedSequence([int(master)] + [_token_int(t) for t in tokens])


def rng_for(master: int, *tokens) -> np.random.Generator:
    return np.random.default_rng(seed_seq(master, *tokens))


# ---------------------------------------------------------------------------
# plan parsing

_SECTIONS = ("data", "pretext", "meta", "replay", "finetune", "sweep")

_DATA_KEYS = {"path", "synth", "min_count"}
_SYNTH_SIZES = ("n_classes", "samples_per_class", "timesteps")     # SynthSpec fields
_SYNTH_KEYS = {"n_domains", "seed", "recipes", *_SYNTH_SIZES}
_SYNTH_DEFAULT = default_synth_spec()

PRESETS = {
    "desk_scale": {},               # the defaults are the desk scale
    "paper_scale": {"data": {"min_count": 500},
                    "meta": {"epochs": 5000, "K": 128},
                    "sweep": {"plain_epochs": 100, "plain_batch": 128}},
}


def _check_keys(section: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise PlanError(f"unknown keys in {section!r}: {sorted(unknown)}")


def _object(where: str, value) -> dict:
    """A copy of a plan value that must be a JSON object."""
    if not isinstance(value, dict):
        raise PlanError(f"{where} must be a JSON object, got {value!r}")
    return dict(value)


def _list(where: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise PlanError(f"{where} must be a list, got {value!r}")
    return tuple(value)


def _coerce(where: str, typ, value):
    """typ(value), with a value of the wrong JSON type as a PlanError."""
    try:
        return typ(value)
    except TypeError as e:
        raise PlanError(f"bad value for {where}: {e}") from None


def _build(section: str, cls, given):
    """cls(**given), after checking given's keys against cls's fields."""
    given = _object(section, given)
    _check_keys(section, given, {f.name for f in fields(cls)})
    try:
        return cls(**given)
    except TypeError as e:                  # a value of the wrong JSON type
        raise PlanError(f"bad value in {section!r}: {e}") from None


@dataclass(frozen=True)
class PretrainHyper:
    """Plain mini-batch SSL pre-training knobs."""
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0 or \
                self.weight_decay < 0:
            raise PlanError(f"bad pretraining hyperparameters: {self}")


# sweep key -> PretrainHyper field
_PLAIN_FIELDS = {"plain_epochs": "epochs", "plain_batch": "batch_size",
                 "plain_lr": "lr", "plain_weight_decay": "weight_decay"}
_SWEEP_KEYS = {"modes", "shots", "seeds", "seed", "study_kinds", "study_shots",
               "preset", *_PLAIN_FIELDS}


@dataclass(frozen=True)
class ExperimentPlan:
    raw: dict
    data_path: Optional[str]
    synth_spec: Optional[SynthSpec]
    synth_seed: int
    min_count: int
    objective: PretextObjective
    meta_hyper: MetaHyper
    replay_cfg: ReplayConfig
    finetune_cfg: FinetuneConfig
    modes: tuple[str, ...]
    shots: tuple[int, ...]
    n_seeds: int
    master_seed: int
    plain_hyper: PretrainHyper
    study_kinds: tuple[str, ...]
    study_shots: int

    @property
    def enc_cfg(self) -> EncoderConfig:
        """The objective's encoder. Kept as a name of its own because the
        benchmark's workloads pass plan.enc_cfg to metrics.evaluate."""
        return self.objective.encoder

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_plan(source) -> ExperimentPlan:
    """Parse a plan from a JSON file path or an equivalent dict.

    Keys and defaults come from the config dataclasses. The meta, replay
    and finetune sections take the fields of MetaHyper, ReplayConfig and
    FinetuneConfig (meta also accepts its derived multi_task_fraction);
    pretext takes "kind" and the fields of that objective class;
    recipes take DomainRecipe's fields; the sweep's plain_* keys map to
    PretrainHyper's fields (_PLAIN_FIELDS); synthetic-data defaults are
    default_synth_spec()'s. plan.raw is written from the parsed objects,
    so it spells out every default.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise PlanError("plan must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise PlanError(f"unknown plan sections: {sorted(unknown)}")

    sweep_in = _object("sweep", raw.get("sweep", {}))
    _check_keys("sweep", sweep_in, _SWEEP_KEYS)
    preset_name = sweep_in.pop("preset", None)
    preset = {}
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise PlanError(f"unknown preset {preset_name!r}; "
                            f"have {sorted(PRESETS)}")
        preset = PRESETS[preset_name]

    def section(name: str) -> dict:
        return {**preset.get(name, {}), **_object(name, raw.get(name, {}))}

    data = section("data")
    _check_keys("data", data, _DATA_KEYS)
    data_path = data.get("path")
    if data_path is not None and not isinstance(data_path, str):
        raise PlanError(f"data.path must be a string, got {data_path!r}")
    min_count = _coerce("data.min_count", int, data.get("min_count", 50))
    synth_cfg = data.get("synth")
    synth_spec = None
    synth_seed = 0
    if data_path is None and synth_cfg is None:
        synth_cfg = {}
    if synth_cfg is not None:
        if data_path is not None:
            raise PlanError("give either data.path or data.synth, not both")
        synth_cfg = _object("data.synth", synth_cfg)
        _check_keys("data.synth", synth_cfg, _SYNTH_KEYS)
        synth_seed = _coerce("data.synth.seed", int, synth_cfg.get("seed", 0))
        n_domains = _coerce("data.synth.n_domains", int,
                            synth_cfg.get("n_domains", len(_SYNTH_DEFAULT.domains)))
        sizes = {k: _coerce(f"data.synth.{k}", int,
                            synth_cfg.get(k, getattr(_SYNTH_DEFAULT, k)))
                 for k in _SYNTH_SIZES}
        recipes = synth_cfg.get("recipes")
        if recipes is None:
            domains = default_synth_spec(n_domains).domains
        else:
            domains = tuple(_build(f"data.synth.recipes[{i}]", DomainRecipe, r)
                            for i, r in enumerate(_list("data.synth.recipes", recipes)))
        synth_spec = SynthSpec(domains=domains, **sizes)

    try:
        objective = objective_from_config(section("pretext"))
    except PretextError as e:
        raise PlanError(f"pretext: {e}") from None

    meta_in = section("meta")
    meta_in.pop("multi_task_fraction", None)      # informational; recomputed
    meta_hyper = _build("meta", MetaHyper, meta_in)

    replay_in = section("replay")
    if replay_in.get("lr") is None:
        replay_in["lr"] = meta_hyper.alpha       # replay reuses the inner rate
    replay_cfg = _build("replay", ReplayConfig, replay_in)
    finetune_cfg = _build("finetune", FinetuneConfig, section("finetune"))

    sweep = {**preset.get("sweep", {}), **sweep_in}
    modes = _list("sweep.modes", sweep.get("modes", MODES))
    for m in modes:
        if m not in MODES:
            raise PlanError(f"unknown mode {m!r}; expected subset of {MODES}")
    if not modes:
        raise PlanError("sweep.modes must be non-empty")
    shots = tuple(_coerce("sweep.shots", int, s)
                  for s in _list("sweep.shots", sweep.get("shots", (1, 2, 5, 10))))
    if not shots or any(s < 1 for s in shots):
        raise PlanError(f"sweep.shots must be positive and non-empty, got {shots}")
    n_seeds = _coerce("sweep.seeds", int, sweep.get("seeds", 5))
    if n_seeds < 1:
        raise PlanError(f"sweep.seeds must be >= 1, got {n_seeds}")
    master_seed = _coerce("sweep.seed", int, sweep.get("seed", 0))
    plain_default = PretrainHyper()
    plain_hyper = replace(plain_default, **{
        name: _coerce(f"sweep.{key}", type(getattr(plain_default, name)), sweep[key])
        for key, name in _PLAIN_FIELDS.items() if key in sweep})
    study_kinds = _list("sweep.study_kinds", sweep.get("study_kinds", tuple(OBJECTIVES)))
    for kind in study_kinds:
        try:
            objective_from_config({"kind": kind})
        except PretextError as e:
            raise PlanError(f"sweep.study_kinds: {e}") from None
    study_shots = _coerce("sweep.study_shots", int, sweep.get("study_shots", 5))
    if study_shots < 1:
        raise PlanError(f"sweep.study_shots must be >= 1, got {study_shots}")

    normalized = {
        "data": {"path": data_path,
                 "synth": None if synth_spec is None else
                 {"n_domains": len(synth_spec.domains),
                  **{k: getattr(synth_spec, k) for k in _SYNTH_SIZES},
                  "seed": synth_seed,
                  "recipes": [{**vars(r), "channel_gains": list(r.channel_gains)}
                              for r in synth_spec.domains]},
                 "min_count": min_count},
        "pretext": objective_to_config(objective),
        "meta": {**asdict(meta_hyper),
                 "multi_task_fraction": meta_hyper.multi_task_fraction},
        "replay": asdict(replay_cfg),
        "finetune": asdict(finetune_cfg),
        "sweep": {"modes": list(modes), "shots": list(shots), "seeds": n_seeds,
                  "seed": master_seed,
                  **{key: getattr(plain_hyper, name)
                     for key, name in _PLAIN_FIELDS.items()},
                  "study_kinds": list(study_kinds),
                  "study_shots": study_shots},
    }
    return ExperimentPlan(raw=normalized, data_path=data_path, synth_spec=synth_spec,
                          synth_seed=synth_seed, min_count=min_count,
                          objective=objective, meta_hyper=meta_hyper, replay_cfg=replay_cfg,
                          finetune_cfg=finetune_cfg, modes=modes, shots=shots,
                          n_seeds=n_seeds, master_seed=master_seed,
                          plain_hyper=plain_hyper, study_kinds=study_kinds,
                          study_shots=study_shots)


def load_plan_dataset(plan: ExperimentPlan) -> Dataset:
    """Materialize the plan's dataset and drop under-sized domains."""
    if plan.data_path is not None:
        p = plan.data_path
        ds = read_csv_dataset(p) if p.endswith(".csv") else read_dataset(p)
    else:
        ds = synth_generate(plan.synth_spec, plan.synth_seed)
    if plan.min_count > 0:
        ds = exclude_small_domains(ds, plan.min_count)
    return ds


def _sweep_dataset(plan: ExperimentPlan, objectives, what: str) -> Dataset:
    """The plan's dataset, checked before any pre-training: at least two
    domains, and every objective able to augment its windows.

    Rotate3D (in a SimCLR pipeline or a multitask kind list) rotates
    exactly 3 channels. An objective that holds it on a dataset with any
    other channel count raises PlanError rather than running without it:
    the plan's normalized form and config hash name the augmentations,
    so silently dropping one would file the results under an objective
    that never ran. A plan for such a dataset lists its own pipeline or
    kinds.
    """
    ds = load_plan_dataset(plan)
    if ds.n_domains < 2:
        raise PlanError(f"{what} needs >= 2 domains, have {ds.n_domains}")
    for objective in objectives:
        augments = getattr(objective, "pipeline", ()) + getattr(objective, "kinds", ())
        if ds.channels != 3 and any(isinstance(a, Rotate3D) for a in augments):
            raise PlanError(f"{objective_kind(objective)} pretext holds Rotate3D, which "
                            f"needs 3 channels; the dataset has {ds.channels}")
    return ds


# ---------------------------------------------------------------------------
# plain pre-training

def epoch_order(pool, rng: np.random.Generator) -> np.ndarray:
    """The shuffled window order for one epoch; factored out so oracle
    tests can mirror the exact stream consumption."""
    return rng.permutation(np.asarray(pool, dtype=np.int64))


def plain_pretrain(objective: PretextObjective, init_params: ParamVector,
                   ds: Dataset, train_pool, val_pool, hyper: PretrainHyper,
                   rng: np.random.Generator,
                   record_trajectory: bool = False) -> tuple[ParamVector, TrainLog]:
    """Ordinary mini-batch SSL training with Adam, checkpointed on
    validation loss by meta.train_epochs.

    The sampling stream shuffles the batch order. Each batch consumes one
    child of the training stream, exactly as one task does in a meta
    epoch, which is what makes the zero-inner-step equivalence hold batch
    for batch. Trailing batches smaller than the objective's minimum are
    skipped. Validation scores one batch of the validation pool, drawn
    from the fixed validation stream.
    """
    val_pool = np.asarray(val_pool, dtype=np.int64)
    opt_state = None

    def run_epoch(params, r_order, r_train):
        nonlocal opt_state
        perm = epoch_order(train_pool, r_order)
        batch_losses = []
        for start in range(0, perm.size, hyper.batch_size):
            batch = perm[start:start + hyper.batch_size]
            if batch.size < min_batch(objective):
                continue
            loss = eval_ssl(objective, params, ds.values[batch], r_train.spawn(1)[0])
            grads = grad_of(loss, params)
            params, opt_state = adam_step(params, grads, opt_state, lr=hyper.lr,
                                          weight_decay=hyper.weight_decay)
            batch_losses.append(loss.item())
        if not batch_losses:
            raise PlanError(f"training pool of {np.asarray(train_pool).size} windows "
                            f"yields no usable batch")
        train_loss = float(np.mean(batch_losses))
        return params, {"train_loss": train_loss}, train_loss

    def validate(params, r_val):
        if val_pool.size < min_batch(objective):
            return None
        vbatch = epoch_order(val_pool, r_val)[:hyper.batch_size]
        return eval_ssl(objective, params.no_grad(), ds.values[vbatch],
                        r_val.spawn(1)[0]).item()

    return train_epochs(init_params, hyper.epochs, rng, run_epoch, validate,
                        record_trajectory)


# ---------------------------------------------------------------------------
# leave-one-domain-out sweep

@dataclass
class SweepResult:
    cells: list[dict]
    per_domain: list[dict]
    grand: dict
    config_hash: str
    plan: dict
    n_failed: int

    def to_json_dict(self) -> dict:
        return {"config_hash": self.config_hash, "plan": self.plan,
                "cells": self.cells, "per_domain": self.per_domain,
                "grand": self.grand, "n_failed": self.n_failed}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "SweepResult":
        with open(path) as fh:
            d = json.load(fh)
        return cls(cells=d["cells"], per_domain=d["per_domain"], grand=d["grand"],
                   config_hash=d["config_hash"], plan=d["plan"],
                   n_failed=d["n_failed"])


def pretrain_for_target(plan: ExperimentPlan, ds: Dataset, target: int,
                        method: str) -> tuple[PretrainedModel, TrainLog, Dataset]:
    """Pre-train one model ("plain" or "meta") with domain `target` held out.

    Normalization statistics come from the pretraining pool only and are
    applied to the whole dataset; the normalized dataset is returned so
    the adaptation stage sees the same scaling the model was trained on.
    """
    ref = make_split(ds, target, k=1, seed=seed_of(plan, "split", target))
    stats = compute_norm_stats(ds.values[ref.pretrain_train])
    dsn = apply_norm(ds, stats)
    rng = rng_for(plan.master_seed, "pretrain", target, method)
    init = init_for_objective(plan.objective, ds.n_classes, rng.spawn(1)[0],
                              ds.channels)
    if method == META:
        params, log = meta_pretrain(plan.objective, init, dsn, ref.pretrain_train,
                                    ref.pretrain_val, plan.meta_hyper, rng.spawn(1)[0])
    else:
        params, log = plain_pretrain(plan.objective, init, dsn, ref.pretrain_train,
                                     ref.pretrain_val, plan.plain_hyper,
                                     rng.spawn(1)[0])
    model = PretrainedModel(params=params, method=method, objective=plan.objective,
                            n_classes=ds.n_classes)
    return model, log, dsn


def seed_of(plan: ExperimentPlan, *tokens) -> int:
    return int(seed_seq(plan.master_seed, *tokens).generate_state(1)[0])


def _failure() -> dict:
    """The error and the last three traceback frames of the exception
    being handled, as a failed cell stores them."""
    e = sys.exc_info()[1]
    return {"error": f"{type(e).__name__}: {e}",
            "traceback": traceback.format_exc(limit=-3)}


def _run_cell(plan: ExperimentPlan, dsn: Dataset, ds: Dataset,
              pretrained: dict[str, PretrainedModel], d: int, k: int, seed_i: int,
              mode: str, failed: Optional[dict] = None) -> dict:
    """One (domain, shots, seed, mode) cell. failed, when given, is the
    failure of the pre-training the mode needs; the cell then carries it
    and runs nothing."""
    cell = {"domain": d, "domain_tag": ds.domain_tags[d], "shots": k,
            "seed": seed_i, "mode": mode, "report": None, "replay": None,
            "finetune": None, "error": None}
    if failed is not None:
        return {**cell, **failed}
    try:
        split = make_split(ds, d, k, seed_of(plan, "cell", d, k, seed_i))
        rng = rng_for(plan.master_seed, "run", d, k, seed_i, mode)
        model = pretrained[_MODE_NEEDS[mode]]
        # its own leaves over the shared arrays: replay's backward writes .grad
        own = replace(model, params=model.params.map(lambda _, a: a))
        bundle, record = run_pipeline(mode, own, dsn, split, plan.replay_cfg,
                                      plan.finetune_cfg, rng)
        report = evaluate(bundle, dsn.values[split.target_test],
                          dsn.labels[split.target_test], ds.n_classes, seed_i,
                          plan.config_hash, plan.objective.encoder)
        cell["report"] = report.to_json_dict()
        cell["replay"] = record["replay"]
        cell["finetune"] = record["finetune"]
    except Exception:                            # noqa: BLE001 - cell isolation
        cell.update(_failure())
    return cell


def leave_one_domain_out(plan: ExperimentPlan,
                         out_dir: Optional[str] = None) -> SweepResult:
    """The main experiment: rotate every domain into the target position,
    pre-train on the rest, adapt and fine-tune per (shots, seed, mode),
    and report macro-F1 averaged over seeds within a domain and then over
    domains.

    Failures are isolated. A failing cell is recorded with its error and
    the last frames of its traceback, and the sweep continues. A failing
    pre-training fails only the cells whose mode needs that method, each
    with the pre-training's error and traceback, and writes no checkpoint
    or log for it.

    A target's cells run through tensor.parallel_map (one thread per
    usable CPU when BLAS is pinned to one thread), each on its own leaf
    Tensors, and are collected in (shots, seed, mode) order. Pre-training
    and the file writes stay on the calling thread, so every output is
    byte-identical to a serial loop. Targets run one at a time, because two
    concurrent pre-trainings raised peak memory by 40% (module docstring).
    """
    ds = _sweep_dataset(plan, [plan.objective], "leave-one-domain-out")
    out_path = Path(out_dir) if out_dir else None
    if out_path:
        (out_path / "checkpoints").mkdir(parents=True, exist_ok=True)
        (out_path / "logs").mkdir(parents=True, exist_ok=True)
    methods = sorted({_MODE_NEEDS[m] for m in plan.modes})
    coords = [(k, s, m) for k in plan.shots for s in range(plan.n_seeds)
              for m in plan.modes]
    cells: list[dict] = []
    for d in range(ds.n_domains):
        pretrained: dict[str, PretrainedModel] = {}
        failed: dict[str, dict] = {}
        dsn = None
        for method in methods:
            try:
                model, log, dsn = pretrain_for_target(plan, ds, d, method)
            except Exception:                    # noqa: BLE001 - target isolation
                failed[method] = _failure()
                continue
            pretrained[method] = model
            if out_path:
                save_pretrained(model, out_path / "checkpoints" / f"{method}_d{d}.adp2")
                with open(out_path / "logs" / f"pretrain_{method}_d{d}.json", "w") as fh:
                    json.dump(log.to_json_dict(), fh, indent=1)

        def run(k, seed_i, mode):
            return _run_cell(plan, dsn, ds, pretrained, d, k, seed_i, mode,
                             failed.get(_MODE_NEEDS[mode]))

        domain_cells = list(parallel_map(run, *zip(*coords)))
        cells.extend(domain_cells)
        if out_path:
            for cell in domain_cells:
                name = f"cell_d{cell['domain']}_k{cell['shots']}" \
                       f"_s{cell['seed']}_{cell['mode']}.json"
                with open(out_path / "logs" / name, "w") as fh:
                    json.dump(cell, fh, indent=1)

    per_domain, grand = summarize_cells(cells, plan, ds.n_domains)
    n_failed = sum(1 for c in cells if c["error"] is not None)
    result = SweepResult(cells=cells, per_domain=per_domain, grand=grand,
                         config_hash=plan.config_hash, plan=plan.raw,
                         n_failed=n_failed)
    if out_path:
        result.save(out_path / "results.json")
    return result


def summarize_cells(cells: list[dict], plan: ExperimentPlan,
                    n_domains: int) -> tuple[list[dict], dict]:
    """Seed means per (mode, shots, domain), then domain means per
    (mode, shots); grand averages are means of per-domain means."""
    reported: dict[tuple, list[dict]] = {}
    for c in cells:
        if c["report"] is not None:
            key = (c["mode"], c["shots"], c["domain"])
            reported.setdefault(key, []).append(c["report"])
    per_domain = []
    grand: dict = {}
    for mode in plan.modes:
        grand[mode] = {}
        for k in plan.shots:
            domain_means = []
            for d in range(n_domains):
                reports = reported.get((mode, k, d))
                if not reports:
                    continue
                mean, std = aggregate([r["macro_f1"] for r in reports])
                acc_mean = aggregate([r["accuracy"] for r in reports])[0]
                per_domain.append({"mode": mode, "shots": k, "domain": d,
                                   "macro_f1_mean": mean, "macro_f1_std": std,
                                   "accuracy_mean": acc_mean,
                                   "n_seeds": len(reports)})
                domain_means.append(mean)
            if domain_means:
                gmean, gstd = aggregate(domain_means)
                grand[mode][str(k)] = {"macro_f1_mean": gmean, "macro_f1_std": gstd,
                                       "n_domains": len(domain_means)}
            else:
                grand[mode][str(k)] = {"macro_f1_mean": None, "macro_f1_std": None,
                                       "n_domains": 0}
    return per_domain, grand


# ---------------------------------------------------------------------------
# in-domain vs out-of-domain study

def domain_shift_study(plan: ExperimentPlan,
                       out_dir: Optional[str] = None) -> dict:
    """For every pretext kind and domain, pre-train once on the domain's
    own pool (in-domain) and once on an equal-size sample of the other
    domains (out-of-domain), fine-tune both identically on the same shot
    sets, and report the F1 drop in percentage points (positive =
    out-of-domain degradation)."""
    objectives = {kind: replace(objective_from_config({"kind": kind}),
                                encoder=plan.objective.encoder)
                  for kind in plan.study_kinds}
    ds = _sweep_dataset(plan, objectives.values(), "shift study")
    k = plan.study_shots
    results: dict = {"config_hash": plan.config_hash, "kinds": {}}
    for kind, objective in objectives.items():
        per_domain = []
        for d in range(ds.n_domains):
            idx_d = ds.domain_indices(d)
            r_split = rng_for(plan.master_seed, "study-split", d)
            in_train, in_val, in_rest = pool_split(idx_d, r_split)
            if in_train.size < min_batch(objective):
                raise PlanError(f"domain {d} too small for in-domain pretraining "
                                f"({in_train.size} windows)")
            non_d = np.flatnonzero(ds.domains != d)
            need = in_train.size + in_val.size
            if non_d.size < need:
                raise PlanError(f"cannot equalize pretraining size for domain {d}: "
                                f"need {need} non-target windows, have {non_d.size}")
            perm = rng_for(plan.master_seed, "study-outpool", d).permutation(non_d)
            out_train = np.sort(perm[:in_train.size])
            out_val = np.sort(perm[in_train.size:need])

            init = init_for_objective(objective, ds.n_classes,
                                      rng_for(plan.master_seed, "study-init", kind, d),
                                      ds.channels)
            arms = {}
            for arm, (tr, va) in (("in_domain", (in_train, in_val)),
                                  ("out_of_domain", (out_train, out_val))):
                stats = compute_norm_stats(ds.values[tr])
                dsn = apply_norm(ds, stats)
                params, _log = plain_pretrain(
                    objective, init, dsn, tr, va, plan.plain_hyper,
                    rng_for(plan.master_seed, "study-pretrain", kind, d, arm))
                seed_f1 = []
                for s in range(plan.n_seeds):
                    shots, _val, test = stratified_shot_split(
                        ds, in_rest, k, rng_for(plan.master_seed, "study-shots", d, s),
                        f"domain {d} study remainder")
                    bundle, _ft = finetune(params, dsn.values[shots], ds.labels[shots],
                                           plan.finetune_cfg, objective.encoder)
                    rep = evaluate(bundle, dsn.values[test], dsn.labels[test],
                                   ds.n_classes, s, plan.config_hash, objective.encoder)
                    seed_f1.append(rep.macro_f1)
                arms[arm] = aggregate(seed_f1)[0]
            per_domain.append({"domain": d, "domain_tag": ds.domain_tags[d],
                               "pretrain_size": int(in_train.size),
                               "in_domain_f1": arms["in_domain"],
                               "out_of_domain_f1": arms["out_of_domain"],
                               "drop_pp": 100.0 * (arms["in_domain"]
                                                   - arms["out_of_domain"])})
        in_mean = float(np.mean([r["in_domain_f1"] for r in per_domain]))
        out_mean = float(np.mean([r["out_of_domain_f1"] for r in per_domain]))
        results["kinds"][kind] = {"per_domain": per_domain,
                                  "in_domain_f1_mean": in_mean,
                                  "out_of_domain_f1_mean": out_mean,
                                  "drop_pp": 100.0 * (in_mean - out_mean)}
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        with open(Path(out_dir) / "study.json", "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    return results


# ---------------------------------------------------------------------------
# embedding dumps

def dump_embeddings(params: ParamVector, ds: Dataset, path, encoder: EncoderConfig,
                    indices=None, batch: int = 256) -> None:
    """CSV with header domain,label,e0..e{dim-1}, one row per window in
    the given order (all windows by default)."""
    idx = np.arange(ds.n_windows) if indices is None \
        else np.asarray(indices, dtype=np.int64)
    dim = encoder.embedding_dim
    params = params.no_grad()
    with open(path, "w") as fh:
        fh.write("domain,label," + ",".join(f"e{i}" for i in range(dim)) + "\n")
        for start in range(0, idx.size, batch):
            chunk = idx[start:start + batch]
            emb = encode(params, ds.values[chunk], encoder).data
            for row, i in enumerate(chunk):
                vals = ",".join(repr(float(v)) for v in emb[row])
                fh.write(f"{int(ds.domains[i])},{int(ds.labels[i])},{vals}\n")
