"""The three benchmark workloads, their set-up, window counts and checks.

Every workload is built from the committed transfer fixture plan. The
workload seed fixes the synthetic datasets a unit works on: dataset j of
seed n is the fixture plan with master seed and synthetic-data seed both
n * D + j, where D is the workload's dataset count. Everything else comes
from the fixture, except the counts that size one unit of work (see
``Sizes``). A unit is a closed loop of calls into the public API; a run
repeats the unit, so every unit of a run does identical work and must
produce an identical result digest.
"""


from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Optional

from metareplay import adapt, data, harness, metrics, pretext

FIXTURE = Path("tests") / "fixtures" / "transfer_plan.json"
TARGET = 0                                   # held-out domain of the pre-training workloads
PRETEXT_KINDS = ("simclr", "cpc", "multitask")
# which pre-training each sweep mode adapts, and whether it replays; this is
# the workload's definition, so it is spelled out here rather than imported
MODE_METHOD = {"baseline": "plain", "replay_only": "plain",
               "meta_only": "meta", "full": "meta"}
REPLAY_MODES = {"replay_only", "full"}
PROBE_MODE = {"meta": "meta_only", "plain": "baseline"}


@dataclass(frozen=True)
class Sizes:
    """Dataset and epoch counts that size one unit of each workload.

    Pre-training results vary from dataset to dataset far more than from
    run to run, so the pre-training workloads average over several
    datasets per unit; the sweep is long enough with one.
    """
    meta_datasets: int = 6          # meta_pretrain
    meta_epochs: int = 2
    plain_datasets: int = 3         # plain_pretrain
    plain_epochs: int = 2           # per pretext kind
    lodo_meta_epochs: int = 1       # lodo_sweep, per target
    lodo_plain_epochs: int = 1
    lodo_seeds: Optional[int] = None            # None keeps the fixture's seeds
    samples_per_class: Optional[int] = None     # None keeps the fixture's
    setup_repeats: int = 5


DEFAULT_SIZES = Sizes()
# small enough for the benchmark's own tests; not a benchmark size
TINY_SIZES = Sizes(meta_datasets=1, meta_epochs=1, plain_datasets=1, plain_epochs=1,
                   lodo_seeds=1, samples_per_class=15, setup_repeats=1)


@dataclass
class Outcome:
    """What one unit produced, reduced to what the checks and metrics need."""
    attempted: int = 0
    failed: int = 0
    cells: int = 0
    cells_failed: int = 0
    errors: list[str] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)         # every recorded loss
    val_curves: list[list] = field(default_factory=list)      # per pre-training run
    best_val: list[float] = field(default_factory=list)
    f1s: list[float] = field(default_factory=list)            # per sweep cell
    models: list = field(default_factory=list)                # (plan, model, dsn, ds)
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        """Exact digest of the results: validation losses and cell F1s."""
        blob = json.dumps({"val": [[_hex(v) for v in c] for c in self.val_curves],
                           "best": [_hex(v) for v in self.best_val],
                           "f1": [_hex(v) for v in self.f1s],
                           "failed": self.failed}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _hex(v) -> Optional[str]:
    return None if v is None else float(v).hex()


@dataclass
class Input:
    """One synthetic dataset and the plans a unit runs on it."""
    plans: list                     # one ExperimentPlan per pre-training kind
    ds: data.Dataset


@dataclass
class Context:
    inputs: list[Input]
    scratch: Path


# ---------------------------------------------------------------------------
# plans and set-up

def _edit(raw: dict, seed: int, sizes: Sizes, **overrides) -> dict:
    raw = copy.deepcopy(raw)
    raw["sweep"]["seed"] = seed
    raw["data"]["synth"]["seed"] = seed
    if sizes.samples_per_class is not None:
        raw["data"]["synth"]["samples_per_class"] = sizes.samples_per_class
    for section, values in overrides.items():
        raw.setdefault(section, {}).update(values)
    return raw


def _datasets(workload: str, sizes: Sizes) -> int:
    return {"meta_pretrain": sizes.meta_datasets,
            "plain_pretrain": sizes.plain_datasets}.get(workload, 1)


def _plan_edits(workload: str, sizes: Sizes) -> list[dict]:
    if workload == "meta_pretrain":
        return [{"meta": {"epochs": sizes.meta_epochs}}]
    if workload == "plain_pretrain":
        return [{"pretext": {"kind": kind}, "sweep": {"plain_epochs": sizes.plain_epochs}}
                for kind in PRETEXT_KINDS]
    sweep = {"plain_epochs": sizes.lodo_plain_epochs}
    if sizes.lodo_seeds is not None:
        sweep["seeds"] = sizes.lodo_seeds
    return [{"meta": {"epochs": sizes.lodo_meta_epochs}, "sweep": sweep}]


def set_up(root: Path, workload: str, seed: int, sizes: Sizes,
           scratch: Path) -> Context:
    """Plan load, dataset synthesis and exclude_small_domains."""
    raw = json.loads((root / FIXTURE).read_text())
    n = _datasets(workload, sizes)
    inputs = []
    for j in range(n):
        plans = [harness.load_plan(_edit(raw, seed * n + j, sizes, **e))
                 for e in _plan_edits(workload, sizes)]
        p = plans[0]
        ds = data.synth_generate(p.synth_spec, p.synth_seed)
        if p.min_count > 0:
            ds = data.exclude_small_domains(ds, p.min_count)
        inputs.append(Input(plans=plans, ds=ds))
    return Context(inputs=inputs, scratch=scratch)


def timed_set_up(root: Path, workload: str, seed: int, sizes: Sizes,
                 scratch: Path) -> tuple[Context, float]:
    """Set up ``sizes.setup_repeats`` times; the median time and last context."""
    times = []
    for _ in range(sizes.setup_repeats):
        ctx = None                                # one context alive at a time
        t0 = time.perf_counter()
        ctx = set_up(root, workload, seed, sizes, scratch)
        times.append(time.perf_counter() - t0)
    return ctx, median(times)


# ---------------------------------------------------------------------------
# units

def _pretrain(plan, ds, method: str, out: Outcome) -> None:
    out.attempted += 1
    try:
        model, log, dsn = harness.pretrain_for_target(plan, ds, TARGET, method)
    except Exception:                             # noqa: BLE001 - counted and reported
        out.failed += 1
        out.errors.append(traceback.format_exc(limit=-3))
        return
    _record_log(log.to_json_dict(), out)
    out.models.append((plan, model, dsn, ds))


def _record_log(log: dict, out: Outcome) -> None:
    for ep in log["epochs"]:
        out.losses += [v for k, v in ep.items() if k != "epoch" and v is not None]
    out.val_curves.append([ep.get("val_loss") for ep in log["epochs"]])
    out.best_val.append(log["best_val_loss"])


def meta_unit(ctx: Context) -> Outcome:
    out = Outcome()
    for inp in ctx.inputs:
        _pretrain(inp.plans[0], inp.ds, "meta", out)
    return out


def plain_unit(ctx: Context) -> Outcome:
    out = Outcome()
    for inp in ctx.inputs:
        for plan in inp.plans:
            _pretrain(plan, inp.ds, "plain", out)
    return out


def _sweep_ops(plan, ds) -> tuple[int, int]:
    """(pre-training runs, cells) of one leave-one-domain-out sweep."""
    methods = {MODE_METHOD[m] for m in plan.modes}
    cells = len(plan.shots) * plan.n_seeds * len(plan.modes)
    return ds.n_domains * len(methods), ds.n_domains * cells


def lodo_unit(ctx: Context) -> Outcome:
    (inp,) = ctx.inputs
    plan = inp.plans[0]
    out = Outcome()
    n_pretrain, n_cells = _sweep_ops(plan, inp.ds)
    out_dir = Path(tempfile.mkdtemp(prefix="lodo-", dir=ctx.scratch))
    try:
        result = harness.leave_one_domain_out(plan, str(out_dir))
    except Exception:                             # noqa: BLE001 - counted and reported
        out.attempted += n_pretrain + n_cells
        out.failed += n_pretrain + n_cells
        out.errors.append(traceback.format_exc(limit=-3))
        shutil.rmtree(out_dir)
        return out
    try:
        logs = sorted((out_dir / "logs").glob("pretrain_*.json"))
        if len(logs) != n_pretrain:
            out.problems.append(f"{len(logs)} pre-training logs, expected {n_pretrain}")
        for path in logs:
            _record_log(json.loads(path.read_text()), out)
        saved = harness.SweepResult.load(out_dir / "results.json")
        if saved.n_failed != result.n_failed or len(saved.cells) != len(result.cells):
            out.problems.append("results.json does not match the returned sweep")
        if len(list((out_dir / "checkpoints").glob("*.adp2"))) != n_pretrain:
            out.problems.append("missing checkpoints")
    finally:
        shutil.rmtree(out_dir)
    out.attempted += n_pretrain + len(result.cells)
    out.cells = len(result.cells)
    if out.cells != n_cells:
        out.problems.append(f"{out.cells} cells, expected {n_cells}")
    for cell in result.cells:
        if cell["error"] is not None:
            out.failed += 1
            out.cells_failed += 1
            out.errors.append(cell["error"])
            continue
        out.f1s.append(cell["report"]["macro_f1"])
        if cell["replay"]:
            rep = cell["replay"]
            out.losses += rep["step_losses"] + [rep["loss_before"], rep["loss_after"]]
        out.losses += cell["finetune"]["losses"]
    return out


UNITS: dict[str, Callable[[Context], Outcome]] = {
    "meta_pretrain": meta_unit,
    "plain_pretrain": plain_unit,
    "lodo_sweep": lodo_unit,
}


# ---------------------------------------------------------------------------
# fixed window count of one unit

def _pools(plan, ds, target: int) -> tuple[int, int]:
    ref = data.make_split(ds, target, 1, harness.seed_of(plan, "split", target))
    return ref.pretrain_train.size, ref.pretrain_val.size


def _meta_windows(plan, n_val: int) -> int:
    h = plan.meta_hyper
    per_epoch = h.M * (h.inner_steps + 1) * h.K
    k_val = min(h.K, n_val // 2)                 # validation tasks shrink to the pool
    if k_val >= pretext.min_batch(plan.objective):
        per_epoch += max(h.val_tasks, 1) * (h.inner_steps + 1) * k_val
    return h.epochs * per_epoch


def _plain_windows(plan, n_train: int, n_val: int) -> int:
    h = plan.plain_hyper
    smallest = pretext.min_batch(plan.objective)
    batches = [min(h.batch_size, n_train - s) for s in range(0, n_train, h.batch_size)]
    per_epoch = sum(b for b in batches if b >= smallest)
    if n_val >= smallest:
        per_epoch += min(h.batch_size, n_val)
    return h.epochs * per_epoch


def _cell_windows(plan, ds, d: int, k: int, s: int, mode: str) -> int:
    split = data.make_split(ds, d, k, harness.seed_of(plan, "cell", d, k, s))
    shots, test = split.finetune_shots.size, split.target_test.size
    n = test                                               # evaluate
    if plan.finetune_cfg.protocol == adapt.LINEAR or mode == "full":
        n += shots                                         # frozen-feature fine-tune
    if mode in REPLAY_MODES:
        n += (plan.replay_cfg.steps + 1) * shots           # replay steps + closing loss
    return n


def unit_windows(workload: str, ctx: Context) -> int:
    """Windows one unit sends into eval_ssl or a forward-only encoder pass.

    Derived from the plan and the dataset alone, so the count is a
    property of the workload and seed, not of how the program runs it.
    """
    return sum(_input_windows(workload, inp.plans, inp.ds) for inp in ctx.inputs)


def _input_windows(workload: str, plans: list, ds) -> int:
    if workload == "meta_pretrain":
        return _meta_windows(plans[0], _pools(plans[0], ds, TARGET)[1])
    if workload == "plain_pretrain":
        return sum(_plain_windows(plan, *_pools(plan, ds, TARGET)) for plan in plans)
    plan = plans[0]
    methods = {MODE_METHOD[m] for m in plan.modes}
    total = 0
    for d in range(ds.n_domains):
        n_train, n_val = _pools(plan, ds, d)
        if "meta" in methods:
            total += _meta_windows(plan, n_val)
        if "plain" in methods:
            total += _plain_windows(plan, n_train, n_val)
        total += sum(_cell_windows(plan, ds, d, k, s, m) for k in plan.shots
                     for s in range(plan.n_seeds) for m in plan.modes)
    return total


# ---------------------------------------------------------------------------
# quality

def probe_f1s(out: Outcome) -> list[float]:
    """Linear-probe macro-F1 of each pre-trained model on the held-out
    domain, on the same shot splits and streams a sweep cell would use."""
    f1s = []
    for plan, model, dsn, ds in out.models:
        mode = PROBE_MODE[model.method]
        for k in plan.shots:
            for s in range(plan.n_seeds):
                split = data.make_split(ds, TARGET, k,
                                        harness.seed_of(plan, "cell", TARGET, k, s))
                rng = harness.rng_for(plan.master_seed, "run", TARGET, k, s, mode)
                bundle, _log = adapt.run_pipeline(mode, model, dsn, split,
                                                  plan.replay_cfg, plan.finetune_cfg, rng)
                test = split.target_test
                report = metrics.evaluate(bundle, dsn.values[test], dsn.labels[test],
                                          ds.n_classes, s, plan.config_hash, plan.enc_cfg)
                f1s.append(report.macro_f1)
    return f1s


def check(outcomes: list[Outcome], f1s: list[float]) -> list[str]:
    """Output checks over every unit of a run; an empty list means correct."""
    problems = [p for o in outcomes for p in o.problems]
    digests = {o.digest() for o in outcomes}
    if len(digests) != 1:
        problems.append(f"units of one seed disagree: digests {sorted(digests)}")
    if all(o.attempted == o.failed for o in outcomes):
        problems.append("no operation succeeded")
    bad = [v for o in outcomes for v in o.losses + o.best_val if not math.isfinite(v)]
    if bad:
        problems.append(f"{len(bad)} non-finite losses")
    out_of_range = [v for v in f1s if not 0.0 <= v <= 1.0]
    if out_of_range or not f1s:
        problems.append(f"macro-F1 outside [0, 1] or missing: {out_of_range}")
    return problems


def quality(workload: str, out: Outcome) -> tuple[float, float, list[float]]:
    """(pretext_val_loss, macro_f1, the F1s behind it) of one unit."""
    f1s = out.f1s if workload == "lodo_sweep" else probe_f1s(out)
    val = sum(out.best_val) / len(out.best_val) if out.best_val else math.nan
    f1 = sum(f1s) / len(f1s) if f1s else math.nan
    return val, f1, f1s
