"""Command-line entry points.

Subcommands mirror the library stages: generate synthetic data,
pre-train (plain or meta), adapt + fine-tune on a split, run the full
leave-one-domain-out sweep or the domain-shift study, and dump
embeddings. Experiment hyperparameters come from a JSON plan file; the
adaptation commands work from a saved model + dataset + split instead so
they can run standalone.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .adapt import (END_TO_END, LINEAR, MODES, PLAIN, FinetuneConfig, ReplayConfig,
                    load_pretrained, run_pipeline, save_pretrained)
from .data import (SplitPlan, apply_norm, compute_norm_stats, default_synth_spec,
                   make_split, read_csv_dataset, read_dataset, synth_generate,
                   write_dataset)
from .harness import (domain_shift_study, dump_embeddings, leave_one_domain_out,
                      load_plan, load_plan_dataset, pretrain_for_target)
from .metrics import evaluate


def _load_data(path: str):
    return read_csv_dataset(path) if path.endswith(".csv") else read_dataset(path)


def _normalized_for_split(ds, split: SplitPlan):
    split.validate_against(ds)
    stats = compute_norm_stats(ds.values[split.pretrain_train])
    return apply_norm(ds, stats)


def cmd_synth(args) -> int:
    if args.plan:
        plan = load_plan(args.plan)
        spec = plan.synth_spec
        seed = plan.synth_seed if args.seed is None else args.seed
        if spec is None:
            print("plan has no data.synth section", file=sys.stderr)
            return 2
    else:
        spec = default_synth_spec(args.domains, args.classes, args.samples)
        seed = args.seed if args.seed is not None else 0
    ds = synth_generate(spec, seed)
    write_dataset(ds, args.out)
    print(f"wrote {ds.n_windows} windows ({ds.n_domains} domains, "
          f"{ds.n_classes} classes) to {args.out}")
    return 0


def _cmd_pretrain(args, method: str) -> int:
    plan = load_plan(args.plan)
    ds = load_plan_dataset(plan)
    model, log, _dsn = pretrain_for_target(plan, ds, args.target_domain, method)
    save_pretrained(model, args.out)
    with open(f"{args.out}.log.json", "w") as fh:
        json.dump(log.to_json_dict(), fh, indent=1)
    last = log.epochs[-1] if log.epochs else {}
    print(f"{method} pretraining done: {len(log.epochs)} epochs, "
          f"best epoch {log.best_epoch} (val loss {log.best_val_loss:.4f}), "
          f"last {last}; saved to {args.out}")
    return 0


def cmd_make_split(args) -> int:
    ds = _load_data(args.data)
    split = make_split(ds, args.target_domain, args.shots, args.seed)
    split.save_json(args.out)
    sizes = {k: int(v.size) for k, v in split.index_sets().items()}
    print(f"wrote split for target domain {args.target_domain} to {args.out}: {sizes}")
    return 0


def _adapt_and_report(args, model, mode: str, replay_cfg: ReplayConfig,
                      ft_cfg: FinetuneConfig):
    """Run one pipeline arm on the split, save the bundle with a log
    (pipeline plus test report) next to it, and return the test report."""
    ds = _load_data(args.data)
    split = SplitPlan.load_json(args.split)
    dsn = _normalized_for_split(ds, split)
    rng = np.random.default_rng(args.seed)
    bundle, record = run_pipeline(mode, model, dsn, split, replay_cfg, ft_cfg, rng)
    bundle.save(args.out)
    report = evaluate(bundle, dsn.values[split.target_test],
                      dsn.labels[split.target_test], ds.n_classes, args.seed, "",
                      model.objective.encoder)
    with open(f"{args.out}.log.json", "w") as fh:
        json.dump({**record, "test": report.to_json_dict()}, fh, indent=1)
    return report


def cmd_adapt(args) -> int:
    report = _adapt_and_report(
        args, load_pretrained(args.model), args.mode,
        ReplayConfig(steps=args.replay_steps, lr=args.replay_lr),
        FinetuneConfig(protocol=args.protocol, epochs=args.ft_epochs))
    print(f"mode={args.mode} macro-F1 {report.macro_f1:.4f} "
          f"accuracy {report.accuracy:.4f} on {report.n} test windows; "
          f"model saved to {args.out}")
    return 0


def cmd_finetune(args) -> int:
    model = load_pretrained(args.model)
    mode = "baseline" if model.method == PLAIN else "meta_only"
    report = _adapt_and_report(
        args, model, mode, ReplayConfig(steps=0),
        FinetuneConfig(protocol=args.protocol, lr=args.lr, epochs=args.epochs))
    print(f"fine-tuned ({mode}) macro-F1 {report.macro_f1:.4f}; saved to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    plan = load_plan(args.plan)
    result = leave_one_domain_out(plan, args.out_dir)
    for mode, by_shots in result.grand.items():
        for k, rec in sorted(by_shots.items(), key=lambda kv: int(kv[0])):
            mean = rec["macro_f1_mean"]
            msg = "failed" if mean is None else f"{mean:.4f}"
            print(f"{mode:12s} {k:>3s}-shot macro-F1 {msg}")
    if result.n_failed:
        print(f"{result.n_failed} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_shift_study(args) -> int:
    plan = load_plan(args.plan)
    result = domain_shift_study(plan, args.out_dir)
    for kind, rec in result["kinds"].items():
        print(f"{kind:10s} in-domain {rec['in_domain_f1_mean']:.4f} "
              f"out-of-domain {rec['out_of_domain_f1_mean']:.4f} "
              f"drop {rec['drop_pp']:+.1f}pp")
    return 0


def cmd_dump_embeddings(args) -> int:
    model = load_pretrained(args.model)
    ds = _load_data(args.data)
    if args.split:
        dsn = _normalized_for_split(ds, SplitPlan.load_json(args.split))
    else:
        from .data import normalize
        dsn = normalize(ds)
    dump_embeddings(model.params, dsn, args.out, model.objective.encoder)
    print(f"wrote {dsn.n_windows} embedding rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="metareplay",
                                description="Meta-learned self-supervised "
                                            "pre-training with pretext replay")
    sub = p.add_subparsers(dest="command", required=True)
    spec, replay, ft = default_synth_spec(), ReplayConfig(), FinetuneConfig()

    s = sub.add_parser("synth", help="generate a synthetic multi-domain dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--plan", help="take the generator spec from this plan file")
    s.add_argument("--seed", type=int)
    s.add_argument("--domains", type=int, default=len(spec.domains))
    s.add_argument("--classes", type=int, default=spec.n_classes)
    s.add_argument("--samples", type=int, default=spec.samples_per_class,
                   help="windows per (domain,class)")
    s.set_defaults(fn=cmd_synth)

    for name, method in (("pretrain", "plain"), ("meta-pretrain", "meta")):
        s = sub.add_parser(name, help=f"{method} pre-training with one domain held out")
        s.add_argument("--plan", required=True)
        s.add_argument("--target-domain", type=int, required=True)
        s.add_argument("--out", required=True)
        s.set_defaults(fn=lambda a, m=method: _cmd_pretrain(a, m))

    s = sub.add_parser("make-split", help="write a leave-one-domain-out split file")
    s.add_argument("--data", required=True)
    s.add_argument("--target-domain", type=int, required=True)
    s.add_argument("--shots", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_make_split)

    s = sub.add_parser("adapt", help="pretext replay + fine-tune on a split")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--split", required=True)
    s.add_argument("--mode", default="full", choices=MODES)
    s.add_argument("--replay-steps", type=int, default=replay.steps)
    s.add_argument("--replay-lr", type=float, default=replay.lr)
    s.add_argument("--protocol", default=ft.protocol, choices=(LINEAR, END_TO_END))
    s.add_argument("--ft-epochs", type=int, default=ft.epochs)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_adapt)

    s = sub.add_parser("finetune", help="fine-tune only (no replay)")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--split", required=True)
    s.add_argument("--protocol", default=ft.protocol, choices=(LINEAR, END_TO_END))
    s.add_argument("--lr", type=float)
    s.add_argument("--epochs", type=int, default=ft.epochs)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_finetune)

    s = sub.add_parser("sweep", help="full leave-one-domain-out sweep")
    s.add_argument("--plan", required=True)
    s.add_argument("--out-dir")
    s.set_defaults(fn=cmd_sweep)

    s = sub.add_parser("shift-study", help="in-domain vs out-of-domain comparison")
    s.add_argument("--plan", required=True)
    s.add_argument("--out-dir")
    s.set_defaults(fn=cmd_shift_study)

    s = sub.add_parser("dump-embeddings", help="write encoder embeddings as CSV")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--split", help="normalize with this split's pretraining pool")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_dump_embeddings)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
