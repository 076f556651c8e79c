"""Pretext replay on a held-out domain, then the full sweep machinery.

Part 1 takes one pretrained encoder and walks the four evaluation modes
on a single split, printing what replay does to the SSL loss and what
the probe then achieves. Part 2 runs the leave-one-domain-out driver on
a scaled-down plan and prints its grand table, which is the shape of
result the acceptance experiments use.

Scaled down (~2 minutes); see the plan dict for the knobs.
"""

import numpy as np

from metareplay.adapt import MODES, run_pipeline
from metareplay.data import make_split
from metareplay.harness import (leave_one_domain_out, load_plan,
                                load_plan_dataset, pretrain_for_target)
from metareplay.metrics import evaluate

PLAN = {
    "data": {"synth": {"n_domains": 4, "n_classes": 4, "samples_per_class": 20,
                       "timesteps": 128, "seed": 6}, "min_count": 20},
    "pretext": {"kind": "simclr"},
    "meta": {"epochs": 15, "M": 6, "M_dom": 4, "K": 8},
    "replay": {"steps": 10},
    "sweep": {"modes": list(MODES), "shots": [5], "seeds": 2, "seed": 1,
              "plain_epochs": 15, "plain_batch": 32},
}


def main():
    plan = load_plan(PLAN)
    ds = load_plan_dataset(plan)
    target = 2

    models = {}
    for method in ("plain", "meta"):
        models[method], _log, dsn = pretrain_for_target(plan, ds, target, method)
        print(f"pretrained {method} encoder with domain {target} held out")

    split = make_split(ds, target, k=5, seed=0)
    needs = {"baseline": "plain", "replay_only": "plain",
             "meta_only": "meta", "full": "meta"}
    print(f"\nmode        replay-loss            macro-F1   (target domain {target})")
    for mode in MODES:
        bundle, record = run_pipeline(mode, models[needs[mode]], dsn, split,
                                      plan.replay_cfg, plan.finetune_cfg,
                                      np.random.default_rng(5))
        rep = evaluate(bundle, dsn.values[split.target_test],
                       dsn.labels[split.target_test], ds.n_classes, 0,
                       plan.config_hash, plan.enc_cfg)
        replay = record["replay"]
        if replay is not None:
            rl = f"{replay['loss_before']:.3f} -> {replay['loss_after']:.3f}"
        else:
            rl = "(none)       "
        print(f"{mode:11s} {rl:22s} {rep.macro_f1:.3f}")

    print("\nleave-one-domain-out sweep over all four domains:")
    result = leave_one_domain_out(plan)
    for mode in plan.modes:
        rec = result.grand[mode]["5"]
        print(f"  {mode:11s} macro-F1 {rec['macro_f1_mean']:.3f} "
              f"+/- {rec['macro_f1_std']:.3f} over {rec['n_domains']} domains")
    print(f"  ({len(result.cells)} cells, {result.n_failed} failed)")


if __name__ == "__main__":
    main()
