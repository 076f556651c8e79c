"""Episodic meta pre-training next to ordinary mini-batch pre-training.

Both start from the same initialization and the same pool (three of the
four synthetic domains). The meta loop builds K-shot tasks, adapts a
copy of the encoder for one SGD step per task, and applies the averaged
post-adaptation gradient; the plain loop just minimizes the pooled SSL
loss. The printed validation trajectories show what the checkpointing
sees, and the final probe accuracies show what the held-out domain
thinks of the two encoders.

Scaled down (~1 minute); raise EPOCHS for the real curves.
"""

import numpy as np

from metareplay.adapt import FinetuneConfig, finetune
from metareplay.data import make_split, normalize, synth_generate, default_synth_spec
from metareplay.harness import PretrainHyper, plain_pretrain
from metareplay.meta import MetaHyper, meta_pretrain
from metareplay.metrics import evaluate
from metareplay.models import default_encoder_config
from metareplay.pretext import SimCLRObjective, init_for_objective

EPOCHS = 40
TARGET = 3


def main():
    ds = normalize(synth_generate(default_synth_spec(samples_per_class=30), 11))
    split = make_split(ds, TARGET, k=5, seed=0)
    obj = SimCLRObjective()
    enc_cfg = default_encoder_config()
    init = init_for_objective(obj, enc_cfg, ds.n_classes, np.random.default_rng(7))

    meta_hyper = MetaHyper(epochs=EPOCHS)
    meta_params, meta_log = meta_pretrain(obj, init, ds, split.pretrain_train,
                                          split.pretrain_val, meta_hyper,
                                          np.random.default_rng(8))
    plain_hyper = PretrainHyper(epochs=EPOCHS)
    plain_params, plain_log = plain_pretrain(obj, init, ds, split.pretrain_train,
                                             split.pretrain_val, plain_hyper,
                                             np.random.default_rng(8))

    def curve(log):
        vals = [e["val_loss"] for e in log.epochs]
        picks = [0, len(vals) // 4, len(vals) // 2, 3 * len(vals) // 4, len(vals) - 1]
        return "  ".join(f"{vals[i]:.3f}" for i in picks)

    print(f"meta : best epoch {meta_log.best_epoch}/{EPOCHS}  "
          f"val curve {curve(meta_log)}")
    print(f"plain: best epoch {plain_log.best_epoch}/{EPOCHS}  "
          f"val curve {curve(plain_log)}")

    # identical linear probes on the held-out domain's shots
    cfg = FinetuneConfig()
    for name, params in (("meta", meta_params), ("plain", plain_params)):
        bundle, _log = finetune(params, ds.values[split.finetune_shots],
                                ds.labels[split.finetune_shots], cfg, enc_cfg)
        rep = evaluate(bundle, ds.values[split.target_test],
                       ds.labels[split.target_test], ds.n_classes, 0, "",
                       enc_cfg)
        print(f"{name:5s} encoder, frozen, 5-shot probe on held-out domain "
              f"{TARGET}: macro-F1 {rep.macro_f1:.3f}")


if __name__ == "__main__":
    main()
