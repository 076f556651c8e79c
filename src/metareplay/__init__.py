"""Few-shot domain adaptation for self-supervised sensing models.

Two-stage recipe for multi-domain time-series classification: meta-learn
a self-supervised encoder across source domains so it adapts quickly,
then specialize it to a new domain with a handful of unlabeled windows
(pretext replay) before fitting a linear classifier on the labeled
shots. Everything runs on a small numpy autodiff core; no deep-learning
framework required.
"""

from .adapt import (FinetuneConfig, PretrainedModel, ReplayConfig, finetune,
                    load_pretrained, pretext_replay, run_pipeline, save_pretrained)
from .data import (Dataset, DomainId, SplitPlan, SynthSpec, exclude_small_domains,
                   make_split, normalize, read_dataset, synth_generate, windowize,
                   write_dataset)
from .harness import (ExperimentPlan, PretrainHyper, SweepResult, domain_shift_study,
                      dump_embeddings, leave_one_domain_out, load_plan, plain_pretrain)
from .meta import (MetaHyper, MetaTask, generate_tasks, inner_adapt, meta_epoch,
                   meta_pretrain)
from .metrics import ConfusionMatrix, MetricReport, accuracy, aggregate, macro_f1
from .models import EncoderConfig, classify, encode, project
from .optim import AdamState, adam_step, sgd_step
from .params import ParamVector
from .pretext import (CPCObjective, MultiTaskObjective, SimCLRObjective, cpc_loss,
                      eval_ssl, init_for_objective, multitask_loss, simclr_loss)
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CPCObjective", "ConfusionMatrix", "Dataset", "DomainId",
    "EncoderConfig", "ExperimentPlan", "FinetuneConfig", "MetaHyper", "MetaTask",
    "MetricReport", "MultiTaskObjective", "ParamVector", "PretrainHyper",
    "PretrainedModel", "ReplayConfig", "SimCLRObjective", "SplitPlan", "SweepResult",
    "SynthSpec", "Tensor", "accuracy", "adam_step", "aggregate",
    "backward", "classify", "cpc_loss", "domain_shift_study", "dump_embeddings",
    "encode", "eval_ssl", "exclude_small_domains", "finetune", "generate_tasks",
    "init_for_objective", "inner_adapt", "leave_one_domain_out", "load_plan",
    "load_pretrained", "macro_f1", "make_split", "meta_epoch", "meta_pretrain",
    "multitask_loss", "normalize", "plain_pretrain", "pretext_replay", "project",
    "read_dataset", "run_pipeline", "save_pretrained", "sgd_step", "simclr_loss",
    "synth_generate", "windowize", "write_dataset",
]
