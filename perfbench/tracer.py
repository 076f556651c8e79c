"""Span tracer that wraps metareplay's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and a
window count. Spans live in flat in-memory arrays while the run goes on
and are written once at the end. Wrappers are installed on the defining
module's attribute and on every other name bound to the same function
object (the names other modules took with ``from ... import``), and
``restore`` puts every original back.

The program itself is not changed: every span boundary is a call into a
layer, seen from the caller's side. Time spent by the tracer's own
graph walk (the ``tensor.nodes_per_backward`` count) is paused out of
the span clock.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

PACKAGE = "metareplay"
# Composite tensor helpers (l2_normalize, cross_entropy_with_logits, ...)
# are left unwrapped: their primitive ops are traced, so wrapping them too
# would count the same work twice under the op categories.
_ELEMENTWISE = ("add", "sub", "mul", "div", "sqrt", "tanh", "sigmoid", "exp", "log")
_TENSOR_OTHER = ("sum_", "mean", "softmax", "log_softmax", "reshape", "transpose",
                 "concat", "slice_", "global_mean_pool", "max_pool1d",
                 "binary_cross_entropy_with_logits")


def _rows(pos: int) -> Callable:
    """Window count of a call: leading dimension of positional arg ``pos``."""
    def count(args, kwargs) -> int:
        x = args[pos]
        return int(getattr(x, "shape", np.shape(x))[0])
    return count


def default_targets() -> list[tuple[str, str, str, Optional[Callable]]]:
    """(module, attribute, span name, windows of a call) per traced function."""
    targets = [("tensor", op, f"tensor.{op}", None)
               for op in ("conv1d", "layer_norm", "relu", "matmul")]
    targets += [("tensor", op, "tensor.elementwise", None) for op in _ELEMENTWISE]
    targets += [("tensor", op, "tensor.other", None) for op in _TENSOR_OTHER]
    targets += [
        ("tensor", "backward", "tensor.backward", None),
        ("params", "grad_of", "params.grad_of", None),
        ("params", "ParamVector.map", "params.vector_ops", None),
        ("params", "ParamVector.zip_map", "params.vector_ops", None),
        ("params", "ParamVector.select", "params.vector_ops", None),
        ("params", "ParamVector.merge_overrides", "params.vector_ops", None),
        ("optim", "sgd_step", "optim.sgd_step", None),
        ("optim", "adam_step", "optim.adam_step", None),
        ("augment", "paired_views_batch", "augment.paired_views_batch", _rows(0)),
        ("augment", "sample_task_batch", "augment.sample_task_batch", _rows(0)),
        ("models", "encode", "models.encode", _rows(1)),
        ("models", "aggregate_and_predict", "models.aggregate_and_predict", None),
        ("pretext", "eval_ssl", "pretext.eval_ssl", _rows(2)),
        ("pretext", "simclr_loss", "pretext.loss", None),
        ("pretext", "cpc_loss", "pretext.loss", None),
        ("pretext", "multitask_loss", "pretext.loss", None),
        ("meta", "generate_tasks", "meta.generate_tasks", None),
        ("meta", "inner_adapt", "meta.inner_adapt", None),
        ("meta", "meta_epoch", "meta.meta_epoch", None),
        ("meta", "meta_validation_loss", "meta.meta_validation_loss", None),
        ("adapt", "pretext_replay", "adapt.pretext_replay", None),
        ("adapt", "finetune", "adapt.finetune", None),
        ("adapt", "save_pretrained", "adapt.save_pretrained", None),
        ("metrics", "evaluate", "metrics.evaluate", _rows(1)),
        ("harness", "pretrain_for_target", "harness.pretrain_for_target", None),
        ("harness", "plain_pretrain", "harness.plain_pretrain", None),
        ("data", "synth_generate", "data.synth_generate", None),
        ("data", "apply_norm", "data.apply_norm", None),
    ]
    return targets


def graph_op_count(loss) -> int:
    """Op nodes reachable from ``loss`` that backward will visit."""
    seen = {id(loss)}
    stack = [loss]
    ops = 0
    while stack:
        node = stack.pop()
        if node._vjp is not None:
            ops += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


@dataclass(frozen=True)
class Site:
    owner: object
    attr: str
    original: object


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("q")
        self.parent = array("q")
        self.windows = array("q")
        self.graph_ops = 0
        self.backward_calls = 0
        self._stack: list[int] = []
        self._paused = 0.0
        self.sites: list[Site] = []

    # -- clock and spans ----------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, windows: Optional[Callable] = None,
             is_backward: bool = False) -> Callable:
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_backward:
                t = time.perf_counter()
                self.graph_ops += graph_op_count(args[0])
                self.backward_calls += 1
                self._paused += time.perf_counter() - t
            idx = len(self.start)
            self.start.append(self.clock())
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.windows.append(windows(args, kwargs) if windows else 0)
            self.name_of.append(nid)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = self.clock()

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at every alias of it."""
        if self.sites:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, span, windows in default_targets():
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:                       # a method: patch the class only
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self.sites.append(Site(cls, meth, original))
                setattr(cls, meth, self.wrap(original, span, windows))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span, windows,
                                is_backward=(span == "tensor.backward"))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.sites.append(Site(mod, name, original))
                        setattr(mod, name, wrapped)

    def restore(self) -> None:
        for site in reversed(self.sites):
            setattr(site.owner, site.attr, site.original)
        self.sites.clear()

    # -- results ----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name_of, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "windows": np.frombuffer(self.windows, dtype=np.int64).copy()}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.span_arrays())

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy, self, windows and the call durations."""
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        stats = {}
        for nid, name in enumerate(self.names):
            sel = s["name"] == nid
            stats[name] = {"calls": int(sel.sum()),
                           "busy_s": float(dur[sel].sum()),
                           "self_s": float((dur[sel] - child[sel]).sum()),
                           "windows": int(s["windows"][sel].sum()),
                           "durations": dur[sel]}
        return stats


def tail(durations: np.ndarray, beyond: int = 10) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it, as
    (value, percentile); (0, 0) when there are too few samples."""
    n = durations.size
    if n <= beyond:
        return 0.0, 0.0
    rank = n - beyond - 1
    return float(np.sort(durations)[rank]), 100.0 * (rank + 1) / n
