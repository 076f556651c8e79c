"""Classification metrics and seed aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import EncoderConfig, classify, encode
from .params import ParamVector


class MetricsError(ValueError):
    """Empty or malformed metric inputs."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = windows of true class i predicted as class j."""
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise MetricsError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise MetricsError("negative counts")
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray,
                         n_classes: int) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape:
            raise MetricsError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
        if y_true.size == 0:
            raise MetricsError("no predictions to score")
        if y_true.min() < 0 or y_pred.min() < 0 or \
                max(y_true.max(), y_pred.max()) >= n_classes:
            raise MetricsError(f"class index outside 0..{n_classes - 1}")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.n == 0:
        raise MetricsError("empty confusion matrix")
    return float(np.trace(cm.counts) / cm.n)


def per_class_f1(cm: ConfusionMatrix) -> np.ndarray:
    """F1 per class with every 0/0 term defined as 0."""
    c = cm.counts.astype(np.float64)
    tp = np.diag(c)
    fp = c.sum(axis=0) - tp
    fn = c.sum(axis=1) - tp
    prec = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=(tp + fp) > 0)
    rec = np.divide(tp, tp + fn, out=np.zeros_like(tp), where=(tp + fn) > 0)
    pr = prec + rec
    return np.divide(2.0 * prec * rec, pr, out=np.zeros_like(tp), where=pr > 0)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean F1 over the classes that appear in the true labels."""
    if cm.n == 0:
        raise MetricsError("empty confusion matrix")
    present = cm.counts.sum(axis=1) > 0
    return float(per_class_f1(cm)[present].mean())


def predict(bundle: ParamVector, windows: np.ndarray, encoder: EncoderConfig,
            batch: int = 256) -> np.ndarray:
    """Argmax class per window; ties break toward the lowest index."""
    windows = np.asarray(windows, dtype=np.float32)
    bundle = bundle.no_grad()
    out = []
    for start in range(0, windows.shape[0], batch):
        logits = classify(bundle, encode(bundle, windows[start:start + batch], encoder))
        out.append(logits.data.argmax(axis=1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


@dataclass
class MetricReport:
    macro_f1: float
    per_class_f1: list[float]
    accuracy: float
    n: int
    seed: int
    config_hash: str = ""

    def to_json_dict(self) -> dict:
        return {"macro_f1": self.macro_f1,
                "per_class_f1": self.per_class_f1,
                "accuracy": self.accuracy,
                "n": self.n,
                "seed": self.seed,
                "config_hash": self.config_hash}


def evaluate(bundle: ParamVector, windows: np.ndarray, labels: np.ndarray,
             n_classes: int, seed: int, config_hash: str,
             encoder: EncoderConfig) -> MetricReport:
    preds = predict(bundle, windows, encoder)
    cm = ConfusionMatrix.from_predictions(labels, preds, n_classes)
    return MetricReport(macro_f1=macro_f1(cm),
                        per_class_f1=[float(v) for v in per_class_f1(cm)],
                        accuracy=accuracy(cm), n=cm.n, seed=seed,
                        config_hash=config_hash)


def aggregate(values: Sequence[float]) -> tuple[float, Optional[float]]:
    """Mean and sample standard deviation (n-1); std is None for a single
    value, empty input is an error."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise MetricsError("nothing to aggregate")
    mean = float(vals.mean())
    if vals.size < 2:
        return mean, None
    return mean, float(vals.std(ddof=1))
