"""Metric oracles: F1 values are checked against hand-built confusion
matrices, never against the library's own arithmetic."""

import numpy as np
import pytest

from metareplay.metrics import (ConfusionMatrix, MetricsError, accuracy,
                                aggregate, evaluate, macro_f1, per_class_f1,
                                predict)
from metareplay.models import EncoderConfig, init_bundle


def cm(rows):
    return ConfusionMatrix(np.array(rows, dtype=np.int64))


# ---------------------------------------------------------------------------
# confusion matrix construction

def test_from_predictions_counts():
    m = ConfusionMatrix.from_predictions([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], 3)
    assert m.counts.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
    assert m.n == 5


def test_from_predictions_validation():
    with pytest.raises(MetricsError, match="mismatch"):
        ConfusionMatrix.from_predictions([0, 1], [0], 2)
    with pytest.raises(MetricsError, match="no predictions"):
        ConfusionMatrix.from_predictions([], [], 2)
    with pytest.raises(MetricsError, match="outside"):
        ConfusionMatrix.from_predictions([0, 3], [0, 1], 3)
    with pytest.raises(MetricsError, match="square"):
        ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(MetricsError, match="negative"):
        ConfusionMatrix(np.array([[1, -1], [0, 1]]))


# ---------------------------------------------------------------------------
# f1 oracles

def test_perfect_diagonal_is_one():
    assert macro_f1(cm([[7, 0], [0, 3]])) == 1.0
    assert accuracy(cm([[7, 0], [0, 3]])) == 1.0


def test_all_predicted_one_class_balanced_oracle():
    # 10 of each class, everything predicted class 0:
    # F1_0 = 2*(0.5*1)/1.5 = 2/3, F1_1 = 0 -> macro 1/3
    m = cm([[10, 0], [10, 0]])
    f1 = per_class_f1(m)
    assert f1[0] == pytest.approx(2 / 3)
    assert f1[1] == 0.0
    assert macro_f1(m) == pytest.approx(1 / 3)


def test_hand_worked_three_class_oracle():
    # counts: true 0: 8 right, 2 as 1; true 1: 3 as 0, 6 right, 1 as 2;
    # true 2: 5 right, 5 as 0
    m = cm([[8, 2, 0], [3, 6, 1], [5, 0, 5]])
    tp = np.array([8, 6, 5], dtype=float)
    fp = np.array([3 + 5, 2, 1], dtype=float)
    fn = np.array([2, 4, 5], dtype=float)
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    want = 2 * prec * rec / (prec + rec)
    assert np.allclose(per_class_f1(m), want)
    assert macro_f1(m) == pytest.approx(float(want.mean()))


def test_absent_true_class_excluded():
    # class 2 never appears in true labels; its column only collects
    # false predictions and must not drag the mean down
    m = cm([[5, 0, 1], [0, 4, 0], [0, 0, 0]])
    f1 = per_class_f1(m)
    with_absent = macro_f1(m)
    assert with_absent == pytest.approx(float(f1[:2].mean()))


def test_zero_over_zero_terms_are_zero():
    # class 1: no true samples predicted right, nothing predicted as 1
    # -> precision and recall both 0/0 -> F1 defined as 0
    f1 = per_class_f1(cm([[3, 0], [2, 0]]))
    assert f1[1] == 0.0


def test_macro_f1_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    for _ in range(20):
        counts = rng.integers(0, 9, size=(4, 4))
        counts[np.arange(4), np.arange(4)] += 1    # every class appears
        perm = rng.permutation(4)
        a = macro_f1(ConfusionMatrix(counts))
        b = macro_f1(ConfusionMatrix(counts[np.ix_(perm, perm)]))
        assert a == pytest.approx(b, abs=1e-12)


def test_macro_f1_bounds_and_perfect_iff_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        counts = rng.integers(0, 6, size=(3, 3))
        if counts.sum() == 0:
            continue
        m = ConfusionMatrix(counts)
        v = macro_f1(m)
        assert 0.0 <= v <= 1.0
        off_diag = counts.sum() - np.trace(counts)
        if v == 1.0:
            assert off_diag == 0
        if off_diag == 0 and np.trace(counts) > 0:
            assert v == 1.0


def test_empty_matrix_rejected():
    with pytest.raises(MetricsError):
        macro_f1(cm([[0, 0], [0, 0]]))
    with pytest.raises(MetricsError):
        accuracy(cm([[0, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# predictions

def test_predict_tie_breaks_low_and_preserves_order():
    rng = np.random.default_rng(5)
    windows = rng.uniform(-1, 1, size=(7, 3, 64)).astype(np.float32)
    bundle = init_bundle("simclr", EncoderConfig(), 3,
                         np.random.default_rng(0))
    # zero classifier -> all logits equal -> everything class 0
    preds = predict(bundle, windows, EncoderConfig())
    assert preds.tolist() == [0] * 7
    # per-window batching must not change results
    one_by_one = np.concatenate([predict(bundle, windows[i:i + 1], EncoderConfig())
                                 for i in range(7)])
    assert np.array_equal(preds, one_by_one)


def test_predict_small_batch_matches_big_batch():
    rng = np.random.default_rng(6)
    windows = rng.uniform(-1, 1, size=(9, 3, 64)).astype(np.float32)
    bundle = init_bundle("simclr", EncoderConfig(), 4,
                         np.random.default_rng(1))
    bundle = bundle.map(lambda n, a: np.asarray(
        np.random.default_rng(2).normal(size=a.shape), np.float32)
        if n == "clf.w" else a)
    assert np.array_equal(predict(bundle, windows, EncoderConfig(), batch=4),
                          predict(bundle, windows, EncoderConfig(), batch=256))


def test_predict_records_no_graph():
    import tracemalloc
    windows = np.random.default_rng(8).standard_normal((256, 3, 256)).astype(np.float32)
    bundle = init_bundle("simclr", EncoderConfig(), 4,
                         np.random.default_rng(0))
    tracemalloc.start()
    try:
        predict(bundle, windows, EncoderConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 18 MiB; 55 MiB when the forward pass recorded a graph
    assert peak < 28 << 20


def test_evaluate_report_fields():
    rng = np.random.default_rng(7)
    windows = rng.uniform(-1, 1, size=(10, 3, 64)).astype(np.float32)
    labels = np.zeros(10, dtype=np.int64)
    bundle = init_bundle("simclr", EncoderConfig(), 2,
                         np.random.default_rng(1))
    rep = evaluate(bundle, windows, labels, 2, seed=11, config_hash="abc",
                   encoder=EncoderConfig())
    # zero classifier predicts class 0 everywhere; labels are all 0
    assert rep.macro_f1 == 1.0 and rep.accuracy == 1.0
    assert rep.n == 10 and rep.seed == 11 and rep.config_hash == "abc"
    d = rep.to_json_dict()
    assert d["per_class_f1"][0] == 1.0


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_closed_forms():
    assert aggregate([0.5, 0.5]) == (0.5, 0.0)
    mean, std = aggregate([0.4, 0.6])
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(np.sqrt(((0.4 - 0.5) ** 2 + (0.6 - 0.5) ** 2) / 1))
    assert std == pytest.approx(0.14142135623730953)


def test_aggregate_single_and_empty():
    mean, std = aggregate([0.7])
    assert mean == pytest.approx(0.7)
    assert std is None
    with pytest.raises(MetricsError):
        aggregate([])
