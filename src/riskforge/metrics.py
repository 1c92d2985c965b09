"""Classification metrics.

The positive class is the defaulter (label 1) throughout, and threshold
comparisons are inclusive: a row is predicted positive when its probability
is >= the threshold. Rates are plain floats. Degenerate denominators never
raise: a 0/0 rate returns 0.0, so grid search can score pathological folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RocCurve:
    """Operating points from threshold +inf down to -inf, plus the area."""

    points: tuple[tuple[float, float], ...]  # (fpr, tpr)
    auc: float


def _as_arrays(labels, probabilities) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(probabilities, dtype=np.float64)
    if y.shape != p.shape:
        raise DataError(f"labels ({y.shape}) and probabilities ({p.shape}) differ")
    if y.size == 0:
        raise DataError("empty input")
    return y, p


def confusion(labels, probabilities, threshold: float) -> ConfusionMatrix:
    y, p = _as_arrays(labels, probabilities)
    pred = p >= threshold
    return ConfusionMatrix(
        tp=int(np.sum(pred & (y == 1))),
        fp=int(np.sum(pred & (y == 0))),
        tn=int(np.sum(~pred & (y == 0))),
        fn=int(np.sum(~pred & (y == 1))),
    )


def rate(num: int, den: int) -> float:
    """``num / den``, or 0.0 when ``den`` is 0."""
    return num / den if den else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    return rate(cm.tp + cm.tn, cm.total)


def precision(cm: ConfusionMatrix) -> float:
    return rate(cm.tp, cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> float:
    return rate(cm.tp, cm.tp + cm.fn)


def f1_score(cm: ConfusionMatrix) -> float:
    p, r = precision(cm), recall(cm)
    return 2 * p * r / (p + r) if p + r else 0.0


def false_positive_rate(cm: ConfusionMatrix) -> float:
    return rate(cm.fp, cm.fp + cm.tn)


def false_negative_rate(cm: ConfusionMatrix) -> float:
    return rate(cm.fn, cm.fn + cm.tp)


def roc_auc(labels, probabilities) -> RocCurve:
    """ROC curve over the unique scores with trapezoidal area.

    The running true/false positive counts stay integers and the area is
    accumulated as an integer before the single final division, so the
    result agrees exactly with the tie-adjusted pair-count statistic
    P(score+ > score-) + 0.5 * P(tie).
    """
    y, p = _as_arrays(labels, probabilities)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")

    order = np.argsort(-p, kind="stable")
    p_sorted = p[order]
    # One operating point per distinct score, at the last row of its tied run.
    ends = np.append(np.flatnonzero(p_sorted[1:] != p_sorted[:-1]), p.size - 1)
    tp = np.cumsum(y[order] == 1)[ends]
    fp = ends + 1 - tp
    tp_before = np.concatenate(([0], tp[:-1]))
    area2 = int(np.sum(np.diff(fp, prepend=0) * (tp_before + tp)))  # twice the area
    points = ((0.0, 0.0),) + tuple(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))
    return RocCurve(points, area2 / (2 * n_pos * n_neg))


APPROVE, REVIEW, REJECT = "approve", "review", "reject"
