"""Classification and business metrics.

The positive class is the defaulter (label 1) throughout, and threshold
comparisons are inclusive: a row is predicted positive when its probability
is >= the threshold. Degenerate denominators never raise; the affected rate
comes back as 0 with its ``degenerate`` flag set so grid search can score
pathological folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
class Rate:
    """A rate in [0, 1]; ``degenerate`` marks a 0/0 convention result."""

    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class RocCurve:
    """Operating points from threshold +inf down to -inf, plus the area."""

    points: tuple[tuple[float, float], ...]  # (fpr, tpr)
    auc: float


@dataclass(frozen=True)
class BusinessMetrics:
    approval_rate: Rate
    default_rate_among_approved: Rate
    fpr: Rate
    fnr: Rate


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


def _rate(num: int, den: int) -> Rate:
    if den == 0:
        return Rate(0.0, degenerate=True)
    return Rate(num / den)


def accuracy(cm: ConfusionMatrix) -> Rate:
    return _rate(cm.tp + cm.tn, cm.total)


def precision(cm: ConfusionMatrix) -> Rate:
    return _rate(cm.tp, cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> Rate:
    return _rate(cm.tp, cm.tp + cm.fn)


def f1_score(cm: ConfusionMatrix) -> Rate:
    p, r = precision(cm), recall(cm)
    if p.degenerate and r.degenerate:
        return Rate(0.0, degenerate=True)
    if p.value + r.value == 0:
        return Rate(0.0, degenerate=True)
    return Rate(2 * p.value * r.value / (p.value + r.value))


def false_positive_rate(cm: ConfusionMatrix) -> Rate:
    return _rate(cm.fp, cm.fp + cm.tn)


def false_negative_rate(cm: ConfusionMatrix) -> Rate:
    return _rate(cm.fn, cm.fn + cm.tp)


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


def business_metrics(
    labels,
    decisions: Sequence[str],
    probabilities,
    threshold: float,
) -> BusinessMetrics:
    """Approval/default rates from decisions, FPR/FNR from the threshold."""
    y, p = _as_arrays(labels, probabilities)
    if len(decisions) != y.size:
        raise DataError(f"decisions ({len(decisions)}) and labels ({y.size}) differ")
    approved = np.asarray([d == APPROVE for d in decisions], dtype=bool)
    n_approved = int(np.sum(approved))
    cm = confusion(y, p, threshold)
    return BusinessMetrics(
        approval_rate=Rate(n_approved / y.size),
        default_rate_among_approved=_rate(int(np.sum(approved & (y == 1))), n_approved),
        fpr=false_positive_rate(cm),
        fnr=false_negative_rate(cm),
    )
