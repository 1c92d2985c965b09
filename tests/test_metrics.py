import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge.errors import DataError
from riskforge.metrics import (
    APPROVE,
    REJECT,
    REVIEW,
    ConfusionMatrix,
    accuracy,
    business_metrics,
    confusion,
    f1_score,
    false_negative_rate,
    precision,
    recall,
    roc_auc,
)


def pair_count_auc(labels, scores) -> float:
    """Independent oracle: P(score+ > score-) + 0.5 P(tie) by enumeration."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusion:
    def test_basic(self):
        cm = confusion([1, 0], [0.9, 0.1], 0.5)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_threshold_zero_predicts_all_positive(self):
        cm = confusion([1, 0, 0], [0.2, 0.3, 0.4], 0.0)
        assert cm.fp == 2 and cm.tp == 1 and cm.tn == 0

    def test_threshold_above_max_predicts_none(self):
        cm = confusion([1, 0], [0.8, 0.7], 0.81)
        assert cm.tp == 0 and cm.fp == 0 and cm.fn == 1 and cm.tn == 1

    def test_threshold_comparison_inclusive(self):
        cm = confusion([1], [0.5], 0.5)
        assert cm.tp == 1

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            confusion([], [], 0.5)


class TestRates:
    def test_precision_perfect(self):
        assert precision(ConfusionMatrix(tp=1, fp=0, tn=3, fn=2)).value == 1.0

    def test_recall_counts(self):
        r = recall(ConfusionMatrix(tp=3, fp=0, tn=0, fn=1))
        assert r.value == 0.75 and not r.degenerate

    def test_degenerate_precision(self):
        p = precision(ConfusionMatrix(tp=0, fp=0, tn=5, fn=2))
        assert p.value == 0.0 and p.degenerate

    def test_accuracy(self):
        assert accuracy(ConfusionMatrix(tp=2, fp=1, tn=6, fn=1)).value == 0.8

    def test_f1_from_precision_recall(self):
        cm = ConfusionMatrix(tp=2, fp=2, tn=4, fn=2)
        p, r = precision(cm).value, recall(cm).value
        assert f1_score(cm).value == pytest.approx(2 * p * r / (p + r))

    def test_fnr_is_one_minus_recall(self):
        cm = ConfusionMatrix(tp=3, fp=1, tn=2, fn=2)
        assert false_negative_rate(cm).value == pytest.approx(1 - recall(cm).value)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.4, 0.3]).auc == 1.0

    def test_mixed_case_matches_pair_count_oracle(self):
        labels = [1, 0, 1, 0]
        scores = [0.9, 0.8, 0.4, 0.3]
        assert pair_count_auc(labels, scores) == 0.75
        assert roc_auc(labels, scores).auc == 0.75

    def test_all_ties_give_half(self):
        assert roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]).auc == 0.5

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        scores = rng.random(50).round(1)
        curve = roc_auc(labels, scores)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            roc_auc([1, 1], [0.5, 0.6])

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 20)), min_size=2, max_size=120
        )
    )
    def test_trapezoid_equals_pair_count_exactly(self, rows):
        labels = [r[0] for r in rows]
        if sum(labels) in (0, len(labels)):
            return
        scores = [r[1] / 20 for r in rows]  # coarse grid forces ties
        assert roc_auc(labels, scores).auc == pair_count_auc(labels, scores)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 20)), min_size=2, max_size=120
        )
    )
    def test_points_match_per_group_reference(self, rows):
        labels = [r[0] for r in rows]
        n_pos = sum(labels)
        n_neg = len(labels) - n_pos
        if 0 in (n_pos, n_neg):
            return
        scores = [r[1] / 20 for r in rows]
        # One point per distinct score s: the rates of rows scoring >= s.
        expected = [(0.0, 0.0)]
        for s in sorted(set(scores), reverse=True):
            tp = sum(1 for y, v in zip(labels, scores) if v >= s and y == 1)
            fp = sum(1 for y, v in zip(labels, scores) if v >= s and y == 0)
            expected.append((fp / n_neg, tp / n_pos))
        assert repr(roc_auc(labels, scores).points) == repr(tuple(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, 99)),
            min_size=2,
            max_size=60,
        )
    )
    def test_invariant_under_increasing_transform(self, rows):
        labels = [r[0] for r in rows]
        if sum(labels) in (0, len(labels)):
            return
        # Scores on a coarse grid so exp stays strictly increasing in floats.
        scores = np.array([r[1] / 100 for r in rows])
        base = roc_auc(labels, scores).auc
        assert roc_auc(labels, np.exp(3 * scores)).auc == pytest.approx(base, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_label_reversal_flips_auc(self, data):
        n = data.draw(st.integers(4, 60))
        scores = data.draw(
            st.lists(
                st.floats(0, 1).filter(lambda v: v == v),
                min_size=n, max_size=n, unique=True,
            )
        )
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if sum(labels) in (0, n):
            return
        flipped = [1 - y for y in labels]
        assert roc_auc(flipped, scores).auc == pytest.approx(
            1.0 - roc_auc(labels, scores).auc, abs=1e-12
        )


class TestBusinessMetrics:
    def test_counts_from_hand_arithmetic(self):
        labels = [1] + [0] * 9
        decisions = [APPROVE] * 9 + [REJECT]
        probs = [0.9] + [0.1] * 9
        bm = business_metrics(labels, decisions, probs, 0.5)
        assert bm.approval_rate.value == pytest.approx(0.9)
        assert bm.default_rate_among_approved.value == pytest.approx(1 / 9, abs=1e-9)
        assert bm.default_rate_among_approved.value == pytest.approx(0.1111, abs=1e-4)

    def test_nobody_approved_is_degenerate_zero(self):
        bm = business_metrics([0, 1], [REJECT, REVIEW], [0.1, 0.9], 0.5)
        assert bm.approval_rate.value == 0.0
        assert bm.default_rate_among_approved.value == 0.0
        assert bm.default_rate_among_approved.degenerate

    def test_fnr_complements_recall(self):
        labels = [1, 1, 0, 1, 0]
        probs = [0.9, 0.2, 0.7, 0.6, 0.1]
        bm = business_metrics(labels, [APPROVE] * 5, probs, 0.5)
        cm = confusion(labels, probs, 0.5)
        assert bm.fnr.value == pytest.approx(1 - recall(cm).value)

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        probs = rng.random(30)
        decisions = rng.choice([APPROVE, REVIEW, REJECT], 30)
        bm = business_metrics(labels, list(decisions), probs, 0.4)
        for rate in (bm.approval_rate, bm.default_rate_among_approved, bm.fpr, bm.fnr):
            assert 0.0 <= rate.value <= 1.0
