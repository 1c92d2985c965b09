import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge.errors import ConfigError, DataError
from riskforge.metrics import APPROVE, REJECT, REVIEW, RocCurve, confusion
from riskforge.report import ModelEvaluation, evaluation_block
from riskforge.risk import (
    Band,
    BandRule,
    PortfolioImpact,
    RiskConfig,
    amortized_payment,
    assess,
    band_for,
    portfolio_impact,
)

CFG = RiskConfig()


def present_value(payment: float, annual_rate_pct: float, n: int) -> float:
    """Oracle: discount the constant payment stream back to time zero."""
    r = annual_rate_pct / 100.0 / 12.0
    if (1.0 + r) ** n == 1.0:  # rate zero or lost to float rounding
        return payment * n
    return payment * (1 - (1 + r) ** (-n)) / r


class TestBands:
    def test_low_band_approves_at_base_rate(self):
        a = assess(0.05, 10_000.0, 12, CFG)
        assert a.band is Band.LOW
        assert a.decision == APPROVE
        assert a.annual_rate == 8.0

    def test_low_threshold_boundary_is_moderate(self):
        assert band_for(CFG.t_low, CFG) is Band.MODERATE

    def test_high_threshold_boundary_is_high(self):
        assert band_for(CFG.t_high, CFG) is Band.HIGH

    def test_decisions_follow_config_map(self):
        assert assess(0.1, 1000.0, 12, CFG).decision == REVIEW
        assert assess(0.9, 1000.0, 12, CFG).decision == REJECT

    def test_remapped_decisions(self):
        cfg = RiskConfig(
            decisions={Band.LOW: APPROVE, Band.MODERATE: APPROVE, Band.HIGH: REVIEW}
        )
        assert assess(0.5, 1000.0, 12, cfg).decision == REVIEW
        assert assess(0.1, 1000.0, 12, cfg).decision == APPROVE

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_band_monotone_in_probability(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert band_for(lo, CFG) <= band_for(hi, CFG)

    def test_rate_non_decreasing_in_band(self):
        rates = [CFG.base_rate + CFG.premiums[b] for b in Band]
        assert rates == sorted(rates)


class TestAmortization:
    def test_zero_rate_divides_evenly(self):
        a = assess(0.01, 12_000.0, 12, RiskConfig(base_rate=0.0))
        assert a.monthly_payment == pytest.approx(1000.0)

    def test_textbook_loan_payment(self):
        # Oracle: the present value of the payment stream must equal the
        # principal; the known closed-form value is 1434.71.
        m = amortized_payment(100_000.0, 12.0, 120)
        assert present_value(m, 12.0, 120) == pytest.approx(100_000.0, rel=1e-9)
        assert m == pytest.approx(1434.71, abs=5e-3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1000, 5_000_000),
        st.floats(0.0, 30.0),
        st.integers(1, 480),
    )
    def test_present_value_identity(self, principal, rate, n):
        m = amortized_payment(principal, rate, n)
        assert present_value(m, rate, n) == pytest.approx(principal, rel=1e-6)

    def test_overflowing_payment_is_inf(self):
        assert amortized_payment(1_000_000.0, 1e308, 360) == float("inf")

    @pytest.mark.parametrize(
        "rate, term, payment",
        [(9000.0, 360, 7_500_000.0), (1.2e27, 12, 1e30)],
        ids=["compounding-overflows", "product-overflows"],
    )
    def test_payment_survives_overflowing_compounding(self, rate, term, payment):
        """(1 + r)^n, or the product over it, may overflow a float when the
        payment, about principal * r at such rates, does not."""
        assert amortized_payment(1_000_000.0, rate, term) == pytest.approx(payment, rel=1e-12)

    def test_overflowing_payment_names_applicant(self):
        with pytest.raises(DataError, match=r"^applicant 17: the monthly payment at 1e\+308% a"
                           r" year over 12 months overflows a float$"):
            assess(0.01, 1_000_000.0, 12, RiskConfig(base_rate=1e308), applicant_id="17")


class TestConditions:
    def test_term_capped_by_band_rule(self):
        a = assess(0.15, 1000.0, 480, CFG)  # Moderate: cap 240
        assert a.term_months == 240
        assert any("term capped" in c for c in a.conditions)

    def test_collateral_flag_above_amount_cap(self):
        a = assess(0.15, 600_000.0, 120, CFG)
        assert "collateral required" in a.conditions

    def test_cosigner_for_high_band(self):
        a = assess(0.5, 1000.0, 12, CFG)
        assert "co-signer required" in a.conditions

    def test_low_band_small_loan_no_conditions(self):
        a = assess(0.01, 1000.0, 12, CFG)
        assert a.conditions == ()

    def test_payment_only_when_approved(self):
        assert assess(0.5, 1000.0, 12, CFG).monthly_payment is None
        assert assess(0.15, 1000.0, 12, CFG).monthly_payment is None
        assert assess(0.01, 1000.0, 12, CFG).monthly_payment is not None


class TestValidation:
    def test_invalid_probability(self):
        with pytest.raises(DataError, match="probability"):
            assess(1.5, 1000.0, 12, CFG)

    def test_non_positive_amount(self):
        with pytest.raises(DataError, match="amount"):
            assess(0.1, 0.0, 12, CFG)

    def test_bad_term(self):
        with pytest.raises(DataError, match="term"):
            assess(0.1, 1000.0, 0, CFG)

    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError, match="threshold"):
            RiskConfig(t_low=0.5, t_high=0.2)

    def test_negative_premium_rejected(self):
        with pytest.raises(ConfigError, match="premium"):
            RiskConfig(premiums={Band.LOW: -1.0, Band.MODERATE: 0.0, Band.HIGH: 0.0})

    @pytest.mark.parametrize("rate", [-2400.0, float("nan")])
    def test_base_rate_below_zero_rejected(self, rate):
        with pytest.raises(ConfigError, match="base_rate must be >= 0"):
            RiskConfig(base_rate=rate)

    def test_rate_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="base_rate plus the Moderate premium overflows"):
            RiskConfig(
                base_rate=1e308, premiums={Band.LOW: 0.0, Band.MODERATE: 1e308, Band.HIGH: 1e308}
            )


def _added_in_order(values):
    """Floats added left to right from 0.0 in a plain loop (``sum()`` of
    floats is compensated on Python 3.12+)."""
    total = 0.0
    for v in values:
        total += v
    return total


def per_row_reference(probs, amounts, labels, cfg):
    """The portfolio as scored before: one full assess() per row, then sums."""
    assessments = [assess(float(p), a, 12, cfg) for p, a in zip(probs, amounts)]
    approved = [(a, y) for a, y in zip(assessments, labels) if a.decision == APPROVE]
    return PortfolioImpact(
        approved_count=len(approved),
        approved_defaults=sum(int(y) for _, y in approved),
        total_approved_principal=_added_in_order(a.loan_amount for a, _ in approved),
        expected_loss=_added_in_order(
            a.probability_of_default * a.loan_amount for a, _ in approved
        ),
    )


class TestPortfolio:
    # Low below 0.3, Moderate below 0.6, High from 0.6.
    WIDE = RiskConfig(t_low=0.3, t_high=0.6)

    def test_all_rejected_zero_exposure(self):
        impact = portfolio_impact([0.9, 0.8], [1000.0, 1000.0], [1, 0], CFG)
        assert impact.total_approved_principal == 0.0
        assert impact.expected_loss == 0.0
        assert impact.approved_count == 0

    def test_expected_loss_is_probability_times_amount(self):
        impact = portfolio_impact([0.1], [1000.0], [0], self.WIDE)
        assert impact.expected_loss == pytest.approx(100.0)
        assert impact.total_approved_principal == 1000.0

    def test_business_metrics_agree_with_metrics_module(self):
        rng = np.random.default_rng(0)
        probs = rng.random(40)
        labels = rng.integers(0, 2, 40)
        decisions = [
            APPROVE if p < 0.3 else (REVIEW if p < 0.6 else REJECT) for p in probs
        ]
        approved = np.array([d == APPROVE for d in decisions])
        cm = confusion(labels, probs, 0.5)
        impact = portfolio_impact(probs, [1000.0] * 40, labels, self.WIDE)
        ev = ModelEvaluation("m", cm, RocCurve((), 0.5), impact, probs)
        business = evaluation_block(ev)["business"]
        assert business == {
            "approval_rate": round(approved.mean(), 6),
            "default_rate_among_approved": round(labels[approved].mean(), 6),
            "fpr": round(cm.fp / (cm.fp + cm.tn), 6),
            "fnr": round(cm.fn / (cm.fn + cm.tp), 6),
        }

    def test_matches_per_row_reference(self):
        remapped = RiskConfig(
            t_low=0.15,
            t_high=0.35,
            decisions={Band.LOW: APPROVE, Band.MODERATE: APPROVE, Band.HIGH: REVIEW},
        )
        rng = np.random.default_rng(11)
        for cfg in (CFG, self.WIDE, remapped):
            for _ in range(40):
                n = int(rng.integers(1, 80))
                probs = rng.random(n)
                ties = rng.random(n)
                probs[ties < 0.15] = cfg.t_low
                probs[(ties >= 0.15) & (ties < 0.3)] = cfg.t_high
                probs[ties > 0.97] = rng.choice([0.0, 1.0])
                amounts = rng.uniform(1_000.0, 900_000.0, n).round(2)
                labels = rng.integers(0, 2, n)
                got = portfolio_impact(probs, amounts, labels, cfg)
                want = per_row_reference(probs, amounts.tolist(), labels, cfg)
                assert repr(got) == repr(want)

    def test_sums_add_left_to_right(self):
        """1e16 + 1.0 rounds back to 1e16, so the two 1.0 amounts are lost;
        a compensated sum, as Python 3.12's ``sum()``, gives 1e16 + 2."""
        amounts = [1e16, 1.0, 1.0]
        impact = portfolio_impact([0.05] * 3, amounts, [0, 0, 0], CFG)
        assert impact.approved_count == 3
        assert impact.total_approved_principal == 1e16
        assert impact.expected_loss == _added_in_order(0.05 * a for a in amounts)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DataError, match=r"probability must be in \[0, 1\]"):
            portfolio_impact([0.1, bad], [1000.0, 1000.0], [0, 1], CFG)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ"):
            portfolio_impact([0.1], [1000.0], [0, 1], CFG)

