"""Probability -> risk band -> decision -> rate and loan conditions.

Band intervals are half-open: Low is p < t_low, Moderate is t_low <= p <
t_high, High is p >= t_high. Rates are base plus a per-band premium, and
the monthly payment follows standard amortization. Every rule lives in
:class:`RiskConfig` so lenders can remap bands, decisions, premiums and
condition caps without touching code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigError, DataError
from .metrics import APPROVE, REJECT, REVIEW
from .utils import left_sum


class Band(IntEnum):
    LOW = 0
    MODERATE = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return {Band.LOW: "Low", Band.MODERATE: "Moderate", Band.HIGH: "High"}[self]


@dataclass(frozen=True)
class BandRule:
    """Per-band loan conditions."""

    max_term_months: int
    collateral_above: float | None = None  # require collateral over this amount
    require_cosigner: bool = False

    def __post_init__(self):
        if self.max_term_months < 1:
            raise ConfigError(f"max_term_months must be >= 1, got {self.max_term_months}")
        if self.collateral_above is not None and self.collateral_above < 0:
            raise ConfigError(f"collateral_above must be >= 0, got {self.collateral_above}")


def _default_decisions() -> dict:
    return {Band.LOW: APPROVE, Band.MODERATE: REVIEW, Band.HIGH: REJECT}


def _default_premiums() -> dict:
    return {Band.LOW: 0.0, Band.MODERATE: 4.0, Band.HIGH: 9.0}


def _default_rules() -> dict:
    return {
        Band.LOW: BandRule(max_term_months=360),
        Band.MODERATE: BandRule(max_term_months=240, collateral_above=500_000.0),
        Band.HIGH: BandRule(
            max_term_months=120, collateral_above=250_000.0, require_cosigner=True
        ),
    }


@dataclass(frozen=True)
class RiskConfig:
    t_low: float = 0.08
    t_high: float = 0.20
    base_rate: float = 8.0  # annual percentage
    decisions: dict = field(default_factory=_default_decisions)
    premiums: dict = field(default_factory=_default_premiums)
    band_rules: dict = field(default_factory=_default_rules)

    def __post_init__(self):
        if not (0.0 < self.t_low < self.t_high < 1.0):
            raise ConfigError(
                f"band thresholds must satisfy 0 < t_low < t_high < 1, "
                f"got ({self.t_low}, {self.t_high})"
            )
        if not self.base_rate >= 0:  # NaN fails every comparison
            raise ConfigError(f"base_rate must be >= 0, got {self.base_rate}")
        for band in Band:
            if band not in self.decisions:
                raise ConfigError(f"no decision mapped for band {band.label}")
            if self.decisions[band] not in (APPROVE, REVIEW, REJECT):
                raise ConfigError(f"unknown decision {self.decisions[band]!r}")
            if band not in self.premiums:
                raise ConfigError(f"no rate premium for band {band.label}")
            if self.premiums[band] < 0:
                raise ConfigError("rate premiums must be non-negative")
            if not math.isfinite(self.base_rate + self.premiums[band]):
                raise ConfigError(f"base_rate plus the {band.label} premium overflows")
            if band not in self.band_rules:
                raise ConfigError(f"no condition rule for band {band.label}")


@dataclass(frozen=True)
class ApplicantAssessment:
    applicant_id: str
    probability_of_default: float
    band: Band
    decision: str
    annual_rate: float
    conditions: tuple[str, ...]
    monthly_payment: float | None  # set only when approved
    loan_amount: float
    term_months: int


def _bands(probabilities, cfg: RiskConfig) -> np.ndarray:
    """Each probability's band number; the one home of the band rule."""
    return np.searchsorted((cfg.t_low, cfg.t_high), probabilities, side="right")


def band_for(probability: float, cfg: RiskConfig) -> Band:
    return Band(int(_bands(probability, cfg)))


def amortized_payment(principal: float, annual_rate_pct: float, term_months: int) -> float:
    """Constant monthly payment; falls back to principal/n at zero rate.
    ``inf`` when the payment itself overflows a float."""
    r = annual_rate_pct / 100.0 / 12.0
    try:
        factor = (1.0 + r) ** term_months
    except OverflowError:
        factor = math.inf
    if factor == 1.0:  # zero rate, or so small that compounding underflows
        return principal / term_months
    payment = principal * r * factor / (factor - 1.0)
    if not math.isfinite(payment):  # the compounding overflowed, not necessarily the payment
        payment = principal * r / -math.expm1(-term_months * math.log1p(r))
    return payment


def assess(
    probability: float,
    loan_amount: float,
    term_months: int,
    cfg: RiskConfig,
    applicant_id: str = "",
) -> ApplicantAssessment:
    """Map one applicant's default probability to a full loan decision."""
    if not (0.0 <= probability <= 1.0):  # NaN fails every comparison
        raise DataError(f"probability must be in [0, 1], got {probability}")
    if loan_amount <= 0:
        raise DataError(f"loan amount must be positive, got {loan_amount}")
    if term_months < 1:
        raise DataError(f"term must be at least 1 month, got {term_months}")

    band = band_for(probability, cfg)
    decision = cfg.decisions[band]
    rate = cfg.base_rate + cfg.premiums[band]
    rule = cfg.band_rules[band]

    conditions = []
    effective_term = term_months
    if term_months > rule.max_term_months:
        effective_term = rule.max_term_months
        conditions.append(f"term capped at {rule.max_term_months} months")
    if rule.collateral_above is not None and loan_amount > rule.collateral_above:
        conditions.append("collateral required")
    if rule.require_cosigner:
        conditions.append("co-signer required")

    payment = None
    if decision == APPROVE:
        payment = amortized_payment(loan_amount, rate, effective_term)
        if not math.isfinite(payment):
            raise DataError(
                f"applicant {applicant_id}: the monthly payment at {rate}% a year over"
                f" {effective_term} months overflows a float"
            )

    return ApplicantAssessment(
        applicant_id=applicant_id,
        probability_of_default=probability,
        band=band,
        decision=decision,
        annual_rate=rate,
        conditions=tuple(conditions),
        monthly_payment=payment,
        loan_amount=loan_amount,
        term_months=effective_term,
    )


@dataclass(frozen=True)
class PortfolioImpact:
    approved_count: int
    approved_defaults: int
    total_approved_principal: float
    expected_loss: float


def portfolio_impact(probabilities, amounts, labels, cfg: RiskConfig) -> PortfolioImpact:
    """Approved count, defaults, principal and expected loss of a book.

    Each row's decision comes from its risk band. Expected loss sums
    probability * amount over approved applicants, left to right.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    a = np.asarray(amounts, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if not p.size == a.size == y.size:
        raise DataError(f"probabilities ({p.size}), amounts ({a.size}), labels ({y.size}) differ")
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))  # NaN fails every comparison
    if bad.size:
        raise DataError(f"probability must be in [0, 1], got {p[bad[0]].item()}")
    approves = np.array([cfg.decisions[band] == APPROVE for band in Band])
    approved = approves[_bands(p, cfg)]
    return PortfolioImpact(
        approved_count=int(np.sum(approved)),
        approved_defaults=int(np.sum(approved & (y == 1))),
        total_approved_principal=left_sum(a[approved].tolist()),
        expected_loss=left_sum((p[approved] * a[approved]).tolist()),
    )
