"""Synthetic loan corpus with a known generative default process.

The default probability is a logistic function of three latent standard
normal drivers that surface as two external-score columns and the
credit-to-goods ratio; every other column (and both auxiliary tables) is
noise. The intercept is calibrated by quadrature so the expected default
rate hits the configured target (8% by default, matching a heavily
imbalanced book). Ground-truth coefficients are written next to the CSVs.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .errors import DataError
from .utils import dump_json, sigmoid, stage_seed

GROUND_TRUTH_FORMAT = "riskforge.ground_truth/1"

#: Coefficients on the latent standard-normal drivers.
COEF_EXT_1 = -1.6
COEF_EXT_2 = -1.3
COEF_RATIO = 1.0
TARGET_DEFAULT_RATE = 0.08

INFORMATIVE_FEATURES = ("ext_score_1", "ext_score_2", "CREDIT_TO_GOODS_RATIO")

HOUSING_TYPES = ("owned", "rented", "with_parents", "municipal")
HOUSING_PROBS = (0.5, 0.25, 0.15, 0.1)
TERM_CHOICES = (60.0, 120.0, 180.0, 240.0, 360.0)

#: Fewest rows ``generate_corpus`` writes.
MIN_CORPUS_ROWS = 200
#: Largest ``corpus.n_rows`` a config may ask for. One ``gen-corpus`` of a
#: million rows peaked at 490 MiB resident and wrote 260 MiB of CSV (measured
#: on a 2-vCPU Linux machine; 82 MiB at 100,000 rows).
MAX_CORPUS_ROWS = 1_000_000

#: Rows that ``_write_csv`` turns into Python objects at a time.
WRITE_CHUNK_ROWS = 1024


def calibrate_intercept(signal_scale: float, target_rate: float) -> float:
    """Solve E[sigmoid(b0 + s*Z)] = target for b0 with Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    zs = math.sqrt(2.0) * nodes
    norm = 1.0 / math.sqrt(math.pi)

    def mean_rate(b0: float) -> float:
        return float(norm * np.sum(weights * sigmoid(b0 + signal_scale * zs)))

    lo, hi = -20.0, 5.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mean_rate(mid) < target_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _write_csv(path: str, columns: dict, rows: slice) -> None:
    """Write the given rows of ``columns`` (name -> array) as CSV: text as it
    is, floats by ``repr``, as ``csv.writer`` writes them. Rows go out
    ``WRITE_CHUNK_ROWS`` at a time, so only one chunk is ever Python objects."""
    views = [values[rows] for values in columns.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for lo in range(0, len(views[0]), WRITE_CHUNK_ROWS):
            chunk = slice(lo, lo + WRITE_CHUNK_ROWS)
            writer.writerows(zip(*(values[chunk].tolist() for values in views)))


def generate_corpus(
    out_dir: str,
    seed: int,
    n_rows: int,
    train_fraction: float = 0.8,
) -> list[str]:
    """Write train/test application CSVs, two auxiliary CSVs and the ground truth;
    return the five paths in that order."""
    if n_rows < MIN_CORPUS_ROWS:
        raise DataError(f"corpus needs at least {MIN_CORPUS_ROWS} rows, got {n_rows}")
    if not (0.0 < train_fraction < 1.0):
        raise DataError("train_fraction must be in (0, 1)")

    rng = np.random.default_rng(stage_seed(seed, "corpus"))
    n = n_rows

    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    z3 = rng.standard_normal(n)
    ext_score_1 = sigmoid(z1)
    ext_score_2 = sigmoid(z2)
    ratio = 0.9 * np.exp(0.35 * z3)

    goods = np.round(np.exp(rng.normal(math.log(500_000.0), 0.45, size=n)), 2)
    credit = np.round(ratio * goods, 2)
    income = np.round(np.exp(rng.normal(math.log(180_000.0), 0.4, size=n)), 2)
    days_birth = -rng.integers(7_300, 25_000, size=n).astype(np.float64)
    days_employed = -rng.integers(30, 12_000, size=n).astype(np.float64)
    family = rng.integers(1, 8, size=n).astype(np.float64)
    term = rng.choice(TERM_CHOICES, size=n)
    housing = rng.choice(HOUSING_TYPES, size=n, p=HOUSING_PROBS)
    noise = rng.standard_normal((n, 3))

    scale = math.sqrt(COEF_EXT_1**2 + COEF_EXT_2**2 + COEF_RATIO**2)
    intercept = calibrate_intercept(scale, TARGET_DEFAULT_RATE)
    margin = intercept + COEF_EXT_1 * z1 + COEF_EXT_2 * z2 + COEF_RATIO * z3
    target = (rng.random(n) < sigmoid(margin)).astype(np.float64)

    ids = np.array([str(i + 1) for i in range(n)])
    columns = {
        "applicant_id": ids,
        "target": target,
        "ext_score_1": ext_score_1,
        "ext_score_2": ext_score_2,
        "amt_credit": credit,
        "amt_goods_price": goods,
        "amt_income_total": income,
        "days_birth": days_birth,
        "days_employed": days_employed,
        "cnt_family_members": family,
        "term_months": term,
        "housing_type": housing,
        "noise_1": noise[:, 0],
        "noise_2": noise[:, 1],
        "noise_3": noise[:, 2],
    }
    n_train = int(round(train_fraction * n))

    # Auxiliary tables are pure noise; 0..4 bureau rows, 0..6 payment rows each.
    bureau_counts = rng.integers(0, 5, size=n)
    bureau_ids = np.repeat(ids, bureau_counts)
    nb = len(bureau_ids)
    bureau = {
        "applicant_id": bureau_ids,
        "amt_credit_sum": np.round(np.exp(rng.normal(12.0, 0.8, size=nb)), 2),
        "days_credit": -rng.integers(100, 3_000, size=nb).astype(np.float64),
    }
    payment_counts = rng.integers(0, 7, size=n)
    payment_ids = np.repeat(ids, payment_counts)
    payments = {
        "applicant_id": payment_ids,
        "amt_payment": np.round(np.exp(rng.normal(9.5, 0.7, size=len(payment_ids))), 2),
    }

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, table, rows in (
        ("application_train", columns, slice(0, n_train)),
        ("application_test", columns, slice(n_train, n)),
        ("bureau", bureau, slice(None)),
        ("payments", payments, slice(None)),
    ):
        paths.append(os.path.join(out_dir, f"{name}.csv"))
        _write_csv(paths[-1], table, rows)
    paths.append(os.path.join(out_dir, "ground_truth.json"))
    dump_json(
        {
            "format": GROUND_TRUTH_FORMAT,
            "seed": seed,
            "n_rows": n,
            "train_rows": n_train,
            "intercept": intercept,
            "coefficients": {
                "ext_score_1": COEF_EXT_1,
                "ext_score_2": COEF_EXT_2,
                "CREDIT_TO_GOODS_RATIO": COEF_RATIO,
            },
            "informative_features": list(INFORMATIVE_FEATURES),
            "target_default_rate": TARGET_DEFAULT_RATE,
        },
        paths[-1],
    )
    return paths
