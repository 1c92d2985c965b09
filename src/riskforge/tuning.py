"""Exhaustive grid search with stratified k-fold cross-validation.

Candidates are the cartesian product of the grid's value lists, enumerated
with parameter names sorted and each list kept in declared order. SMOTE,
when enabled, is applied inside the training folds only; validation rows
never contribute to synthesis or tree fitting. A candidate that fails to
train scores -inf and is reported rather than aborting the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ConfigError, DataError
from .sampling import LabeledMatrix, SmoteParams, smote
from .trees import (
    GROWTH_LEAF,
    GROWTH_LEVEL,
    BoostingParams,
    ForestParams,
    fit_boosted,
    fit_forest,
    predict_proba,
)

LEARNER_FOREST = "forest"
LEARNER_LEVELWISE = "boosted_levelwise"
LEARNER_LEAFWISE = "boosted_leafwise"
LEARNER_KINDS = (LEARNER_FOREST, LEARNER_LEVELWISE, LEARNER_LEAFWISE)


@dataclass(frozen=True)
class CvPlan:
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_folds < 2:
            raise DataError("cross-validation needs at least 2 folds")


@dataclass
class CandidateResult:
    params: dict
    fold_scores: list[float]
    mean_score: float
    error: str | None = None


@dataclass
class SearchResult:
    metric: str
    candidates: list[CandidateResult]
    best_index: int
    best_params: dict
    best_score: float
    used_defaults: bool = False  # true when the grid was empty


def make_folds(labels, plan: CvPlan) -> np.ndarray:
    """Stratified fold id per row, deterministic under the plan's seed."""
    y = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(plan.seed)
    folds = np.full(y.size, -1, dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < plan.n_folds:
            raise DataError(
                f"class {cls} has {idx.size} rows, fewer than {plan.n_folds} folds"
            )
        shuffled = idx[rng.permutation(idx.size)]
        folds[shuffled] = np.arange(shuffled.size) % plan.n_folds
    return folds


def enumerate_grid(grid: dict) -> list[dict]:
    """Cartesian product in name-sorted, list-ordered sequence; {} -> [{}]."""
    if not grid:
        return [{}]
    names = sorted(grid)
    for name in names:
        if not grid[name]:
            raise ConfigError(f"grid entry {name!r} has an empty value list")
    return [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]


def _build_params(kind: str, defaults: dict, overrides: dict):
    merged = dict(defaults)
    merged.update(overrides)
    try:
        if kind == LEARNER_FOREST:
            return ForestParams(**merged)
        if kind == LEARNER_LEVELWISE:
            merged["growth"] = GROWTH_LEVEL
            return BoostingParams(**merged)
        if kind == LEARNER_LEAFWISE:
            merged["growth"] = GROWTH_LEAF
            return BoostingParams(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad parameter for learner {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown learner kind {kind!r}")


def fit_learner(kind: str, data: LabeledMatrix, params, feature_names=None):
    if kind == LEARNER_FOREST:
        return fit_forest(data, params, feature_names=feature_names)
    return fit_boosted(data, params, feature_names=feature_names)


def fit_fold_model(
    data: LabeledMatrix,
    train_mask: np.ndarray,
    kind: str,
    params,
    smote_params: SmoteParams | None = None,
    feature_names=None,
):
    """Train one fold's model from training rows only.

    Validation rows are excluded before SMOTE and fitting, so perturbing a
    validation label can never change the resulting model.
    """
    fold_data = LabeledMatrix(data.features[train_mask], data.labels[train_mask])
    if smote_params is not None:
        fold_data = smote(fold_data, smote_params)
    return fit_learner(kind, fold_data, params, feature_names=feature_names)


_METRIC_NAMES = ("roc_auc", "accuracy", "precision", "recall", "f1")


def score_predictions(metric: str, labels, probabilities, threshold: float = 0.5) -> float:
    if metric == "roc_auc":
        return metrics.roc_auc(labels, probabilities).auc
    cm = metrics.confusion(labels, probabilities, threshold)
    if metric == "accuracy":
        return metrics.accuracy(cm).value
    if metric == "precision":
        return metrics.precision(cm).value
    if metric == "recall":
        return metrics.recall(cm).value
    if metric == "f1":
        return metrics.f1_score(cm).value
    raise ConfigError(f"unknown metric {metric!r}; expected one of {_METRIC_NAMES}")


def grid_search(
    data: LabeledMatrix,
    grid: dict,
    plan: CvPlan,
    kind: str,
    metric: str = "roc_auc",
    defaults: dict | None = None,
    smote_params: SmoteParams | None = None,
    feature_names=None,
) -> tuple[SearchResult, object]:
    """Evaluate every candidate with stratified CV and retrain the winner.

    Returns the search record and the final model fitted on the full
    training data with the best parameters.
    """
    candidates = enumerate_grid(grid)
    defaults = dict(defaults or {})
    folds = make_folds(data.labels, plan)

    def evaluate(overrides: dict) -> CandidateResult:
        fold_scores: list[float] = []
        try:
            params = _build_params(kind, defaults, overrides)
            for f in range(plan.n_folds):
                train_mask = folds != f
                model = fit_fold_model(data, train_mask, kind, params, smote_params)
                probs = predict_proba(model, data.features[~train_mask])
                fold_scores.append(
                    score_predictions(metric, data.labels[~train_mask], probs)
                )
        except DataError as exc:
            return CandidateResult(overrides, fold_scores, -math.inf, error=str(exc))
        return CandidateResult(overrides, fold_scores, float(np.mean(fold_scores)))

    results = [evaluate(overrides) for overrides in candidates]

    best_index = 0
    for i, res in enumerate(results):
        if res.mean_score > results[best_index].mean_score:
            best_index = i
    best = results[best_index]
    if not math.isfinite(best.mean_score):
        raise DataError("every grid candidate failed to train")

    final_params = _build_params(kind, defaults, best.params)
    final_data = data
    if smote_params is not None:
        final_data = smote(final_data, smote_params)
    final_model = fit_learner(kind, final_data, final_params, feature_names=feature_names)
    result = SearchResult(
        metric=metric,
        candidates=results,
        best_index=best_index,
        best_params=best.params,
        best_score=best.mean_score,
        used_defaults=not grid,
    )
    return result, final_model


def search_result_to_doc(result: SearchResult) -> dict:
    return {
        "format": "riskforge.search_result/1",
        "metric": result.metric,
        "used_defaults": result.used_defaults,
        "best_index": result.best_index,
        "best_params": result.best_params,
        "best_score": result.best_score,
        "candidates": [
            {
                "params": c.params,
                "fold_scores": c.fold_scores,
                "mean_score": c.mean_score if math.isfinite(c.mean_score) else None,
                "error": c.error,
            }
            for c in result.candidates
        ],
    }
