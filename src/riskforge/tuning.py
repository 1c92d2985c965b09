"""Exhaustive grid search with stratified k-fold cross-validation.

Candidates are the cartesian product of the grid's value lists, enumerated
with parameter names sorted and each list kept in declared order. SMOTE,
when enabled, is applied inside the training folds only; validation rows
never contribute to synthesis or tree fitting. Every learner's candidates
share each fold's SMOTE'd training set, cut once per search and binned once
for each ``n_bins`` that a candidate asks for. A candidate that fails to
train is reported with its error rather than aborting the search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import metrics
from .errors import ConfigError, DataError
from .sampling import LabeledMatrix, SmoteParams, smote
from .trees import (
    GROWTH_LEAF,
    GROWTH_LEVEL,
    BinnedSet,
    BoostingParams,
    ForestParams,
    fit_boosted,
    fit_forest,
    predict_proba,
)

LEARNER_FOREST = "forest"
LEARNER_LEVELWISE = "boosted_levelwise"
LEARNER_LEAFWISE = "boosted_leafwise"


class Learner(NamedTuple):
    params: type  # the params dataclass
    fixed: dict  # params the kind sets; a config cannot
    fit: Callable


LEARNERS = {
    LEARNER_FOREST: Learner(ForestParams, {}, fit_forest),
    LEARNER_LEVELWISE: Learner(BoostingParams, {"growth": GROWTH_LEVEL}, fit_boosted),
    LEARNER_LEAFWISE: Learner(BoostingParams, {"growth": GROWTH_LEAF}, fit_boosted),
}


@dataclass(frozen=True)
class CvPlan:
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_folds < 2:
            raise DataError("cross-validation needs at least 2 folds")


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
    if kind not in LEARNERS:
        raise ConfigError(f"unknown learner kind {kind!r}")
    learner = LEARNERS[kind]
    try:
        return learner.params(**{**defaults, **overrides, **learner.fixed})
    except TypeError as exc:
        raise ConfigError(f"bad parameter for learner {kind!r}: {exc}") from exc


def fit_learner(kind: str, data: LabeledMatrix, params, feature_names=None):
    """Bin ``data`` for ``params.n_bins`` and fit one model on it."""
    return _fit(kind, BinnedSet.of(data, params.n_bins), params, feature_names)


def _fit(kind: str, train: BinnedSet, params, feature_names=None):
    return LEARNERS[kind].fit(train, params, feature_names=feature_names)


def fold_training_set(
    data: LabeledMatrix, train_mask, smote_params: SmoteParams | None = None
) -> LabeledMatrix:
    """The rows selected by ``train_mask``, SMOTE'd when ``smote_params`` is set.

    Validation rows are excluded before SMOTE, so perturbing a validation
    label can never change the set or a model fitted on it.
    """
    rows = LabeledMatrix(data.features[train_mask], data.labels[train_mask])
    return rows if smote_params is None else smote(rows, smote_params)


def grid_search(
    data: LabeledMatrix,
    learners: list[tuple[str, dict, dict]],
    plan: CvPlan,
    smote_params: SmoteParams | None = None,
    feature_names=None,
) -> list[tuple[dict, object]]:
    """Cross-validate every candidate of every ``(kind, grid, defaults)``
    learner by its mean fold ROC AUC and retrain each learner's winner on
    the full training data.

    The fold loop is outermost: each fold's training set is cut, SMOTE'd and
    binned once, shared by every candidate, then dropped before the next
    fold. Returns one (search document, final model) pair per learner, in
    order; the document is what ``train`` writes, and a candidate that failed
    keeps its error and a ``mean_score`` of None.
    """
    folds = make_folds(data.labels, plan)
    searches = [
        (kind, grid, defaults, [
            {"params": o, "fold_scores": [], "mean_score": None, "error": None}
            for o in enumerate_grid(grid)
        ])
        for kind, grid, defaults in learners
    ]
    for f in range(plan.n_folds):
        train_mask = folds != f
        fold_data = fold_training_set(data, train_mask, smote_params)
        binned = functools.cache(functools.partial(BinnedSet.of, fold_data))  # n_bins -> set
        val_x, val_y = data.features[~train_mask], data.labels[~train_mask]
        for kind, _, defaults, candidates in searches:
            for cand in candidates:
                if cand["error"] is None:
                    try:
                        params = _build_params(kind, defaults, cand["params"])
                        probs = predict_proba(_fit(kind, binned(params.n_bins), params), val_x)
                        cand["fold_scores"].append(metrics.roc_auc(val_y, probs).auc)
                    except DataError as exc:
                        cand["error"] = str(exc)
        del fold_data, binned

    winners = []
    for kind, grid, defaults, candidates in searches:
        scored = [i for i, cand in enumerate(candidates) if cand["error"] is None]
        if not scored:
            raise DataError(
                f"every grid candidate of {kind!r} failed to train; "
                f"the first failed with: {candidates[0]['error']}"
            )
        for i in scored:
            candidates[i]["mean_score"] = float(np.mean(candidates[i]["fold_scores"]))
        best_index = max(scored, key=lambda i: candidates[i]["mean_score"])
        best = candidates[best_index]
        doc = {
            "format": "riskforge.search_result/1",
            "metric": "roc_auc",
            "used_defaults": not grid,
            "best_index": best_index,
            "best_params": best["params"],
            "best_score": best["mean_score"],
            "candidates": candidates,
        }
        winners.append((kind, doc, _build_params(kind, defaults, best["params"])))

    final_data = fold_training_set(data, slice(None), smote_params)
    binned = functools.cache(functools.partial(BinnedSet.of, final_data))
    return [
        (doc, _fit(kind, binned(params.n_bins), params, feature_names))
        for kind, doc, params in winners
    ]
