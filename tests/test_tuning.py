import json

import numpy as np
import pytest

from riskforge.errors import ConfigError, DataError
from riskforge.sampling import LabeledMatrix, SmoteParams
from riskforge.trees import model_to_doc, predict_proba
from riskforge.tuning import (
    LEARNER_FOREST,
    LEARNER_LEAFWISE,
    LEARNER_LEVELWISE,
    CvPlan,
    _build_params,
    enumerate_grid,
    fit_fold_model,
    grid_search,
    make_folds,
    score_predictions,
)
from riskforge.utils import sigmoid


def make_data(n=160, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (rng.random(n) < sigmoid(-0.8 + 1.5 * x[:, 0])).astype(int)
    if y.sum() < 10:  # keep folds feasible
        y[:10] = 1
    return LabeledMatrix(x, y)


class TestMakeFolds:
    def test_perfect_divisibility(self):
        labels = np.array([1] * 5 + [0] * 5)
        folds = make_folds(labels, CvPlan(n_folds=5, seed=0))
        for f in range(5):
            members = labels[folds == f]
            assert len(members) == 2
            assert members.sum() == 1

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="class 0"):
            make_folds(np.array([1, 1, 1, 1]), CvPlan(n_folds=2, seed=0))

    def test_partition_covers_all_rows_disjointly(self):
        labels = np.array([0] * 23 + [1] * 11)
        folds = make_folds(labels, CvPlan(n_folds=3, seed=1))
        assert folds.min() >= 0 and folds.max() < 3
        assert folds.size == 34  # every row in exactly one fold

    def test_stratification_bound(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(200) < 0.2).astype(int)
        labels[:5] = 1
        k = 5
        folds = make_folds(labels, CvPlan(n_folds=k, seed=3))
        global_rate = labels.mean()
        for f in range(k):
            fold_labels = labels[folds == f]
            assert abs(fold_labels.mean() - global_rate) <= 1.0 / len(fold_labels)

    def test_deterministic_under_seed(self):
        labels = np.array([0, 1] * 20)
        a = make_folds(labels, CvPlan(n_folds=4, seed=9))
        b = make_folds(labels, CvPlan(n_folds=4, seed=9))
        assert np.array_equal(a, b)


class TestEnumerateGrid:
    def test_empty_grid_is_single_default_candidate(self):
        assert enumerate_grid({}) == [{}]

    def test_singleton(self):
        assert enumerate_grid({"learning_rate": [0.1]}) == [{"learning_rate": 0.1}]

    def test_product_count_and_order(self):
        grid = {"b": ["x", "y"], "a": [1, 2]}
        combos = enumerate_grid(grid)
        assert len(combos) == 4
        # name-sorted (a before b), list order within
        assert combos == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_value_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            enumerate_grid({"a": []})


class TestGridSearch:
    def test_singleton_grid_wins_by_default(self):
        data = make_data()
        result, model = grid_search(
            data,
            {"learning_rate": [0.1]},
            CvPlan(n_folds=3, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 5},
        )
        assert result.best_params == {"learning_rate": 0.1}
        assert len(result.candidates) == 1
        assert model is not None

    def test_means_match_independent_re_evaluation(self):
        # Oracle: rerun both candidates on the same folds by hand and
        # recompute every fold score with the metrics module.
        data = make_data(seed=3)
        plan = CvPlan(n_folds=3, seed=5)
        grid = {"max_depth": [1, 3]}
        defaults = {"n_trees": 4, "seed": 11}
        result, _ = grid_search(data, grid, plan, LEARNER_LEVELWISE, defaults=defaults)

        folds = make_folds(data.labels, plan)
        for cand in result.candidates:
            params = _build_params(LEARNER_LEVELWISE, defaults, cand.params)
            scores = []
            for f in range(plan.n_folds):
                mask = folds != f
                model = fit_fold_model(data, mask, LEARNER_LEVELWISE, params)
                probs = predict_proba(model, data.features[~mask])
                scores.append(score_predictions("roc_auc", data.labels[~mask], probs))
            assert scores == pytest.approx(cand.fold_scores, abs=1e-12)
            assert cand.mean_score == pytest.approx(float(np.mean(scores)), abs=1e-12)
        best_mean = max(c.mean_score for c in result.candidates)
        assert result.best_score == best_mean

    def test_product_grid_evaluates_every_candidate(self):
        data = make_data(seed=4)
        result, _ = grid_search(
            data,
            {"learning_rate": [0.1, 0.3], "max_leaves": [3, 5]},
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        assert len(result.candidates) == 4

    def test_tie_breaks_toward_earlier_candidate(self):
        data = make_data(seed=5)
        # Identical candidates produce identical means; index 0 must win.
        result, _ = grid_search(
            data,
            {"learning_rate": [0.1, 0.1]},
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        assert result.candidates[0].mean_score == result.candidates[1].mean_score
        assert result.best_index == 0

    def test_rerun_reproduces_fold_scores(self):
        data = make_data(seed=6)
        args = (
            data,
            {"max_depth": [2, 4]},
            CvPlan(n_folds=3, seed=2),
            LEARNER_LEVELWISE,
        )
        r1, _ = grid_search(*args, defaults={"n_trees": 4})
        r2, _ = grid_search(*args, defaults={"n_trees": 4})
        for c1, c2 in zip(r1.candidates, r2.candidates):
            assert c1.fold_scores == c2.fold_scores

    def test_failed_candidate_recorded_not_fatal(self):
        data = make_data(seed=7)
        result, _ = grid_search(
            data,
            {"learning_rate": [0.1, 5.0]},  # 5.0 violates the params contract
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        ok, bad = result.candidates
        assert bad.error is not None
        assert bad.mean_score == -np.inf
        assert result.best_index == 0 and ok.error is None

    def test_all_candidates_failing_is_an_error(self):
        data = make_data(seed=8)
        with pytest.raises(DataError, match="every grid candidate"):
            grid_search(
                data,
                {"learning_rate": [5.0]},
                CvPlan(n_folds=2, seed=0),
                LEARNER_LEAFWISE,
                defaults={"n_trees": 3},
            )

    def test_forest_kind_supported(self):
        data = make_data(seed=9)
        result, model = grid_search(
            data,
            {},
            CvPlan(n_folds=2, seed=0),
            LEARNER_FOREST,
            defaults={"n_trees": 3, "max_depth": 3},
        )
        assert result.used_defaults
        assert len(model.trees) == 3

    def test_unknown_learner_rejected(self):
        with pytest.raises(ConfigError, match="unknown learner"):
            grid_search(
                make_data(), {}, CvPlan(n_folds=2, seed=0), "perceptron"
            )

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="unknown metric"):
            grid_search(
                make_data(),
                {},
                CvPlan(n_folds=2, seed=0),
                LEARNER_LEAFWISE,
                metric="brier",
                defaults={"n_trees": 2},
            )


class TestLeakage:
    def test_validation_label_poisoning_never_changes_fold_model(self):
        data = make_data(n=120, seed=10)
        plan = CvPlan(n_folds=3, seed=4)
        folds = make_folds(data.labels, plan)
        params = _build_params(LEARNER_LEAFWISE, {"n_trees": 4, "seed": 1}, {})
        smote = SmoteParams(k=3, seed=2)
        mask = folds != 0
        baseline = model_to_doc(
            fit_fold_model(data, mask, LEARNER_LEAFWISE, params, smote)
        )
        val_rows = np.flatnonzero(~mask)
        for row in val_rows[:5]:
            poisoned = LabeledMatrix(data.features.copy(), data.labels.copy())
            poisoned.labels[row] = 1 - poisoned.labels[row]
            doc = model_to_doc(
                fit_fold_model(poisoned, mask, LEARNER_LEAFWISE, params, smote)
            )
            assert json.dumps(doc) == json.dumps(baseline)
