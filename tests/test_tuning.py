import json
import re

import numpy as np
import pytest

from riskforge import trees
from riskforge.errors import ConfigError, DataError
from riskforge.metrics import roc_auc
from riskforge.sampling import LabeledMatrix, SmoteParams
from riskforge.trees import model_to_doc, predict_proba
from riskforge.tuning import (
    LEARNER_FOREST,
    LEARNER_LEAFWISE,
    LEARNER_LEVELWISE,
    CvPlan,
    _build_params,
    enumerate_grid,
    fit_learner,
    fold_training_set,
    grid_search,
    make_folds,
)
from riskforge.utils import sigmoid
from riskforge.validation import validate


def make_data(n=160, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (rng.random(n) < sigmoid(-0.8 + 1.5 * x[:, 0])).astype(int)
    if y.sum() < 10:  # keep folds feasible
        y[:10] = 1
    return LabeledMatrix(x, y)


def search_one(data, grid, plan, kind, defaults=None):
    """Search a single learner; returns its (search document, final model)."""
    (pair,) = grid_search(data, [(kind, grid, defaults or {})], plan)
    return pair


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
        result, model = search_one(
            data,
            {"learning_rate": [0.1]},
            CvPlan(n_folds=3, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 5},
        )
        assert result["best_params"] == {"learning_rate": 0.1}
        assert len(result["candidates"]) == 1
        assert model is not None

    def test_means_match_independent_re_evaluation(self):
        # Oracle: rerun every candidate of both learners on the same folds by
        # hand and recompute every fold score with the metrics module.
        data = make_data(seed=3)
        plan = CvPlan(n_folds=3, seed=5)
        smote = SmoteParams(k=3, seed=2)
        learners = [
            (LEARNER_LEVELWISE, {"max_depth": [1, 3]}, {"n_trees": 4, "seed": 11}),
            (LEARNER_FOREST, {"max_depth": [2]}, {"n_trees": 3, "seed": 12}),
        ]
        searches = grid_search(data, learners, plan, smote_params=smote)

        folds = make_folds(data.labels, plan)
        for (kind, _, defaults), (result, _) in zip(learners, searches):
            for cand in result["candidates"]:
                params = _build_params(kind, defaults, cand["params"])
                scores = []
                for f in range(plan.n_folds):
                    mask = folds != f
                    model = fit_learner(kind, fold_training_set(data, mask, smote), params)
                    probs = predict_proba(model, data.features[~mask])
                    scores.append(roc_auc(data.labels[~mask], probs).auc)
                assert scores == pytest.approx(cand["fold_scores"], abs=1e-12)
                assert cand["mean_score"] == pytest.approx(float(np.mean(scores)), abs=1e-12)
            best_mean = max(c["mean_score"] for c in result["candidates"])
            assert result["best_score"] == best_mean

    def test_failed_candidate_leaves_other_learner_unchanged(self):
        data = make_data(seed=12)
        plan = CvPlan(n_folds=2, seed=0)
        levelwise = (LEARNER_LEVELWISE, {"max_depth": [2, 3]}, {"n_trees": 3})

        def search(leafwise_grid):
            learners = [(LEARNER_LEAFWISE, leafwise_grid, {"n_trees": 3}), levelwise]
            return grid_search(data, learners, plan, smote_params=SmoteParams(k=3))

        clean = search({"learning_rate": [0.1]})
        mixed = search({"learning_rate": [5.0, 0.1]})  # 5.0 fails to build
        assert mixed[0][0]["candidates"][0]["error"] is not None
        assert mixed[0][0]["best_index"] == 1
        want = [c["fold_scores"] for c in clean[1][0]["candidates"]]
        assert [c["fold_scores"] for c in mixed[1][0]["candidates"]] == want

    def test_product_grid_evaluates_every_candidate(self):
        data = make_data(seed=4)
        result, _ = search_one(
            data,
            {"learning_rate": [0.1, 0.3], "max_leaves": [3, 5]},
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        assert len(result["candidates"]) == 4

    def test_tie_breaks_toward_earlier_candidate(self):
        data = make_data(seed=5)
        # Identical candidates produce identical means; index 0 must win.
        result, _ = search_one(
            data,
            {"learning_rate": [0.1, 0.1]},
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        first, second = result["candidates"]
        assert first["mean_score"] == second["mean_score"]
        assert result["best_index"] == 0

    def test_rerun_reproduces_fold_scores(self):
        data = make_data(seed=6)
        args = (
            data,
            {"max_depth": [2, 4]},
            CvPlan(n_folds=3, seed=2),
            LEARNER_LEVELWISE,
        )
        r1, _ = search_one(*args, defaults={"n_trees": 4})
        r2, _ = search_one(*args, defaults={"n_trees": 4})
        for c1, c2 in zip(r1["candidates"], r2["candidates"]):
            assert c1["fold_scores"] == c2["fold_scores"]

    def test_failed_candidate_recorded_not_fatal(self):
        """The returned document is the one train writes: it validates
        against its schema, and a candidate that failed holds its error and
        a null mean, in JSON as in memory."""
        data = make_data(seed=7)
        result, _ = search_one(
            data,
            {"learning_rate": [0.1, 5.0]},  # 5.0 violates the params contract
            CvPlan(n_folds=2, seed=0),
            LEARNER_LEAFWISE,
            defaults={"n_trees": 3},
        )
        validate(result, "search_result")
        assert json.loads(json.dumps(result)) == result
        ok, bad = result["candidates"]
        assert bad == {"params": {"learning_rate": 5.0}, "fold_scores": [],
                       "mean_score": None, "error": "learning_rate must be in (0, 1]"}
        assert result["best_index"] == 0 and ok["error"] is None
        assert result["best_score"] == ok["mean_score"]

    def test_all_candidates_failing_is_an_error(self):
        data = make_data(seed=8)
        message = (
            "every grid candidate of 'boosted_leafwise' failed to train; "
            "the first failed with: learning_rate must be in (0, 1]"
        )
        with pytest.raises(DataError, match=re.escape(message)):
            search_one(
                data,
                {"learning_rate": [5.0]},
                CvPlan(n_folds=2, seed=0),
                LEARNER_LEAFWISE,
                defaults={"n_trees": 3},
            )

    def test_forest_kind_supported(self):
        data = make_data(seed=9)
        result, model = search_one(
            data,
            {},
            CvPlan(n_folds=2, seed=0),
            LEARNER_FOREST,
            defaults={"n_trees": 3, "max_depth": 3},
        )
        assert result["used_defaults"]
        assert len(model.trees) == 3

    def test_unknown_learner_rejected(self):
        with pytest.raises(ConfigError, match="unknown learner"):
            search_one(
                make_data(), {}, CvPlan(n_folds=2, seed=0), "perceptron"
            )


class TestSharedBinning:
    def test_each_training_set_binned_once_per_n_bins(self, monkeypatch):
        """Candidates share a training set's bins only when they ask for the
        same ``n_bins``: 8 and 16 each get their own, and the two level-wise
        candidates and the forest share the default 255. Sharing changes no
        byte: every fold score and final model equals a lone ``fit_learner``
        on a freshly cut training set."""
        data = make_data(seed=13)
        plan = CvPlan(n_folds=3, seed=1)
        smote = SmoteParams(k=3, seed=2)
        learners = [
            (LEARNER_LEAFWISE, {"n_bins": [8, 16]}, {"n_trees": 3, "seed": 4}),
            (LEARNER_LEVELWISE, {"max_depth": [2, 3]}, {"n_trees": 3, "seed": 5}),
            (LEARNER_FOREST, {}, {"n_trees": 2, "max_depth": 3, "seed": 6}),
        ]
        calls = []
        fit_bins = trees.fit_bins

        def counting_fit_bins(matrix, n_bins):
            calls.append(n_bins)
            return fit_bins(matrix, n_bins)

        monkeypatch.setattr(trees, "fit_bins", counting_fit_bins)
        searches = grid_search(data, learners, plan, smote_params=smote)
        monkeypatch.undo()

        # Each fold set is binned for every n_bins a candidate asks for, the
        # refit set only for the n_bins its winners ask for.
        winners = {_build_params(kind, d, r["best_params"]).n_bins
                   for (kind, _, d), (r, _) in zip(learners, searches)}
        assert len(winners) == 2
        assert sorted(calls) == sorted([8, 16, 255] * plan.n_folds + list(winners))

        folds = make_folds(data.labels, plan)
        for (kind, _, defaults), (result, final) in zip(learners, searches):
            for cand in result["candidates"]:
                params = _build_params(kind, defaults, cand["params"])
                scores = []
                for f in range(plan.n_folds):
                    mask = folds != f
                    model = fit_learner(kind, fold_training_set(data, mask, smote), params)
                    probs = predict_proba(model, data.features[~mask])
                    scores.append(roc_auc(data.labels[~mask], probs).auc)
                assert scores == cand["fold_scores"]
            params = _build_params(kind, defaults, result["best_params"])
            alone = fit_learner(kind, fold_training_set(data, slice(None), smote), params)
            assert json.dumps(model_to_doc(final)) == json.dumps(model_to_doc(alone))


class TestLeakage:
    def test_validation_label_poisoning_never_changes_fold_model(self):
        data = make_data(n=120, seed=10)
        plan = CvPlan(n_folds=3, seed=4)
        folds = make_folds(data.labels, plan)
        params = _build_params(LEARNER_LEAFWISE, {"n_trees": 4, "seed": 1}, {})
        smote = SmoteParams(k=3, seed=2)
        mask = folds != 0

        def fold_model_doc(source):
            model = fit_learner(LEARNER_LEAFWISE, fold_training_set(source, mask, smote), params)
            return json.dumps(model_to_doc(model))

        baseline = fold_model_doc(data)
        val_rows = np.flatnonzero(~mask)
        for row in val_rows[:5]:
            poisoned = LabeledMatrix(data.features.copy(), data.labels.copy())
            poisoned.labels[row] = 1 - poisoned.labels[row]
            assert fold_model_doc(poisoned) == baseline
