import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from lime_oracle import lime_oracle
from shap_oracle import brute_shapley, explain_row, oracle_phi
from test_acceptance import _random_small_model
from test_trees import GOLDEN_DIGESTS, fit, golden_data

from riskforge.errors import DataError, SchemaError
from riskforge.explain import (
    LimeParams,
    TreeShapExplainer,
    lime_explain,
    shap_summary,
)
from riskforge.sampling import LabeledMatrix
from riskforge.trees import (
    BoostedModel,
    BoostingParams,
    ForestModel,
    ForestParams,
    TreeNode,
    predict_margin,
    predict_proba,
)
from riskforge.utils import sigmoid


def boosted(trees, d, eta=1.0, base=0.0):
    return BoostedModel(
        trees=trees, base_score=base, params=BoostingParams(learning_rate=eta),
        feature_names=tuple(f"f{i}" for i in range(d)),
    )


def forest(trees, d):
    return ForestModel(
        trees=trees, params=ForestParams(),
        feature_names=tuple(f"f{i}" for i in range(d)),
    )


def stump(feature, threshold, left_value, right_value, covers=(1.0, 1.0)):
    node = TreeNode(feature=feature, threshold=threshold, cover=covers[0] + covers[1])
    node.left = TreeNode(value=left_value, cover=covers[0])
    node.right = TreeNode(value=right_value, cover=covers[1])
    return node


def random_model(rng, d=None, n_trees=None, max_depth=4, kind=None):
    d = d or int(rng.integers(2, 9))
    n_trees = n_trees or int(rng.integers(1, 5))

    def tree(depth, cover):
        if depth == 0 or cover < 2 or rng.random() < 0.3:
            return TreeNode(value=float(rng.normal()), cover=cover)
        frac = float(rng.uniform(0.2, 0.8))
        node = TreeNode(
            feature=int(rng.integers(d)), threshold=float(rng.normal()), cover=cover
        )
        node.left = tree(depth - 1, cover * frac)
        node.right = tree(depth - 1, cover * (1 - frac))
        return node

    trees = [tree(max_depth, float(rng.uniform(10, 100))) for _ in range(n_trees)]
    kind = kind or ("boosted" if rng.random() < 0.5 else "forest")
    if kind == "boosted":
        return boosted(trees, d, eta=float(rng.uniform(0.05, 1.0)), base=float(rng.normal()))
    return forest(trees, d)


class TestTreeShapExamples:
    def test_single_stump_full_credit_to_split_feature(self):
        wa, wb = 3.0, 1.0
        a, b = 0.2, 0.8
        model = boosted([stump(0, 0.0, a, b, covers=(wa, wb))], d=3)
        base = (wa * a + wb * b) / (wa + wb)
        for x, leaf in (([-1.0, 9.0, 9.0], a), ([1.0, 9.0, 9.0], b)):
            exp = explain_row(model, np.array(x))
            assert exp.base_value == pytest.approx(base, abs=1e-12)
            assert exp.phi[0] == pytest.approx(leaf - base, abs=1e-12)
            assert exp.phi[1] == 0.0 and exp.phi[2] == 0.0

    def test_depth_two_tree_matches_brute_oracle(self):
        # Covers mimic a 4-row training set: 2/1/1 rows in the leaves.
        root = TreeNode(feature=0, threshold=0.0, cover=4.0)
        root.left = TreeNode(value=0.1, cover=2.0)
        inner = TreeNode(feature=1, threshold=0.5, cover=2.0)
        inner.left = TreeNode(value=0.6, cover=1.0)
        inner.right = TreeNode(value=0.9, cover=1.0)
        root.right = inner
        model = boosted([root], d=2, eta=0.7, base=-0.3)
        for x in ([-1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]):
            fast = explain_row(model, np.array(x))
            slow = brute_shapley(model, np.array(x))
            assert fast.phi == pytest.approx(slow.phi, abs=1e-12)
            assert fast.base_value == pytest.approx(slow.base_value, abs=1e-12)
            assert fast.margin == pytest.approx(slow.margin, abs=1e-12)

    def test_zero_tree_model_all_phi_zero(self):
        model = boosted([], d=3, base=-1.7)
        exp = explain_row(model, np.zeros(3))
        assert np.all(exp.phi == 0.0)
        assert exp.base_value == -1.7
        assert exp.margin == -1.7


class TestOracleEquivalence:
    def test_random_models_match_brute_shapley(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            model = random_model(rng)
            x = rng.normal(size=len(model.feature_names))
            fast = explain_row(model, x)
            slow = brute_shapley(model, x)
            assert fast.phi == pytest.approx(slow.phi, abs=1e-9)
            assert fast.base_value == pytest.approx(slow.base_value, abs=1e-9)

    def test_brute_coalition_extremes(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, d=4, kind="boosted")
        x = rng.normal(size=4)
        exp = brute_shapley(model, x)
        assert exp.margin == pytest.approx(
            float(predict_margin(model, x.reshape(1, -1))[0]), abs=1e-9
        )
        assert exp.base_value == pytest.approx(
            TreeShapExplainer(model).base_value, abs=1e-9
        )

    def test_brute_refuses_wide_models(self):
        model = boosted([stump(0, 0.0, 0.0, 1.0)], d=16)
        with pytest.raises(DataError, match="15"):
            brute_shapley(model, np.zeros(16))


class TestShapProperties:
    def test_additivity_on_trained_model(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(400, 6))
        y = (rng.random(400) < sigmoid(x[:, 0] - x[:, 1])).astype(int)
        model = fit(LabeledMatrix(x, y), BoostingParams(n_trees=20, seed=0))
        margins = predict_margin(model, x[:50])
        for i in range(50):
            exp = explain_row(model, x[i])
            assert exp.base_value + exp.phi.sum() == pytest.approx(
                margins[i], abs=1e-6
            )

    def test_symmetric_features_get_equal_credit(self):
        # Two stumps, one per feature, identical geometry; at a symmetric
        # input both features must receive identical attribution.
        t0 = stump(0, 0.0, -1.0, 1.0, covers=(2.0, 2.0))
        t1 = stump(1, 0.0, -1.0, 1.0, covers=(2.0, 2.0))
        model = boosted([t0, t1], d=2, eta=0.5, base=0.0)
        exp = explain_row(model, np.array([-1.0, -1.0]))
        assert exp.phi[0] == pytest.approx(exp.phi[1], abs=1e-12)

    def test_dummy_feature_gets_exactly_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model = random_model(rng, d=6)
            used = set()
            def collect(node):
                if not node.is_leaf:
                    used.add(node.feature)
                    collect(node.left)
                    collect(node.right)
            for t in model.trees:
                collect(t)
            x = rng.normal(size=6)
            exp = explain_row(model, x)
            for f in range(6):
                if f not in used:
                    assert exp.phi[f] == 0.0

    def test_forest_scale_is_probability(self):
        model = forest([stump(0, 0.0, 0.2, 0.8)], d=1)
        exp = explain_row(model, np.array([1.0]))
        assert exp.scale == "probability"
        assert exp.base_value + exp.phi.sum() == pytest.approx(0.8, abs=1e-12)

    def test_width_mismatch_rejected(self):
        model = boosted([stump(0, 0.0, 0.1, 0.9)], d=1)
        with pytest.raises(SchemaError, match="columns"):
            explain_row(model, np.zeros(3))


class TestShapSummary:
    def test_single_instance_mean_abs_is_abs_phi(self):
        model = boosted([stump(0, 0.0, -0.5, 0.5)], d=2)
        x = np.array([[1.0, 3.0]])
        summary = shap_summary(model, x)
        exp = explain_row(model, x[0])
        assert summary.mean_abs == pytest.approx(np.abs(exp.phi))

    def test_unused_feature_ranks_last_with_zero(self):
        model = boosted([stump(0, 0.0, -0.5, 0.5)], d=3)
        rng = np.random.default_rng(0)
        summary = shap_summary(model, rng.normal(size=(20, 3)))
        assert summary.mean_abs[1] == 0.0 and summary.mean_abs[2] == 0.0
        assert summary.ranking[0] == 0

    def test_ranking_is_permutation(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, d=5)
        summary = shap_summary(model, rng.normal(size=(10, 5)))
        assert sorted(summary.ranking) == list(range(5))

    def test_additivity_columns_stored(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, d=4, kind="boosted")
        x = rng.normal(size=(15, 4))
        summary = shap_summary(model, x)
        recon = summary.base_value + summary.shap_values.sum(axis=1)
        assert recon == pytest.approx(summary.margins, abs=1e-6)

    def test_empty_sample_rejected(self):
        model = boosted([stump(0, 0.0, 0.0, 1.0)], d=2)
        with pytest.raises(DataError):
            shap_summary(model, np.zeros((0, 2)))


class TestLime:
    def test_single_active_feature_dominates(self):
        d = 5
        black_box = lambda z: sigmoid(2.0 * z[:, 1])
        exp = lime_explain(
            black_box, np.zeros(d), (np.zeros(d), np.ones(d)),
            LimeParams(n_samples=4000), 3,
        )
        top_name, top_weight = exp.weights[0]
        assert top_name == "f1"
        for _, w in exp.weights[1:]:
            assert abs(w) < 0.1 * abs(top_weight)

    def test_constant_black_box(self):
        d = 4
        exp = lime_explain(
            lambda z: np.full(len(z), 0.7), np.zeros(d),
            (np.zeros(d), np.ones(d)), LimeParams(n_samples=500), 1,
        )
        assert exp.intercept == pytest.approx(0.7, abs=1e-6)
        for _, w in exp.weights:
            assert abs(w) < 1e-6
        assert exp.r2 == 1.0

    def test_same_seed_identical_explanation(self):
        d = 3
        bb = lambda z: sigmoid(z[:, 0] - 2 * z[:, 2])
        kwargs = dict(
            feature_stats=(np.zeros(d), np.ones(d)),
            params=LimeParams(n_samples=800),
            seed=11,
        )
        a = lime_explain(bb, np.zeros(d), **kwargs)
        b = lime_explain(bb, np.zeros(d), **kwargs)
        assert a.weights == b.weights
        assert a.intercept == b.intercept and a.r2 == b.r2

    def test_linear_logit_sign_recovery(self):
        d = 4
        coefs = np.array([1.5, -2.0, 0.8, -0.6])
        bb = lambda z: sigmoid(z @ coefs)
        exp = lime_explain(
            bb, np.zeros(d), (np.zeros(d), np.ones(d)),
            LimeParams(n_samples=6000), 21,
        )
        got = dict(exp.weights)
        for i, c in enumerate(coefs):
            assert np.sign(got[f"f{i}"]) == np.sign(c)

    def test_top_k_truncation(self):
        d = 8
        bb = lambda z: sigmoid(z.sum(axis=1))
        exp = lime_explain(
            bb, np.zeros(d), (np.zeros(d), np.ones(d)),
            LimeParams(n_samples=2000, top_k=3), 2,
        )
        assert len(exp.weights) == 3

    def test_too_few_samples_rejected(self):
        d = 6
        with pytest.raises(DataError, match="n_samples"):
            lime_explain(
                lambda z: np.zeros(len(z)), np.zeros(d),
                (np.zeros(d), np.ones(d)), LimeParams(n_samples=5), 0,
            )

    def test_works_on_fitted_model(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 3))
        y = (rng.random(300) < sigmoid(2 * x[:, 0])).astype(int)
        model = fit(LabeledMatrix(x, y), BoostingParams(n_trees=10, seed=0))
        exp = lime_explain(
            lambda m: predict_proba(model, m), x[0], (x.mean(axis=0), x.std(axis=0)),
            LimeParams(n_samples=1000), 5,
            feature_names=("a", "b", "c"),
        )
        assert exp.weights[0][0] in ("a", "b", "c")
        assert 0.0 <= exp.prediction <= 1.0


def lime_hex(exp):
    """Every float of a LIME explanation as exact hex text."""
    return (
        exp.intercept.hex(),
        [(name, w.hex()) for name, w in exp.weights],
        exp.r2.hex(),
        exp.prediction.hex(),
    )


def assert_lime_matches_oracle(predict, instance, stats, params, seed):
    got = lime_explain(predict, instance, stats, params, seed)
    assert lime_hex(got) == lime_hex(lime_oracle(predict, instance, stats, params, seed))


class TestLimeMatchesOracle:
    """The two reused arrays of ``lime_explain`` give the oracle's bits."""

    @pytest.mark.parametrize("learner", sorted(GOLDEN_DIGESTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_samples", [6, 100, 5000])
    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_golden_models(self, learner, seed, n_samples, alpha):
        # golden_data has 4 features, so 6 is the fewest samples allowed;
        # its feature 3 is constant, so its sd is zero. alpha 0 solves the
        # weighted least squares without a ridge.
        x = golden_data().features
        stats = (x.mean(axis=0), x.std(axis=0))
        assert stats[1][3] == 0.0
        params = LimeParams(n_samples=n_samples, top_k=4, alpha=alpha)
        predict = functools.partial(predict_proba, golden_model(learner))
        assert_lime_matches_oracle(predict, x[seed], stats, params, seed)

    @pytest.mark.parametrize("kind", ["boosted", "forest"])
    @pytest.mark.parametrize("n_samples", [31, 100, 5000])
    def test_wide_random_models(self, kind, n_samples):
        # 29 features, as the shipped pipeline makes: each squared distance
        # sums more than one block of the pairwise reduction.
        rng = np.random.default_rng(29)
        model = random_model(rng, d=29, n_trees=8, max_depth=6, kind=kind)
        mu, sd = rng.normal(size=29), np.abs(rng.normal(size=29))
        sd[[3, 17]] = 0.0
        predict = functools.partial(predict_proba, model)
        for seed in range(3):
            params = LimeParams(n_samples=n_samples, top_k=29)
            assert_lime_matches_oracle(predict, rng.normal(size=29), (mu, sd), params, seed)

    @pytest.mark.parametrize("n_samples", [5000, 20000])
    def test_peak_memory_is_two_design_arrays(self, n_samples):
        d = 29
        coefs = np.linspace(-1.0, 1.0, d)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lime_explain(
                lambda z: z @ coefs, np.zeros(d), (np.zeros(d), np.ones(d)),
                LimeParams(n_samples=n_samples), 1,
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_samples * (d + 1) * 8

    def test_predict_gets_column_major_batch(self):
        d = 5
        instance = np.arange(d, dtype=np.float64)

        def predict(batch):
            assert batch.shape == (301, d) and batch.T.flags.c_contiguous
            assert np.array_equal(batch[0], instance)
            return sigmoid(batch[:, 0] - batch[:, 2])

        exp = lime_explain(predict, instance, (np.zeros(d), np.ones(d)), LimeParams(300), 4)
        assert exp.prediction == float(sigmoid(np.float64(-2.0)))


def golden_model(learner):
    params, _ = GOLDEN_DIGESTS[learner]
    return fit(golden_data(), params)


#: SHA-256 of the base value's bytes followed by every row's ``phi`` bytes,
#: explaining ``golden_data()`` with each model of ``GOLDEN_DIGESTS`` by the
#: scalar oracle; recorded with numpy 2.4 on x86-64. The oracle tests allow
#: 1e-9, so only this catches a last-bit change in the oracle or the base value.
SHAP_GOLDEN_DIGESTS = {
    "forest": "41aa48fbbb0791a3204020f9750dc16bb6178c07485eb232e35a56d9593886b0",
    "leaf_wise": "31e1781b8f677b7faf12ae9b8db5d4a0cafa2a5e9970c2c6e1d7e31f49a8f563",
    "level_wise": "7a5bfd65388b838774d205b51cf8c3148d5c47a727485c899566fc0c7402aa88",
}

#: The same digests for the batch kernel (``TreeShapExplainer.shap_values``),
#: recorded with numpy 2.4 on x86-64.
SHAP_BATCH_GOLDEN_DIGESTS = {
    "forest": "f8600221635bda3e81618dda2090294333ed67554cdacdc69a5132afd8c4c20c",
    "leaf_wise": "d36adb76e2902d2277ba239ffd6f607ba36fb016274ec2c8721e5f084ac1ad56",
    "level_wise": "eb856066c1c19e9bbfe8ec0fde9beffb8289bd78e1aaf802f55e794577a11211",
}


@pytest.mark.parametrize("learner", sorted(SHAP_GOLDEN_DIGESTS))
def test_shap_matches_golden_digest(learner):
    model = golden_model(learner)
    digest = hashlib.sha256(np.float64(TreeShapExplainer(model).base_value).tobytes())
    for row in golden_data().features:
        digest.update(oracle_phi(model, row).tobytes())
    assert digest.hexdigest() == SHAP_GOLDEN_DIGESTS[learner]


@pytest.mark.parametrize("learner", sorted(SHAP_BATCH_GOLDEN_DIGESTS))
def test_batch_shap_matches_golden_digest(learner):
    explainer = TreeShapExplainer(golden_model(learner))
    digest = hashlib.sha256(np.float64(explainer.base_value).tobytes())
    digest.update(explainer.shap_values(golden_data().features).tobytes())
    assert digest.hexdigest() == SHAP_BATCH_GOLDEN_DIGESTS[learner]


def assert_batch_matches_oracle(model, x):
    batch = TreeShapExplainer(model).shap_values(x)
    assert batch.shape == x.shape
    for row, phi in zip(x, batch):
        assert np.max(np.abs(phi - oracle_phi(model, row))) <= 1e-12


class TestBatchShap:
    @pytest.mark.parametrize("learner", sorted(GOLDEN_DIGESTS))
    def test_matches_scalar_oracle_on_golden_models(self, learner):
        assert_batch_matches_oracle(golden_model(learner), golden_data().features)

    @pytest.mark.parametrize("learner", sorted(GOLDEN_DIGESTS))
    def test_nan_column_goes_right_like_the_oracle(self, learner):
        model = golden_model(learner)
        x = golden_data().features.copy()
        x[:, 0] = np.nan
        assert_batch_matches_oracle(model, x)
        x[::2, 1] = np.nan
        assert_batch_matches_oracle(model, x)

    def test_matches_brute_shapley_on_random_models(self):
        # The random ensembles of acceptance criterion 1, four rows each; one
        # row has a NaN cell, which brute_shapley also sends right.
        rng = np.random.default_rng(2024)
        for _ in range(50):
            model = _random_small_model(rng)
            x = rng.normal(size=(4, len(model.feature_names)))
            x[3, int(rng.integers(x.shape[1]))] = np.nan
            batch = TreeShapExplainer(model).shap_values(x)
            for row, phi in zip(x, batch):
                assert np.max(np.abs(phi - brute_shapley(model, row).phi)) < 1e-9

    def test_feature_split_twice_in_both_directions(self):
        # Path to leaf 0.6: f0 <= 1, then f1 <= 0, then f0 > -1, so f0 is one
        # element with interval (-1, 1] and both cover ratios multiplied.
        root = TreeNode(feature=0, threshold=1.0, cover=10.0)
        root.right = TreeNode(value=-0.5, cover=4.0)
        mid = root.left = TreeNode(feature=1, threshold=0.0, cover=6.0)
        mid.right = TreeNode(value=0.2, cover=2.0)
        inner = mid.left = TreeNode(feature=0, threshold=-1.0, cover=4.0)
        inner.left = TreeNode(value=-0.3, cover=1.0)
        inner.right = TreeNode(value=0.6, cover=3.0)
        model = boosted([root], d=2, eta=0.5, base=0.1)
        x = np.array(
            [[v, w] for v in (-2.0, -1.0, 0.0, 1.0, 2.0, np.nan) for w in (-1.0, 0.0, 1.0, np.nan)]
        )
        assert_batch_matches_oracle(model, x)
        batch = TreeShapExplainer(model).shap_values(x)
        for row, phi in zip(x, batch):
            assert np.max(np.abs(phi - brute_shapley(model, row).phi)) < 1e-12

    def test_root_leaf_tree_adds_nothing(self):
        lone = TreeNode(value=0.4, cover=5.0)
        x = np.array([[-1.0, 0.0], [1.0, np.nan]])
        assert np.all(TreeShapExplainer(boosted([lone], d=2)).shap_values(x) == 0.0)
        model = boosted([lone, stump(1, 0.0, -1.0, 1.0)], d=2)
        with_lone = TreeShapExplainer(model).shap_values(x)
        alone = TreeShapExplainer(boosted([stump(1, 0.0, -1.0, 1.0)], d=2)).shap_values(x)
        assert np.array_equal(with_lone, alone)
        assert_batch_matches_oracle(model, x)

    def test_zero_tree_model(self):
        phi = TreeShapExplainer(boosted([], d=3, base=-1.7)).shap_values(np.ones((4, 3)))
        assert phi.shape == (4, 3) and np.all(phi == 0.0)

    @pytest.mark.parametrize("learner", sorted(GOLDEN_DIGESTS))
    def test_row_phi_does_not_depend_on_its_batch(self, learner):
        explainer = TreeShapExplainer(golden_model(learner))
        x = golden_data().features
        tiled = np.tile(x, (explainer.chunk_rows // len(x) + 2, 1))  # spans two chunks
        order = np.random.default_rng(3).permutation(len(tiled))
        batch = explainer.shap_values(tiled)
        shuffled = explainer.shap_values(tiled[order])
        assert np.array_equal(shuffled, batch[order])
        for i in range(len(x)):
            alone = explainer.shap_values(x[i : i + 1])[0]
            assert np.array_equal(alone, batch[i])
            assert np.array_equal(alone, batch[i + len(x)])

    def test_scratch_memory_does_not_grow_with_rows(self):
        rng = np.random.default_rng(11)

        def full_tree(depth, cover):
            if depth == 0:
                return TreeNode(value=float(rng.normal()), cover=cover)
            node = TreeNode(feature=int(rng.integers(8)), threshold=float(rng.normal()), cover=cover)
            node.left, node.right = full_tree(depth - 1, cover / 3), full_tree(depth - 1, cover * 2 / 3)
            return node

        explainer = TreeShapExplainer(boosted([full_tree(7, 100.0) for _ in range(3)], d=8))
        assert explainer.chunk_rows < 1000
        x = rng.normal(size=(4000, 8))
        peaks = []
        tracemalloc.start()
        try:
            for rows in (1000, 4000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                explainer.shap_values(x[:rows])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4000 * 8 * 8
