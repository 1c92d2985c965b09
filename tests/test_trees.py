import hashlib
import json
import math
import sys

import numpy as np
import pytest
import split_oracle

from riskforge import trees
from riskforge.errors import DataError, SchemaError
from riskforge.explain import shap_summary
from riskforge.sampling import LabeledMatrix
from riskforge.trees import (
    GROWTH_LEAF,
    GROWTH_LEVEL,
    MAX_TREE_DEPTH,
    BinnedSet,
    BoostedModel,
    BoostingParams,
    ForestModel,
    ForestParams,
    TreeNode,
    bin_matrix,
    fit_bins,
    fit_boosted,
    fit_forest,
    leaf_value,
    logistic_grad_hess,
    model_from_doc,
    model_to_doc,
    predict_margin,
    predict_proba,
    split_gain,
)
from riskforge.utils import sigmoid


def separable_1d(n_per_side=100, seed=0):
    """Perfectly separable 1-D data with few enough unique values that the
    quantile binning keeps every point in its own bin."""
    rng = np.random.default_rng(seed)
    neg = rng.uniform(-1.0, -0.01, n_per_side)
    pos = rng.uniform(0.01, 1.0, n_per_side)
    x = np.concatenate([neg, pos]).reshape(-1, 1)
    y = np.array([0] * n_per_side + [1] * n_per_side)
    return LabeledMatrix(x, y)


def random_data(n=400, d=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    margin = -1.0 + 1.3 * x[:, 0] - 0.9 * x[:, 1]
    y = (rng.random(n) < sigmoid(margin)).astype(int)
    return LabeledMatrix(x, y)


def fit(data, params):
    """The model of ``params``' learner, fitted on ``data`` binned for
    ``params.n_bins``."""
    learner = fit_forest if isinstance(params, ForestParams) else fit_boosted
    return learner(BinnedSet.of(data, params.n_bins), params)


class TestGradHess:
    def test_symmetry_point_positive_label(self):
        assert logistic_grad_hess(0.5, 1) == (-0.5, 0.25)

    def test_symmetry_point_negative_label(self):
        assert logistic_grad_hess(0.5, 0) == (0.5, 0.25)

    def test_confident_correct(self):
        g, h = logistic_grad_hess(0.9, 1)
        assert g == pytest.approx(-0.1)
        assert h == pytest.approx(0.09)

    def test_vectorized(self):
        g, h = logistic_grad_hess(np.array([0.5, 0.9]), np.array([1, 1]))
        assert g == pytest.approx([-0.5, -0.1])
        assert h == pytest.approx([0.25, 0.09])


class TestSplitGain:
    def test_even_split_zero_gain(self):
        assert split_gain(-1.0, 1.0, -1.0, 1.0, 0.0, 0.0) == 0.0

    def test_opposed_gradients(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 0.0) == 4.0

    def test_gamma_pushes_gain_negative(self):
        assert split_gain(-0.5, 1.0, 0.5, 1.0, 0.0, 10.0) < 0.0


class TestLeafValue:
    def test_hand_value(self):
        assert leaf_value(-2.0, 4.0, 1.0) == pytest.approx(0.4)

    def test_zero_gradient(self):
        assert leaf_value(0.0, 3.0, 1.0) == 0.0

    def test_large_lambda_shrinks_toward_zero(self):
        small = abs(leaf_value(-2.0, 4.0, 1e9))
        assert small < 1e-8
        assert leaf_value(-2.0, 4.0, 1e9) > 0  # sign preserved

    def test_zero_denominator_rejected(self):
        with pytest.raises(DataError):
            leaf_value(1.0, 0.0, 0.0)


class TestBins:
    def test_edges_strictly_increasing(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 3))
        x[:, 1] = np.round(x[:, 1])  # heavy ties
        for e in fit_bins(x, 16):
            assert np.all(np.diff(e) > 0)

    def test_every_value_maps_to_exactly_one_bin(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        edges = fit_bins(x, 8)
        codes = bin_matrix(edges, x)
        for f in range(2):
            assert codes[:, f].min() >= 0
            assert codes[:, f].max() <= len(edges[f])

    def test_constant_feature_gets_no_edges(self):
        x = np.ones((10, 1))
        assert fit_bins(x, 8)[0].size == 0

    def test_threshold_routing_matches_binning(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 1))
        edges = fit_bins(x, 8)
        codes = bin_matrix(edges, x)[:, 0]
        for i, edge in enumerate(edges[0]):
            left_by_value = x[:, 0] <= edge
            left_by_code = codes <= i
            assert np.array_equal(left_by_value, left_by_code)

    def test_too_few_bins_rejected(self):
        with pytest.raises(DataError):
            fit_bins(np.ones((5, 1)), 1)


def per_feature_histograms(binned, rows, feats, stride, weights):
    """Reference for the kernel: one np.bincount per feature and quantity."""
    count = np.array([np.bincount(binned[rows, f], minlength=stride) for f in feats])
    weighted = [
        np.array([np.bincount(binned[rows, f], w[rows], minlength=stride) for f in feats])
        for w in weights
    ]
    return count, weighted


class TestHistograms:
    """The (features x bins) kernel against per-feature bincounts, bit for bit."""

    def check(self, x, rows, feats, weights, n_bins=16):
        train = BinnedSet.of(LabeledMatrix(x, np.zeros(len(x), dtype=int)), n_bins)
        binned = bin_matrix(train.edges, x)
        count, weighted = train.histograms(rows, np.asarray(feats), weights)
        ref_count, ref_weighted = per_feature_histograms(
            binned, rows, feats, train.stride, weights
        )
        assert np.array_equal(count, ref_count)
        assert len(weighted) == len(weights)
        for got, want in zip(weighted, ref_weighted):
            assert np.array_equal(got, want)
        return count, weighted

    def test_single_row(self):
        x = np.array([[0.3], [0.7]])  # one edge, 0.5; row 1 lies above it
        w = (np.array([9.0, 0.3]), np.array([9.0, 0.2]))
        (c,), ((g,), (h,)) = self.check(x, np.array([1]), [0], w)
        assert g.tolist() == [0.0, 0.3] and h.tolist() == [0.0, 0.2]
        assert c.tolist() == [0, 1]

    def test_same_bin_rows_aggregate(self):
        x = np.array([[0.1], [0.2], [0.9]])  # two bins: the median, 0.2, is the edge
        w = (np.array([1.0, 2.0, 9.0]), np.array([0.1, 0.2, 9.0]))
        (c,), ((g,), (h,)) = self.check(x, np.array([0, 1]), [0], w, n_bins=2)
        assert g[0] == 3.0 and h[0] == 0.1 + 0.2 and c[0] == 2

    def test_partition_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(150, 4))
        g, h = rng.normal(size=150), rng.random(150)
        rows = rng.permutation(150)[:75]
        count, (gb, hb) = self.check(x, rows, range(4), (g, h))
        assert np.all(count.sum(axis=1) == rows.size)
        assert gb.sum(axis=1) == pytest.approx([g[rows].sum()] * 4, abs=1e-9)
        assert hb.sum(axis=1) == pytest.approx([h[rows].sum()] * 4, abs=1e-9)

    def test_strict_feature_subset(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 5))
        x[:, 3] = np.round(x[:, 3])  # fewer bins than the widest feature
        count, _ = self.check(x, np.arange(0, 120, 3), [1, 3, 4], (rng.normal(size=120),))
        assert count.shape[0] == 3

    def test_all_features_match_each_strict_subset(self):
        """Every feature skips the column take; each strict subset's rows
        must still be the all-features rows, bit for bit."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(90, 4))
        g = rng.normal(size=90)
        rows = rng.permutation(90)[:50]
        count, (gb,) = self.check(x, rows, np.arange(4), (g,))
        for feats in ([0], [1, 3], [0, 1, 2]):
            sub_count, (sub_gb,) = self.check(x, rows, feats, (g,))
            assert np.array_equal(sub_count, count[feats])
            assert np.array_equal(sub_gb, gb[feats])

    def test_constant_feature(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 3))
        x[:, 1] = 2.5
        count, _ = self.check(x, np.arange(60), [0, 1, 2], (rng.random(60),))
        assert count[1, 0] == 60 and count[1, 1:].sum() == 0

    def test_stride_is_at_least_two(self):
        train = BinnedSet.of(LabeledMatrix(np.ones((4, 2)), np.zeros(4, dtype=int)), 8)
        assert train.stride == 2
        assert train.codes[:, 1].tolist() == [2] * 4


def random_node(seed):
    """A seeded split-search node: a small matrix with constant, one-hot,
    few-valued and continuous features binned for 2, 4, 16 or 255 bins; a
    row sample (distinct, or drawn with replacement as for a bootstrap
    tree); a feature subset; gradients, hessians (some or all zero, or both
    zero on some rows) and class-1 indicators; and boosting params with
    lambda 0 or 1 and min_child_weight 0, 0.5 or 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    cols = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.integers(4)
        if kind == 0:
            cols.append(np.full(n, rng.normal()))
        elif kind == 1:
            cols.append((rng.random(n) < rng.random()).astype(float))
        elif kind == 2:
            cols.append(rng.integers(0, rng.integers(2, 6), n).astype(float))
        else:
            cols.append(np.round(rng.normal(size=n), int(rng.integers(1, 4))))
    x = np.column_stack(cols)
    y = (rng.random(n) < 0.4).astype(int)
    train = BinnedSet.of(LabeledMatrix(x, y), int(rng.choice([2, 4, 16, 255])))
    m = int(rng.integers(1, n + 1))
    if rng.random() < 0.5:
        rows = np.sort(rng.permutation(n)[:m])
    else:
        rows = rng.integers(0, n, size=m)
    d = x.shape[1]
    feats = np.arange(d)
    if rng.random() < 0.5:
        feats = np.sort(rng.permutation(d)[: rng.integers(1, d + 1)])
    g = rng.normal(size=n)
    h = rng.random(n) * 0.25
    zero = rng.random()
    if zero < 0.2:
        h[:] = 0.0
    elif zero < 0.4:
        h[rng.random(n) < 0.5] = 0.0
    elif zero < 0.6:  # saturated rows: with lambda 0 a child of only these gains 0/0
        saturated = rng.random(n) < 0.5
        g[saturated] = h[saturated] = 0.0
    prm = BoostingParams(
        l2_regularization=float(rng.choice([0.0, 1.0])),
        min_child_weight=float(rng.choice([0.0, 0.5, 1.0])),
    )
    return train, rows, feats, g, h, y.astype(np.float64), prm


_BOOSTED_FITS = [
    BoostingParams(n_trees=4, max_leaves=9, n_bins=16, feature_fraction=0.75, seed=1),
    BoostingParams(n_trees=4, max_leaves=31, l2_regularization=0.0, min_child_weight=0.0),
    BoostingParams(n_trees=4, max_leaves=15, n_bins=4, min_child_weight=0.5, feature_fraction=0.5),
    BoostingParams(n_trees=4, max_depth=4, n_bins=16, growth=GROWTH_LEVEL, seed=2),
    BoostingParams(
        n_trees=4, max_depth=6, l2_regularization=0.0, min_child_weight=0.0,
        feature_fraction=0.6, growth=GROWTH_LEVEL,
    ),
    BoostingParams(n_trees=4, max_depth=3, n_bins=2, growth=GROWTH_LEVEL),
]
_FOREST_FITS = [
    ForestParams(n_trees=3, max_depth=6, n_bins=16, seed=4),
    ForestParams(n_trees=3, max_depth=8, feature_fraction=1.0, bootstrap=False),
    ForestParams(n_trees=3, max_depth=5, n_bins=4, feature_fraction=0.3),
]
#: (params, name in ``riskforge.trees``, oracle patched in under that name):
#: each boosted fit once with the full-slot search alone and once with the
#: grower that searches every node below the depth cap.
WHOLE_FIT_CASES = (
    [(p, "_best_split_boosted", split_oracle.best_split_boosted) for p in _BOOSTED_FITS]
    + [(p, "_grow_boosted", split_oracle.grow_boosted) for p in _BOOSTED_FITS]
    + [(p, "_best_split_gini", split_oracle.best_split_gini) for p in _FOREST_FITS]
)


class TestSplitSearchMatchesOracle:
    """Occupied-candidate scoring against the full-slot search it replaced:
    the same (feature, edge index, gain), bit for bit."""

    def test_random_nodes(self):
        seen = {"split": 0, "none": 0, "small_h": 0, "lambda0_zero_h": 0, "gini_split": 0}
        for seed in range(1200):
            train, rows, feats, g, h, y1, prm = random_node(seed)
            g_sum, h_sum = float(g[rows].sum()), float(h[rows].sum())
            got = trees._best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum)
            want = split_oracle.best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum)
            assert got == want, seed
            seen["split" if want else "none"] += 1
            if h_sum < 2 * prm.min_child_weight:  # _grow_boosted does not search it
                assert want is None, seed
                seen["small_h"] += 1
            if prm.l2_regularization == 0 and not h[rows].all():
                seen["lambda0_zero_h"] += 1
            got = trees._best_split_gini(train, rows, y1, feats)
            assert got == split_oracle.best_split_gini(train, rows, y1, feats), seed
            seen["gini_split"] += got is not None
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("case", range(len(WHOLE_FIT_CASES)))
    def test_whole_fit_docs_equal(self, case, monkeypatch):
        params, name, oracle = WHOLE_FIT_CASES[case]
        data = golden_data()
        with monkeypatch.context() as patch:
            patch.setattr(trees, name, oracle)
            want = json.dumps(model_to_doc(fit(data, params)))
        assert json.dumps(model_to_doc(fit(data, params))) == want


#: ``_best_split_boosted`` calls of two small seeded fits. Searching every
#: node below the depth cap takes 232 (leaf-wise) and 120 (level-wise) calls
#: here. A change that searches more nodes must say why and record new ones.
SEARCH_CALLS = {GROWTH_LEAF: 161, GROWTH_LEVEL: 115}


@pytest.mark.parametrize("growth", sorted(SEARCH_CALLS))
def test_split_search_call_count(growth, monkeypatch):
    search, calls = trees._best_split_boosted, []

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(trees, "_best_split_boosted", counted)
    params = BoostingParams(n_trees=8, max_leaves=15, max_depth=4, growth=growth, seed=5)
    fit(random_data(n=300, d=5, seed=8), params)
    assert len(calls) == SEARCH_CALLS[growth]


def walk(node, fn):
    fn(node)
    if not node.is_leaf:
        walk(node.left, fn)
        walk(node.right, fn)


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def leaf_count(node):
    return 1 if node.is_leaf else leaf_count(node.left) + leaf_count(node.right)


class TestBoosted:
    @pytest.mark.parametrize("growth", [GROWTH_LEVEL, GROWTH_LEAF])
    def test_separable_data_reaches_full_accuracy(self, growth):
        data = separable_1d()
        model = fit(data, BoostingParams(n_trees=10, growth=growth, seed=0))
        pred = (predict_proba(model, data.features) >= 0.5).astype(int)
        assert np.array_equal(pred, data.labels)

    def test_base_score_is_log_odds_of_prior(self):
        data = random_data()
        model = fit(data, BoostingParams(n_trees=1, seed=0))
        ybar = data.labels.mean()
        assert model.base_score == pytest.approx(math.log(ybar / (1 - ybar)))

    @pytest.mark.parametrize("growth", [GROWTH_LEVEL, GROWTH_LEAF])
    def test_train_loss_never_increases(self, growth):
        data = random_data(seed=5)
        model = fit(data, BoostingParams(n_trees=40, growth=growth, seed=1))
        losses = np.array(model.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_leafwise_round_no_worse_than_levelwise_at_equal_leaves(self):
        data = random_data(n=800, d=6, seed=9)
        depth = 3
        level = fit(
            data,
            BoostingParams(n_trees=1, max_depth=depth, growth=GROWTH_LEVEL, seed=2),
        )
        leaf = fit(
            data,
            BoostingParams(
                n_trees=1, max_leaves=2**depth, growth=GROWTH_LEAF, seed=2
            ),
        )
        assert leaf.train_loss[0] <= level.train_loss[0] + 1e-12

    def test_chosen_split_beats_every_candidate(self):
        # Oracle: recompute the gain of every (feature, edge) candidate at the
        # root from raw sums and compare with the split the grower picked.
        data = random_data(n=300, d=4, seed=3)
        prm = BoostingParams(n_trees=1, max_depth=1, growth=GROWTH_LEVEL, seed=0)
        model = fit(data, prm)
        root = model.trees[0]
        assert not root.is_leaf
        p0 = sigmoid(model.base_score)
        g = p0 - data.labels.astype(float)
        h = np.full_like(g, p0 * (1 - p0))
        edges = fit_bins(data.features, prm.n_bins)
        best = -np.inf
        arg = None
        for f in range(4):
            for edge in edges[f]:
                left = data.features[:, f] <= edge
                if left.sum() == 0 or left.sum() == len(g):
                    continue
                gl, hl = g[left].sum(), h[left].sum()
                gr, hr = g[~left].sum(), h[~left].sum()
                if hl < prm.min_child_weight or hr < prm.min_child_weight:
                    continue
                gain = split_gain(gl, hl, gr, hr, prm.l2_regularization, 0.0)
                if gain > best:
                    best, arg = gain, (f, float(edge))
        assert (root.feature, root.threshold) == arg

    def test_every_threshold_is_a_bin_edge(self):
        data = random_data(n=500, d=4, seed=6)
        prm = BoostingParams(n_trees=5, seed=1)
        model = fit(data, prm)
        edges = [set(e.tolist()) for e in fit_bins(data.features, prm.n_bins)]

        def check(node):
            if not node.is_leaf:
                assert node.threshold in edges[node.feature]

        for tree in model.trees:
            walk(tree, check)

    def test_cover_bookkeeping(self):
        data = random_data(n=500, d=4, seed=7)
        model = fit(data, BoostingParams(n_trees=5, seed=1))

        def check(node):
            if not node.is_leaf:
                assert node.cover == pytest.approx(
                    node.left.cover + node.right.cover, abs=1e-9
                )

        for tree in model.trees:
            walk(tree, check)

    def test_max_leaves_respected(self):
        # Leaf-wise growth has a leaf budget and no depth cap.
        data = random_data(n=600, d=5, seed=8)
        model = fit(
            data,
            BoostingParams(
                n_trees=3, max_leaves=7, max_depth=2, growth=GROWTH_LEAF, seed=0
            ),
        )
        assert all(leaf_count(tree) <= 7 for tree in model.trees)
        assert max(depth(tree) for tree in model.trees) > 2

    def test_levelwise_caps_depth_not_leaves(self):
        # Level-wise growth has a depth cap and no leaf budget.
        data = random_data(n=600, d=5, seed=8)
        model = fit(
            data,
            BoostingParams(
                n_trees=3, max_depth=3, max_leaves=2, growth=GROWTH_LEVEL, seed=0
            ),
        )
        assert all(depth(tree) <= 3 for tree in model.trees)
        assert max(leaf_count(tree) for tree in model.trees) > 2

    def test_leafwise_gain_tie_goes_to_earlier_node(self):
        # Two mirrored halves: column 0 tells them apart and the labels of the
        # second half are flipped, so after the root split on column 0 both
        # children offer bitwise-equal gains. The left child was created
        # first, so with a budget of three leaves only it splits.
        rng = np.random.default_rng(4)
        half = np.round(rng.normal(size=(60, 2)), 1)
        y = (half[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        x = np.column_stack([np.repeat([0.0, 1.0], 60), np.vstack([half, half])])
        data = LabeledMatrix(x, np.concatenate([y, 1 - y]))
        model = fit(
            data, BoostingParams(n_trees=1, max_leaves=3, growth=GROWTH_LEAF, seed=0)
        )
        root = model.trees[0]
        assert root.feature == 0
        assert not root.left.is_leaf and root.right.is_leaf

    def test_fixed_seed_byte_identical_docs(self):
        data = random_data(seed=10)
        prm = BoostingParams(n_trees=8, seed=77, feature_fraction=0.6)
        doc1 = json.dumps(model_to_doc(fit(data, prm)), sort_keys=True)
        doc2 = json.dumps(model_to_doc(fit(data, prm)), sort_keys=True)
        assert doc1 == doc2

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            fit(
                LabeledMatrix(np.zeros((10, 2)), np.zeros(10, dtype=int)),
                BoostingParams(n_trees=1),
            )

    def test_bad_params_rejected(self):
        with pytest.raises(DataError):
            BoostingParams(n_bins=1)
        with pytest.raises(DataError):
            BoostingParams(learning_rate=0.0)
        with pytest.raises(DataError):
            BoostingParams(growth="sideways")
        for bad in (0, 1):
            with pytest.raises(DataError, match="max_leaves"):
                BoostingParams(max_leaves=bad)
        for bad in (0, -3):
            with pytest.raises(DataError, match="max_depth"):
                BoostingParams(max_depth=bad, growth=GROWTH_LEVEL)


def stump(feature, threshold, left_value, right_value, cover=(1.0, 1.0)):
    node = TreeNode(feature=feature, threshold=threshold, cover=cover[0] + cover[1])
    node.left = TreeNode(value=left_value, cover=cover[0])
    node.right = TreeNode(value=right_value, cover=cover[1])
    return node


class TestPredict:
    def test_zero_tree_boosted_predicts_sigmoid_base(self):
        model = BoostedModel(
            trees=[], base_score=-1.5, params=BoostingParams(),
            feature_names=("a", "b"),
        )
        probs = predict_proba(model, np.zeros((3, 2)))
        assert probs == pytest.approx([sigmoid(-1.5)] * 3)

    def test_learning_rate_comes_from_params(self):
        model = BoostedModel(
            trees=[stump(0, 0.0, -3.0, 3.0)], base_score=0.4,
            params=BoostingParams(learning_rate=0.25),
            feature_names=("a",),
        )
        margin = predict_margin(model, np.array([[-1.0], [1.0]]))
        assert margin.tolist() == [0.4 - 0.75, 0.4 + 0.75]

    def test_sigmoid_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_forest_prediction_is_mean_of_trees(self):
        model = ForestModel(
            trees=[stump(0, 0.0, 0.2, 0.2), stump(0, 0.0, 0.6, 0.6)],
            params=ForestParams(), feature_names=("a",),
        )
        assert predict_proba(model, np.array([[5.0]])) == pytest.approx([0.4])

    def test_width_mismatch_rejected(self):
        model = ForestModel(
            trees=[stump(0, 0.0, 0.1, 0.9)],
            params=ForestParams(), feature_names=("a",),
        )
        with pytest.raises(SchemaError, match="columns"):
            predict_proba(model, np.zeros((2, 3)))


#: Split thresholds of the random trees; the random matrices reuse them as
#: cells, so some rows fall exactly on a threshold.
THRESHOLDS = (-1.5, -0.5, 0.0, 0.25, 1.0, 2.0)
N_FEATURES = 4


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return TreeNode(value=float(rng.normal()))
    return TreeNode(
        feature=int(rng.integers(N_FEATURES)),
        threshold=float(rng.choice(THRESHOLDS)),
        left=random_tree(rng, depth - 1),
        right=random_tree(rng, depth - 1),
        value=float(rng.normal()),  # never read: only leaves are
    )


def random_models(seed):
    rng = np.random.default_rng(seed)
    names = tuple(f"f{i}" for i in range(N_FEATURES))
    boosted = BoostedModel(
        trees=[random_tree(rng, 5) for _ in range(7)], base_score=float(rng.normal()),
        params=BoostingParams(learning_rate=0.3),
        feature_names=names,
    )
    forest = ForestModel(
        trees=[random_tree(rng, 5) for _ in range(5)], params=ForestParams(),
        feature_names=names,
    )
    return boosted, forest


def random_cells(seed, n):
    """Normal draws mixed with threshold values, NaN and +-inf."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, N_FEATURES))
    special = np.array([*THRESHOLDS, np.nan, np.inf, -np.inf])
    pick = rng.random(x.shape) < 0.4
    x[pick] = rng.choice(special, size=int(pick.sum()))
    return x


def scalar_margin(model, x):
    """Oracle: walk every tree once per row with a scalar comparison, and add
    the leaf values in tree order, as ``predict_margin`` does."""
    out = []
    for row in np.asarray(x, dtype=np.float64).reshape(-1, N_FEATURES):
        leaves = []
        for node in model.trees:
            while node.left is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            leaves.append(node.value)
        if isinstance(model, BoostedModel):
            total = model.base_score
            for v in leaves:
                total += model.params.learning_rate * v
        else:
            total = 0.0
            for v in leaves:
                total += v
            total /= len(model.trees)
        out.append(total)
    return np.array(out, dtype=np.float64)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
class TestPredictMatchesScalarWalk:
    """``predict_margin`` equals a per-row scalar tree walk bit for bit."""

    def test_batch_with_nan_inf_and_threshold_cells(self, seed):
        x = random_cells(seed, 300)
        for model in random_models(seed):
            assert_bitwise(predict_margin(model, x), scalar_margin(model, x))

    def test_nan_goes_right_and_threshold_goes_left(self, seed):
        for model in random_models(seed):
            for cell in (np.nan, np.inf, -np.inf, *THRESHOLDS):
                x = np.full((1, N_FEATURES), cell)
                assert_bitwise(predict_margin(model, x), scalar_margin(model, x))

    def test_empty_batch_and_single_row(self, seed):
        x = random_cells(seed, 5)
        for model in random_models(seed):
            assert_bitwise(predict_margin(model, x[:0]), np.empty(0))
            assert_bitwise(predict_margin(model, x[2:3]), scalar_margin(model, x[2]))
            with pytest.raises(SchemaError, match="columns"):
                predict_margin(model, x[2])

    def test_sliced_fortran_and_integer_input(self, seed):
        x = random_cells(seed, 200)
        ints = np.random.default_rng(seed).integers(-3, 4, size=(50, N_FEATURES))
        for model in random_models(seed):
            for view in (x[::3], x[10:60], np.asfortranarray(x), ints):
                assert_bitwise(predict_margin(model, view), scalar_margin(model, view))

    def test_batch_equals_each_row_alone(self, seed):
        x = random_cells(seed, 60)
        for model in random_models(seed):
            alone = np.concatenate([predict_margin(model, x[i : i + 1]) for i in range(len(x))])
            assert_bitwise(predict_margin(model, x), alone)


class TestForest:
    def test_single_tree_no_bootstrap_fits_separable_data(self):
        data = separable_1d()
        model = fit(
            data,
            ForestParams(n_trees=1, max_depth=4, feature_fraction=1.0, bootstrap=False, seed=0),
        )
        pred = (predict_proba(model, data.features) >= 0.5).astype(int)
        assert np.array_equal(pred, data.labels)

    def test_chosen_split_beats_every_candidate(self):
        # Oracle: recompute the Gini decrease of every (feature, edge)
        # candidate at the root from raw counts and compare with the split
        # the grower picked.
        data = random_data(n=300, d=4, seed=3)
        prm = ForestParams(n_trees=1, max_depth=1, feature_fraction=1.0, bootstrap=False, seed=0)
        model = fit(data, prm)
        root = model.trees[0]
        assert not root.is_leaf
        y = data.labels.astype(float)

        def gini(labels):
            p = labels.mean()
            return 1.0 - p * p - (1.0 - p) * (1.0 - p)

        best = -np.inf
        arg = None
        for f in range(4):
            for edge in fit_bins(data.features, prm.n_bins)[f]:
                left = data.features[:, f] <= edge
                if left.sum() == 0 or left.sum() == len(y):
                    continue
                child = (left.sum() * gini(y[left]) + (~left).sum() * gini(y[~left])) / len(y)
                gain = gini(y) - child
                if gain > best:
                    best, arg = gain, (f, float(edge))
        assert best > 0
        assert (root.feature, root.threshold) == arg

    def test_identical_rows_predict_class_prior(self):
        # Unsplittable data: every tree is a single leaf holding the prior
        # (bootstrap off so the per-tree prior equals the data prior).
        x = np.ones((40, 3))
        y = np.array([1] * 10 + [0] * 30)
        model = fit(
            LabeledMatrix(x, y), ForestParams(n_trees=5, bootstrap=False, seed=1)
        )
        assert predict_proba(model, x[:1])[0] == pytest.approx(0.25)

    def test_same_seed_identical_model_doc(self):
        data = random_data(seed=11)
        prm = ForestParams(n_trees=6, max_depth=4, feature_fraction=0.5, seed=3)
        a = json.dumps(model_to_doc(fit(data, prm)), sort_keys=True)
        b = json.dumps(model_to_doc(fit(data, prm)), sort_keys=True)
        assert a == b

    def test_leaf_values_are_class_fractions(self):
        data = random_data(seed=12)
        model = fit(data, ForestParams(n_trees=3, max_depth=3, seed=0))

        def check(node):
            if node.is_leaf:
                assert 0.0 <= node.value <= 1.0

        for tree in model.trees:
            walk(tree, check)

    def test_forest_cover_bookkeeping(self):
        data = random_data(seed=13)
        model = fit(data, ForestParams(n_trees=3, max_depth=4, seed=0))

        def check(node):
            if not node.is_leaf:
                assert node.cover == node.left.cover + node.right.cover

        for tree in model.trees:
            walk(tree, check)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            fit(
                LabeledMatrix(np.zeros((10, 2)), np.ones(10, dtype=int)),
                ForestParams(n_trees=1),
            )


class TestSerialization:
    def test_boosted_round_trip_predictions(self):
        data = random_data(seed=14)
        model = fit(data, BoostingParams(n_trees=6, seed=5))
        back = model_from_doc(json.loads(json.dumps(model_to_doc(model))))
        assert np.array_equal(
            predict_proba(model, data.features), predict_proba(back, data.features)
        )

    def test_forest_round_trip_predictions(self):
        data = random_data(seed=15)
        model = fit(data, ForestParams(n_trees=4, max_depth=4, seed=5))
        back = model_from_doc(json.loads(json.dumps(model_to_doc(model))))
        assert np.array_equal(
            predict_proba(model, data.features), predict_proba(back, data.features)
        )

    @pytest.mark.parametrize("growth", [GROWTH_LEAF, GROWTH_LEVEL])
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_hessian_side_is_not_split_off(self, seed, growth):
        # With min_child_weight 0 and a learning rate of 1, rows saturate at
        # probability 0 or 1 and so have hessian 0; a child of only such rows
        # would have cover 0, which model_from_doc rejects.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((200, 2))
        y = (x[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(int)
        params = BoostingParams(
            n_trees=100, learning_rate=1.0, min_child_weight=0.0, l2_regularization=1e-30,
            max_depth=4, growth=growth,
        )
        model = fit(LabeledMatrix(x, y), params)
        back = model_from_doc(json.loads(json.dumps(model_to_doc(model))))
        assert np.array_equal(predict_margin(back, x), predict_margin(model, x))
        assert np.isfinite(shap_summary(back, x).shap_values).all()

    def test_unknown_format_rejected(self):
        with pytest.raises(SchemaError, match="format"):
            model_from_doc({"format": "bogus/9"})

    @pytest.mark.parametrize(
        "key, value, needle",
        [
            ("learning_rate", 0.5, "learning_rate 0.5 differs"),
            ("growth", GROWTH_LEVEL, "growth 'level_wise' differs"),
        ],
    )
    def test_top_level_copy_must_match_params(self, key, value, needle):
        doc = model_to_doc(fit(random_data(seed=16), BoostingParams(n_trees=2)))
        doc[key] = value
        with pytest.raises(SchemaError, match=needle):
            model_from_doc(doc)

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda root: root.pop("cover"), "'cover' must be a number, got None"),
            (lambda root: root.update(left={"cover": 1.0}), "'threshold' must be a number"),
            (lambda root: root.update(threshold="x"), "'threshold' must be a number"),
            (lambda root: root.update(feature=3), r"feature 3 is outside \[0, 3\)"),
            (lambda root: root.update(feature=-1), "feature -1 is outside"),
            (lambda root: root.update(feature=1.0), "feature 1.0 is outside"),
            (lambda root: root.update(right=[1]), "must be an object, got \\[1\\]"),
        ],
        ids=["no-cover", "child-without-value", "text-threshold", "feature-past-end",
             "negative-feature", "float-feature", "list-child"],
    )
    def test_corrupt_tree_node_is_schema_error(self, edit, needle):
        data = random_data(d=3, seed=17)
        model = fit(data, ForestParams(n_trees=1, max_depth=3, seed=5))
        doc = model_to_doc(model)
        assert len(doc["feature_names"]) == 3 and "feature" in doc["trees"][0]
        edit(doc["trees"][0])
        with pytest.raises(SchemaError, match=needle):
            model_from_doc(doc)


def golden_data():
    """Seeded matrix with tied values (rounded to 0.1) and a constant feature."""
    rng = np.random.default_rng(2024)
    x = np.round(rng.normal(size=(160, 4)), 1)
    x[:, 3] = 1.5
    y = (rng.random(160) < sigmoid(x[:, 0] - x[:, 1])).astype(int)
    return LabeledMatrix(x, y)


#: SHA-256 of ``json.dumps(model_to_doc(model))`` per learner, recorded with
#: numpy 2.4 on x86-64. A changed digest means the fitted model changed: a
#: refactor must keep these, and a deliberate change records new ones.
GOLDEN_DIGESTS = {
    "leaf_wise": (
        BoostingParams(
            n_trees=5, max_leaves=7, n_bins=16, feature_fraction=0.75, seed=3,
            growth=GROWTH_LEAF,
        ),
        "ff92d45394aa935b8535e5eceef15280f794dd58ef25b814a190616b4f8728fb",
    ),
    "level_wise": (
        BoostingParams(
            n_trees=5, max_depth=3, min_child_weight=0.5, seed=3, growth=GROWTH_LEVEL
        ),
        "2d13542b41ca97891ce7d77436aa7f1f911dbc7eaa70780029dc5776ac9bdd04",
    ),
    "forest": (
        ForestParams(n_trees=4, max_depth=4, feature_fraction=0.5, seed=3),
        "471f373e5dc4929061e85c56b2ea29b1d1b7879fbe4a5476bf28b575b2286d8f",
    ),
}


@pytest.mark.parametrize("learner", sorted(GOLDEN_DIGESTS))
def test_model_doc_matches_golden_digest(learner):
    params, expected = GOLDEN_DIGESTS[learner]
    doc = json.dumps(model_to_doc(fit(golden_data(), params)))
    assert hashlib.sha256(doc.encode()).hexdigest() == expected


class TestDepthCap:
    """Five walks recurse once per tree level, so params cap tree depth and
    the leaf count at ``MAX_TREE_DEPTH``; a tree at the cap goes through each
    of them."""

    @pytest.mark.parametrize(
        "fit, params, depth",
        [
            (fit_forest, ForestParams(n_trees=1, max_depth=MAX_TREE_DEPTH, n_bins=3000,
                                      feature_fraction=1.0, bootstrap=False), 512),
            (fit_boosted, BoostingParams(n_trees=1, max_leaves=MAX_TREE_DEPTH, n_bins=3000,
                                         learning_rate=1.0, min_child_weight=0.0), 511),
        ],
        ids=["forest", "leaf_wise"],
    )
    def test_tree_at_cap_round_trips_predicts_and_explains(self, fit, params, depth):
        """Alternating labels on one feature make every split peel off one
        row, so the tree grows as deep as its params let it. Fit, JSON round
        trip, predict and TreeSHAP all run 200 frames deep under the default
        recursion limit."""
        assert sys.getrecursionlimit() == 1000
        x = np.arange(3000.0)[:, None]
        binned = BinnedSet.of(LabeledMatrix(x, np.arange(3000) % 2), params.n_bins)

        def run(frames):
            if frames:
                return run(frames - 1)
            model = fit(binned, params)
            doc = json.loads(json.dumps(model_to_doc(model)))
            back = model_from_doc(doc)
            probs = predict_proba(back, x)
            return model, back, probs, shap_summary(back, x[:20])

        model, back, probs, shap = run(200)
        assert _depth(model.trees[0]) == depth
        assert model_to_doc(back) == model_to_doc(model)
        assert np.array_equal(probs, predict_proba(model, x))
        assert shap.shap_values.shape == (20, 1)
        assert np.allclose(shap.shap_values[:, 0] + shap.base_value, shap.margins)


def _depth(node):
    stack, deepest = [(node, 0)], 0
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if not node.is_leaf:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return deepest
