"""Decision-tree ensembles: bagged Gini forest and second-order boosting.

Bins belong to the training set: a ``BinnedSet`` is quantile-binned once
for one ``n_bins``, every fit on it takes its split thresholds from its bin
edges, and a model holds only its trees and params. All three learners
share one split-search kernel (``BinnedSet.histograms``): the bin codes are
offset so that one gathered ``np.bincount`` per quantity builds a node's
(features x bins) histograms, weighted by gradient and hessian for boosting
and by the class-1 indicator for the forest. Only occupied candidates are
scored: an edge between two occupied bins of one feature, found from the
node's count histogram, so the cost of a search follows the node's rows and
not features x ``n_bins``. An edge next to an empty bin would repeat its
neighbour's sums, so the first maximum and every model keep their bits.
Each learner scores its candidates in one array expression with its own
gain, and one pick step applies the shared tie rule.

The boosted learners share one best-first grower: the pending node with
the highest positive split gain splits next. Level-wise growth caps the
depth (every splittable node above ``max_depth`` splits); leaf-wise growth
caps the leaf count at ``max_leaves``. A node that cannot split, or whose
split would never be taken, is not searched: one at the depth cap, a child
of the split that fills the leaf budget, and one whose hessian sum is below
``2 * min_child_weight``. Both use the standard second-order gain

    gain = 1/2 * [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma

with leaf values -G/(H+lambda). The forest grows bootstrap trees with
Gini-impurity splits over a random feature subset per split; its leaves
hold the class-1 fraction so predictions are probabilities.

Node cover is the hessian sum for boosted trees and the training row count
for forest trees; the SHAP layer uses it to weight descents through both
children when a feature is marginalized out.

Predict walks each tree once per batch. A node reads its split feature for
its rows from one contiguous column of a transposed copy of the matrix,
partitions the rows with ``take``/``compress`` and descends only into a
child that receives rows. A NaN fails ``<= threshold`` and goes right.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, SchemaError
from .sampling import LabeledMatrix
from .utils import sigmoid, stage_seed

GROWTH_LEVEL = "level_wise"
GROWTH_LEAF = "leaf_wise"

#: Largest ``max_depth``, and largest ``max_leaves``, since a tree of n
#: leaves is at most n - 1 levels deep. Growing a forest tree, predict, the
#: model JSON both ways and TreeSHAP recurse once per level, and 512 levels
#: leave room under Python's default recursion limit of 1,000.
MAX_TREE_DEPTH = 512


@dataclass
class TreeNode:
    """Split node (left/right set) or leaf (left is None)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    cover: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class BoostingParams:
    n_trees: int = 100
    max_depth: int = 6  # level-wise depth cap
    max_leaves: int = 31  # leaf-wise leaf budget
    learning_rate: float = 0.1
    l2_regularization: float = 1.0
    min_split_gain: float = 0.0
    min_child_weight: float = 1.0
    n_bins: int = 255
    feature_fraction: float = 1.0
    seed: int = 0
    growth: str = GROWTH_LEAF

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.n_bins < 2:
            raise DataError("n_bins must be >= 2")
        if self.max_depth < 1:
            raise DataError("max_depth must be >= 1")
        if self.max_depth > MAX_TREE_DEPTH:
            raise DataError(f"max_depth must be <= {MAX_TREE_DEPTH}, got {self.max_depth}")
        if self.max_leaves < 2:
            raise DataError("max_leaves must be >= 2")
        if self.max_leaves > MAX_TREE_DEPTH:
            raise DataError(f"max_leaves must be <= {MAX_TREE_DEPTH}, got {self.max_leaves}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise DataError("learning_rate must be in (0, 1]")
        if self.l2_regularization < 0 or self.min_split_gain < 0:
            raise DataError("regularization terms must be non-negative")
        if self.min_child_weight < 0:
            raise DataError("min_child_weight must be non-negative")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise DataError("feature_fraction must be in (0, 1]")
        if self.growth not in (GROWTH_LEVEL, GROWTH_LEAF):
            raise DataError(f"unknown growth strategy {self.growth!r}")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 10
    feature_fraction: float = 0.5  # per-split feature subsample
    bootstrap: bool = True
    n_bins: int = 255
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise DataError("max_depth must be >= 1")
        if self.max_depth > MAX_TREE_DEPTH:
            raise DataError(f"max_depth must be <= {MAX_TREE_DEPTH}, got {self.max_depth}")
        if not (0.0 < self.feature_fraction <= 1.0):
            raise DataError("feature_fraction must be in (0, 1]")
        if self.n_bins < 2:
            raise DataError("n_bins must be >= 2")


@dataclass
class BoostedModel:
    trees: list[TreeNode]
    base_score: float
    params: BoostingParams
    feature_names: tuple[str, ...]
    train_loss: tuple[float, ...] = ()


@dataclass
class ForestModel:
    trees: list[TreeNode]
    params: ForestParams
    feature_names: tuple[str, ...]


def logistic_grad_hess(p, y) -> tuple:
    """Gradient and hessian of the logistic loss at probability ``p``."""
    return p - y, p * (1.0 - p)


def split_gain(gl, hl, gr, hr, l2_regularization: float, min_split_gain: float):
    """Second-order split gain; works on scalars or numpy arrays."""
    lam = l2_regularization
    g = gl + gr
    h = hl + hr
    raw = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - g * g / (h + lam))
    return raw - min_split_gain


def leaf_value(g_sum: float, h_sum: float, l2_regularization: float) -> float:
    denom = h_sum + l2_regularization
    if denom == 0:
        raise DataError("leaf value undefined: hessian sum plus lambda is zero")
    return -g_sum / denom


def fit_bins(matrix: np.ndarray, n_bins: int) -> tuple[np.ndarray, ...]:
    """Ascending quantile bin edges per feature; constant features get none."""
    if n_bins < 2:
        raise DataError("n_bins must be >= 2")
    edges = []
    for f in range(matrix.shape[1]):
        col = matrix[:, f]
        uniq = np.unique(col)
        if uniq.size <= 1:
            edges.append(np.empty(0, dtype=np.float64))
        elif uniq.size <= n_bins:
            edges.append((uniq[:-1] + uniq[1:]) / 2.0)
        else:
            qs = 100.0 * np.arange(1, n_bins) / n_bins
            cand = np.unique(np.percentile(col, qs))
            edges.append(cand.astype(np.float64))
    return tuple(edges)


def bin_matrix(edges, matrix: np.ndarray) -> np.ndarray:
    """Map raw values to bin ordinals; bin i covers (edge[i-1], edge[i]]."""
    out = np.zeros(matrix.shape, dtype=np.int32)
    for f, e in enumerate(edges):
        if e.size:
            out[:, f] = np.searchsorted(e, matrix[:, f], side="left")
    return out


@dataclass(frozen=True)
class BinnedSet:
    """A training set binned once for ``n_bins``: its labels, each feature's
    bin edges, from which fits on it take their thresholds, and bin codes
    offset so that feature f owns histogram slots [f * stride, (f+1) * stride).
    ``stride`` is the largest bin count, and at least 2, so every feature has
    at least one candidate column."""

    labels: np.ndarray
    n_bins: int
    edges: tuple[np.ndarray, ...]
    codes: np.ndarray
    stride: int

    @classmethod
    def of(cls, data: LabeledMatrix, n_bins: int) -> "BinnedSet":
        edges = fit_bins(data.features, n_bins)
        stride = max(2, max((e.size + 1 for e in edges), default=1))
        binned = bin_matrix(edges, data.features)
        offsets = np.arange(binned.shape[1], dtype=np.intp) * stride
        codes = binned.astype(np.intp) + offsets
        return cls(data.labels, n_bins, edges, codes, stride)

    def histograms(self, rows: np.ndarray, feats: np.ndarray, weights=()):
        """(features x bins) row-count histogram of one node, and one
        weighted histogram per array in ``weights``; row k is feature
        ``feats[k]``; ``feats`` is sorted and distinct.

        The codes are gathered row-major, so each bin adds its rows in the
        order of ``rows`` and every sum equals a per-feature ``np.bincount``
        bit for bit. A row take is much cheaper than a 2-D fancy index, and
        the column take and the row selection of the histograms are skipped
        when ``feats`` is every feature.
        """
        block = self.codes.take(rows, axis=0)
        subset = len(feats) < block.shape[1]
        if subset:
            block = block.take(feats, axis=1)
        flat = block.ravel()
        size = self.codes.shape[1] * self.stride

        def hist(w):
            out = np.bincount(flat, w, minlength=size).reshape(-1, self.stride)
            return out[feats] if subset else out

        return hist(None), [hist(np.repeat(w[rows], len(feats))) for w in weights]

    def goes_left(self, rows: np.ndarray, feature: int, edge_idx: int) -> np.ndarray:
        return self.codes[rows, feature] <= feature * self.stride + edge_idx


def _candidates(count: np.ndarray) -> np.ndarray:
    """Flat (feature-major) indices of the edges worth scoring in a node's
    (features x bins) count histogram: each occupied bin whose next occupied
    bin is in the same feature. Edge i sends bins 0..i left.

    An empty bin adds exact zeros to every left sum, so its edge repeats the
    previous candidate's sums and gain and is never the first maximum; the
    last occupied bin of a feature sends every row left. So both children of
    every candidate are non-empty.
    """
    occupied = np.flatnonzero(count)
    feature = occupied // count.shape[1]
    return occupied[:-1][feature[:-1] == feature[1:]]


def _left_sums(hist: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Left-child sum of each candidate, from the full per-feature cumsum so
    that every sum keeps its bits."""
    return np.cumsum(hist, axis=1).take(cand)


def _pick_split(gains: np.ndarray, cand: np.ndarray, feats: np.ndarray, stride: int):
    """Best (feature, edge index, gain) with positive gain, or None.

    ``gains`` holds one value per candidate in feature-major order, so the
    first maximum is at the lowest edge index within a feature, then in the
    earliest feature, and scans are reproducible across runs. A feature with
    a NaN gain is never chosen.
    """
    if not gains.size:
        return None
    nan = np.isnan(gains)
    if nan.any():
        owner = cand // stride
        gains = np.where(np.isin(owner, owner[nan]), -np.inf, gains)
    k = int(np.argmax(gains))
    if not gains[k] > 0.0:
        return None
    row, edge = divmod(int(cand[k]), stride)
    return int(feats[row]), edge, float(gains[k])


def _best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum):
    """Best (feature, edge index, gain) by second-order gain, or None."""
    count, (gb, hb) = train.histograms(rows, feats, (g, h))
    cand = _candidates(count)
    gl, hl = _left_sums(gb, cand), _left_sums(hb, cand)
    gr = g_sum - gl
    hr = h_sum - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gain(gl, hl, gr, hr, prm.l2_regularization, prm.min_split_gain)
    valid = (hl >= prm.min_child_weight) & (hr >= prm.min_child_weight)
    return _pick_split(np.where(valid, gains, -np.inf), cand, feats, train.stride)


def _grow_boosted(train: BinnedSet, g, h, feats, prm):
    """Grow one boosted tree best-first; return its root and (leaf, rows) pairs.

    The pending node with the highest split gain splits first, ties going to
    the node created first. Level-wise trees have a depth cap and no leaf
    budget, so every node above the cap that has a split gets split;
    leaf-wise trees have a leaf budget and no depth cap.

    A node that could not split, or whose split would never be popped, is
    not searched and becomes a leaf at once: one at the depth cap, a child
    of the split that fills the leaf budget, and one whose hessian sum is
    below ``2 * min_child_weight``. Hessians are non-negative, so there
    ``hl >= min_child_weight`` forces ``h_sum - hl < min_child_weight``
    (exact by Sterbenz when ``hl <= h_sum``, negative otherwise). A popped
    split that would give a child a hessian sum of 0 is not taken and its node
    becomes a leaf, as a model file may not hold a cover of 0. With
    ``min_child_weight`` 0 the search can offer one, as its right sums
    ``h_sum - hl`` may read a few ulps above 0. Leaves cover disjoint rows, so the order of the returned
    pairs does not matter.
    """
    level_wise = prm.growth == GROWTH_LEVEL
    max_depth = prm.max_depth if level_wise else math.inf
    max_leaves = math.inf if level_wise else prm.max_leaves
    min_h_sum = 2.0 * prm.min_child_weight
    heap, leaves, created = [], [], itertools.count()

    def add(rows, h_sum, depth, search=True):
        g_sum = float(g[rows].sum())
        node = TreeNode(cover=h_sum)
        split = None
        if search and depth < max_depth and h_sum >= min_h_sum:
            split = _best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum)
        if split is None:
            node.value = leaf_value(g_sum, h_sum, prm.l2_regularization)
            leaves.append((node, rows))
        else:
            entry = (-split[2], next(created), node, rows, depth, split, g_sum)
            heapq.heappush(heap, entry)
        return node

    root = add(np.arange(g.size), float(h.sum()), 0)
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, node, rows, depth, (f, edge_idx, _), g_sum = heapq.heappop(heap)
        mask = train.goes_left(rows, f, edge_idx)
        left, right = rows[mask], rows[~mask]
        h_left, h_right = float(h[left].sum()), float(h[right].sum())
        if not (h_left > 0 and h_right > 0):
            node.value = leaf_value(g_sum, node.cover, prm.l2_regularization)
            leaves.append((node, rows))
            continue
        node.feature = f
        node.threshold = float(train.edges[f][edge_idx])
        n_leaves += 1
        search = n_leaves < max_leaves
        node.left = add(left, h_left, depth + 1, search)
        node.right = add(right, h_right, depth + 1, search)
    for _, _, node, rows, _, _, g_sum in heap:
        node.value = leaf_value(g_sum, node.cover, prm.l2_regularization)
        leaves.append((node, rows))
    return root, leaves


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _feature_subset(rng, n_features: int, fraction: float) -> np.ndarray:
    if fraction >= 1.0:
        return np.arange(n_features)
    m = max(1, int(round(fraction * n_features)))
    return np.sort(rng.choice(n_features, size=m, replace=False))


def _fit_setup(train: BinnedSet, n_bins: int, feature_names, learner: str):
    """Checks shared by every learner; the feature names, ``f0, f1, ...`` if none."""
    if train.n_bins != n_bins:
        raise ValueError(f"params ask for {n_bins} bins, the training set has {train.n_bins}")
    counts = np.bincount(train.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise DataError(f"{learner} requires both classes in the training data")
    width = len(train.edges)
    names = tuple(feature_names) if feature_names else tuple(f"f{i}" for i in range(width))
    if len(names) != width:
        raise SchemaError("feature name count does not match the matrix width")
    return names


def fit_boosted(train: BinnedSet, params: BoostingParams, feature_names=None) -> BoostedModel:
    """Train a boosted ensemble; records training log-loss after each round."""
    names = _fit_setup(train, params.n_bins, feature_names, "boosting")
    y = train.labels.astype(np.float64)
    y_bar = float(y.mean())
    base = math.log(y_bar / (1.0 - y_bar))
    margin = np.full(y.size, base, dtype=np.float64)
    p = sigmoid(margin)

    trees: list[TreeNode] = []
    losses: list[float] = []
    for t in range(params.n_trees):
        g, h = logistic_grad_hess(p, y)
        rng = np.random.default_rng(stage_seed(params.seed, f"boost-tree-{t}"))
        feats = _feature_subset(rng, len(names), params.feature_fraction)
        root, leaves = _grow_boosted(train, g, h, feats, params)
        for node, node_rows in leaves:
            margin[node_rows] += params.learning_rate * node.value
        trees.append(root)
        p = sigmoid(margin)  # the next round's gradients use the same p
        losses.append(_log_loss(y, p))

    return BoostedModel(
        trees=trees, base_score=base, params=params, feature_names=names, train_loss=tuple(losses)
    )


def _best_split_gini(train, rows, y1, feats):
    """Best (feature, edge index, gain) by Gini impurity decrease, or None."""
    n = rows.size
    n1 = float(y1[rows].sum())
    p1 = n1 / n
    parent = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    count, (c1,) = train.histograms(rows, feats, (y1,))
    cand = _candidates(count)
    cl = _left_sums(count, cand)
    c1l = _left_sums(c1, cand)
    c1r = n1 - c1l
    cr = n - cl
    pl = c1l / cl
    pr = c1r / cr
    gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    gains = parent - (cl * gini_l + cr * gini_r) / n
    return _pick_split(gains, cand, feats, train.stride)


def _grow_gini(train: BinnedSet, rows, y1, rng, prm, depth):
    """Depth-first: each split draws its feature subset from the tree's one
    RNG stream, so the visiting order is part of the model."""
    n = rows.size
    n1 = float(y1[rows].sum())
    if depth >= prm.max_depth or n1 == 0.0 or n1 == float(n):
        return TreeNode(value=n1 / n, cover=float(n))
    feats = _feature_subset(rng, len(train.edges), prm.feature_fraction)
    best = _best_split_gini(train, rows, y1, feats)
    if best is None:
        return TreeNode(value=n1 / n, cover=float(n))
    f, edge_idx, _ = best
    mask = train.goes_left(rows, f, edge_idx)
    node = TreeNode(feature=int(f), threshold=float(train.edges[f][edge_idx]), cover=float(n))
    node.left = _grow_gini(train, rows[mask], y1, rng, prm, depth + 1)
    node.right = _grow_gini(train, rows[~mask], y1, rng, prm, depth + 1)
    return node


def fit_forest(train: BinnedSet, params: ForestParams, feature_names=None) -> ForestModel:
    """Train a bagged Gini forest; per-tree streams derive from (seed, index)."""
    names = _fit_setup(train, params.n_bins, feature_names, "forest")
    y1 = train.labels.astype(np.float64)
    n = y1.size

    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(stage_seed(params.seed, f"forest-tree-{t}"))
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(_grow_gini(train, rows, y1, rng, params, 0))
    return ForestModel(trees=trees, params=params, feature_names=names)


def _predict_tree(node: TreeNode, columns: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """Write the leaf value that each of ``rows`` reaches into ``out``.
    ``columns[f]`` holds feature ``f`` of every row, contiguously."""
    if node.left is None:
        out.put(rows, node.value)
        return
    go = columns[node.feature].take(rows) <= node.threshold
    left = rows.compress(go)
    if left.size:
        _predict_tree(node.left, columns, left, out)
    if left.size < rows.size:
        _predict_tree(node.right, columns, rows.compress(~go), out)


def predict_margin(model, matrix: np.ndarray) -> np.ndarray:
    """Additive score: log-odds for boosted models, probability for forests."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.feature_names):
        raise SchemaError(
            f"matrix {x.shape} does not have {len(model.feature_names)} columns"
        )
    columns = np.ascontiguousarray(x.T)
    rows = np.arange(x.shape[0])
    buf = np.empty(x.shape[0], dtype=np.float64)
    if isinstance(model, BoostedModel):
        total = np.full(x.shape[0], model.base_score, dtype=np.float64)
        for tree in model.trees:
            _predict_tree(tree, columns, rows, buf)
            total += model.params.learning_rate * buf
        return total
    if isinstance(model, ForestModel):
        total = np.zeros(x.shape[0], dtype=np.float64)
        for tree in model.trees:
            _predict_tree(tree, columns, rows, buf)
            total += buf
        return total / len(model.trees)
    raise SchemaError(f"unknown model type {type(model).__name__}")


def predict_proba(model, matrix: np.ndarray) -> np.ndarray:
    """Default probability per row, in [0, 1]."""
    margin = predict_margin(model, matrix)
    if isinstance(model, BoostedModel):
        return sigmoid(margin)
    return margin


MODEL_FORMAT = "riskforge.model/2"


def _node_to_doc(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value, "cover": node.cover}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "cover": node.cover,
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc: dict, n_features: int) -> TreeNode:
    """One node and its subtree; SchemaError for a node that is not an object,
    lacks a number, holds a number the trainer never writes (a threshold or
    value that is not finite, a cover that is not finite and > 0), or splits
    on a feature outside [0, n_features)."""
    if not isinstance(doc, dict):
        raise SchemaError(f"tree node must be an object, got {doc!r}")
    leaf = "value" in doc
    for key in ("value", "cover") if leaf else ("threshold", "cover"):
        v = doc.get(key)
        if type(v) not in (int, float):
            raise SchemaError(f"tree node {key!r} must be a number, got {v!r}")
        # abs() <= max is false for NaN and +-inf, and exact for any int
        if not abs(v) <= sys.float_info.max or key == "cover" and not v > 0:
            rule = "finite and > 0" if key == "cover" else "finite"
            raise SchemaError(f"tree node {key!r} must be {rule}, got {v!r}")
    if leaf:
        return TreeNode(value=doc["value"], cover=doc["cover"])
    f = doc.get("feature")
    if type(f) is not int or not 0 <= f < n_features:
        raise SchemaError(f"tree node feature {f!r} is outside [0, {n_features})")
    return TreeNode(
        feature=f,
        threshold=doc["threshold"],
        cover=doc["cover"],
        left=_node_from_doc(doc.get("left"), n_features),
        right=_node_from_doc(doc.get("right"), n_features),
    )


def model_to_doc(model) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "kind": "boosted" if isinstance(model, BoostedModel) else "forest",
        "feature_names": list(model.feature_names),
        "trees": [_node_to_doc(t) for t in model.trees],
    }
    if isinstance(model, BoostedModel):
        doc["growth"] = model.params.growth
        doc["base_score"] = model.base_score
        doc["learning_rate"] = model.params.learning_rate
        doc["train_loss"] = list(model.train_loss)
    doc["params"] = asdict(model.params)
    return doc


def model_from_doc(doc: dict):
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError(f"format {doc.get('format')!r} is not {MODEL_FORMAT!r}; run train again")
    names = tuple(doc["feature_names"])
    trees = [_node_from_doc(t, len(names)) for t in doc["trees"]]
    kinds = {"boosted": BoostingParams, "forest": ForestParams}
    if doc["kind"] not in kinds:
        raise SchemaError(f"unknown model kind {doc['kind']!r}")
    try:
        params = kinds[doc["kind"]](**doc["params"])
    except TypeError as exc:  # an unknown key, or a value of the wrong type
        raise SchemaError(f"model params: {exc}") from exc
    if isinstance(params, ForestParams):
        return ForestModel(trees=trees, params=params, feature_names=names)
    for key in ("learning_rate", "growth"):  # readers may predict from either
        if doc.get(key) != getattr(params, key):
            raise SchemaError(f"model {key} {doc.get(key)!r} differs from its params")
    if not abs(doc["base_score"]) <= sys.float_info.max:  # it adds into every margin
        raise SchemaError(f"model 'base_score' must be finite, got {doc['base_score']!r}")
    return BoostedModel(
        trees=trees, base_score=doc["base_score"], params=params, feature_names=names,
        train_loss=tuple(doc.get("train_loss", ())),
    )
