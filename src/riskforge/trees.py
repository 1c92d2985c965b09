"""Decision-tree ensembles: bagged Gini forest and second-order boosting.

All three learners share one substrate: features are quantile-binned once
per training run and every candidate split threshold is a bin edge. They
also share one split-search kernel (``BinCodes``): the bin codes are offset
once per fit so that one gathered ``np.bincount`` per quantity builds a
node's (features x bins) histograms, weighted by gradient and hessian for
boosting and by the class-1 indicator for the forest. Each learner scores
every candidate in one array expression with its own gain, and one pick
step applies the shared tie rule.

The boosted learners share one best-first grower: the pending node with
the highest positive split gain splits next. Level-wise growth caps the
depth (every splittable node above ``max_depth`` splits); leaf-wise growth
caps the leaf count at ``max_leaves``. Both use the standard second-order
gain

    gain = 1/2 * [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma

with leaf values -G/(H+lambda). The forest grows bootstrap trees with
Gini-impurity splits over a random feature subset per split; its leaves
hold the class-1 fraction so predictions are probabilities.

Node cover is the hessian sum for boosted trees and the training row count
for forest trees; the SHAP layer uses it to weight descents through both
children when a feature is marginalized out.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, SchemaError
from .sampling import LabeledMatrix
from .utils import sigmoid, stage_seed

GROWTH_LEVEL = "level_wise"
GROWTH_LEAF = "leaf_wise"


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
        if self.max_leaves < 2:
            raise DataError("max_leaves must be >= 2")
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
        if not (0.0 < self.feature_fraction <= 1.0):
            raise DataError("feature_fraction must be in (0, 1]")
        if self.n_bins < 2:
            raise DataError("n_bins must be >= 2")


@dataclass(frozen=True)
class BinIndex:
    """Per-feature ascending bin edges fitted from training quantiles."""

    edges: tuple[np.ndarray, ...]


@dataclass
class BoostedModel:
    trees: list[TreeNode]
    learning_rate: float
    base_score: float
    growth: str
    params: BoostingParams
    bins: BinIndex
    feature_names: tuple[str, ...]
    train_loss: tuple[float, ...] = ()


@dataclass
class ForestModel:
    trees: list[TreeNode]
    params: ForestParams
    bins: BinIndex
    feature_names: tuple[str, ...]


def logistic_grad_hess(p, y) -> tuple:
    """Gradient and hessian of the logistic loss at probability ``p``."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    g = p - y
    h = p * (1.0 - p)
    if g.ndim == 0:
        return float(g), float(h)
    return g, h


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


def fit_bins(matrix: np.ndarray, n_bins: int) -> BinIndex:
    """Quantile bin edges per feature; constant features get no edges."""
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
    return BinIndex(tuple(edges))


def bin_matrix(bins: BinIndex, matrix: np.ndarray) -> np.ndarray:
    """Map raw values to bin ordinals; bin i covers (edge[i-1], edge[i]]."""
    out = np.zeros(matrix.shape, dtype=np.int32)
    for f, e in enumerate(bins.edges):
        if e.size:
            out[:, f] = np.searchsorted(e, matrix[:, f], side="left")
    return out


@dataclass(frozen=True)
class BinCodes:
    """Bin codes of a training matrix, offset so that feature f owns the
    histogram slots [f * stride, (f + 1) * stride).

    ``stride`` is the largest bin count, and at least 2, so every feature has
    at least one candidate column.
    """

    codes: np.ndarray
    stride: int

    @classmethod
    def of(cls, bins: BinIndex, binned: np.ndarray) -> "BinCodes":
        stride = max(2, max((e.size + 1 for e in bins.edges), default=1))
        offsets = np.arange(binned.shape[1], dtype=np.intp) * stride
        return cls(binned.astype(np.intp) + offsets, stride)

    def histograms(self, rows: np.ndarray, feats: np.ndarray, weights=()):
        """(features x bins) row-count histogram of one node, and one
        weighted histogram per array in ``weights``; row k is feature
        ``feats[k]``.

        The codes are gathered row-major, so each bin adds its rows in the
        order of ``rows`` and every sum equals a per-feature ``np.bincount``
        bit for bit.
        """
        flat = self.codes[np.ix_(rows, feats)].ravel()
        size = self.codes.shape[1] * self.stride

        def hist(w):
            return np.bincount(flat, w, minlength=size).reshape(-1, self.stride)[feats]

        return hist(None), [hist(np.repeat(w[rows], len(feats))) for w in weights]

    def goes_left(self, rows: np.ndarray, feature: int, edge_idx: int) -> np.ndarray:
        return self.codes[rows, feature] <= feature * self.stride + edge_idx


def _left_sums(hist: np.ndarray) -> np.ndarray:
    """Left-child sum of every candidate: edge i sends bins 0..i left.

    Columns past a feature's last edge send every row left, so the candidate
    checks (both children non-empty) reject them.
    """
    return np.cumsum(hist, axis=1)[:, :-1]


def _pick_split(gains: np.ndarray, feats: np.ndarray):
    """Best (feature, edge index, gain) with positive gain, or None.

    Ties resolve to the lowest edge index within a feature, then to the
    earliest feature, so scans are reproducible across runs. A feature whose
    first maximum is NaN is never chosen.
    """
    edge = np.argmax(gains, axis=1)
    best = gains[np.arange(edge.size), edge]
    best[np.isnan(best)] = -np.inf
    k = int(np.argmax(best))
    if not best[k] > 0.0:
        return None
    return int(feats[k]), int(edge[k]), float(best[k])


def _best_split_boosted(codes, rows, g, h, feats, prm, g_sum, h_sum):
    """Best (feature, edge index, gain) by second-order gain, or None."""
    count, (gb, hb) = codes.histograms(rows, feats, (g, h))
    cl, gl, hl = _left_sums(count), _left_sums(gb), _left_sums(hb)
    gr = g_sum - gl
    hr = h_sum - hl
    cr = rows.size - cl
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gain(gl, hl, gr, hr, prm.l2_regularization, prm.min_split_gain)
    valid = (
        (cl > 0)
        & (cr > 0)
        & (hl >= prm.min_child_weight)
        & (hr >= prm.min_child_weight)
    )
    return _pick_split(np.where(valid, gains, -np.inf), feats)


def _grow_boosted(codes, bins, g, h, feats, prm):
    """Grow one boosted tree best-first; return its root and (leaf, rows) pairs.

    The pending node with the highest split gain splits first, ties going to
    the node created first. Level-wise trees have a depth cap and no leaf
    budget, so every node above the cap that has a split gets split;
    leaf-wise trees have a leaf budget and no depth cap.
    """
    level_wise = prm.growth == GROWTH_LEVEL
    max_depth = prm.max_depth if level_wise else math.inf
    max_leaves = math.inf if level_wise else prm.max_leaves
    heap, leaves, created = [], [], itertools.count()

    def add(rows, depth):
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        node = TreeNode(cover=h_sum)
        split = None
        if depth < max_depth:
            split = _best_split_boosted(codes, rows, g, h, feats, prm, g_sum, h_sum)
        if split is None:
            node.value = leaf_value(g_sum, h_sum, prm.l2_regularization)
            leaves.append((node, rows))
        else:
            entry = (-split[2], next(created), node, rows, depth, split, g_sum)
            heapq.heappush(heap, entry)
        return node

    root = add(np.arange(g.size), 0)
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, node, rows, depth, (f, edge_idx, _), _ = heapq.heappop(heap)
        mask = codes.goes_left(rows, f, edge_idx)
        node.feature = f
        node.threshold = float(bins.edges[f][edge_idx])
        node.left = add(rows[mask], depth + 1)
        node.right = add(rows[~mask], depth + 1)
        n_leaves += 1
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


def _fit_setup(data: LabeledMatrix, n_bins: int, feature_names, learner: str):
    """Checks shared by every learner, then the bins and offset bin codes of
    the training matrix, and the feature names (``f0, f1, ...`` if none)."""
    x = data.features
    counts = np.bincount(data.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise DataError(f"{learner} requires both classes in the training data")
    names = tuple(feature_names) if feature_names else tuple(
        f"f{i}" for i in range(x.shape[1])
    )
    if len(names) != x.shape[1]:
        raise SchemaError("feature name count does not match the matrix width")
    bins = fit_bins(x, n_bins)
    return bins, BinCodes.of(bins, bin_matrix(bins, x)), names


def fit_boosted(
    data: LabeledMatrix, params: BoostingParams, feature_names=None
) -> BoostedModel:
    """Train a boosted ensemble; records training log-loss after each round."""
    bins, codes, names = _fit_setup(data, params.n_bins, feature_names, "boosting")
    y = data.labels.astype(np.float64)
    y_bar = float(y.mean())
    base = math.log(y_bar / (1.0 - y_bar))
    margin = np.full(y.size, base, dtype=np.float64)

    trees: list[TreeNode] = []
    losses: list[float] = []
    for t in range(params.n_trees):
        p = sigmoid(margin)
        g, h = logistic_grad_hess(p, y)
        rng = np.random.default_rng(stage_seed(params.seed, f"boost-tree-{t}"))
        feats = _feature_subset(rng, len(names), params.feature_fraction)
        root, leaves = _grow_boosted(codes, bins, g, h, feats, params)
        for node, node_rows in leaves:
            margin[node_rows] += params.learning_rate * node.value
        trees.append(root)
        losses.append(_log_loss(y, sigmoid(margin)))

    return BoostedModel(
        trees=trees,
        learning_rate=params.learning_rate,
        base_score=base,
        growth=params.growth,
        params=params,
        bins=bins,
        feature_names=names,
        train_loss=tuple(losses),
    )


def _best_split_gini(codes, rows, y1, feats):
    """Best (feature, edge index, gain) by Gini impurity decrease, or None."""
    n = rows.size
    n1 = float(y1[rows].sum())
    p1 = n1 / n
    parent = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    count, (c1,) = codes.histograms(rows, feats, (y1,))
    cl = _left_sums(count.astype(np.float64))
    c1l = _left_sums(c1)
    c1r = n1 - c1l
    cr = n - cl
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = c1l / cl
        pr = c1r / cr
        gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        gains = parent - (cl * gini_l + cr * gini_r) / n
    return _pick_split(np.where((cl > 0) & (cr > 0), gains, -np.inf), feats)


def _grow_gini(codes, bins, rows, y1, rng, prm, depth):
    """Depth-first: each split draws its feature subset from the tree's one
    RNG stream, so the visiting order is part of the model."""
    n = rows.size
    n1 = float(y1[rows].sum())
    if depth >= prm.max_depth or n1 == 0.0 or n1 == float(n):
        return TreeNode(value=n1 / n, cover=float(n))
    feats = _feature_subset(rng, len(bins.edges), prm.feature_fraction)
    best = _best_split_gini(codes, rows, y1, feats)
    if best is None:
        return TreeNode(value=n1 / n, cover=float(n))
    f, edge_idx, _ = best
    mask = codes.goes_left(rows, f, edge_idx)
    node = TreeNode(feature=int(f), threshold=float(bins.edges[f][edge_idx]), cover=float(n))
    node.left = _grow_gini(codes, bins, rows[mask], y1, rng, prm, depth + 1)
    node.right = _grow_gini(codes, bins, rows[~mask], y1, rng, prm, depth + 1)
    return node


def fit_forest(data: LabeledMatrix, params: ForestParams, feature_names=None) -> ForestModel:
    """Train a bagged Gini forest; per-tree streams derive from (seed, index)."""
    bins, codes, names = _fit_setup(data, params.n_bins, feature_names, "forest")
    y1 = data.labels.astype(np.float64)
    n = y1.size

    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(stage_seed(params.seed, f"forest-tree-{t}"))
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(_grow_gini(codes, bins, rows, y1, rng, params, 0))
    return ForestModel(trees=trees, params=params, bins=bins, feature_names=names)


def _predict_tree(node: TreeNode, x: np.ndarray, rows: np.ndarray, out: np.ndarray):
    if node.left is None:
        out[rows] = node.value
        return
    mask = x[rows, node.feature] <= node.threshold
    _predict_tree(node.left, x, rows[mask], out)
    _predict_tree(node.right, x, rows[~mask], out)


def predict_margin(model, matrix: np.ndarray) -> np.ndarray:
    """Additive score: log-odds for boosted models, probability for forests."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != len(model.feature_names):
        raise SchemaError(
            f"matrix has {x.shape[1]} columns, model expects {len(model.feature_names)}"
        )
    rows = np.arange(x.shape[0])
    buf = np.empty(x.shape[0], dtype=np.float64)
    if isinstance(model, BoostedModel):
        total = np.full(x.shape[0], model.base_score, dtype=np.float64)
        for tree in model.trees:
            _predict_tree(tree, x, rows, buf)
            total += model.learning_rate * buf
        return total
    if isinstance(model, ForestModel):
        total = np.zeros(x.shape[0], dtype=np.float64)
        for tree in model.trees:
            _predict_tree(tree, x, rows, buf)
            total += buf
        return total / len(model.trees)
    raise SchemaError(f"unknown model type {type(model).__name__}")


def predict_proba(model, matrix: np.ndarray) -> np.ndarray:
    """Default probability per row, in [0, 1]."""
    margin = predict_margin(model, matrix)
    if isinstance(model, BoostedModel):
        return sigmoid(margin)
    return margin


MODEL_FORMAT = "riskforge.model/1"


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


def _node_from_doc(doc: dict) -> TreeNode:
    if "value" in doc:
        return TreeNode(value=doc["value"], cover=doc["cover"])
    return TreeNode(
        feature=doc["feature"],
        threshold=doc["threshold"],
        cover=doc["cover"],
        left=_node_from_doc(doc["left"]),
        right=_node_from_doc(doc["right"]),
    )


def model_to_doc(model) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "kind": "boosted" if isinstance(model, BoostedModel) else "forest",
        "feature_names": list(model.feature_names),
        "bin_edges": [e.tolist() for e in model.bins.edges],
        "trees": [_node_to_doc(t) for t in model.trees],
    }
    if isinstance(model, BoostedModel):
        doc["growth"] = model.growth
        doc["base_score"] = model.base_score
        doc["learning_rate"] = model.learning_rate
        doc["train_loss"] = list(model.train_loss)
    doc["params"] = asdict(model.params)
    return doc


def model_from_doc(doc: dict):
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError(f"unsupported model format {doc.get('format')!r}")
    bins = BinIndex(tuple(np.asarray(e, dtype=np.float64) for e in doc["bin_edges"]))
    trees = [_node_from_doc(t) for t in doc["trees"]]
    names = tuple(doc["feature_names"])
    if doc["kind"] == "boosted":
        params = BoostingParams(**doc["params"])
        return BoostedModel(
            trees=trees,
            learning_rate=doc["learning_rate"],
            base_score=doc["base_score"],
            growth=doc["growth"],
            params=params,
            bins=bins,
            feature_names=names,
            train_loss=tuple(doc.get("train_loss", ())),
        )
    if doc["kind"] == "forest":
        return ForestModel(
            trees=trees, params=ForestParams(**doc["params"]), bins=bins, feature_names=names
        )
    raise SchemaError(f"unknown model kind {doc['kind']!r}")
