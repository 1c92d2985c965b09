"""Full-slot split search, kept as the reference for ``riskforge.trees``.

The histograms are per-feature ``np.bincount``s of the real gradient,
hessian and class-1 weights, built without the kernel under test. Every
(feature, edge) slot of a node's histograms is scored, occupied or not,
with explicit checks that both children are non-empty; every node the
grower creates is searched, unless it is at the depth cap.
``riskforge.trees`` packs two weights into one complex histogram, scores
only the occupied candidates and skips nodes that cannot split; the tests
require the same splits, gains and model documents from both.
"""

import heapq
import itertools
import math

import numpy as np

from riskforge.trees import GROWTH_LEVEL, TreeNode, leaf_value, split_gain


def per_feature_histograms(binned, rows, feats, stride, weights):
    """Row-count histogram and one weighted histogram per array in
    ``weights``, (features x ``stride``) each: one ``np.bincount`` per
    feature and quantity over the bin ordinals ``binned``."""
    count = np.array([np.bincount(binned[rows, f], minlength=stride) for f in feats])
    weighted = [
        np.array([np.bincount(binned[rows, f], w[rows], minlength=stride) for f in feats])
        for w in weights
    ]
    return count, weighted


def node_histograms(train, rows, feats, weights):
    """``per_feature_histograms`` of a ``BinnedSet``'s bin ordinals."""
    binned = train.codes - np.arange(train.codes.shape[1]) * train.stride
    return per_feature_histograms(binned, rows, feats, train.stride, weights)


def left_sums(hist: np.ndarray) -> np.ndarray:
    """Left-child sum of every candidate: edge i sends bins 0..i left.

    Columns past a feature's last edge send every row left, so the candidate
    checks (both children non-empty) reject them.
    """
    return np.cumsum(hist, axis=1)[:, :-1]


def pick_split(gains: np.ndarray, feats: np.ndarray):
    """Best (feature, edge index, gain) with positive gain, or None.

    Ties resolve to the lowest edge index within a feature, then to the
    earliest feature. A feature whose first maximum is NaN is never chosen.
    """
    edge = np.argmax(gains, axis=1)
    best = gains[np.arange(edge.size), edge]
    best[np.isnan(best)] = -np.inf
    k = int(np.argmax(best))
    if not best[k] > 0.0:
        return None
    return int(feats[k]), int(edge[k]), float(best[k])


def best_split_boosted(train, rows, gh, feats, prm, g_sum, h_sum):
    """A drop-in for ``riskforge.trees._best_split_boosted``: ``gh`` packs
    each row's gradient and hessian as ``g + i*h``."""
    return _best_split_boosted(train, rows, gh.real, gh.imag, feats, prm, g_sum, h_sum)


def _best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum):
    """Best (feature, edge index, gain) by second-order gain, or None."""
    count, (gb, hb) = node_histograms(train, rows, feats, (g, h))
    cl, gl, hl = left_sums(count), left_sums(gb), left_sums(hb)
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
    return pick_split(np.where(valid, gains, -np.inf), feats)


def best_split_gini(train, rows, w, feats, n1):
    """Best (feature, edge index, gain) by Gini impurity decrease, or None;
    a drop-in for ``riskforge.trees._best_split_gini``: ``w`` is
    ``1 + i*y1`` per row and ``n1`` the node's class-1 count."""
    n = rows.size
    p1 = n1 / n
    parent = 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
    count, (c1,) = node_histograms(train, rows, feats, (w.imag,))
    cl = left_sums(count.astype(np.float64))
    c1l = left_sums(c1)
    c1r = n1 - c1l
    cr = n - cl
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = c1l / cl
        pr = c1r / cr
        gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        gains = parent - (cl * gini_l + cr * gini_r) / n
    return pick_split(np.where((cl > 0) & (cr > 0), gains, -np.inf), feats)


def grow_boosted(train, g, h, feats, prm):
    """Best-first growth that searches every node below the depth cap; a
    drop-in for ``riskforge.trees._grow_boosted``."""
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
            split = _best_split_boosted(train, rows, g, h, feats, prm, g_sum, h_sum)
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
        mask = train.goes_left(rows, f, edge_idx)
        node.feature = f
        node.threshold = float(train.edges[f][edge_idx])
        node.left = add(rows[mask], depth + 1)
        node.right = add(rows[~mask], depth + 1)
        n_leaves += 1
    for _, _, node, rows, _, _, g_sum in heap:
        node.value = leaf_value(g_sum, node.cover, prm.l2_regularization)
        leaves.append((node, rows))
    return root, leaves
