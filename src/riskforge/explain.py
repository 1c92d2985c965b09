"""Model explanations: exact path-dependent TreeSHAP, summary aggregation,
and LIME local surrogates.

TreeSHAP (Lundberg et al. 2020) explains a whole batch of rows at once, one
tree at a time, over merged root-to-leaf paths as in GPUTreeShap (Mitchell
et al. 2022). A feature split more than once on a path is one path element:
its zero fraction is the product of its cover ratios, and a row's one
fraction is 0 or 1 by whether the row lies in the element's interval. The
extend and unwound-sum steps of the polynomial-time algorithm then run as
numpy updates over (rows, paths, elements), for paths grouped by element
count. The base value is each tree's cover-weighted leaf expectation.

Boosted ensembles are explained on the margin (log-odds) scale, where
additivity is exact; forests on the probability scale. Every explanation
records its scale. LIME fits its surrogate to the predict function it is
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .trees import BoostedModel, ForestModel, TreeNode, predict_margin
from .utils import left_sum

SCALE_MARGIN = "margin"
SCALE_PROBABILITY = "probability"

#: Float64 cells in one (rows, paths, elements) array of the batch kernel.
#: Rows are explained in chunks sized from this and the model's widest path
#: group, never from the row count, so a row's values do not depend on the
#: batch it is explained in, and scratch memory does not grow with the rows.
CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class ShapExplanation:
    scale: str
    base_value: float
    phi: np.ndarray
    margin: float
    feature_names: tuple[str, ...]


@dataclass(frozen=True)
class ShapSummary:
    feature_names: tuple[str, ...]
    scale: str
    shap_values: np.ndarray  # (instances, features)
    feature_values: np.ndarray  # model-space inputs, for beeswarm coloring
    base_value: float
    margins: np.ndarray
    mean_abs: np.ndarray
    ranking: tuple[int, ...]  # feature indices by mean |phi| desc, ties by index

    def explanation(self, row: int) -> ShapExplanation:
        """Sample row ``row`` as a single-instance explanation."""
        return ShapExplanation(
            scale=self.scale,
            base_value=self.base_value,
            phi=self.shap_values[row],
            margin=float(self.margins[row]),
            feature_names=self.feature_names,
        )


#: One ``lime_explain`` call holds two (n_samples, n_features + 1) float64
#: arrays; they take 480 MB at this cap and 29 features.
MAX_LIME_SAMPLES = 1_000_000


@dataclass(frozen=True)
class LimeParams:
    n_samples: int = 5000
    top_k: int = 10
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise DataError("ridge strength alpha must be non-negative")
        if self.n_samples > MAX_LIME_SAMPLES:
            raise DataError(f"n_samples must be <= {MAX_LIME_SAMPLES}, got {self.n_samples}")
        if self.top_k < 1:
            raise DataError("top_k must be >= 1")


@dataclass(frozen=True)
class LimeExplanation:
    intercept: float
    weights: tuple[tuple[str, float], ...]  # (feature, weight), top_k by |weight|
    r2: float
    prediction: float


def _path_groups(root: TreeNode) -> tuple[float, list[tuple]]:
    """A tree's cover-weighted leaf expectation, and its root-to-leaf paths
    as merged elements, grouped by count, from one walk.

    An element is a distinct split feature, placed at its last split, with
    its cover ratios multiplied into a zero fraction and its turns merged
    into an interval (lo, hi]: lo is NaN with no right turn and hi is free
    with no left turn. One tuple per group, paths in depth-first order:
    (features, zero fractions, lo, hi, hi free, leaf values).
    """
    groups: dict[int, list] = {}

    def walk(node: TreeNode, path: dict) -> float:
        """Group the paths below ``node``; return its subtree's expectation."""
        if node.is_leaf:
            if path:
                groups.setdefault(len(path), []).append((node.value, path))
            return node.value
        f, t = node.feature, node.threshold
        zero, lo, hi, free = path.get(f, (1.0, math.nan, math.inf, True))
        rest = {k: v for k, v in path.items() if k != f}
        cl, cr = node.left.cover, node.right.cover
        el = walk(node.left, {**rest, f: (cl / node.cover * zero, lo, min(hi, t), False)})
        right_lo = t if math.isnan(lo) else max(lo, t)
        er = walk(node.right, {**rest, f: (cr / node.cover * zero, right_lo, hi, free)})
        return (cl * el + cr * er) / (cl + cr)

    expected = walk(root, {})
    packed = []
    for _, leaves in sorted(groups.items()):
        zero, lo, hi, free = np.array([list(p.values()) for _, p in leaves]).transpose(2, 0, 1)
        features = np.array([list(p) for _, p in leaves], dtype=np.intp)
        packed.append((features, zero, lo, hi, free == 1.0, np.array([v for v, _ in leaves])))
    return expected, packed


def _add_group_phi(x, group, phi) -> None:
    """Add one path group's TreeSHAP values for the rows ``x`` into ``phi``.

    The one fraction tests the row as ``predict_margin`` does, so a NaN cell
    goes right. ``pw[j]`` is the weight of the element subsets of size j;
    every path starts from the root's [1] and is extended one element at a
    time. Each element's unwound sum takes the branch of its one fraction.
    """
    features, zero, lo, hi, hi_free, values = group
    n = features.shape[1]
    xg = x[:, features]
    one = (xg <= hi) | hi_free
    one &= ~(xg <= lo)
    steps = np.arange(n + 1, dtype=np.float64)
    pw = np.zeros(xg.shape[:2] + (n + 1,))
    pw[..., 0] = 1.0
    for k in range(n):
        old, inv = pw[..., : k + 1], 1.0 / (k + 2)
        grow = one[..., k, None] * old * steps[1 : k + 2] * inv
        old *= zero[:, k, None]
        old *= steps[k + 1 : 0 : -1]
        old *= inv
        pw[..., 1 : k + 2] += grow
    next_one = pw[..., n, None]
    total = np.zeros(xg.shape)
    for i in range(n - 1, -1, -1):
        tmp = next_one * (n + 1) / (i + 1)
        total += np.where(one, tmp, pw[..., i, None] / zero * (n + 1) / (n - i))
        next_one = pw[..., i, None] - tmp * zero * (n - i) / (n + 1)
    total = total * (one - zero) * values[:, None]
    cells = np.arange(x.shape[0])[:, None, None] * phi.shape[1] + features
    phi += np.bincount(cells.ravel(), total.ravel(), phi.size).reshape(phi.shape)


class TreeShapExplainer:
    """Reusable explainer: the scale, coefficient and base value of one model."""

    def __init__(self, model):
        if isinstance(model, BoostedModel):
            self.coef = model.params.learning_rate
            self.offset = model.base_score
            self.scale = SCALE_MARGIN
        elif isinstance(model, ForestModel):
            self.coef = 1.0 / len(model.trees)
            self.offset = 0.0
            self.scale = SCALE_PROBABILITY
        else:
            raise SchemaError(f"cannot explain model type {type(model).__name__}")
        self.n_features = len(model.feature_names)
        walks = [_path_groups(t) for t in model.trees]
        self.base_value = self.offset + self.coef * left_sum(expected for expected, _ in walks)
        self.paths = [paths for _, paths in walks]
        widest = max((g[0].size + len(g[5]) for p in self.paths for g in p), default=1)
        self.chunk_rows = max(1, CHUNK_CELLS // widest)

    def shap_values(self, matrix) -> np.ndarray:
        """TreeSHAP values (rows, features) of every row of ``matrix``."""
        x = np.asarray(matrix, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise SchemaError(f"matrix {x.shape} does not have {self.n_features} columns")
        phi = np.zeros(x.shape)
        for start in range(0, x.shape[0], self.chunk_rows):
            rows = slice(start, start + self.chunk_rows)
            for groups in self.paths:
                for group in groups:
                    _add_group_phi(x[rows], group, phi[rows])
        phi *= self.coef
        return phi


def shap_summary(model, sample: np.ndarray) -> ShapSummary:
    """Per-instance SHAP values plus the mean-|phi| feature ranking."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("summary needs a non-empty 2-D sample")
    explainer = TreeShapExplainer(model)
    shap_values = explainer.shap_values(x)
    margins = predict_margin(model, x)
    mean_abs = np.abs(shap_values).mean(axis=0)
    ranking = tuple(int(i) for i in np.argsort(-mean_abs, kind="stable"))
    return ShapSummary(
        feature_names=tuple(model.feature_names),
        scale=explainer.scale,
        shap_values=shap_values,
        feature_values=x.copy(),
        base_value=explainer.base_value,
        margins=margins,
        mean_abs=mean_abs,
        ranking=ranking,
    )


def lime_explain(
    predict,
    instance,
    feature_stats: tuple[np.ndarray, np.ndarray],
    params: LimeParams,
    seed: int,
    feature_names=None,
) -> LimeExplanation:
    """Weighted ridge surrogate around one instance; ``seed`` seeds the
    perturbations.

    Perturbations are drawn in standardized space (unit normal around the
    standardized instance, i.e. raw-space sigma from the training scaler),
    weighted by exp(-||z - x||^2 / kernel_width^2) with the reference LIME's
    kernel width 0.75 * sqrt(d) for d features, and the surrogate is fit on
    standardized features so weights are comparable across features.
    ``predict`` maps a matrix to one probability per row. Its matrix is
    column-major (its transpose is C-contiguous), and ``predict`` must return
    a new array and keep no reference to the matrix, whose memory is reused.
    """
    x = np.asarray(instance, dtype=np.float64).ravel()
    d = x.size
    mu = np.asarray(feature_stats[0], dtype=np.float64).ravel()
    sd = np.asarray(feature_stats[1], dtype=np.float64).ravel()
    if mu.size != d or sd.size != d:
        raise SchemaError("feature statistics do not match the instance width")
    n = params.n_samples
    if n < d + 2:
        raise DataError(f"n_samples must be >= {d + 2} for {d} features")
    kernel_width = 0.75 * math.sqrt(d)

    names = tuple(feature_names) if feature_names else tuple(f"f{i}" for i in range(d))
    if len(names) != d:
        raise SchemaError("feature name count does not match the instance width")

    sd_safe = np.where(sd > 0, sd, 1.0)
    x_std = (x - mu) / sd_safe
    # Two arrays of n * (d + 1) cells: the design, whose columns after the
    # intercept's are the perturbations, and one scratch buffer that holds in
    # turn the draws, the predict batch, the squared differences and the
    # weighted design. It fits each of them because n >= d.
    design = np.empty((n, d + 1))
    design[:, 0] = 1.0
    z_std = design[:, 1:]
    scratch = np.empty(n * (d + 1))
    draws = scratch[: n * d].reshape(n, d)
    np.random.default_rng(seed).standard_normal(out=draws)
    np.add(x_std, draws, out=z_std)
    # One predict batch: row 0 is the instance itself, the rest are the
    # perturbations in raw space. It is the transpose of a C-contiguous
    # (d, n + 1) block, so the tree walk reads its columns without a copy.
    batch = scratch[: d * (n + 1)].reshape(d, n + 1).T
    batch[0] = x
    np.multiply(z_std, sd_safe, out=batch[1:])
    batch[1:] += mu
    y = np.asarray(predict(batch), dtype=np.float64).ravel()
    prediction, y = float(y[0]), y[1:]

    sq = scratch[: n * d].reshape(n, d)
    np.subtract(z_std, x_std, out=sq)
    np.square(sq, out=sq)
    dist2 = np.sum(sq, axis=1)
    w = np.exp(-dist2 / kernel_width**2)

    weighted = scratch.reshape(n, d + 1)
    np.multiply(design, w[:, None], out=weighted)
    # einsum without ``optimize`` never calls BLAS, so no BLAS thread pool wakes.
    gram = np.einsum("ki,kj->ij", design, weighted)
    gram[1:, 1:] += params.alpha * np.eye(d)
    rhs = np.einsum("ki,k->i", design, w * y)
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"degenerate LIME design: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise DataError("degenerate LIME design: non-finite surrogate weights")

    fitted = design @ beta
    w_sum = float(w.sum())
    y_bar = float((w * y).sum() / w_sum)
    ss_res = float((w * (y - fitted) ** 2).sum())
    ss_tot = float((w * (y - y_bar) ** 2).sum())
    if ss_res <= 1e-18:
        r2 = 1.0
    elif ss_tot <= 1e-18:
        r2 = 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot

    coefs = beta[1:]
    order = np.argsort(-np.abs(coefs), kind="stable")[: params.top_k]
    weights = tuple((names[int(j)], float(coefs[int(j)])) for j in order)
    return LimeExplanation(
        intercept=float(beta[0]),
        weights=weights,
        r2=r2,
        prediction=prediction,
    )
