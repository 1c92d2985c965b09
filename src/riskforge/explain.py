"""Model explanations: path-dependent TreeSHAP, a brute-force Shapley
oracle, summary aggregation, and LIME local surrogates.

TreeSHAP walks every root-to-leaf path once, maintaining the weighted set
of feature subsets along the path (the extend/unwind bookkeeping of the
polynomial-time algorithm). A feature that is absent from a subset sends
weight down both children in proportion to their training cover. It reads
the fitted ``TreeNode`` trees directly: each node's split, children, cover
and leaf value are all it needs, and the base value is each tree's
cover-weighted leaf expectation. The exponential-time ``brute_shapley``
computes the same attributions straight from the Shapley definition and
exists purely to cross-check the fast path.

Boosted ensembles are explained on the margin (log-odds) scale, where
additivity is exact; forests on the probability scale. Every explanation
records its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SchemaError
from .trees import BoostedModel, ForestModel, TreeNode, predict_margin

SCALE_MARGIN = "margin"
SCALE_PROBABILITY = "probability"


@dataclass(frozen=True)
class ShapExplanation:
    instance_id: str
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

    def explanation(self, row: int, instance_id: str = "") -> ShapExplanation:
        """Sample row ``row`` as a single-instance explanation."""
        return ShapExplanation(
            instance_id=instance_id,
            scale=self.scale,
            base_value=self.base_value,
            phi=self.shap_values[row],
            margin=float(self.margins[row]),
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class LimeParams:
    n_samples: int = 5000
    kernel_width: float | None = None  # defaults to 0.75 * sqrt(n_features)
    top_k: int = 10
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise DataError("ridge strength alpha must be non-negative")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise DataError("kernel_width must be positive")
        if self.top_k < 1:
            raise DataError("top_k must be >= 1")


@dataclass(frozen=True)
class LimeExplanation:
    instance_id: str
    intercept: float
    weights: tuple[tuple[str, float], ...]  # (feature, weight), top_k by |weight|
    r2: float
    prediction: float


def _expected_value(node: TreeNode) -> float:
    """Cover-weighted expectation of a subtree's leaf values."""
    if node.is_leaf:
        return node.value
    left, right = node.left, node.right
    el = _expected_value(left)
    er = _expected_value(right)
    return (left.cover * el + right.cover * er) / (left.cover + right.cover)


def _unwind(fi, zf, of, pw, path_index):
    depth = len(fi) - 1
    one_fraction = of[path_index]
    zero_fraction = zf[path_index]
    next_one = pw[depth]
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = pw[i]
            pw[i] = next_one * (depth + 1) / ((i + 1) * one_fraction)
            next_one = tmp - pw[i] * zero_fraction * (depth - i) / (depth + 1)
        else:
            pw[i] = pw[i] * (depth + 1) / (zero_fraction * (depth - i))
    for i in range(path_index, depth):
        fi[i] = fi[i + 1]
        zf[i] = zf[i + 1]
        of[i] = of[i + 1]
    fi.pop()
    zf.pop()
    of.pop()
    pw.pop()


def _unwound_sum(fi, zf, of, pw, path_index):
    depth = len(fi) - 1
    one_fraction = of[path_index]
    zero_fraction = zf[path_index]
    next_one = pw[depth]
    total = 0.0
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = next_one * (depth + 1) / ((i + 1) * one_fraction)
            total += tmp
            next_one = pw[i] - tmp * zero_fraction * (depth - i) / (depth + 1)
        else:
            total += pw[i] / zero_fraction * (depth + 1) / (depth - i)
    return total


def _shap_recurse(node: TreeNode, x, phi, fi, zf, of, pw, pzf, pof, pfi):
    # Copy the parent path, then extend it with the incoming fractions
    # (inlined _extend: this is the hottest loop in the package).
    fi = fi.copy()
    zf = zf.copy()
    of = of.copy()
    pw = pw.copy()
    depth = len(fi)
    fi.append(pfi)
    zf.append(pzf)
    of.append(pof)
    pw.append(1.0 if depth == 0 else 0.0)
    inv = 1.0 / (depth + 1)
    for i in range(depth - 1, -1, -1):
        pw[i + 1] += pof * pw[i] * (i + 1) * inv
        pw[i] = pzf * pw[i] * (depth - i) * inv

    left = node.left
    if left is None:
        leaf_value = node.value
        for i in range(1, depth + 1):
            w = _unwound_sum(fi, zf, of, pw, i)
            phi[fi[i]] += w * (of[i] - zf[i]) * leaf_value
        return

    f = node.feature
    right = node.right
    hot, cold = (left, right) if x[f] <= node.threshold else (right, left)
    w = node.cover
    hot_zero = hot.cover / w
    cold_zero = cold.cover / w
    incoming_zero = 1.0
    incoming_one = 1.0

    if f in fi:
        path_index = fi.index(f)
        incoming_zero = zf[path_index]
        incoming_one = of[path_index]
        _unwind(fi, zf, of, pw, path_index)

    _shap_recurse(hot, x, phi, fi, zf, of, pw, hot_zero * incoming_zero, incoming_one, f)
    _shap_recurse(cold, x, phi, fi, zf, of, pw, cold_zero * incoming_zero, 0.0, f)


class TreeShapExplainer:
    """Reusable explainer: the scale, coefficient and base value of one model."""

    def __init__(self, model):
        if isinstance(model, BoostedModel):
            self.coef = model.learning_rate
            self.offset = model.base_score
            self.scale = SCALE_MARGIN
        elif isinstance(model, ForestModel):
            self.coef = 1.0 / len(model.trees)
            self.offset = 0.0
            self.scale = SCALE_PROBABILITY
        else:
            raise SchemaError(f"cannot explain model type {type(model).__name__}")
        self.model = model
        self.n_features = len(model.feature_names)
        self.base_value = self.offset + self.coef * sum(
            _expected_value(t) for t in model.trees
        )

    def explain(self, instance, instance_id: str = "", margin: float | None = None) -> ShapExplanation:
        x = np.asarray(instance, dtype=np.float64).ravel()
        if x.size != self.n_features:
            raise SchemaError(
                f"instance has {x.size} features, model expects {self.n_features}"
            )
        phi = np.zeros(self.n_features, dtype=np.float64)
        xl = x.tolist()  # plain floats are faster in the recursion
        for tree in self.model.trees:
            _shap_recurse(tree, xl, phi, [], [], [], [], 1.0, 1.0, -1)
        phi *= self.coef
        if margin is None:
            margin = float(predict_margin(self.model, x.reshape(1, -1))[0])
        return ShapExplanation(
            instance_id=instance_id,
            scale=self.scale,
            base_value=self.base_value,
            phi=phi,
            margin=margin,
            feature_names=tuple(self.model.feature_names),
        )


def _leaf_paths(root: TreeNode, x) -> list:
    """(leaf value, [(feature, on_x_path, cover_fraction), ...]) per leaf."""
    paths = []

    def walk(node: TreeNode, factors: list):
        if node.is_leaf:
            paths.append((node.value, list(factors)))
            return
        goes_left = x[node.feature] <= node.threshold
        for child, on_path in ((node.left, goes_left), (node.right, not goes_left)):
            factors.append(
                (node.feature, 1.0 if on_path else 0.0, child.cover / node.cover)
            )
            walk(child, factors)
            factors.pop()

    walk(root, [])
    return paths


def brute_shapley(model, instance, instance_id: str = "") -> ShapExplanation:
    """Shapley values straight from the definition; exponential in features.

    The coalition value v(S) evaluates each tree with features outside S
    marginalized by cover-weighted descent into both children. Verification
    oracle only; refuses more than 15 features.
    """
    explainer = TreeShapExplainer(model)  # reuse scale/coef bookkeeping
    x = np.asarray(instance, dtype=np.float64).ravel()
    m = explainer.n_features
    if x.size != m:
        raise SchemaError(f"instance has {x.size} features, model expects {m}")
    if m > 15:
        raise DataError(f"brute-force Shapley refuses {m} features (limit 15)")

    tree_paths = [_leaf_paths(t, x) for t in model.trees]

    def coalition_value(mask: int) -> float:
        total = 0.0
        for paths in tree_paths:
            for value, factors in paths:
                prod = value
                for f, on_path, frac in factors:
                    prod *= on_path if (mask >> f) & 1 else frac
                    if prod == 0.0:
                        break
                total += prod
        return explainer.offset + explainer.coef * total

    values = [coalition_value(mask) for mask in range(1 << m)]
    weights = [
        math.factorial(s) * math.factorial(m - 1 - s) / math.factorial(m)
        for s in range(m)
    ]
    phi = np.zeros(m, dtype=np.float64)
    for i in range(m):
        bit = 1 << i
        for mask in range(1 << m):
            if mask & bit:
                continue
            size = bin(mask).count("1")
            phi[i] += weights[size] * (values[mask | bit] - values[mask])

    return ShapExplanation(
        instance_id=instance_id,
        scale=explainer.scale,
        base_value=values[0],
        phi=phi,
        margin=values[(1 << m) - 1],
        feature_names=tuple(model.feature_names),
    )


def shap_summary(model, sample: np.ndarray) -> ShapSummary:
    """Per-instance SHAP values plus the mean-|phi| feature ranking."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("summary needs a non-empty 2-D sample")
    explainer = TreeShapExplainer(model)
    shap_values = np.empty_like(x)
    margins = predict_margin(model, x)
    for i in range(x.shape[0]):
        exp = explainer.explain(x[i], margin=float(margins[i]))
        shap_values[i] = exp.phi
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
    model,
    instance,
    feature_stats: tuple[np.ndarray, np.ndarray],
    params: LimeParams,
    feature_names=None,
    instance_id: str = "",
) -> LimeExplanation:
    """Weighted ridge surrogate around one instance.

    Perturbations are drawn in standardized space (unit normal around the
    standardized instance, i.e. raw-space sigma from the training scaler),
    weighted by exp(-||z - x||^2 / kernel_width^2), and the surrogate is fit
    on standardized features so weights are comparable across features.
    ``model`` may be a fitted ensemble or any callable matrix -> probability.
    """
    x = np.asarray(instance, dtype=np.float64).ravel()
    d = x.size
    mu = np.asarray(feature_stats[0], dtype=np.float64).ravel()
    sd = np.asarray(feature_stats[1], dtype=np.float64).ravel()
    if mu.size != d or sd.size != d:
        raise SchemaError("feature statistics do not match the instance width")
    if params.n_samples < d + 2:
        raise DataError(f"n_samples must be >= {d + 2} for {d} features")
    kernel_width = params.kernel_width or 0.75 * math.sqrt(d)

    predict = model if callable(model) else None
    if predict is None:
        from .trees import predict_proba

        def predict(matrix):
            return predict_proba(model, matrix)

    names = tuple(feature_names) if feature_names else tuple(f"f{i}" for i in range(d))
    if len(names) != d:
        raise SchemaError("feature name count does not match the instance width")

    sd_safe = np.where(sd > 0, sd, 1.0)
    x_std = (x - mu) / sd_safe
    rng = np.random.default_rng(params.seed)
    z_std = x_std + rng.standard_normal((params.n_samples, d))
    z_raw = z_std * sd_safe + mu
    y = np.asarray(predict(z_raw), dtype=np.float64).ravel()

    dist2 = np.sum((z_std - x_std) ** 2, axis=1)
    w = np.exp(-dist2 / kernel_width**2)

    design = np.hstack([np.ones((params.n_samples, 1)), z_std])
    # einsum without ``optimize`` never calls BLAS, so no BLAS thread pool wakes.
    gram = np.einsum("ki,kj->ij", design, design * w[:, None])
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
    prediction = float(np.asarray(predict(x.reshape(1, -1))).ravel()[0])
    return LimeExplanation(
        instance_id=instance_id,
        intercept=float(beta[0]),
        weights=weights,
        r2=r2,
        prediction=prediction,
    )
