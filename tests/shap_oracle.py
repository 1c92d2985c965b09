"""Reference Shapley values for the batch TreeSHAP kernel.

``oracle_phi`` is scalar path-dependent TreeSHAP, one row at a time, one
recursion per tree: every root-to-leaf path keeps the weighted set of
feature subsets along it (the extend/unwind bookkeeping of the
polynomial-time algorithm, Lundberg et al. 2020). A feature split twice on a
path is unwound and extended again. ``brute_shapley`` computes the same
attributions straight from the Shapley definition, in time exponential in
the feature count. ``riskforge.explain`` computes them for many rows at
once; the tests compare the three.
"""

import math

import numpy as np

from riskforge.errors import DataError, SchemaError
from riskforge.explain import ShapExplanation, TreeShapExplainer, shap_summary
from riskforge.trees import TreeNode


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
    # Copy the parent path, then extend it with the incoming fractions.
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


def oracle_phi(model, instance) -> np.ndarray:
    """TreeSHAP values of one row by the scalar recursion, scaled like
    ``TreeShapExplainer`` (margin for boosting, probability for forests)."""
    x = np.asarray(instance, dtype=np.float64).ravel()
    phi = np.zeros(len(model.feature_names), dtype=np.float64)
    xl = x.tolist()  # plain floats are faster in the recursion
    for tree in model.trees:
        _shap_recurse(tree, xl, phi, [], [], [], [], 1.0, 1.0, -1)
    phi *= TreeShapExplainer(model).coef
    return phi


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


def brute_shapley(model, instance) -> ShapExplanation:
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
        scale=explainer.scale,
        base_value=values[0],
        phi=phi,
        margin=values[(1 << m) - 1],
        feature_names=tuple(model.feature_names),
    )


def explain_row(model, instance) -> ShapExplanation:
    """One row's TreeSHAP explanation, made as ``assess`` makes it: a
    one-row SHAP summary."""
    x = np.asarray(instance, dtype=np.float64).reshape(1, -1)
    return shap_summary(model, x).explanation(0)
