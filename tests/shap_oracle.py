"""Scalar path-dependent TreeSHAP, kept as the reference for the batch kernel.

One row at a time, one recursion per tree: every root-to-leaf path keeps the
weighted set of feature subsets along it (the extend/unwind bookkeeping of
the polynomial-time algorithm, Lundberg et al. 2020). A feature split twice
on a path is unwound and extended again. ``riskforge.explain`` computes the
same attributions for many rows at once; the tests compare the two.
"""

import numpy as np

from riskforge.explain import TreeShapExplainer
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
