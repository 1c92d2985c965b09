"""Reference LIME surrogate for ``riskforge.explain.lime_explain``.

``lime_oracle`` is the surrogate's arithmetic written with a fresh array per
step: the draws as one (n_samples, d) array, a row-major predict batch, the
squared differences as their own temporaries and the design stacked from a
ones column. ``lime_explain`` runs the same expressions in the same order in
two reused arrays; the tests require the two to agree bit for bit.
"""

import math

import numpy as np

from riskforge.explain import LimeExplanation


def lime_oracle(predict, instance, feature_stats, params, seed, feature_names=None):
    """The LIME explanation of ``instance``, argument for argument as
    ``lime_explain`` takes them; the arguments are taken as valid."""
    x = np.asarray(instance, dtype=np.float64).ravel()
    d = x.size
    mu = np.asarray(feature_stats[0], dtype=np.float64).ravel()
    sd = np.asarray(feature_stats[1], dtype=np.float64).ravel()
    kernel_width = 0.75 * math.sqrt(d)
    names = tuple(feature_names) if feature_names else tuple(f"f{i}" for i in range(d))

    sd_safe = np.where(sd > 0, sd, 1.0)
    x_std = (x - mu) / sd_safe
    rng = np.random.default_rng(seed)
    z_std = x_std + rng.standard_normal((params.n_samples, d))
    batch = np.empty((params.n_samples + 1, d))
    batch[0] = x
    np.multiply(z_std, sd_safe, out=batch[1:])
    batch[1:] += mu
    y = np.asarray(predict(batch), dtype=np.float64).ravel()
    prediction, y = float(y[0]), y[1:]

    dist2 = np.sum((z_std - x_std) ** 2, axis=1)
    w = np.exp(-dist2 / kernel_width**2)

    design = np.hstack([np.ones((params.n_samples, 1)), z_std])
    gram = np.einsum("ki,kj->ij", design, design * w[:, None])
    gram[1:, 1:] += params.alpha * np.eye(d)
    rhs = np.einsum("ki,k->i", design, w * y)
    beta = np.linalg.solve(gram, rhs)

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
