"""Independent reference computations used by unit and acceptance tests.

These are deliberately naive (enumeration, uniform sampling) and share no
code with the implementations they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist


def brute_force_shapley(model, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Exact Shapley values by enumerating all 2^M coalitions.

    v(S) imputes features outside S from the background rows and averages
    the model output (the interventional value function).
    """
    x = np.asarray(x, dtype=float)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    m = len(x)
    values: dict[frozenset, float] = {}
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            Z = background.copy()
            for j in subset:
                Z[:, j] = x[j]
            values[frozenset(subset)] = float(model.predict(Z).mean())
    phi = np.zeros(m)
    for i in range(m):
        others = [j for j in range(m) if j != i]
        for r in range(m):
            for subset in itertools.combinations(others, r):
                weight = (
                    math.factorial(r) * math.factorial(m - r - 1) / math.factorial(m)
                )
                s = frozenset(subset)
                phi[i] += weight * (values[s | {i}] - values[s])
    return phi


def random_search_precision(instance, budget: int, seed: int) -> float:
    """Best precision of plain uniform random search with the same budget."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, (budget, instance.dimension))
    best = float(np.min(instance.evaluate_batch(X)))
    return max(best - instance.f_offset, 0.0)


def naive_knn_predict(model, X: np.ndarray) -> np.ndarray:
    """KNN prediction one row at a time: a stable sort of the row's
    distances, so the lowest training index wins a distance tie."""
    Z = (np.asarray(X, dtype=float) - model.mean) / model.std
    out = np.empty(Z.shape[0])
    for i, z in enumerate(Z):
        dists = cdist(z[None, :], model.X_train)[0]
        nearest = np.argsort(dists, kind="stable")[: model.k_neighbors]
        out[i] = model.y_train[nearest].mean()
    return out


def naive_sampling_shap(model, x: np.ndarray, background: np.ndarray,
                        n_permutations: int, seed: int):
    """Antithetic permutation sampling, one permutation and one predict call
    at a time. Returns (base_value, phi, prediction, stderr)."""
    x = np.asarray(x, dtype=float)
    B = np.atleast_2d(np.asarray(background, dtype=float))
    m = x.shape[0]
    rng = np.random.default_rng(seed)
    n_pairs = (n_permutations + 1) // 2
    total = 2 * n_pairs
    contribs = np.empty((total, m))
    base_samples = np.empty(total)
    row = 0
    for pair in range(n_pairs):
        b = B[pair % B.shape[0]]
        perm = rng.permutation(m)
        for order in (perm, perm[::-1]):
            states = np.repeat(b[None, :], m + 1, axis=0)
            for t, f in enumerate(order):
                states[t + 1:, f] = x[f]
            values = model.predict(states)
            contribs[row, order] = values[1:] - values[:-1]
            base_samples[row] = values[0]
            row += 1
    stderr = contribs.std(axis=0, ddof=1) / math.sqrt(total)
    prediction = float(model.predict(x[None, :])[0])
    return float(base_samples.mean()), contribs.mean(axis=0), prediction, stderr
