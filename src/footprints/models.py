"""Stratified folds and regression models for performance prediction.

The forest is built from scratch (CART regression trees on bootstrap
samples, per-split random feature subsets) so that tree internals are
available to the exact Shapley attribution. A node scores all of its
candidate columns in one pass (one stable sort, column-wise cumulative
sums, one SSE matrix). Its first minimum breaks ties to the lowest
threshold within a column and the lowest feature index across columns,
so the trees equal those of scoring one feature at a time. KNN and RBF
kernel ridge (the svm surrogate) standardize features with train-only
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .csvio import Key
from .errors import ConfigurationError
from .seeding import derive_seed

# Each model kind: (display label, the RunConfig field of its hyperparameter,
# fit(X, y, value, seed)). A fit calls its fit_* function by its module-level
# name, so that a patched module attribute is the one called.
MODELS = {
    "random_forest": ("RF", "forest_trees",
                      lambda X, y, value, seed: fit_random_forest(X, y, n_trees=value, seed=seed)),
    "knn": ("KNN", "knn_neighbors", lambda X, y, value, seed: fit_knn(X, y, k_neighbors=value)),
    "kernel": ("kernel (svm-surrogate)", "kernel_penalty",
               lambda X, y, value, seed: fit_kernel(X, y, penalty=value)),
}
MODEL_KINDS = tuple(MODELS)


# ---------------------------------------------------------------------------
# folds

def make_folds(keys: Sequence[Key], k: int, seed: int) -> dict[Key, int]:
    """Stratified folds, as each key's test fold in 1..k: each test fold
    holds exactly one instance per problem.

    Slot assignment comes from a seeded permutation of each problem's
    instances, so every instance appears in exactly one test fold.
    """
    if k < 2:
        raise ConfigurationError("k must be >= 2 (k=1 would leave an empty train set)")
    by_problem: dict[int, list[Key]] = {}
    for key in keys:
        by_problem.setdefault(key[0], []).append(key)
    counts = {p: len(ks) for p, ks in by_problem.items()}
    if any(c != k for c in counts.values()):
        raise ConfigurationError(
            f"every problem needs exactly k={k} instances; got counts {counts}"
        )
    rng = np.random.default_rng(seed)
    fold_of: dict[Key, int] = {}
    for problem in sorted(by_problem):
        members = sorted(by_problem[problem])
        perm = rng.permutation(k)
        for slot, key in zip(perm, members):
            fold_of[key] = int(slot) + 1
    return fold_of


# ---------------------------------------------------------------------------
# CART regression trees / random forest

@dataclass(eq=False)
class RegressionTree:
    """Flat array representation; feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=int)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.value[node]


def _grow_tree(X, y, idx, rng, min_leaf, max_depth, n_sub) -> RegressionTree:
    """The tree on the rows `idx`, grown depth-first and left child before
    right: nodes are numbered, and split nodes draw from `rng`, in that order."""
    nodes: list[list] = []  # RegressionTree's fields, in its order, per node

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(nodes)
        y_node = y[idx]
        nodes.append([-1, 0.0, -1, -1, float(y_node.mean())])
        deep = max_depth is not None and depth >= max_depth
        if len(idx) < 2 * min_leaf or deep or (y_node == y_node[0]).all():
            return node
        split = _best_split(X, idx, y_node, rng, min_leaf, n_sub)
        if split is None:
            return node
        j, thr = split
        mask = X[idx, j] <= thr
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        nodes[node][:4] = j, thr, left, right
        return node

    grow(idx, 0)
    # Python ints and floats give the int and float dtypes RegressionTree holds
    return RegressionTree(*map(np.asarray, zip(*nodes)))


def _best_split(X, idx, y, rng, min_leaf, n_sub):
    """The node's best (feature, threshold) over `n_sub` columns, or None."""
    chosen = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
    n = len(idx)
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    xs = X[idx[:, None], chosen]
    order = np.argsort(xs, axis=0, kind="stable")
    xs = xs[order, np.arange(n_sub)]
    ys = y[order]
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys**2, axis=0)
    sizes = np.arange(1, n)[:, None]  # left sizes at split positions
    sse_left = s2[:-1] - s1[:-1] ** 2 / sizes
    sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - sizes)
    valid = (sizes >= min_leaf) & (sizes <= n - min_leaf) & (xs[:-1] < xs[1:])
    total = np.where(valid, sse_left + sse_right, np.inf)
    # first minimum: the lowest threshold wins within a column and the
    # lowest feature index across columns; a split must beat the parent's SSE
    pos = np.argmin(total, axis=0)
    sse = total[pos, np.arange(n_sub)]
    col = int(np.argmin(np.where(sse < parent_sse, sse, np.inf)))
    if not sse[col] < parent_sse:
        return None
    row = pos[col]
    return int(chosen[col]), float(0.5 * (xs[row, col] + xs[row + 1, col]))


@dataclass(eq=False)
class RandomForestModel:
    trees: list[RegressionTree]
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_trees: int = 100,
    min_leaf: int = 2,
    max_depth: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
) -> RandomForestModel:
    """CART ensemble; per-split feature subsets of size ceil(m/3)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    if n != len(y) or n < 2:
        raise ConfigurationError("need matching X/y with at least 2 rows")
    n_sub = math.ceil(m / 3)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(X, y, idx, rng, min_leaf, max_depth, n_sub))
    return RandomForestModel(trees=trees, n_features=m)


# ---------------------------------------------------------------------------
# standardized-feature models

def _standardize_params(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


@dataclass(eq=False)
class KnnModel:
    mean: np.ndarray
    std: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    k_neighbors: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.mean) / self.std
        dists = cdist(Z, self.X_train)
        # stable sort keeps the lowest training index on distance ties
        nearest = np.argsort(dists, axis=1, kind="stable")[:, : self.k_neighbors]
        return self.y_train[nearest].mean(axis=1)


def fit_knn(X: np.ndarray, y: np.ndarray, k_neighbors: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if k_neighbors > X.shape[0]:
        raise ConfigurationError(
            f"k_neighbors {k_neighbors} exceeds training size {X.shape[0]}"
        )
    if k_neighbors < 1:
        raise ConfigurationError("k_neighbors must be >= 1")
    mean, std = _standardize_params(X)
    return KnnModel(mean=mean, std=std, X_train=(X - mean) / std, y_train=y,
                    k_neighbors=k_neighbors)


@dataclass(eq=False)
class KernelRidgeModel:
    """RBF kernel ridge; the svm surrogate family."""

    mean: np.ndarray
    std: np.ndarray
    X_train: np.ndarray
    coef: np.ndarray
    bandwidth: float
    y_mean: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.mean) / self.std
        sq = cdist(Z, self.X_train, "sqeuclidean")
        K = np.exp(-sq / (2.0 * self.bandwidth**2))
        # one reduction per row: BLAS `K @ coef` sums a row in an order that
        # depends on the other rows of the call, and so its last bits too
        return np.einsum("ij,j->i", K, self.coef) + self.y_mean


def fit_kernel(
    X: np.ndarray,
    y: np.ndarray,
    *,
    penalty: float = 1e-3,
) -> KernelRidgeModel:
    if penalty <= 0:
        raise ConfigurationError("ridge penalty must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mean, std = _standardize_params(X)
    Z = (X - mean) / std
    sq = cdist(Z, Z, "sqeuclidean")
    dists = np.sqrt(sq[np.triu_indices(len(Z), 1)])  # bit for bit those of pdist(Z)
    bandwidth = float(np.median(dists)) if len(dists) else 1.0
    if bandwidth <= 0:
        bandwidth = 1.0
    K = np.exp(-sq / (2.0 * bandwidth**2))
    y_mean = float(y.mean())
    coef = np.linalg.solve(K + penalty * np.eye(len(y)), y - y_mean)
    return KernelRidgeModel(mean=mean, std=std, X_train=Z, coef=coef,
                            bandwidth=bandwidth, y_mean=y_mean)


# ---------------------------------------------------------------------------
# metrics

def evaluate_model(pred: np.ndarray, y_test: np.ndarray) -> tuple[float, float]:
    """(MAE, R^2) of a model's test-set predictions."""
    pred = np.asarray(pred, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    mae = float(np.mean(np.abs(pred - y_test)))
    sse = float(np.sum((pred - y_test) ** 2))
    sst = float(np.sum((y_test - y_test.mean()) ** 2))
    if sst <= 0:
        r2 = 1.0 if sse == 0 else 0.0
    else:
        r2 = 1.0 - sse / sst
    return mae, r2
