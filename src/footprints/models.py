"""Stratified folds and regression models for performance prediction.

The forest is built from scratch (CART regression trees on bootstrap
samples, per-split random feature subsets) so that tree internals are
available to the exact Shapley attribution. A forest's trees grow in
lockstep: each step takes the next node, in depth-first pre-order, of
every tree with work left, so each tree's nodes and generator draws are
those of growing it alone. Every node statistic is a sequential prefix sum
along the node's padded row: its mean and SSE, and the split scan's
cumulative sums. The step's split nodes are scored together,
padded with rows that sort last and add nothing; a node scores all of its
candidate columns in one pass (one sort of (value rank, position) keys,
which is a stable sort of the values, cumulative sums, one SSE array).
Its first minimum breaks ties to the lowest threshold within a column and
the lowest feature index across columns, so the trees equal those of
scoring one feature at a time. Prediction walks every (tree, row) pair
down at once and adds the trees' leaf values in tree order. KNN and RBF
kernel ridge (the svm surrogate) standardize features with train-only
statistics, (X - mean) / std elementwise (`_standardize`). Each splits
prediction into `standardize(X)` and `predict_standardized(Z)`, so that
sampling Shapley can predict states it builds in the standardized space;
`predict(X)`, their composition, stays in each class body because the
benchmark's tracer wraps a method found in the class's own `__dict__`.

KNN ranks a row's training rows by keys |t_j|^2 - 2 z.t_j from one BLAS
product. Where the first k + 1 sorted keys are more than 2E apart, E a
per-row rounding bound (Higham 2002, eq. 3.5; derived at `_rank_keys`)
that covers the keys, the rounding of the exact distances and the sqrt,
the k nearest and their order are exactly those of a stable sort of the
row's distances summed column by column (`_column_sq_distances`, the
rounding of scipy's cdist), so the prediction keeps its bits. Other rows
(ties, near-ties, non-finite or huge queries) take that stable sort.
Kernel ridge's distances reach the output bits, so they come from einsum
(`_gram_sq_distances`), whose sums do not depend on the other rows of a
call as a BLAS product's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


# Split nodes are scored in groups padded to their largest node. A group
# ends where padding the nodes below it would cost more than GROUP_COST
# (row, column) cells, about the cost of scoring one more group. On
# 100-tree fits at 24x43 and 96x43 this rule, flat from 4000 to 16000,
# beat groups of equal sizes, power-of-two buckets and one padded group a
# step. A group's scratch arrays take about 65 bytes a cell, so
# GROUP_CELLS holds them near 16 MiB however large the forest.
GROUP_COST = 8000
GROUP_CELLS = 1 << 18  # unless the group is one node
MIN_LEAF = 2  # the fewest rows a split leaves on either side


def _grow_forest(X, y, roots, rngs, n_sub) -> list[RegressionTree]:
    """One tree per row of `roots` (the tree's sample of row indices) and
    generator in `rngs`, the trees grown in lockstep.

    Each tree pops its nodes from its own stack, left child before right, so
    its nodes are numbered, and its split nodes draw from its generator, in
    depth-first pre-order. A node is a segment of its tree's row of `rows`,
    and a split partitions that segment stably in place. Each step pops the
    next node of every tree with work left and scores all of the step's
    split nodes together.
    """
    n_trees, n = roots.shape
    m = X.shape[1]
    pad = len(X)  # the index of one pad row: x NaN, y -0.0
    XT = np.vstack([X, np.full(m, np.nan)]).T.copy()
    yp = np.append(y, -0.0)  # -0.0 adds exactly
    # each column's dense value ranks, NaN and the pad last at rank `pad`:
    # sorting a node's (rank, position) keys is a stable sort of its values
    order = np.argsort(XT, axis=1)
    sorted_x = np.take_along_axis(XT, order, axis=1)
    distinct = np.zeros(XT.shape, dtype=int)
    distinct[:, 1:] = sorted_x[:, 1:] != sorted_x[:, :-1]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.cumsum(distinct, axis=1), axis=1)
    ranks[np.isnan(XT)] = pad
    cap = 2 * n - 1  # a split leaves rows on both sides, so every leaf holds one
    feature = np.full((n_trees, cap), -1)
    threshold = np.zeros((n_trees, cap))
    left = np.full((n_trees, cap), -1)
    right = np.full((n_trees, cap), -1)
    value = np.zeros((n_trees, cap))
    rows = roots.copy()
    # pending nodes as (start, size, parent if a right child else -1)
    stack = np.empty((n_trees, n + 1, 3), dtype=int)
    stack[:, 0] = (0, n, -1)
    top = np.ones(n_trees, dtype=int)
    count = np.zeros(n_trees, dtype=int)
    while (t := np.flatnonzero(top)).size:
        top[t] -= 1
        start, size, parent = stack[t, top[t]].T
        node = count[t]
        count[t] += 1
        is_right = parent >= 0
        right[t[is_right], parent[is_right]] = node[is_right]

        position = np.arange(size.max())
        real = position < size[:, None]
        R = np.where(real, rows[t[:, None], np.minimum(start[:, None] + position, n - 1)], pad)
        Y = yp[R]
        # sequential prefix sums, as in the split scan: pads lie past each
        # node's last row, so they cannot move its mean or SSE
        last = (np.arange(len(t)), size - 1)
        value[t, node] = mean = np.cumsum(Y, axis=1)[last] / size
        sse = np.cumsum((Y - mean[:, None]) ** 2, axis=1)[last]
        split = np.flatnonzero((size >= 2 * MIN_LEAF) & ((Y != Y[:, :1]) & real).any(axis=1))
        if not split.size:
            continue
        chosen = np.array([rngs[i].choice(m, size=n_sub, replace=False) for i in t[split]])
        chosen.sort(axis=1)
        j, thr, ok = _best_splits(XT, ranks, yp, R[split], size[split], sse[split], chosen)
        split, j, thr = split[ok], j[ok], thr[ok]
        ts, at, start, size = t[split], node[split], start[split], size[split]
        feature[ts, at] = j
        threshold[ts, at] = thr
        left[ts, at] = at + 1

        R, real = R[split], real[split]
        go_left = XT[j[:, None], R] <= thr[:, None]
        n_left = go_left.sum(axis=1)
        dest = start[:, None] - 1 + np.where(
            go_left, np.cumsum(go_left, axis=1),
            n_left[:, None] + np.cumsum(~go_left & real, axis=1))
        rows[np.broadcast_to(ts[:, None], R.shape)[real], dest[real]] = R[real]
        # the right child goes below the left one, which is popped next
        push = top[ts]
        stack[ts, push] = np.column_stack([start + n_left, size - n_left, at])
        stack[ts, push + 1] = np.column_stack([start, n_left, np.full(len(ts), -1)])
        top[ts] += 2
    arrays = (feature, threshold, left, right, value)
    return [RegressionTree(*(a[i, :count[i]].copy() for a in arrays)) for i in range(n_trees)]


def _best_splits(XT, ranks, yp, R, size, parent_sse, chosen):
    """Each node's best (feature, threshold) over its `chosen` columns, and
    whether it beats the node's `parent_sse`. A node's rows are the first
    `size` entries of its row of R, as indices into the columns of XT and
    `ranks` and into yp; the entries past them are pad.

    A node scores all of its candidate columns in one pass, and nodes are
    scored in groups padded to their largest node. The arrays run (sorted
    position, node, column), so that a cumulative sum over positions is one
    vector add per position.
    """
    stride = XT.shape[1]
    last_rank = stride - 1  # NaN and the pad
    j = np.empty(len(size), dtype=int)
    thr = np.empty(len(size))
    ok = np.empty(len(size), dtype=bool)
    for g in _size_groups(size, chosen.shape[1]):
        width = size[g].max()
        k = np.arange(len(g))
        rows = R[g, :width]
        # keys (rank, position) are distinct, so any sort orders them alike
        shift = int(width - 1).bit_length()
        key = ranks.ravel()[chosen[g][:, :, None] * stride + rows[:, None, :]]
        key <<= shift
        key |= np.arange(width)
        key.sort(axis=2)
        key = key.transpose(2, 0, 1)  # (sorted position, node, column)
        rank = key >> shift
        rows = rows.ravel()[(key & ((1 << shift) - 1)) + (k * width)[:, None]]
        # pads sort last and add -0.0, so the last sums are the node's totals
        sums = np.empty((width, 2) + rows.shape[1:])
        np.take(yp, rows, out=sums[:, 0])
        np.square(sums[:, 0], out=sums[:, 1])
        for i in range(1, width):  # cumulative sums, one vector add per position
            sums[i] += sums[i - 1]
        s1, s2 = sums.transpose(1, 0, 2, 3)
        n_left = np.arange(1.0, width)[:, None, None]  # left sizes at split positions
        # positions in the pad are masked below; keep their divisors positive
        n_right = np.maximum(size[g, None] - n_left, 1.0)
        total = s1[:-1] ** 2
        total /= n_left
        np.subtract(s2[:-1], total, out=total)  # the left side's SSE
        right = s1[-1] - s1[:-1]
        right **= 2
        right /= n_right
        np.subtract(s2[-1] - s2[:-1], right, out=right)  # the right side's SSE
        total += right
        # a split lies between two distinct values, neither of them NaN, and
        # leaves MIN_LEAF rows on each side: elsewhere no rank is below `bound`
        bound = np.where((n_left >= MIN_LEAF) & (size[g, None] - n_left >= MIN_LEAF),
                         last_rank, 0)
        valid = rank[:-1] < rank[1:]
        valid &= rank[1:] < bound
        total[~valid] = np.inf
        # a column's minimum, then the first column below the parent's SSE:
        # the lowest feature index wins a tie, then the column's first minimum
        # position, so the lowest threshold
        sse = total.min(axis=0)
        col = np.argmin(np.where(sse < parent_sse[g, None], sse, np.inf), axis=1)
        row = np.argmin(total[:, k, col], axis=0)
        j[g] = chosen[g, col]
        lo, hi = XT[j[g], rows[row, k, col]], XT[j[g], rows[row + 1, k, col]]
        # the midpoint rounds up to hi between adjacent floats or next to
        # +inf, and is NaN between -inf and +inf; lo then keeps the scored
        # partition, where either would leave a child empty
        mid = 0.5 * (lo + hi)
        thr[g] = np.where(mid < hi, mid, lo)
        ok[g] = sse[k, col] < parent_sse[g]
    return j, thr, ok


def _size_groups(size, n_sub):
    """The nodes, as index arrays, in groups to pad to their largest size.
    Going down the sizes, a group ends where padding the nodes below it to
    its width would cost more than scoring one more group."""
    order = np.argsort(-size, kind="stable")
    groups = []
    while order.size:
        sizes = size[order]
        waste = (sizes[0] - sizes) * np.arange(len(sizes), 0, -1) * n_sub
        cut = np.argmax(waste > GROUP_COST) or len(sizes)
        cut = min(cut, max(1, GROUP_CELLS // (sizes[0] * n_sub)))
        groups.append(order[:cut])
        order = order[cut:]
    return groups


@dataclass(eq=False)
class RandomForestModel:
    trees: list[RegressionTree]
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The mean of the trees' predictions. Every (tree, row) pair
        descends at once through the trees' concatenated arrays; the leaf
        values are then added in tree order, as one tree at a time would."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        sizes = [len(tree.feature) for tree in self.trees]
        offset = np.cumsum([0] + sizes[:-1])
        feature, threshold, value = (np.concatenate([getattr(tree, name) for tree in self.trees])
                                     for name in ("feature", "threshold", "value"))
        left, right = (np.concatenate([getattr(tree, name) + o
                                       for tree, o in zip(self.trees, offset)])
                       for name in ("left", "right"))
        node = np.repeat(offset, n)
        row = np.tile(np.arange(n), len(self.trees))
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            nd = node[active]
            go_left = X[row[active], feature[nd]] <= threshold[nd]
            node[active] = np.where(go_left, left[nd], right[nd])
            active = active[feature[node[active]] >= 0]
        out = np.zeros(n)
        for leaf_values in value[node].reshape(len(self.trees), n):
            out += leaf_values
        return out / len(self.trees)


def fit_random_forest(X: np.ndarray, y: np.ndarray, *, n_trees: int,
                      seed: int) -> RandomForestModel:
    """CART ensemble on bootstrap samples, grown without a depth limit down
    to MIN_LEAF rows a side; per-split feature subsets of size ceil(m/3)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    if n != len(y) or n < 2:
        raise ConfigurationError("need matching X/y with at least 2 rows")
    if n_trees < 1:
        raise ConfigurationError(f"need n_trees >= 1; got {n_trees}")
    rngs = [np.random.default_rng(derive_seed(seed, t)) for t in range(n_trees)]
    roots = np.array([rng.integers(0, n, n) for rng in rngs])
    trees = _grow_forest(X, y, roots, rngs, math.ceil(m / 3))
    return RandomForestModel(trees=trees, n_features=m)


# ---------------------------------------------------------------------------
# standardized-feature models

def _standardize_params(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def _standardize(X, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(X - mean) / std elementwise: a row's standardized bits depend on that
    row alone, so a mix of two rows' features standardizes to the same mix
    of their standardized features."""
    return (np.asarray(X, dtype=float) - mean) / std


@dataclass(eq=False)
class KnnModel:
    mean: np.ndarray
    std: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    k_neighbors: int

    def standardize(self, X) -> np.ndarray:
        return _standardize(X, self.mean, self.std)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_standardized(self.standardize(X))

    def predict_standardized(self, Z: np.ndarray) -> np.ndarray:
        """The mean target of each standardized row's k nearest training
        rows, summed nearest first, as a stable sort of the row's
        column-by-column distances orders them. Rows whose order
        `_rank_keys` certifies take it from one BLAS product; the others
        from that stable sort."""
        T, k = self.X_train, self.k_neighbors
        # a non-finite or huge row may warn here; it is never certified
        with np.errstate(invalid="ignore", over="ignore"):
            s, bound = _rank_keys(Z, T)
            order = np.argsort(s, axis=1)[:, : k + 1]
            # certified: the row's first k + 1 keys (all of them when k ==
            # n_train) are more than 2E apart
            head = np.take_along_axis(s, order, axis=1)
            redo = ~(np.diff(head, axis=1) > 2.0 * bound[:, None]).all(axis=1)
        order = order[:, :k]
        if redo.any():
            dist = np.sqrt(_column_sq_distances(Z[redo], T))
            order[redo] = np.argsort(dist, axis=1, kind="stable")[:, :k]
        return self.y_train[order].mean(axis=1)


def _column_sq_distances(Z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """|z_i - t_j|^2 as a sum of rounded squares of rounded differences,
    (z_0 - t_0)^2 first and then one column at a time: cdist's rounding, so
    the sqrt gives its distances bit for bit. Non-finite and huge rows give
    inf or NaN without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = Z[:, None, 0] - T[:, 0]
        acc = diff * diff
        for col in range(1, T.shape[1]):
            np.subtract(Z[:, None, col], T[:, col], out=diff)
            acc += diff * diff
    return acc


def _rank_keys(Z: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys s[i, j] = |t_j|^2 - 2 z_i.t_j from one BLAS product, and each
    row's bound E[i] = 8 (m + 2) u S_i + 2^-1022, S_i = |z_i|^2 + max_j |t_j|^2,
    u = 2^-53: where a row's consecutive sorted keys differ by more than 2E,
    its column-by-column distances rank its rows in the same strict order.

    The exact key is D_j - |z|^2, for D_j = |z - t_j|^2 the exact squared
    distance between the stored floats: |z|^2 is the same along a row. With
    gamma_n = n u / (1 - n u), Higham (Accuracy and Stability of Numerical
    Algorithms, 2002, eq. 3.5) bounds a computed n-term dot product's error
    by gamma_n sum_k |x_k y_k|, in any summation order, fused or not. So:

    * keys: |t_j|^2 is off by at most gamma_m |t_j|^2, 2 z.t_j by
      2 gamma_m |z| |t_j|, and the subtraction adds u (1 + gamma_m) times
      |t_j|^2 + 2 |z| |t_j|; since 2 |z| |t_j| <= |z|^2 + |t_j|^2, a key is
      off by at most E_s = (2 gamma_m + 2 u (1 + gamma_m)) S;
    * distances: `_column_sq_distances`' sum of m rounded squares of
      rounded differences (any order would do) is q_j = D_j (1 + theta),
      |theta| <= gamma_(m+2), and
      D_j <= 2 S, so q_j is off by at most E_q = 2 gamma_(m+2) S;
    * sqrt: correctly rounded, it keeps q_i < q_j strictly apart once
      q_j - q_i > 4 u q_i / (1 - u)^2, for which
      E_r = 8 u (1 + gamma_(m+2)) S / (1 - u)^2 suffices.

    If key s_j exceeds key s_i by more than 2E, then q_j - q_i >
    2E - 2 E_s - 2 E_q, which is at least E_r when E >= E_s + E_q + E_r / 2.
    For (m + 2) u <= 0.01 that sum is at most (4.05 m + 10.11) u S <=
    4.72 (m + 2) u S for every m >= 1, so c = 8 does; its slack covers the
    rounding of E and of the gaps themselves. The 2^-1022 covers gradual
    underflow, at most 4.05 m 2^-1075 over the products and squares. Where
    S is not below 2^1021 (so that no intermediate can overflow) or is NaN,
    E is infinite and the row is never certified.
    """
    m = T.shape[1]
    t2 = np.einsum("ij,ij->i", T, T)
    s = Z @ (-2.0 * T).T
    s += t2
    scale = np.einsum("ij,ij->i", Z, Z) + t2.max()
    bound = (m + 2) * 2.0**-50 * scale + np.finfo(float).tiny
    bound[~(scale < 2.0**1021)] = np.inf
    return s, bound


def fit_knn(X: np.ndarray, y: np.ndarray, k_neighbors: int) -> KnnModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if k_neighbors > X.shape[0]:
        raise ConfigurationError(
            f"k_neighbors {k_neighbors} exceeds training size {X.shape[0]}"
        )
    if k_neighbors < 1:
        raise ConfigurationError("k_neighbors must be >= 1")
    mean, std = _standardize_params(X)
    return KnnModel(mean=mean, std=std, X_train=_standardize(X, mean, std), y_train=y,
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

    def standardize(self, X) -> np.ndarray:
        return _standardize(X, self.mean, self.std)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_standardized(self.standardize(X))

    def predict_standardized(self, Z: np.ndarray) -> np.ndarray:
        sq = _gram_sq_distances(Z, self.X_train)
        K = np.exp(-sq / (2.0 * self.bandwidth**2))
        # one reduction per row: BLAS `K @ coef` sums a row in an order that
        # depends on the other rows of the call, and so its last bits too
        return np.einsum("ij,j->i", K, self.coef) + self.y_mean


def _gram_sq_distances(Z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(|z_i|^2 + |t_j|^2) - 2 z_i.t_j, clamped at 0; exactly symmetric
    when Z is T. Every product sum is an einsum over one row pair, in an
    order set by the column count alone, so a row's bits do not depend on
    the other rows of the call (a BLAS product's may)."""
    sq = np.einsum("ij,kj->ik", Z, T)
    sq *= -2.0
    sq += np.add.outer(np.einsum("ij,ij->i", Z, Z), np.einsum("ij,ij->i", T, T))
    return np.maximum(sq, 0.0, out=sq)


def fit_kernel(X: np.ndarray, y: np.ndarray, *, penalty: float) -> KernelRidgeModel:
    if penalty <= 0:
        raise ConfigurationError("ridge penalty must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mean, std = _standardize_params(X)
    Z = _standardize(X, mean, std)
    sq = _gram_sq_distances(Z, Z)
    np.fill_diagonal(sq, 0.0)
    dists = np.sqrt(sq[np.triu_indices(len(Z), 1)])
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
