"""Stratified folds and regression models for performance prediction.

The forest is built from scratch (CART regression trees on bootstrap
samples, per-split random feature subsets) so that tree internals are
available to the exact Shapley attribution. A forest's trees grow in
lockstep: each step takes the next node, in depth-first pre-order, of
every tree with work left, so each tree's nodes and generator draws are
those of growing it alone. A tree is its node table in that order
(`RegressionTree`): a split node's left child is the next node, so only
the right child is stored. Every node statistic is a sequential prefix sum
along the node's padded row: its mean and SSE, and the split scan's
cumulative sums. The step's split nodes are scored together,
padded with rows that sort last and add nothing; a node scores all of its
candidate columns in one pass (one sort of (value rank, position) keys,
which is a stable sort of the values, cumulative sums, one SSE array).
Its first minimum breaks ties to the lowest threshold within a column and
the lowest feature index across columns, so the trees equal those of
scoring one feature at a time. Prediction walks every (tree, row) pair
down at once, to node i + 1 or right[i], and adds the trees' leaf values
in tree order.

KNN and RBF kernel ridge (the svm surrogate) extend one base
(`_StandardizedModel`): features standardized with train-only statistics,
(X - mean) / std elementwise, by one `standardize`, and one fit preamble
(`_standardized`). Each predicts through one method, `predict_chain(z_x,
Z, steps)`: the states 0..k of each row's chain from Z[i] towards z_x,
state c taking the features steps[i, :c] from z_x, without building them.
One key routine (`_rank_keys`) carries each state's keys |t_j|^2 - 2 z.t_j
from the previous state's, as consecutive states differ in one feature.
`predict(X)` is the chain of zero steps from `standardize(X)`; it stays in
each class body because the benchmark's tracer wraps a method found in the
class's own `__dict__`.

KNN ranks a state's training rows by its keys. Where the first k + 1
sorted keys are more than 2E apart, E a per-row rounding bound (Higham
2002, eq. 3.5; derived at `_rank_keys`) that covers the keys, the chain's
steps, the rounding of the exact distances and the sqrt, the k nearest and
their order are exactly those of a stable sort of the state's distances
summed column by column (`_column_sq_distances`, the rounding of scipy's
cdist), so the prediction keeps its bits. Kernel ridge's distances reach
the output bits; its states take the keys plus |state|^2, carried the same
way, and every sum is an einsum, whose sums do not depend on the other rows
of a call as a BLAS product's do. Both models have one fallback for the
states their keys cannot vouch for (KNN's uncertified states: ties,
near-ties, non-finite or huge queries; kernel ridge's chains with S >=
2^1021 or NaN): the states are rebuilt (`_chain_states`) and take
`_column_sq_distances`, which has no Gram form's cancellation.
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
    """A tree as its node table in depth-first pre-order, root first:
    feature[i] == -1 marks a leaf, and a split node i sends x <=
    threshold[i] to its left child, node i + 1, and the rest to right[i]."""

    feature: np.ndarray
    threshold: np.ndarray
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
    arrays = (feature, threshold, right, value)
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
        descends at once through the trees' concatenated node tables, to
        the next node (the left child, in pre-order) or to its tree's
        offset plus right; the leaf values are then added in tree order,
        as one tree at a time would."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        sizes = [len(tree.feature) for tree in self.trees]
        offset = np.cumsum([0] + sizes[:-1])
        feature, threshold, value = (np.concatenate([getattr(tree, name) for tree in self.trees])
                                     for name in ("feature", "threshold", "value"))
        right = np.concatenate([tree.right + o for tree, o in zip(self.trees, offset)])
        node = np.repeat(offset, n)
        row = np.tile(np.arange(n), len(self.trees))
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            nd = node[active]
            go_left = X[row[active], feature[nd]] <= threshold[nd]
            node[active] = np.where(go_left, nd + 1, right[nd])
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

@dataclass(eq=False)
class _StandardizedModel:
    """A model of features standardized with train-only statistics, (X -
    mean) / std elementwise: a row's standardized bits depend on that row
    alone, so a mix of two rows' features standardizes to the same mix of
    their standardized features. X_train holds the standardized training
    rows."""

    mean: np.ndarray
    std: np.ndarray
    X_train: np.ndarray

    def standardize(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def _standardized(X, y) -> tuple[dict, np.ndarray]:
    """The `_StandardizedModel` fields of training rows X, as keywords (a
    constant column's std is 1.0), and y as floats."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return dict(mean=mean, std=std, X_train=(X - mean) / std), np.asarray(y, dtype=float)


@dataclass(eq=False)
class KnnModel(_StandardizedModel):
    y_train: np.ndarray
    k_neighbors: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_chain(*_no_steps(self.standardize(X)))[:, 0]

    def predict_chain(self, z_x: np.ndarray, Z: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The mean target of the k nearest training rows of the states
        0..k of each row's chain (`_rank_keys`), as a (rows, k + 1) array,
        summed nearest first, as a stable sort of the state's
        column-by-column distances orders them. States whose order the
        keys' bound certifies take it from their keys; the others are
        rebuilt (`_chain_states`) and take that stable sort, the fallback
        that kernel ridge shares."""
        T, k = self.X_train, self.k_neighbors
        s, bound = _rank_keys(Z, T, z_x, steps)
        # NaN keys and gaps, and gaps that overflow, are never certified
        with np.errstate(invalid="ignore", over="ignore"):
            order = np.argsort(s, axis=1)[:, : k + 1]
            # certified: the state's first k + 1 keys (all of them when k ==
            # n_train) are more than 2E apart
            head = np.take_along_axis(s, order, axis=1)
            redo = ~(np.diff(head, axis=1) > 2.0 * bound[:, None]).all(axis=1)
        order = order[:, :k]
        if redo.any():
            states = _chain_states(z_x, Z, steps, np.flatnonzero(redo))
            dist = np.sqrt(_column_sq_distances(states, T))
            order[redo] = np.argsort(dist, axis=1, kind="stable")[:, :k]
        return self.y_train[order].mean(axis=1).reshape(steps.shape[1] + 1, len(Z)).T


def _no_steps(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`predict_chain`'s arguments for the rows of Z alone: chains of zero
    steps from Z, towards an x of zeros that no state takes a feature of."""
    return np.zeros(Z.shape[1]), Z, np.empty((len(Z), 0), dtype=np.intp)


def _chain_states(z_x: np.ndarray, Z: np.ndarray, steps: np.ndarray,
                  index: np.ndarray) -> np.ndarray:
    """The chain states at flat indices `index` of `_rank_keys`' chains, as
    rows: index c rows + i is Z[i] with the features steps[i, :c] taken
    from z_x. Each element is a copy of one of z_x's or Z's."""
    c, row = np.divmod(index, len(Z))
    states = Z[row]
    taken = np.arange(steps.shape[1]) < c[:, None]
    features = steps[row][taken]
    states[np.nonzero(taken)[0], features] = z_x[features]
    return states


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


def _rank_keys(Z: np.ndarray, T: np.ndarray, z_x: np.ndarray,
               steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys s = |t_j|^2 - 2 z.t_j of the states z of the rows' chains
    against the rows t_j of T, and each key row's bound E = 8 (m + 2) u S +
    2^-1022, u = 2^-53: where a row's consecutive sorted keys differ by more
    than 2E, its column-by-column distances rank its training rows in the
    same strict order.

    steps is a (rows, k) array of distinct features, k >= 0. Key row
    c rows + i is state c of row i's chain, c = 0..k: z = Z[i] with the
    features steps[i, :c] taken from z_x. State 0's keys are Z[i]'s; each
    later state's are the previous state's plus -2 (z_x,d - z_d) t_jd for
    its new feature d: one gather, one multiply and one cumulative sum (an
    add of contiguous blocks a step), with no state built. S = |z_x|^2 +
    |Z[i]|^2 + max_j |t_j|^2 bounds |z|^2 + max_j |t_j|^2 for every state
    of the chain, since each feature of a state is z_x's or Z[i]'s.

    The exact key is D_j - |z|^2, for D_j = |z - t_j|^2 the exact squared
    distance between the stored floats: |z|^2 is the same along a row. With
    gamma_n = n u / (1 - n u), Higham (Accuracy and Stability of Numerical
    Algorithms, 2002, eq. 3.5) bounds a computed n-term dot product's error
    by gamma_n sum_k |x_k y_k|, in any summation order, fused or not. So:

    * keys of state 0: |t_j|^2 is off by at most gamma_m |t_j|^2, 2 z.t_j by
      2 gamma_m |z| |t_j|, and the subtraction adds u (1 + gamma_m) times
      |t_j|^2 + 2 |z| |t_j|; since 2 |z| |t_j| <= |z|^2 + |t_j|^2, a key is
      off by at most E_s = (2 gamma_m + 2 u (1 + gamma_m)) S;
    * chain steps: a step's term is -2 (x_d - z_d) t_jd to within
      gamma_2, and over the chain sum_d 2 |x_d - z_d| |t_jd| <=
      |x - Z[i]|^2 + |t_j|^2 <= 2 S, so the terms add at most 2 gamma_2 S;
      each of the at most m additions rounds a partial sum, which is the
      key of a state (|key| <= |t_j|^2 + 2 |z| |t_j| <= 2 S) and is off by
      less than 0.04 S, by u. In all, E_c <= (2.04 m + 4.01) u S, and 0
      for state 0;
    * distances: `_column_sq_distances`' sum of m rounded squares of
      rounded differences (any order would do) is q_j = D_j (1 + theta),
      |theta| <= gamma_(m+2), and
      D_j <= 2 S, so q_j is off by at most E_q = 2 gamma_(m+2) S;
    * sqrt: correctly rounded, it keeps q_i < q_j strictly apart once
      q_j - q_i > 4 u q_i / (1 - u)^2, for which
      E_r = 8 u (1 + gamma_(m+2)) S / (1 - u)^2 suffices.

    If key s_j exceeds key s_i by more than 2E, then q_j - q_i >
    2E - 2 (E_s + E_c) - 2 E_q, which is at least E_r when E >= E_s + E_c
    + E_q + E_r / 2. For (m + 2) u <= 0.01 that sum is at most
    (6.09 m + 14.12) u S <= 6.74 (m + 2) u S for every m >= 1, so c = 8
    does; its slack covers the rounding of E and of the gaps themselves.
    The 2^-1022 covers gradual underflow, at most 5.05 m 2^-1075 over the
    products and squares. Where S is not below 2^1021 (so that no
    intermediate can overflow) or is NaN, E is infinite and the row is
    never certified. Every dot product is an einsum over one row pair,
    whose sum does not depend on the other rows of the call (a BLAS
    product's may), so a key row's bits do not either.
    """
    m = T.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = np.einsum("ij,ij->i", T, T)
        chain = np.empty((steps.shape[1] + 1, len(Z), len(T)))  # (state, row, training row)
        chain[0] = np.einsum("ij,kj->ik", Z, -2.0 * T)
        chain[0] += t2
        chain[1:] = np.ascontiguousarray(T.T)[steps.T]
        step = Z[np.arange(len(Z)), steps.T] - z_x[steps.T]
        step *= 2.0
        chain[1:] *= step[:, :, None]
        for c in range(1, len(chain)):
            chain[c] += chain[c - 1]
        scale = np.einsum("ij,ij->i", Z, Z) + t2.max()
        scale += z_x @ z_x
        scale = np.tile(scale, len(chain))
    bound = (m + 2) * 2.0**-50 * scale + np.finfo(float).tiny
    bound[~(scale < 2.0**1021)] = np.inf
    return chain.reshape(-1, len(T)), bound


def fit_knn(X: np.ndarray, y: np.ndarray, k_neighbors: int) -> KnnModel:
    if k_neighbors > len(X):
        raise ConfigurationError(f"k_neighbors {k_neighbors} exceeds training size {len(X)}")
    if k_neighbors < 1:
        raise ConfigurationError("k_neighbors must be >= 1")
    base, y = _standardized(X, y)
    return KnnModel(**base, y_train=y, k_neighbors=k_neighbors)


@dataclass(eq=False)
class KernelRidgeModel(_StandardizedModel):
    """RBF kernel ridge; the svm surrogate family."""

    coef: np.ndarray
    bandwidth: float
    y_mean: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_chain(*_no_steps(self.standardize(X)))[:, 0]

    def predict_chain(self, z_x: np.ndarray, Z: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The predictions of the states 0..k of each row's chain
        (`_rank_keys`), as a (rows, k + 1) array. A state's squared
        distances are its keys plus |state|^2, which is carried along the
        chain like the keys, from |Z[i]|^2 by x_d^2 - z_d^2 a step, then
        clamped at 0. Chains whose keys `_rank_keys` does not bound
        (S >= 2^1021 or NaN) are rebuilt (`_chain_states`) and take their
        column-by-column squared distances (`_column_sq_distances`), as
        KNN's uncertified states do."""
        s, bound = _rank_keys(Z, self.X_train, z_x, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            x, z = z_x[steps.T], Z[np.arange(len(Z)), steps.T]
            norms = np.empty((len(x) + 1, len(Z)))
            norms[0] = np.einsum("ij,ij->i", Z, Z)
            np.subtract(x * x, z * z, out=norms[1:])
            s += np.cumsum(norms, axis=0).reshape(-1, 1)
            unbounded = np.flatnonzero(np.isinf(bound))
            if unbounded.size:
                s[unbounded] = _column_sq_distances(_chain_states(z_x, Z, steps, unbounded),
                                                    self.X_train)
            K = np.exp(-np.maximum(s, 0.0, out=s) / (2.0 * self.bandwidth**2))
        # one reduction per row: BLAS `K @ coef` sums a row in an order that
        # depends on the other rows of the call, and so its last bits too
        out = np.einsum("ij,j->i", K, self.coef) + self.y_mean
        return out.reshape(len(norms), len(Z)).T


def fit_kernel(X: np.ndarray, y: np.ndarray, *, penalty: float) -> KernelRidgeModel:
    if penalty <= 0:
        raise ConfigurationError("ridge penalty must be positive")
    base, y = _standardized(X, y)
    Z = base["X_train"]
    # (|z_i|^2 + |z_j|^2) - 2 z_i.z_j, exactly symmetric; einsums, as in `_rank_keys`
    sq = np.einsum("ij,kj->ik", Z, Z)
    sq *= -2.0
    norms = np.einsum("ij,ij->i", Z, Z)
    sq += np.add.outer(norms, norms)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    dists = np.sqrt(sq[np.triu_indices(len(Z), 1)])
    bandwidth = float(np.median(dists)) if len(dists) else 1.0
    if bandwidth <= 0:
        bandwidth = 1.0
    K = np.exp(-sq / (2.0 * bandwidth**2))
    y_mean = float(y.mean())
    coef = np.linalg.solve(K + penalty * np.eye(len(y)), y - y_mean)
    return KernelRidgeModel(**base, coef=coef, bandwidth=bandwidth, y_mean=y_mean)


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
