"""Shapley attributions of performance predictions (meta-representations).

Two estimators over an interventional (marginal) value function with a
finite background set; ``attribute`` picks the one that fits the model:

* ``tree_shap_batch``: exact, for the from-scratch forest. A leaf with
  path features U is reached by coalition S and background b iff every
  path condition is met by x (feature in S) or by b (feature not in S).
  Features that both or neither satisfy collapse, leaving a closed-form
  weight p!q!/(p+q+1)! where p counts x-only and q counts b-only features
  among U minus the attributed one. The forest's leaf paths are built
  once per call by a pre-order walk of each tree, left child before
  right, that carries each path feature's (lo, hi] bounds down to the
  leaves; they are stored as arrays padded to the longest path. Chunks
  of whole paths then get their pass/fail masks. An x row's rows over
  the background on a path depend only on its pass/fail pattern over the
  path's features, so each path's x rows are grouped by pattern (a sort
  of the packed patterns, of any length). The (p, q) counts of every
  (pattern, b) pair come from one matmul of pass masks, and one row
  over the background per (path, feature, pattern) slot is summed on
  its own and scattered back to the pattern's x rows. Each row holds the
  elements the leaf-by-leaf loop summed for each of those x rows, in the
  same order, and the slots are added into phi in (tree, path, feature)
  order, so the result is bit-for-bit that loop's (``naive_tree_shap``
  in the tests). TREE_CHUNK_CELLS bounds the temporaries.
* ``sampling_shap``: model-agnostic permutation sampling with antithetic
  permutation pairs and cycled background rows (Mitchell et al., JMLR
  2022). All permutations are drawn in one ``Generator.permuted`` call,
  whose rows are the stream of one ``permutation`` call per pair, and
  inverted into ranks; the m + 1 states of every permutation then come
  from one rank mask, ``where(rank < t, x, b)``, and are predicted in
  chunks of whole permutations, at most PREDICT_CHUNK_ROWS rows per call.
  The chunk bounds peak memory: one call for all states would hold KNN's
  (states x training rows) distance and index matrices at once. KNN and
  kernel ridge predict each row independently of the others in the call,
  so the result is bit-for-bit that of predicting one permutation at a
  time (``naive_sampling_shap`` in the tests), and x's prediction is read
  from the last state of the first permutation, which is x itself. The
  model (KNN, kernel ridge) gets its states built from x and the
  background standardized once, by its ``standardize``, and predicts them
  by its ``predict_standardized``: standardization is elementwise, the
  same two IEEE operations on the same inputs, so ``where(rank < t, z_x,
  z_b)`` holds the bits of standardizing ``where(rank < t, x, b)``.

Both satisfy efficiency (base + sum(phi) = prediction) exactly up to FP
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .models import RandomForestModel, RegressionTree

# The most sampling-Shapley states per prediction call (peak memory).
PREDICT_CHUNK_ROWS = 1024
# The most (path, x row, background row) cells per tree-Shapley chunk of
# paths, and (row, background row) cells per block of summed rows (peak
# memory; also keeps the temporaries in cache).
TREE_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class ShapMetaRepresentation:
    base_value: float
    phi: np.ndarray
    prediction: float
    stderr: np.ndarray | None = None

    @property
    def efficiency_gap(self) -> float:
        return abs(self.base_value + float(np.sum(self.phi)) - self.prediction)


# ---------------------------------------------------------------------------
# exact attribution for tree ensembles

def _leaf_paths(trees: Sequence[RegressionTree]):
    """The forest's non-empty root-to-leaf paths, tree by tree and left
    before right within a tree, as arrays padded to the longest path.

    Returns (value, feature, lo, hi, valid). Path l has the distinct
    features feature[l, valid[l]], ascending, and a value v satisfies the
    path iff lo < v <= hi on each of them. Padded slots hold feature 0 and
    the bounds (-inf, inf].
    """
    values, paths = [], []  # per leaf: its value and its [(feature, (lo, hi)), ...]
    for tree in trees:
        feature, threshold, left, right, value = (
            a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value))
        # pre-order walk; each node carries its path's {feature: (lo, hi)}
        stack = [(0, {})]
        while stack:
            node, bounds = stack.pop()
            f = feature[node]
            if f < 0:
                if bounds:  # a root leaf has no path
                    values.append(value[node])
                    paths.append(sorted(bounds.items()))
                continue
            lo, hi = bounds.get(f, (-math.inf, math.inf))
            thr = threshold[node]
            stack.append((right[node], {**bounds, f: (max(lo, thr), hi)}))
            stack.append((left[node], {**bounds, f: (lo, min(hi, thr))}))
    counts = np.array([len(path) for path in paths], dtype=np.intp)
    valid = np.arange(counts.max(initial=0))[None, :] < counts[:, None]
    feat = np.zeros(valid.shape, dtype=np.intp)
    lo = np.full(valid.shape, -np.inf)
    hi = np.full(valid.shape, np.inf)
    feat[valid] = [f for path in paths for f, _ in path]
    lo[valid] = [b[0] for path in paths for _, b in path]
    hi[valid] = [b[1] for path in paths for _, b in path]
    return np.array(values, dtype=float), feat, lo, hi, valid


def _accumulate(phi: np.ndarray, paths, X: np.ndarray, B: np.ndarray) -> None:
    """Add every leaf path's attributions into phi (unnormalized), in
    (tree, path, feature) order, TREE_CHUNK_CELLS cells at a time.

    x rows with one pass/fail pattern over a path's features have the same
    row over the background in each of the path's slots, so a chunk of paths
    builds and sums one row per (slot, distinct pattern) and scatters the sums
    back to the x rows."""
    value, feature, lo, hi, valid = paths
    u = valid.shape[1]
    size = max(u, 1) + 1
    # w[p, q] = p! q! / (p+q+1)!, exactly via binomials
    weights = np.array([[1.0 / ((p + q + 1) * math.comb(p + q, p)) for q in range(size)]
                        for p in range(size)])
    # w at index p*size + q for an attributed feature passed only by x (row
    # 1) or only by b (row 0); an index >= size*size (some path feature failed
    # by both x and b) reads 0
    p, q = np.divmod(np.arange(size * size), size)
    table = np.zeros((2, size * size + 1))
    table[0, :-1] = weights[p, np.maximum(q - 1, 0)]
    table[1, :-1] = weights[np.maximum(p - 1, 0), q]
    XT, BT = np.ascontiguousarray(X.T), np.ascontiguousarray(B.T)
    nx, nb = len(X), len(B)
    per_chunk = max(1, TREE_CHUNK_CELLS // max(nx * nb, 1))  # paths
    per_block = max(1, TREE_CHUNK_CELLS // max(nb, 1))  # rows over the background
    for p0 in range(0, len(value), per_chunk):
        p1 = min(p0 + per_chunk, len(value))
        k = p1 - p0
        f, pad = feature[p0:p1], ~valid[p0:p1, :, None]
        low, high = lo[p0:p1, :, None], hi[p0:p1, :, None]
        xs, bs = XT[f], BT[f]                                  # (k, u, nx), (k, u, nb)
        A = ((xs > low) & (xs <= high)) | pad
        C = ((bs > low) & (bs <= high)) | pad
        del xs, bs  # peak memory
        # each path's distinct x patterns, numbered in path order: sort the
        # packed patterns and start a group wherever one differs from the last
        packed = np.packbits(A, axis=1)                        # (k, bytes, nx)
        order = np.lexsort(packed.transpose(1, 0, 2), axis=-1)
        packed = np.take_along_axis(packed, order[:, None, :], axis=2)
        first = np.ones((k, nx), dtype=bool)
        first[:, 1:] = (packed[:, :, 1:] != packed[:, :, :-1]).any(axis=1)
        group = np.empty((k, nx), dtype=np.intp)
        np.put_along_axis(group, order, np.cumsum(first).reshape(k, nx) - 1, axis=1)
        gp, at = np.nonzero(first)                             # each group's path
        a = A[gp, :, order[gp, at]]                            # (groups, u)
        n_groups = len(gp)
        count = first.sum(axis=1)
        gstart = np.cumsum(count) - count
        rank = np.arange(n_groups) - gstart[gp]                # within its path
        # index P*size + Q + N*size*size per (group, b): P path features
        # passed only by x, Q only by b, N by neither. A feature passed by x
        # and b as (1, 0), (0, 1), (0, 0) or (1, 1) (padded slots) adds size,
        # 1, s2 or 0, which is s2 + (size - s2) x + (1 - s2) b
        # + (s2 - size - 1) x b with s2 = size*size: one matmul counts the
        # features both pass, and every term is a small integer, so exact
        s2 = size * size
        lhs = np.zeros((k, count.max(), u))
        lhs[gp, rank] = a
        both = (lhs @ C.astype(float))[gp, rank]               # (groups, nb)
        K = (both * (s2 - size - 1) + (a.sum(axis=1) * (size - s2))[:, None]
             + (C.sum(axis=1) * (1 - s2))[gp] + u * s2).astype(np.intp)
        W = np.take(table, K, axis=1, mode="clip").reshape(-1, nb)
        # one row per (slot, group of the slot's path), slot-major; pair
        # offset[s] + j is slot s with group j
        sp, st = np.nonzero(valid[p0:p1])
        n_pairs = count[sp]
        offset = np.cumsum(n_pairs) - n_pairs - gstart[sp]
        slot = np.repeat(np.arange(len(sp)), n_pairs)
        g = np.arange(len(slot)) - offset[slot]
        bit = a[g, st[slot]]
        Cs = C[sp, st]                                         # (slots, nb)
        sums = np.empty(len(slot))
        for q0 in range(0, len(slot), per_block):
            q = slice(q0, q0 + per_block)
            # x passes the attributed feature: wx where b fails it; otherwise
            # wb where b passes it, subtracted
            rows = W[bit[q] * n_groups + g[q]]                 # (block, nb)
            rows *= Cs[slot[q]] != bit[q, None]
            sums[q] = rows.sum(axis=1)
        r = sums[offset[:, None] + group[sp]]                  # (slots, nx)
        np.add.at(phi.T, f[sp, st], value[p0:p1][sp, None] * np.where(A[sp, st], r, -r))


def tree_shap_batch(
    model: RandomForestModel,
    X: np.ndarray,
    background: np.ndarray,
) -> list[ShapMetaRepresentation]:
    """Exact interventional attributions for many inputs at once."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = np.atleast_2d(np.asarray(background, dtype=float))
    if B.shape[0] == 0:
        raise ContractViolation("background set must be non-empty")
    if X.shape[1] != model.n_features or B.shape[1] != model.n_features:
        raise ContractViolation(
            f"feature count mismatch: model has {model.n_features}, "
            f"got X {X.shape[1]} / background {B.shape[1]}"
        )
    phi = np.zeros((X.shape[0], model.n_features))
    _accumulate(phi, _leaf_paths(model.trees), X, B)
    phi /= B.shape[0] * len(model.trees)
    base = float(model.predict(B).mean())
    preds = model.predict(X)
    return [
        ShapMetaRepresentation(base_value=base, phi=row, prediction=float(pred))
        for row, pred in zip(phi, preds)
    ]


# ---------------------------------------------------------------------------
# model-agnostic permutation sampling

def sampling_shap(model, x: np.ndarray, background: np.ndarray, n_permutations: int,
                  seed: int) -> ShapMetaRepresentation:
    """Permutation-sampling estimate with antithetic pairs.

    Each sampled permutation is paired with its reverse and one cycled
    background row; n_permutations is rounded up to an even total. The
    model predicts in its own feature space: it has ``standardize`` and
    ``predict_standardized``.
    """
    x = np.asarray(x, dtype=float)
    B = np.atleast_2d(np.asarray(background, dtype=float))
    if B.shape[0] == 0:
        raise ContractViolation("background set must be non-empty")
    if B.shape[1] != x.shape[0]:
        raise ContractViolation("background width does not match x")
    m = x.shape[0]
    rng = np.random.default_rng(seed)
    n_pairs = (n_permutations + 1) // 2
    total = 2 * n_pairs
    # row 2p is the p-th drawn permutation, row 2p+1 its reverse
    perms = rng.permuted(np.tile(np.arange(m), (n_pairs, 1)), axis=1)
    orders = np.stack([perms, perms[:, ::-1]], axis=1).reshape(total, m)
    rank = np.empty_like(orders)
    np.put_along_axis(rank, orders, np.arange(m)[None, :], axis=1)
    # states mixed from standardized x and b are the standardized states
    z_x = model.standardize(x)
    z_b = model.standardize(B[np.arange(total) // 2 % B.shape[0]])
    # values[r, t]: prediction with the first t features of orders[r] taken
    # from x; values[r, m] is the prediction of x itself
    values = np.empty((total, m + 1))
    steps = np.arange(m + 1)[None, :, None]
    per_chunk = max(1, PREDICT_CHUNK_ROWS // (m + 1))
    for lo in range(0, total, per_chunk):
        hi = min(lo + per_chunk, total)
        states = np.where(rank[lo:hi, None, :] < steps, z_x, z_b[lo:hi, None, :])
        values[lo:hi] = model.predict_standardized(states.reshape(-1, m)).reshape(hi - lo, m + 1)
    contribs = (np.take_along_axis(values, rank + 1, axis=1)
                - np.take_along_axis(values, rank, axis=1))
    phi = contribs.mean(axis=0)
    stderr = contribs.std(axis=0, ddof=1) / math.sqrt(total)
    return ShapMetaRepresentation(
        base_value=float(values[:, 0].mean()),
        phi=phi,
        prediction=float(values[0, m]),
        stderr=stderr,
    )


def attribute(model, X: np.ndarray, background: np.ndarray, seeds: Sequence[int],
              n_permutations: int) -> list[ShapMetaRepresentation]:
    """Attributions of the rows of X: exact for a forest, otherwise
    permutation sampling of row i seeded with seeds[i]."""
    if isinstance(model, RandomForestModel):
        return tree_shap_batch(model, X, background)
    return [
        sampling_shap(model, x, background, n_permutations=n_permutations, seed=seed)
        for x, seed in zip(X, seeds, strict=True)
    ]


# ---------------------------------------------------------------------------
# global importance and portfolio selection

def global_importance(phi: np.ndarray, feature_names: Sequence[str]) -> list[tuple[str, float]]:
    """Mean |phi| per feature (column of the (n, m) matrix), descending;
    ties broken by name."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] == 0:
        raise ContractViolation("need an (n, m) phi matrix with at least one row")
    if phi.shape[1] != len(feature_names):
        raise ContractViolation("feature name count does not match phi length")
    means = np.mean(np.abs(phi), axis=0)
    pairs = list(zip(feature_names, means.tolist()))
    pairs.sort(key=lambda kv: (-kv[1], kv[0]))
    return pairs


def select_portfolio(
    model,
    train_X: np.ndarray,
    feature_names: Sequence[str],
    seed: int,
    n_permutations: int,
) -> list[tuple[str, float]]:
    """The features of `model`, fit on train_X, ranked by train-set
    importance as ``global_importance`` pairs; a portfolio of size k is the
    first k names.

    Only the training split is read (it doubles as the background), so no
    test information leaks into the selection. Sampling row i is seeded
    with seed + i.
    """
    reps = attribute(model, train_X, train_X, range(seed, seed + len(train_X)),
                     n_permutations=n_permutations)
    return global_importance(np.stack([rep.phi for rep in reps]), feature_names)
