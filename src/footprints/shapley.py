"""Shapley attributions of performance predictions (meta-representations).

Two estimators over an interventional (marginal) value function with a
finite background set; ``attribute`` picks the one that fits the model:

* ``tree_shap_batch``: exact, for the from-scratch forest. Works leaf by
  leaf: a leaf with path features U is reached by coalition S and
  background b iff every path condition is met by x (feature in S) or by
  b (feature not in S). Features that both or neither satisfy collapse,
  leaving a closed-form weight p!q!/(p+q+1)! where p counts x-only and q
  counts b-only features among U minus the attributed one.
* ``sampling_shap``: model-agnostic permutation sampling with antithetic
  permutation pairs and cycled background rows (Mitchell et al., JMLR
  2022). The permutations are drawn one by one, in a fixed RNG order, and
  inverted into ranks; the m + 1 states of every permutation then come
  from one rank mask, ``where(rank < t, x, b)``, and are predicted in
  chunks of whole permutations, at most PREDICT_CHUNK_ROWS rows per call.
  The chunk bounds peak memory: one call for all states would hold KNN's
  (states x training rows) distance and index matrices at once. KNN and
  kernel ridge predict each row independently of the others in the call,
  so the result is bit-for-bit that of predicting one permutation at a
  time (``naive_sampling_shap`` in the tests).

Both satisfy efficiency (base + sum(phi) = prediction) exactly up to FP
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .models import RandomForestModel, RegressionTree, fit_model

# The most sampling-Shapley states per model.predict call (peak memory).
PREDICT_CHUNK_ROWS = 1024


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

def _shapley_weight_table(max_features: int) -> np.ndarray:
    """w[p, q] = p! q! / (p+q+1)! computed exactly via binomials."""
    size = max_features + 1
    table = np.zeros((size, size))
    for p in range(size):
        for q in range(size):
            table[p, q] = 1.0 / ((p + q + 1) * math.comb(p + q, p))
    return table


def _leaf_paths(tree: RegressionTree):
    """Leaves as (value, path features, lower bounds, upper bounds).

    Bounds are per distinct feature on the root-to-leaf path; a value v
    satisfies the path iff lo < v <= hi.
    """
    paths = []

    def rec(node: int, bounds: dict[int, tuple[float, float]]):
        feat = int(tree.feature[node])
        if feat < 0:
            feats = np.array(sorted(bounds), dtype=int)
            lo = np.array([bounds[j][0] for j in feats])
            hi = np.array([bounds[j][1] for j in feats])
            paths.append((float(tree.value[node]), feats, lo, hi))
            return
        thr = float(tree.threshold[node])
        old = bounds.get(feat, (-math.inf, math.inf))
        left_bounds = dict(bounds)
        left_bounds[feat] = (old[0], min(old[1], thr))
        rec(int(tree.left[node]), left_bounds)
        right_bounds = dict(bounds)
        right_bounds[feat] = (max(old[0], thr), old[1])
        rec(int(tree.right[node]), right_bounds)

    rec(0, {})
    return paths


def _accumulate_tree(phi: np.ndarray, tree_paths, X: np.ndarray, B: np.ndarray,
                     weights: np.ndarray) -> None:
    for value, feats, lo, hi in tree_paths:
        if len(feats) == 0:
            continue  # unconditional leaf appears in both v(S+i) and v(S)
        C = (B[:, feats] > lo[None, :]) & (B[:, feats] <= hi[None, :])
        A = (X[:, feats] > lo[None, :]) & (X[:, feats] <= hi[None, :])
        Cn, An = ~C, ~A
        a16, an16 = A.astype(np.int16), An.astype(np.int16)
        c16t, cn16t = C.astype(np.int16).T, Cn.astype(np.int16).T
        alive = (an16 @ cn16t) == 0          # no feature failed by both sides
        P = a16 @ cn16t                      # passed only by x, per (x, b)
        Q = an16 @ c16t                      # passed only by background
        wx = weights[np.maximum(P - 1, 0), Q]
        wb = weights[P, np.maximum(Q - 1, 0)]
        for t, f in enumerate(feats):
            sel_x = alive & A[:, t][:, None] & Cn[:, t][None, :]
            sel_b = alive & An[:, t][:, None] & C[:, t][None, :]
            phi[:, f] += value * ((wx * sel_x).sum(axis=1) - (wb * sel_b).sum(axis=1))


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
    all_paths = [_leaf_paths(tree) for tree in model.trees]
    max_u = max(
        (len(feats) for paths in all_paths for _, feats, _, _ in paths), default=1
    )
    weights = _shapley_weight_table(max(max_u, 1))
    phi = np.zeros((X.shape[0], model.n_features))
    for paths in all_paths:
        _accumulate_tree(phi, paths, X, B, weights)
    phi /= B.shape[0] * len(model.trees)
    base = float(model.predict(B).mean())
    preds = model.predict(X)
    return [
        ShapMetaRepresentation(base_value=base, phi=row, prediction=float(pred))
        for row, pred in zip(phi, preds)
    ]


# ---------------------------------------------------------------------------
# model-agnostic permutation sampling

def sampling_shap(
    model,
    x: np.ndarray,
    background: np.ndarray,
    n_permutations: int = 256,
    seed: int = 0,
) -> ShapMetaRepresentation:
    """Permutation-sampling estimate with antithetic pairs.

    Each sampled permutation is paired with its reverse and one cycled
    background row; n_permutations is rounded up to an even total.
    """
    if n_permutations < 1:
        raise ConfigurationError("n_permutations must be >= 1")
    x = np.asarray(x, dtype=float)
    B = np.atleast_2d(np.asarray(background, dtype=float))
    if B.shape[1] != x.shape[0]:
        raise ContractViolation("background width does not match x")
    m = x.shape[0]
    rng = np.random.default_rng(seed)
    n_pairs = (n_permutations + 1) // 2
    total = 2 * n_pairs
    # row 2p is the p-th drawn permutation, row 2p+1 its reverse
    perms = np.stack([rng.permutation(m) for _ in range(n_pairs)])
    orders = np.stack([perms, perms[:, ::-1]], axis=1).reshape(total, m)
    rank = np.empty_like(orders)
    np.put_along_axis(rank, orders, np.arange(m)[None, :], axis=1)
    b_rows = B[np.arange(total) // 2 % B.shape[0]]
    # values[r, t]: prediction with the first t features of orders[r] taken from x
    values = np.empty((total, m + 1))
    steps = np.arange(m + 1)[None, :, None]
    per_chunk = max(1, PREDICT_CHUNK_ROWS // (m + 1))
    for lo in range(0, total, per_chunk):
        hi = min(lo + per_chunk, total)
        states = np.where(rank[lo:hi, None, :] < steps, x, b_rows[lo:hi, None, :])
        values[lo:hi] = model.predict(states.reshape(-1, m)).reshape(hi - lo, m + 1)
    contribs = (np.take_along_axis(values, rank + 1, axis=1)
                - np.take_along_axis(values, rank, axis=1))
    phi = contribs.mean(axis=0)
    stderr = contribs.std(axis=0, ddof=1) / math.sqrt(total) if total > 1 else np.zeros(m)
    return ShapMetaRepresentation(
        base_value=float(values[:, 0].mean()),
        phi=phi,
        prediction=float(model.predict(x[None, :])[0]),
        stderr=stderr,
    )


def attribute(
    model,
    X: np.ndarray,
    background: np.ndarray,
    seeds: Sequence[int],
    n_permutations: int = 256,
) -> list[ShapMetaRepresentation]:
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
    train_X: np.ndarray,
    train_y: np.ndarray,
    feature_names: Sequence[str],
    model_kind: str = "random_forest",
    seed: int = 0,
    model_params: dict | None = None,
    n_permutations: int = 64,
) -> list[tuple[str, float]]:
    """Train on all features and rank them by train-set importance, as
    ``global_importance`` pairs; a portfolio of size k is the first k names.

    Uses only the training split (the train set doubles as background),
    so no test information leaks into the selection.
    """
    train_X = np.asarray(train_X, dtype=float)
    model = fit_model(model_kind, train_X, train_y, model_params, seed=seed)
    reps = attribute(model, train_X, train_X, range(seed, seed + len(train_X)),
                     n_permutations=n_permutations)
    return global_importance(np.stack([rep.phi for rep in reps]), feature_names)
