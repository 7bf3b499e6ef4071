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


def naive_tree_shap(model, X: np.ndarray, background: np.ndarray):
    """Exact interventional tree Shapley one leaf path and one path feature
    at a time: a recursive walk lists each tree's leaves left before right,
    and every path feature gets sum_b w * [x-only] - sum_b w * [b-only].
    Returns (base_value, phi, predictions), phi of shape (n, m)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = np.atleast_2d(np.asarray(background, dtype=float))

    def leaf_paths(tree):
        paths = []

        def rec(node, bounds):
            feat = int(tree.feature[node])
            if feat < 0:
                feats = np.array(sorted(bounds), dtype=int)
                lo = np.array([bounds[j][0] for j in feats])
                hi = np.array([bounds[j][1] for j in feats])
                paths.append((float(tree.value[node]), feats, lo, hi))
                return
            thr = float(tree.threshold[node])
            old = bounds.get(feat, (-math.inf, math.inf))
            rec(int(tree.left[node]), {**bounds, feat: (old[0], min(old[1], thr))})
            rec(int(tree.right[node]), {**bounds, feat: (max(old[0], thr), old[1])})

        rec(0, {})
        return paths

    all_paths = [leaf_paths(tree) for tree in model.trees]
    size = max((len(feats) for paths in all_paths for _, feats, _, _ in paths), default=1)
    size = max(size, 1) + 1
    weights = np.array([[1.0 / ((p + q + 1) * math.comb(p + q, p)) for q in range(size)]
                        for p in range(size)])
    phi = np.zeros((X.shape[0], model.n_features))
    for paths in all_paths:
        for value, feats, lo, hi in paths:
            if len(feats) == 0:
                continue
            C = (B[:, feats] > lo) & (B[:, feats] <= hi)
            A = (X[:, feats] > lo) & (X[:, feats] <= hi)
            a16, an16 = A.astype(np.int16), (~A).astype(np.int16)
            c16t, cn16t = C.astype(np.int16).T, (~C).astype(np.int16).T
            alive = (an16 @ cn16t) == 0
            P = a16 @ cn16t
            Q = an16 @ c16t
            wx = weights[np.maximum(P - 1, 0), Q]
            wb = weights[P, np.maximum(Q - 1, 0)]
            for t, f in enumerate(feats):
                sel_x = alive & A[:, t][:, None] & ~C[:, t][None, :]
                sel_b = alive & ~A[:, t][:, None] & C[:, t][None, :]
                phi[:, f] += value * ((wx * sel_x).sum(axis=1) - (wb * sel_b).sum(axis=1))
    phi /= B.shape[0] * len(model.trees)
    return float(model.predict(B).mean()), phi, model.predict(X)


def random_search_precision(instance, budget: int, seed: int) -> float:
    """Best precision of plain uniform random search with the same budget."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, (budget, instance.dimension))
    best = float(np.min(instance.evaluate_batch(X)))
    return max(best - instance.f_offset, 0.0)


def naive_draw_parents(rng, pop_size: int, m: int, k: int) -> np.ndarray:
    """Row i: k pops from the list of every index but i, pop t at position
    int(u[t, i] * len(list)) for u = rng.random((k, m))."""
    u = rng.random((k, m))
    drawn = np.empty((m, k), dtype=np.intp)
    for i in range(m):
        pool = [c for c in range(pop_size) if c != i]
        for t in range(k):
            drawn[i, t] = pool.pop(int(u[t, i] * len(pool)))
    return drawn



def stable_sort_draw_parents(rng, pop_size: int, m: int, k: int) -> np.ndarray:
    """The parent draw before version 0.2.6. Row i: the first k indices of a
    stable sort of pop_size uniform keys, the target i's key set to +inf."""
    keys = rng.random((m, pop_size))
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1, kind="stable")[:, :k]

# distinct parents besides the target, per DE strategy
NAIVE_N_PARENTS = {
    "rand/1/bin": 3,
    "best/1/bin": 2,
    "rand/2/bin": 5,
    "current-to-best/1/bin": 2,
}


def naive_mutant(strategy: str, x, best, current, F: float) -> np.ndarray:
    """The mutant vectors of one DE generation, one strategy per branch;
    x[j] holds parent j of every target."""
    if strategy == "rand/1/bin":
        return x[0] + F * (x[1] - x[2])
    if strategy == "best/1/bin":
        return best + F * (x[0] - x[1])
    if strategy == "rand/2/bin":
        return x[0] + F * (x[1] - x[2]) + F * (x[3] - x[4])
    assert strategy == "current-to-best/1/bin", strategy
    return current + F * (best - current) + F * (x[0] - x[1])


def naive_run_de(instance, strategy: str, F: float, Cr: float, pop_size: int,
                 budget: int, seed: int, on_generation=None) -> float:
    """One DE run as first written, generation by generation: parents by list
    pops, reflection by one np.mod over every coordinate, selection by
    boolean gathers and scatters. Returns the best precision reached."""
    lo, hi = -5.0, 5.0
    dim = instance.dimension
    rng = np.random.default_rng(seed)
    pop = rng.uniform(lo, hi, (pop_size, dim))
    fvals = instance.evaluate_batch(pop)
    evals = pop_size
    best_f = float(np.min(fvals))
    gen = 0
    if on_generation is not None:
        on_generation(gen, pop.copy(), fvals.copy())
    while evals < budget:
        m = min(pop_size, budget - evals)
        best = pop[np.argmin(fvals)]
        r = naive_draw_parents(rng, pop_size, m, NAIVE_N_PARENTS[strategy])
        current = pop[:m]
        v = naive_mutant(strategy, pop[r.T], best, current, F)
        cross = rng.random((m, dim)) < Cr
        cross[np.arange(m), rng.integers(dim, size=m)] = True
        Y = np.mod(np.where(cross, v, current) - lo, 2.0 * (hi - lo))
        trials = lo + np.where(Y > hi - lo, 2.0 * (hi - lo) - Y, Y)
        tvals = instance.evaluate_batch(trials)
        evals += m
        best_f = min(best_f, float(np.min(tvals)))
        accept = tvals <= fvals[:m]
        pop[:m][accept] = trials[accept]
        fvals[:m][accept] = tvals[accept]
        gen += 1
        if on_generation is not None:
            on_generation(gen, pop.copy(), fvals.copy())
    return max(best_f - instance.f_offset, 0.0)


def _naive_orthogonal(rng, dim):
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))[None, :]


def _naive_signs(rng, dim):
    return np.where(rng.random(dim) < 0.5, -1.0, 1.0)


def _naive_setup_none(dim, rng):
    return {}


def _naive_setup_signs(dim, rng):
    return {"signs": _naive_signs(rng, dim)}


def _naive_setup_r(dim, rng):
    return {"R": _naive_orthogonal(rng, dim)}


def _naive_setup_rq(dim, rng):
    return {"R": _naive_orthogonal(rng, dim), "Q": _naive_orthogonal(rng, dim)}


def _naive_setup_rq_signs(dim, rng):
    aux = _naive_setup_rq(dim, rng)
    aux["signs"] = _naive_signs(rng, dim)
    return aux


# problem id -> its per-instance setup; the Gallagher problems (21, 22) draw
# their peaks with naive_gallagher_setup and are not listed
_NAIVE_SETUPS = {
    **dict.fromkeys((1, 2, 3, 4, 8), _naive_setup_none),
    **dict.fromkeys((5, 20), _naive_setup_signs),
    **dict.fromkeys((9, 10, 11, 12, 14, 19), _naive_setup_r),
    **dict.fromkeys((7, 13, 15, 16, 17, 18, 23), _naive_setup_rq),
    **dict.fromkeys((6, 24), _naive_setup_rq_signs),
}
NAIVE_SETUP_PROBLEMS = tuple(sorted(_NAIVE_SETUPS))


def naive_setup(problem_id: int, dim: int, rng) -> dict:
    """The aux constants of one problem, drawn from `rng` after the instance's
    shift and offset, one setup function per combination of draws."""
    return _NAIVE_SETUPS[problem_id](dim, rng)


# Gallagher's peaks as (peak count, alpha of peak 0, range of the other peaks)
_NAIVE_GALLAGHER = {21: (101, 1000.0, 5.0), 22: (21, 1000.0**2, 4.9)}


def naive_gallagher_setup(problem_id: int, dim: int, rng) -> dict:
    """Gallagher's constants drawn from `rng` after the instance's shift and
    offset: R, then the alphas' permutation, then each peak's permuted
    diagonal, then the peaks (peak 0 set to the origin). Also builds each
    peak's matrix B_p = R.T diag_p R."""
    n_peaks, alpha_first, peak_range = _NAIVE_GALLAGHER[problem_id]
    R = _naive_orthogonal(rng, dim)
    alpha_set = 1000.0 ** (2.0 * np.arange(n_peaks - 1) / (n_peaks - 2))
    alphas = np.concatenate(([alpha_first], rng.permutation(alpha_set)))
    diags = np.empty((n_peaks, dim))
    B = np.empty((n_peaks, dim, dim))
    for p in range(n_peaks):
        diags[p] = rng.permutation(
            alphas[p] ** (0.5 * np.arange(dim) / (dim - 1)) / alphas[p] ** 0.25)
        B[p] = R.T @ (diags[p][:, None] * R)
    peaks = rng.uniform(-peak_range, peak_range, (n_peaks, dim))
    peaks[0] = 0.0
    weights = np.concatenate(([10.0], 1.1 + 8.0 * np.arange(n_peaks - 1) / (n_peaks - 2)))
    return {"R": R, "diags": diags, "B": B, "peaks": peaks, "weights": weights}


def _naive_gallagher_value(vals: np.ndarray) -> np.ndarray:
    """T_osz(10 - the best peak) squared, from the (rows, peaks) peak values."""
    z = 10.0 - np.max(vals, axis=1)
    absz = np.abs(z)
    xhat = np.zeros_like(z)
    nz = absz > 0
    xhat[nz] = np.log(absz[nz])
    c1 = np.where(z > 0, 10.0, 5.5)
    c2 = np.where(z > 0, 7.9, 3.1)
    osz = np.sign(z) * np.exp(xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))
    osz[~nz] = 0.0
    return osz ** 2


def naive_gallagher_per_peak(Y: np.ndarray, setup: dict) -> np.ndarray:
    """Gallagher's peaks (f21, f22) in optimum-at-origin coordinates, one
    peak at a time with naive_gallagher_setup's matrices: weight *
    exp(-(y - y_p)' B_p (y - y_p) / 2D), the best peak, then T_osz and the
    square."""
    dim = Y.shape[1]
    B, peaks, weights = setup["B"], setup["peaks"], setup["weights"]
    vals = np.empty((Y.shape[0], peaks.shape[0]))
    for p in range(peaks.shape[0]):
        U = Y - peaks[p][None, :]
        vals[:, p] = weights[p] * np.exp(-np.sum((U @ B[p]) * U, axis=1) / (2.0 * dim))
    return _naive_gallagher_value(vals)


def naive_gallagher(Y: np.ndarray, aux: dict) -> np.ndarray:
    """Gallagher's peaks (f21, f22) from an instance's constants, all rows in
    one pass: rotate, expand every peak's quadratic form into two matmuls
    plus a constant, the best peak, then T_osz and the square."""
    dim = Y.shape[1]
    Z = Y @ aux["R"].T
    quad = (Z * Z) @ aux["D"].T + Z @ aux["M"].T + aux["k"]
    return _naive_gallagher_value(aux["weights"] * np.exp(-quad / (2.0 * dim)))


def naive_katsuura(Y: np.ndarray, aux: dict) -> np.ndarray:
    """Katsuura's function (f23) in optimum-at-origin coordinates, the
    (rows, D, 32) digit terms of all rows in one pass."""
    dim = Y.shape[1]
    lam = 100.0 ** (0.5 * np.arange(dim) / (dim - 1))
    z = ((Y @ aux["R"].T) * lam[None, :]) @ aux["Q"].T
    two_j = 2.0 ** np.arange(1, 33)
    zj = z[:, :, None] * two_j[None, None, :]
    s = np.sum(np.abs(zj - np.round(zj)) / two_j[None, None, :], axis=2)
    prod = np.prod(1.0 + np.arange(1, dim + 1)[None, :] * s, axis=1)
    return (10.0 / dim**2) * (prod ** (10.0 / dim**1.2) - 1.0)


def naive_nearest_neighbor_tour(dmat: np.ndarray) -> np.ndarray:
    """Greedy tour from index 0: each step masks the visited points of the
    current row with +inf and takes the first minimum."""
    n = dmat.shape[0]
    order = np.empty(n, dtype=int)
    order[0] = 0
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    cur = 0
    for step in range(1, n):
        row = np.where(visited, np.inf, dmat[cur])
        cur = int(np.argmin(row))
        order[step] = cur
        visited[cur] = True
    return order


def naive_nearest_better_distances(y: np.ndarray, dmat: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest point of strictly lower y, +inf
    where there is none, from one mask of the whole matrix."""
    return np.where(y[None, :] < y[:, None], dmat, np.inf).min(axis=1)


def naive_pair_entropy(symbols: np.ndarray) -> float:
    """Base-2 entropy of the consecutive unequal pairs of one symbol
    sequence, each pair's count a sum of its own mask."""
    a, b = symbols[:-1], symbols[1:]
    total = len(a)
    h = 0.0
    for sa in (-1, 0, 1):
        for sb in (-1, 0, 1):
            if sa == sb:
                continue
            p = float(np.sum((a == sa) & (b == sb))) / total
            if p > 0:
                h -= p * math.log2(p)
    return h


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


def naive_fit_random_forest(X, y, *, n_trees, seed):
    """The CART forest on bootstrap samples with one argsort and one cumsum
    per candidate feature: each feature is scored on its own, and a later
    feature replaces the best split only if its SSE is strictly lower.
    Returns each tree's flat arrays as a dict (feature, threshold, left,
    right, value)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    n_sub = math.ceil(m / 3)
    trees = []
    for t in range(n_trees):
        seed_seq = np.random.SeedSequence([int(seed), int(t)])
        rng = np.random.default_rng(int(seed_seq.generate_state(1, np.uint64)[0]))
        trees.append(naive_build_tree(X, y, rng.integers(0, n, n), rng, n_sub))
    return trees


def naive_build_tree(X, y, idx, rng, n_sub):
    """One tree grown from the rows `idx`, without a depth limit, leaving at
    least 2 rows on each side of a split; each node draws its `n_sub`
    candidate columns from `rng` before scoring them."""
    min_leaf = 2
    arrays = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def best_split(rows):
        chosen = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
        yr = y[rows]
        n = len(rows)
        best, best_sse = None, float(np.cumsum((yr - np.cumsum(yr)[-1] / n) ** 2)[-1])
        for j in chosen:
            xs = X[rows, j]
            order = np.argsort(xs, kind="stable")
            xs_sorted, ys_sorted = xs[order], yr[order]
            s1 = np.cumsum(ys_sorted)
            s2 = np.cumsum(ys_sorted**2)
            sizes = np.arange(1, n)
            sse_left = s2[:-1] - s1[:-1] ** 2 / sizes
            sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - sizes)
            valid = ((sizes >= min_leaf) & (sizes <= n - min_leaf)
                     & (xs_sorted[:-1] < xs_sorted[1:]))
            if not valid.any():
                continue
            total = np.where(valid, sse_left + sse_right, np.inf)
            pos = int(np.argmin(total))
            if total[pos] < best_sse:
                best_sse = float(total[pos])
                lo, hi = xs_sorted[pos], xs_sorted[pos + 1]
                mid = 0.5 * (lo + hi)
                # a midpoint that is not below hi would send hi to the left too
                best = (int(j), float(mid if mid < hi else lo))
        return best

    def build(rows):
        node = len(arrays["feature"])
        for name, default in (("feature", -1), ("threshold", 0.0), ("left", -1),
                              ("right", -1)):
            arrays[name].append(default)
        yr = y[rows]
        arrays["value"].append(float(np.cumsum(yr)[-1] / len(yr)))
        if len(rows) < 2 * min_leaf or np.all(yr == yr[0]):
            return node
        split = best_split(rows)
        if split is None:
            return node
        j, thr = split
        goes_left = X[rows, j] <= thr
        arrays["feature"][node], arrays["threshold"][node] = j, thr
        arrays["left"][node] = build(rows[goes_left])
        arrays["right"][node] = build(rows[~goes_left])
        return node

    build(np.asarray(idx))
    return {name: np.asarray(values, dtype=float if name in ("threshold", "value") else int)
            for name, values in arrays.items()}


def naive_forest_predict(model, X: np.ndarray) -> np.ndarray:
    """The forest's mean prediction, one tree at a time and one row at a time:
    each row walks its own path (left on x <= threshold), and the trees'
    leaf values are added in tree order."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        leaf_values = np.empty(X.shape[0])
        for i, x in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            leaf_values[i] = tree.value[node]
        out += leaf_values
    return out / len(model.trees)


def naive_cv_mmce(X: np.ndarray, labels: np.ndarray, pooled: bool, n_folds: int) -> int:
    """Cross-validated lda (pooled) or qda misclassification count, one
    discriminant per call: the folds and each fold's class means and
    covariances are built again for each of the two."""
    n = len(labels)
    folds = np.empty(n, dtype=int)
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        folds[idx] = np.arange(len(idx)) % n_folds
    errors = 0
    for f in range(n_folds):
        test = folds == f
        train = ~test
        if not test.any():
            continue
        Xtr, ltr = X[train], labels[train]
        means, covs, priors = [], [], []
        for c in (0, 1):
            member = ltr == c
            Xc = Xtr[member]
            mean = Xc.mean(axis=0)
            centered = Xc - mean
            means.append(mean)
            covs.append(centered.T @ centered / max(len(Xc) - 1, 1))
            priors.append(member.mean())
        Xte = X[test]
        reg = 1e-6 * np.eye(X.shape[1])
        scores = np.empty((Xte.shape[0], 2))
        if pooled:
            cov = (covs[0] + covs[1]) / 2.0 + reg
            inv = np.linalg.inv(cov)
            for c in (0, 1):
                diff = Xte - means[c]
                scores[:, c] = -0.5 * np.sum((diff @ inv) * diff, axis=1) + math.log(priors[c])
        else:
            for c in (0, 1):
                cov = covs[c] + reg
                inv = np.linalg.inv(cov)
                _, logdet = np.linalg.slogdet(cov)
                diff = Xte - means[c]
                scores[:, c] = (
                    -0.5 * logdet
                    - 0.5 * np.sum((diff @ inv) * diff, axis=1)
                    + math.log(priors[c])
                )
        pred = (scores[:, 1] > scores[:, 0]).astype(int)
        errors += int(np.sum(pred != labels[test]))
    return errors


def naive_relative_error(true_value: float, predicted_value: float) -> float:
    """|predicted - true| over |true|, the denominator floored at 1e-6."""
    return abs(predicted_value - true_value) / max(abs(true_value), 1e-6)


def naive_classify(true_value: float, predicted_value: float, t: float, p: float) -> str:
    """The footprint label of one instance as a name: algorithm good when
    true <= t, model good when its relative error <= p."""
    algorithm = "good" if true_value <= t else "poor"
    model = "good" if naive_relative_error(true_value, predicted_value) <= p else "poor"
    return f"{algorithm}_{model}"


def naive_footprint_fold(predictions, t: float, p: float) -> list:
    """(key, true, predicted, relative error, label name) for every
    (key, true, predicted) triple of one fold, one triple at a time."""
    out, seen = [], set()
    for key, true_value, predicted_value in predictions:
        assert key not in seen, f"duplicate instance key {key}"
        seen.add(key)
        out.append((key, float(true_value), float(predicted_value),
                    naive_relative_error(true_value, predicted_value),
                    naive_classify(true_value, predicted_value, t, p)))
    return out


def naive_sensitivity(assignments, t: float, p: float) -> list:
    """(key, label, label under tolerance p) of each naive_footprint_fold
    row, in key order."""
    return [(key, label, naive_classify(true_value, predicted_value, t, p))
            for key, true_value, predicted_value, _, label in sorted(assignments)]
