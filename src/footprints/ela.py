"""Exploratory landscape analysis features.

A fixed, documented catalog of named features computed from one Latin
hypercube sample of a problem instance. Groups: dispersion, information
content, nearest-better clustering, regression meta-models, level-set
separability (lda/qda) and principal component structure.

Each group declares its feature names in a tuple beside the function that
computes them, which returns one value per name in that order.
FEATURE_SCHEMA is the concatenation of the six tuples, and a name's group
is its prefix before the first dot (flacco's `<group>.<feature>`). All
outputs are finite: non-finite intermediate results are replaced by 0 and
counted per vector.

The distance matrix comes from BLAS products a block of rows at a time
(`_distance_matrix`): it is exactly symmetric with a zero diagonal, and its
last bits may depend on the BLAS. The other hot loops batch their work
without moving a bit: the nearest-neighbour tour adds a +inf mask of the
visited points to a row, nearest-better clustering masks the matrix a block
of at most CHUNK_CELLS cells at a time (for peak memory only), one bincount
counts the symbol pairs of every information-content threshold, and one
stacked inv and slogdet serve all folds of a level-set cross-validation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import KEY_COLUMNS, Key, read_csv, row_key, write_csv, write_json
from .errors import ConfigurationError
from .suite import LOWER_BOUND, UPPER_BOUND, ProblemInstance

logger = logging.getLogger(__name__)

DISP_QUANTILES = (0.02, 0.05, 0.10, 0.25)
LEVEL_QUANTILES = (0.10, 0.25, 0.50)
LEVEL_CV_FOLDS = 5
IC_SETTLING_THRESHOLD = 0.05
IC_GRID_SIZE = 30
_EPS = 1e-12
_DIST_BLOCK = 128
# The most cells of one block of nearest-better clustering's masked distances
# (16 rows at n = 1000), so that no n x n mask or copy sits beside the matrix.
CHUNK_CELLS = 1 << 14


def _q_tag(q: float) -> str:
    return f"{int(round(q * 100)):02d}"


@dataclass(frozen=True, eq=False)
class ElaFeatureVector:
    """One instance's features: `values` in FEATURE_SCHEMA order, of which
    `sanitized_count` were non-finite and replaced by 0."""

    key: Key
    values: np.ndarray
    sanitized_count: int


def sample_design(instance: ProblemInstance, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Latin hypercube sample `(X, y)` of the instance domain: rows of X
    within bounds, y[i] = f(X[i])."""
    dim = instance.dimension
    rng = np.random.default_rng(seed)
    span = UPPER_BOUND - LOWER_BOUND
    X = np.empty((n, dim))
    for j in range(dim):
        strata = rng.permutation(n)
        X[:, j] = LOWER_BOUND + (strata + rng.random(n)) * span / n
    return X, instance.evaluate_batch(X)


def _distance_matrix(X: np.ndarray) -> np.ndarray:
    """The Euclidean distances between the rows of X, exactly symmetric with
    a zero diagonal; their last bits may depend on the BLAS. Each block of
    _DIST_BLOCK rows of the upper triangle takes d^2 = |x_i|^2 + |x_j|^2 -
    2 x_i.x_j as one BLAS product of the rows [-2 x_i, 1, |x_i|^2] and
    [x_j, |x_j|^2, 1], written into the matrix; d^2 is clamped at 0 and its
    sqrt taken in place, and the block is mirrored into the lower triangle.
    Beside the matrix live only a block's copies (at most _DIST_BLOCK x n
    cells) and the augmented rows."""
    n = len(X)
    sq = np.einsum("ij,ij->i", X, X)[:, None]
    one = np.ones_like(sq)
    left = np.hstack([-2.0 * X, one, sq])
    right = np.hstack([X, sq, one])
    lower = np.tri(_DIST_BLOCK, k=-1, dtype=bool)
    dmat = np.empty((n, n))
    for lo in range(0, n, _DIST_BLOCK):
        hi = min(lo + _DIST_BLOCK, n)
        block = dmat[lo:hi, lo:]
        np.matmul(left[lo:hi], right[lo:].T, out=block)
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
        square = block[:, :hi - lo]
        np.copyto(square, square.T, where=lower[:hi - lo, :hi - lo])
        dmat[hi:, lo:hi] = block[:, hi - lo:].T
    np.fill_diagonal(dmat, 0.0)
    return dmat


def _safe_ratio(a: float, b: float) -> float:
    return max(float(a), _EPS) / max(float(b), _EPS)


# ---------------------------------------------------------------------------
# dispersion

DISP_FEATURES = tuple(f"disp.{stat}_mean_{_q_tag(q)}"
                      for stat in ("ratio", "diff") for q in DISP_QUANTILES)


def disp_features(y: np.ndarray, dmat: np.ndarray) -> list[float]:
    """`dmat`: the pairwise distances of the sample points, with a zero diagonal."""
    n = len(y)
    mean_all = float(dmat.sum() / (n * (n - 1)))
    order = np.argsort(y, kind="stable")  # ties: lowest index wins
    mean_best = []
    for q in DISP_QUANTILES:
        m = max(2, math.ceil(q * n))
        idx = order[:m]
        mean_best.append(float(dmat[np.ix_(idx, idx)].sum() / (m * (m - 1))))
    return ([mb / max(mean_all, _EPS) for mb in mean_best]
            + [mb - mean_all for mb in mean_best])


# ---------------------------------------------------------------------------
# information content

def _nearest_neighbor_tour(dmat: np.ndarray) -> np.ndarray:
    """Greedy tour over the points of the distance matrix `dmat`, starting
    at index 0; distance ties go to the lowest index. `visited` is +inf at
    the visited points and 0 elsewhere, so adding it to a row of distances
    leaves every unvisited distance exact."""
    n = dmat.shape[0]
    order = np.empty(n, dtype=int)
    order[0] = 0
    visited = np.zeros(n)
    visited[0] = np.inf
    row = np.empty(n)
    cur = 0
    for step in range(1, n):
        np.add(dmat[cur], visited, out=row)
        cur = int(row.argmin())
        order[step] = cur
        visited[cur] = np.inf
    return order


def _symbol_sequence(diffs: np.ndarray, eps) -> np.ndarray:
    """The -1/0/1 symbols of `diffs` under threshold `eps`; a column of
    thresholds gives one row of symbols per threshold."""
    return np.where(diffs > eps, 1, np.where(diffs < -eps, -1, 0))


# the 6 admissible (unequal) symbol pairs (a, b), as codes 3 * a + b + 4
_PAIR_CODES = tuple(3 * a + b + 4 for a in (-1, 0, 1) for b in (-1, 0, 1) if a != b)


def _pair_entropies(symbols: np.ndarray) -> list[float]:
    """Base-2 entropy of the consecutive unequal symbol pairs in each row of
    `symbols`; one bincount counts the pairs of every row."""
    rows, length = symbols.shape
    codes = 3 * symbols[:, :-1] + symbols[:, 1:] + (4 + 9 * np.arange(rows))[:, None]
    counts = np.bincount(codes.ravel(), minlength=9 * rows).reshape(rows, 9).tolist()
    total = length - 1
    entropies = []
    for row in counts:
        h = 0.0
        for code in _PAIR_CODES:
            p = row[code] / total
            if p > 0:
                h -= p * math.log2(p)
        entropies.append(h)
    return entropies


def _partial_information(symbols: np.ndarray) -> float:
    """The partial information of the symbols under threshold 0."""
    nonzero = symbols[symbols != 0]
    if len(nonzero) == 0:
        return 0.0
    changes = 1 + int(np.sum(nonzero[1:] != nonzero[:-1]))
    return changes / len(symbols)


IC_FEATURES = ("ic.h_max", "ic.eps_max", "ic.eps_s", "ic.eps_ratio", "ic.m0")


def ic_features(y: np.ndarray, dmat: np.ndarray) -> list[float]:
    """`dmat`: the pairwise distances of the sample points; its diagonal is not read."""
    order = _nearest_neighbor_tour(dmat)
    diffs = np.diff(y[order])
    dmax = float(np.max(np.abs(diffs)))
    if dmax == 0.0:
        return [0.0] * len(IC_FEATURES)
    lo = min(1e-5, dmax)
    if lo == dmax:
        grid = np.array([0.0, dmax])
    else:
        grid = np.concatenate(([0.0], np.logspace(math.log10(lo), math.log10(dmax), IC_GRID_SIZE)))
    symbols = _symbol_sequence(diffs, grid[:, None])  # grid[0] is 0
    entropies = np.array(_pair_entropies(symbols))
    h_max = float(np.max(entropies))
    eps_max = float(grid[int(np.argmax(entropies))])  # smallest maximizer
    below = np.nonzero(entropies < IC_SETTLING_THRESHOLD)[0]
    eps_s = float(grid[below[0]]) if len(below) else float(grid[-1])
    eps_ratio = math.log10(_safe_ratio(eps_max, eps_s))
    return [h_max, eps_max, eps_s, eps_ratio, _partial_information(symbols[0])]


# ---------------------------------------------------------------------------
# nearest-better clustering

NBC_FEATURES = ("nbc.nn_nb.mean_ratio", "nbc.nn_nb.sd_ratio",
                "nbc.dist_ratio.coeff_var", "nbc.nb_fitness.cor")


def _nearest_better_distances(y: np.ndarray, dmat: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest point of strictly lower y, +inf
    where there is none. `dmat` is masked a block of rows at a time, at most
    CHUNK_CELLS cells, so that no temporary grows to n x n; a minimum is
    exact, so the blocks give the whole matrix's values."""
    n = len(y)
    nb_dist = np.empty(n)
    step = max(1, CHUNK_CELLS // n)
    for lo in range(0, n, step):
        better = y < y[lo:lo + step, None]
        nb_dist[lo:lo + step] = np.where(better, dmat[lo:lo + step], np.inf).min(axis=1)
    return nb_dist


def nbc_features(y: np.ndarray, dmat: np.ndarray) -> list[float]:
    """`dmat`: the pairwise distances of the sample points, with an infinite diagonal."""
    nn_dist = dmat.min(axis=1)
    nb_dist = _nearest_better_distances(y, dmat)
    has_better = np.isfinite(nb_dist)
    if has_better.any():
        # points without a better neighbour take the largest observed
        # nearest-better distance
        nb_dist[~has_better] = nb_dist[has_better].max()
    else:
        nb_dist = nn_dist.copy()
    ratios = np.maximum(nn_dist, _EPS) / np.maximum(nb_dist, _EPS)
    cv = float(np.std(ratios, ddof=1)) / max(float(np.mean(ratios)), _EPS)
    if np.std(y) > 0 and np.std(nb_dist) > 0:
        cor = float(np.corrcoef(nb_dist, y)[0, 1])
    else:
        cor = 0.0
    return [
        _safe_ratio(np.mean(nn_dist), np.mean(nb_dist)),
        _safe_ratio(np.std(nn_dist, ddof=1), np.std(nb_dist, ddof=1)),
        cv,
        cor,
    ]


# ---------------------------------------------------------------------------
# regression meta-models

def _interactions(X: np.ndarray) -> np.ndarray:
    dim = X.shape[1]
    cols = [X[:, i] * X[:, j] for i in range(dim) for j in range(i + 1, dim)]
    if not cols:
        return np.empty((X.shape[0], 0))
    return np.stack(cols, axis=1)


def n_meta_model_coefficients(dim: int) -> int:
    """Coefficient count of the largest meta-model (quad with interactions)."""
    return 1 + 2 * dim + dim * (dim - 1) // 2


def _fit_least_squares(Z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.linalg.lstsq(Z, y, rcond=None)[0]
    sse = float(np.sum((y - Z @ beta) ** 2))
    return beta, sse


def _adjusted_r2(sse: float, sst: float, n: int, n_predictors: int) -> float:
    if sst <= 0:
        return 0.0  # constant target convention
    r2 = 1.0 - sse / sst
    return 1.0 - (1.0 - r2) * (n - 1) / (n - n_predictors - 1)


META_MODEL_FEATURES = (
    "ela_meta.lin_simple.adj_r2", "ela_meta.lin_simple.intercept",
    "ela_meta.lin_simple.coef.min", "ela_meta.lin_simple.coef.max",
    "ela_meta.lin_simple.coef.max_by_min", "ela_meta.lin_w_interact.adj_r2",
    "ela_meta.quad_simple.adj_r2", "ela_meta.quad_simple.cond",
    "ela_meta.quad_w_interact.adj_r2",
)


def meta_model_features(X: np.ndarray, y: np.ndarray) -> list[float]:
    n, dim = X.shape
    ones = np.ones((n, 1))
    inter = _interactions(X)
    sst = float(np.sum((y - y.mean()) ** 2))

    z_lin = np.hstack([ones, X])
    beta_lin, sse_lin = _fit_least_squares(z_lin, y)
    z_lin_i = np.hstack([ones, X, inter])
    _, sse_lin_i = _fit_least_squares(z_lin_i, y)
    z_quad = np.hstack([ones, X, X**2])
    beta_quad, sse_quad = _fit_least_squares(z_quad, y)
    z_quad_i = np.hstack([ones, X, X**2, inter])
    _, sse_quad_i = _fit_least_squares(z_quad_i, y)

    lin_coefs = np.abs(beta_lin[1:])
    quad_coefs = np.abs(beta_quad[1 + dim:])
    return [
        _adjusted_r2(sse_lin, sst, n, dim),
        float(beta_lin[0]),
        float(lin_coefs.min()),
        float(lin_coefs.max()),
        _safe_ratio(lin_coefs.max(), lin_coefs.min()),
        _adjusted_r2(sse_lin_i, sst, n, z_lin_i.shape[1] - 1),
        _adjusted_r2(sse_quad, sst, n, 2 * dim),
        _safe_ratio(quad_coefs.max(), quad_coefs.min()),
        _adjusted_r2(sse_quad_i, sst, n, z_quad_i.shape[1] - 1),
    ]


# ---------------------------------------------------------------------------
# level sets (lda / qda misclassification under cross-validation)

def _class_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    centered = X - mean
    denom = max(len(X) - 1, 1)
    cov = centered.T @ centered / denom
    return mean, cov


def _cv_mmce(X: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """The (lda, qda) misclassification counts under stratified
    cross-validation; each fold's class statistics serve both. lda scores
    both classes under their pooled covariance, qda under each class's own;
    one stacked inv and slogdet serve all folds, and one stacked matmul a
    fold scores its test rows under all four."""
    n, dim = X.shape
    folds = np.empty(n, dtype=int)
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        folds[idx] = np.arange(len(idx)) % LEVEL_CV_FOLDS
    tests, means, covs, log_priors = [], [], [], []
    for f in range(LEVEL_CV_FOLDS):
        test = folds == f
        n_test = np.count_nonzero(test)
        if not n_test:
            continue
        for c in (0, 1):
            Xc = X[~test & (labels == c)]
            mean, cov = _class_stats(Xc)
            means.append(mean)
            covs.append(cov)
            log_priors.append(math.log(len(Xc) / (n - n_test)))
        tests.append(test)
    covs = np.reshape(covs, (-1, 2, dim, dim))
    reg = 1e-6 * np.eye(dim)
    pooled_inv = np.linalg.inv((covs[:, 0] + covs[:, 1]) / 2.0 + reg)
    class_inv = np.linalg.inv(covs + reg)
    _, logdets = np.linalg.slogdet(covs + reg)
    # a fold's four scorings: lda's classes 0 and 1, then qda's
    invs = np.stack([pooled_inv, pooled_inv, class_inv[:, 0], class_inv[:, 1]], axis=1)
    means = np.reshape(means, (-1, 2, dim))
    means = np.concatenate([means, means], axis=1)
    log_priors = np.reshape(log_priors, (-1, 2, 1))
    errors_lda = errors_qda = 0
    for k, test in enumerate(tests):
        diff = X[test] - means[k][:, None]
        quad = np.sum((diff @ invs[k]) * diff, axis=2)
        lda = -0.5 * quad[:2] + log_priors[k]
        qda = -0.5 * logdets[k][:, None] - 0.5 * quad[2:] + log_priors[k]
        errors_lda += int(np.sum((lda[1] > lda[0]) != labels[test]))
        errors_qda += int(np.sum((qda[1] > qda[0]) != labels[test]))
    return errors_lda, errors_qda


def _lda_qda(errors_lda: int, errors_qda: int, n: int) -> float:
    """The ratio of the error rates of n points as one division of the
    error counts, so that equal ratios give equal floats; _safe_ratio's eps
    rule on the rates when a count is 0."""
    if errors_lda and errors_qda:
        return errors_lda / errors_qda
    return _safe_ratio(errors_lda / n, errors_qda / n)


LEVEL_FEATURES = tuple(f"ela_level.{stat}_{_q_tag(q)}" for q in LEVEL_QUANTILES
                       for stat in ("mmce_lda", "mmce_qda", "lda_qda"))


def level_features(X: np.ndarray, y: np.ndarray) -> list[float]:
    n = len(y)
    order = np.argsort(y, kind="stable")
    out: list[float] = []
    for q in LEVEL_QUANTILES:
        labels = np.zeros(n, dtype=int)
        labels[order[:math.ceil(q * n)]] = 1  # lowest q share of objective values
        errors_lda, errors_qda = _cv_mmce(X, labels)
        out += [errors_lda / n, errors_qda / n, _lda_qda(errors_lda, errors_qda, n)]
    return out


# ---------------------------------------------------------------------------
# principal component structure

def _pca_pair(M: np.ndarray, correlation: bool) -> tuple[float, float]:
    """(fraction of PCs for 90% variance, PC1 explained proportion)."""
    centered = M - M.mean(axis=0)
    if correlation:
        std = centered.std(axis=0)
        scaled = np.zeros_like(centered)
        nz = std > 0
        scaled[:, nz] = centered[:, nz] / std[nz]
        centered = scaled
    svals = np.linalg.svd(centered, compute_uv=False)
    ev = svals**2
    total = float(ev.sum())
    n_vars = M.shape[1]
    if total <= 0:
        return 1.0, 0.0
    props = ev / total  # more rows than n_vars (minimum_sample_size), so n_vars values
    k90 = int(np.searchsorted(np.cumsum(props), 0.9 - 1e-12) + 1)
    k90 = min(k90, n_vars)
    return k90 / n_vars, float(props[0])


PCA_FEATURES = tuple(f"pca.expl_var{stat}.{space}" for stat in ("", "_PC1")
                     for space in ("cov_x", "cor_x", "cov_init", "cor_init"))


def pca_features(X: np.ndarray, y: np.ndarray) -> list[float]:
    """The fractions of PCs for 90% variance, then the PC1 proportions, of
    X and of X with y appended, each under covariance and correlation."""
    init = np.hstack([X, y[:, None]])
    pairs = [_pca_pair(M, correlation) for M in (X, init) for correlation in (False, True)]
    return [frac for frac, _ in pairs] + [pc1 for _, pc1 in pairs]


# ---------------------------------------------------------------------------
# full vector

FEATURE_SCHEMA = (*DISP_FEATURES, *IC_FEATURES, *NBC_FEATURES,
                  *META_MODEL_FEATURES, *LEVEL_FEATURES, *PCA_FEATURES)


def minimum_sample_size(dim: int) -> int:
    return max(10 * dim, 50, n_meta_model_coefficients(dim) + 1)


def extract_all(instance: ProblemInstance, n: int, seed: int) -> ElaFeatureVector:
    """All feature groups under the fixed schema; deterministic given seed."""
    need = minimum_sample_size(instance.dimension)
    if n < need:
        raise ConfigurationError(f"sample size {n} below required {need} for D={instance.dimension}")
    X, y = sample_design(instance, n, seed)
    # the one n x n distance matrix: disp reads its zero diagonal, ic and nbc
    # the infinite one set in place; none copies it, and it goes before the
    # meta-models
    dmat = _distance_matrix(X)
    raw = disp_features(y, dmat)
    np.fill_diagonal(dmat, np.inf)
    raw += ic_features(y, dmat)
    raw += nbc_features(y, dmat)
    del dmat
    raw += meta_model_features(X, y)
    raw += level_features(X, y)
    raw += pca_features(X, y)
    values = np.array(raw, dtype=float)
    bad = ~np.isfinite(values)
    for j in np.flatnonzero(bad):
        logger.warning("non-finite feature %s on %s replaced by 0", FEATURE_SCHEMA[j], instance.key)
    values[bad] = 0.0
    return ElaFeatureVector(key=instance.key, values=values, sanitized_count=int(bad.sum()))


def write_features_csv(vectors: Sequence[ElaFeatureVector], path) -> None:
    write_csv(path, [*KEY_COLUMNS, *FEATURE_SCHEMA],
              ([*vec.key, *vec.values] for vec in vectors))


def read_features_csv(path) -> tuple[list[Key], np.ndarray]:
    """The row keys and the (rows, features) matrix, in FEATURE_SCHEMA order."""
    _, rows = read_csv(path)
    X = np.array([[float(row[name]) for name in FEATURE_SCHEMA] for row in rows])
    return [row_key(row) for row in rows], X


def write_schema_json(path) -> None:
    payload = {
        "n_features": len(FEATURE_SCHEMA),
        "features": [
            {"name": name, "group": name.partition(".")[0]} for name in FEATURE_SCHEMA
        ],
    }
    write_json(path, payload)
