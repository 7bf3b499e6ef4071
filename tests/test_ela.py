import hashlib
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

import footprints.ela as ela_mod
from footprints.ela import (
    DISP_FEATURES,
    FEATURE_SCHEMA,
    IC_FEATURES,
    LEVEL_CV_FOLDS,
    LEVEL_FEATURES,
    LEVEL_QUANTILES,
    META_MODEL_FEATURES,
    NBC_FEATURES,
    PCA_FEATURES,
    _cv_mmce,
    _lda_qda,
    _nearest_better_distances,
    _nearest_neighbor_tour,
    _pair_entropies,
    _safe_ratio,
    _symbol_sequence,
    disp_features,
    extract_all,
    ic_features,
    level_features,
    meta_model_features,
    minimum_sample_size,
    nbc_features,
    pca_features,
    sample_design,
    write_features_csv,
    read_features_csv,
)
from footprints.errors import ConfigurationError
from footprints.suite import make_instance

from _oracles import (
    naive_cv_mmce,
    naive_nearest_better_distances,
    naive_nearest_neighbor_tour,
    naive_pair_entropy,
)


def _named(names, values):
    return dict(zip(names, values, strict=True))


def _design(X, y):
    return np.asarray(X, dtype=float), np.asarray(y, dtype=float)


def _distances(X, diagonal=0.0):
    """The pairwise distance matrix of X, with `diagonal` on its diagonal."""
    dmat = squareform(pdist(X))
    np.fill_diagonal(dmat, diagonal)
    return dmat


def _disp(X, y):
    return _named(DISP_FEATURES, disp_features(y, _distances(X)))


def _ic(X, y, diagonal=0.0):
    return _named(IC_FEATURES, ic_features(y, _distances(X, diagonal)))


def _nbc(X, y):
    return _named(NBC_FEATURES, nbc_features(y, _distances(X, np.inf)))


def _line_design(y_values):
    """Points spaced 1 apart on a line: the greedy tour visits them in order."""
    n = len(y_values)
    X = np.zeros((n, 2))
    X[:, 0] = np.arange(n)
    return _design(X, y_values)


# ---------------------------------------------------------------------------
# sampling

def test_lhs_one_point_per_stratum():
    inst = make_instance(1, 1, 10)
    X, _ = sample_design(inst, 100, seed=3)
    assert X.shape == (100, 10)
    for j in range(10):
        strata = np.floor((X[:, j] + 5.0) / 10.0 * 100).astype(int)
        assert sorted(strata) == list(range(100))


def test_lhs_determinism():
    inst = make_instance(2, 1, 4)
    (Xa, ya), (Xb, yb) = sample_design(inst, 60, seed=9), sample_design(inst, 60, seed=9)
    assert np.array_equal(Xa, Xb)
    assert np.array_equal(ya, yb)


def test_lhs_y_matches_evaluate():
    inst = make_instance(7, 2, 3)
    X, y = sample_design(inst, 40, seed=1)
    assert np.array_equal(y, inst.evaluate_batch(X))


def test_lhs_size_guard():
    inst = make_instance(1, 1, 5)
    with pytest.raises(ConfigurationError):
        sample_design(inst, 49, seed=0)


# ---------------------------------------------------------------------------
# dispersion

def test_disp_constant_y_ties_finite():
    rng = np.random.default_rng(1)
    out = _disp(*_design(rng.normal(size=(60, 3)), np.zeros(60)))
    for q in ("02", "05", "10", "25"):
        assert out[f"disp.ratio_mean_{q}"] > 0.0
        assert math.isfinite(out[f"disp.diff_mean_{q}"])


def test_disp_sphere_best_points_cluster():
    # derived numerically: on a sphere the best 5% concentrate near the optimum
    inst = make_instance(1, 1, 5)
    out = _disp(*sample_design(inst, 1000, seed=11))
    assert out["disp.ratio_mean_05"] < 1.0


def test_disp_tiny_subset_uses_two_points():
    # 20 points 1 apart on a line, best first: 2%, 5% and 10% of 20 ask for
    # 1, 1 and 2 points and all use the best 2, at distance 1; 25% uses the
    # best 5. The mean distance over distinct pairs of k points spaced 1
    # apart is (k + 1) / 3: 7 for all 20, 2 for the best 5.
    out = _disp(*_line_design(np.arange(20.0)))
    for tag in ("02", "05", "10"):
        assert out[f"disp.ratio_mean_{tag}"] == pytest.approx(1.0 / 7.0)
        assert out[f"disp.diff_mean_{tag}"] == pytest.approx(1.0 - 7.0)
    assert out["disp.ratio_mean_25"] == pytest.approx(2.0 / 7.0)
    assert out["disp.diff_mean_25"] == pytest.approx(2.0 - 7.0)


# ---------------------------------------------------------------------------
# information content

def test_ic_constant_y_all_zero():
    rng = np.random.default_rng(3)
    out = _ic(*_design(rng.normal(size=(30, 2)), np.full(30, 2.5)))
    assert out["ic.h_max"] == 0.0
    assert out["ic.m0"] == 0.0


def test_ic_symbols_threshold_dominates():
    # strictly increasing values with a huge threshold: all symbols 0, H = 0
    diffs = np.array([1.0, 2.0, 3.0, 4.0])
    symbols = _symbol_sequence(diffs, eps=10.0)
    assert np.all(symbols == 0)
    assert _pair_entropies(symbols[None])[0] == 0.0


def test_ic_alternating_entropy_exactly_one():
    # hand formula: pairs alternate (1,-1) and (-1,1), each with p = 1/2,
    # so H = -2 * (1/2) * log2(1/2) = 1
    n = 40
    out = _ic(*_line_design([0.0, 1.0] * (n // 2)))
    assert out["ic.h_max"] == pytest.approx(1.0)
    # every step changes sign: partial information is maximal
    assert out["ic.m0"] == pytest.approx(1.0)


def test_ic_monotone_tour_zero_entropy():
    out = _ic(*_line_design(np.arange(30, dtype=float)))
    assert out["ic.h_max"] == 0.0


def test_ic_entropy_range_invariant():
    rng = np.random.default_rng(4)
    for trial in range(5):
        out = _ic(*_design(rng.normal(size=(80, 3)), rng.normal(size=80)))
        assert 0.0 <= out["ic.h_max"] <= math.log2(6.0) + 1e-12
        assert out["ic.eps_s"] >= 0.0


def _tour_designs():
    """Designs whose tours meet distance ties: a lattice, duplicated points,
    three points, three equal points and a sampled design."""
    rng = np.random.default_rng(5)
    lattice = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    duplicated = np.repeat(rng.normal(size=(12, 3)), 3, axis=0)[rng.permutation(36)]
    return {
        "lattice": lattice,
        "lattice_shuffled": lattice[rng.permutation(len(lattice))],
        "duplicated": duplicated,
        "three": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "three_equal": np.ones((3, 2)),
        "sampled": sample_design(make_instance(7, 1, 3), 120, seed=2)[0],
    }


@pytest.mark.parametrize("design", list(_tour_designs()))
@pytest.mark.parametrize("diagonal", [0.0, np.inf])
def test_tour_matches_masked_argmin_reference(design, diagonal):
    dmat = _distances(_tour_designs()[design], diagonal)
    tour = _nearest_neighbor_tour(dmat)
    assert tour.tobytes() == naive_nearest_neighbor_tour(dmat).tobytes()
    assert sorted(tour) == list(range(len(dmat)))


def _entropy_cases():
    rng = np.random.default_rng(6)
    diffs = rng.normal(size=200)
    dmax = float(np.max(np.abs(diffs)))
    grid = np.concatenate(([0.0], np.logspace(-5, math.log10(dmax), 30)))
    tiny = rng.normal(scale=1e-7, size=50)
    return {
        "random": (diffs, grid),
        "thresholds_hit": (np.concatenate([grid, -grid, grid[::-1]]), grid),
        "constant_y": (np.zeros(40), np.array([0.0, 1e-5, 1.0])),
        "below_1e-5": (tiny, np.array([0.0, float(np.max(np.abs(tiny)))])),
        "two_diffs": (np.array([1.0, -1.0]), np.array([0.0, 0.5, 1.0])),
    }


@pytest.mark.parametrize("case", list(_entropy_cases()))
def test_pair_entropies_match_per_threshold_reference(case):
    diffs, grid = _entropy_cases()[case]
    entropies = _pair_entropies(_symbol_sequence(diffs, grid[:, None]))
    expected = [naive_pair_entropy(_symbol_sequence(diffs, e)) for e in grid]
    assert np.array(entropies).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("problem_id", [1, 5, 16, 21])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 0.0])
def test_ic_features_match_naive_tour_and_per_threshold_entropies(monkeypatch, problem_id, scale):
    # scale 1e-9 takes the [0, dmax] grid below 1e-5, and 0 a constant y
    X, y = sample_design(make_instance(problem_id, 1, 3), 90, seed=problem_id)
    y = y * scale
    dmat = _distances(X, np.inf)
    fast = ic_features(y, dmat)
    monkeypatch.setattr(ela_mod, "_nearest_neighbor_tour", naive_nearest_neighbor_tour)
    monkeypatch.setattr(ela_mod, "_pair_entropies",
                        lambda symbols: [naive_pair_entropy(row) for row in symbols])
    assert np.array(fast).tobytes() == np.array(ic_features(y, dmat)).tobytes()


# ---------------------------------------------------------------------------
# nearest better clustering

def test_nbc_three_point_hand_value():
    # collinear points 0, 1, 3 with strictly decreasing y:
    # nn = [1, 1, 2]; nearest-better = [1, 2, max(1, 2) = 2]
    # mean ratio = mean(nn)/mean(nb) = (4/3)/(5/3) = 0.8
    out = _nbc(*_design([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], [3.0, 2.0, 1.0]))
    assert out["nbc.nn_nb.mean_ratio"] == pytest.approx(0.8)


def test_nbc_identical_y_convention_ratios_one():
    rng = np.random.default_rng(5)
    out = _nbc(*_design(rng.normal(size=(25, 3)), np.zeros(25)))
    assert out["nbc.nn_nb.mean_ratio"] == pytest.approx(1.0)
    assert out["nbc.nn_nb.sd_ratio"] == pytest.approx(1.0)
    assert out["nbc.nb_fitness.cor"] == 0.0


def test_nbc_duplicate_point_guarded():
    out = _nbc(*_design([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                        [1.0, 2.0, 3.0, 4.0]))
    for value in out.values():
        assert math.isfinite(value)


def test_nbc_correlation_sign_forced():
    # geometrically increasing gaps with decreasing y: nearest-better
    # distances grow as y falls, so the correlation must be negative
    xs = [0.0, 1.0, 3.0, 7.0, 15.0]
    out = _nbc(*_design([[x, 0.0] for x in xs], [5.0, 4.0, 3.0, 2.0, 1.0]))
    assert -1.0 <= out["nbc.nb_fitness.cor"] < 0.0


def _nbc_design(n, dim, seed):
    """A sampled design with tied y values (rounded to a few levels) and
    duplicated points (the second half repeats the first quarter)."""
    X, y = sample_design(make_instance(21, 1, dim), n, seed=seed)
    y = np.round(y, 1 - int(np.floor(np.log10(np.ptp(y)))))
    X[n // 2:n // 2 + n // 4] = X[:n // 4]
    y[n // 2:n // 2 + n // 4] = y[:n // 4]
    return X, y


def _assert_nbc_matches_whole_matrix_mask(monkeypatch, X, y):
    dmat = _distances(X, np.inf)
    nb_dist = _nearest_better_distances(y, dmat)
    assert nb_dist.tobytes() == naive_nearest_better_distances(y, dmat).tobytes()
    fast = nbc_features(y, dmat)
    with monkeypatch.context() as m:
        m.setattr(ela_mod, "_nearest_better_distances", naive_nearest_better_distances)
        assert np.array(fast).tobytes() == np.array(nbc_features(y, dmat)).tobytes()


@pytest.mark.parametrize("n", [23, 24, 25])  # one row below, at and above 3 blocks of 8
@pytest.mark.parametrize("rows_per_block", [1, 8, 30])
def test_nbc_blocks_match_whole_matrix_mask(monkeypatch, n, rows_per_block):
    monkeypatch.setattr(ela_mod, "CHUNK_CELLS", rows_per_block * n)
    X, y = _nbc_design(max(n, 20), 2, seed=n)
    _assert_nbc_matches_whole_matrix_mask(monkeypatch, X[:n], y[:n])


def test_nbc_blocks_match_whole_matrix_mask_at_d10_n1000(monkeypatch):
    X, y = _nbc_design(1000, 10, seed=3)
    assert len(np.unique(y)) < len(y) and len(np.unique(X, axis=0)) < len(X)
    _assert_nbc_matches_whole_matrix_mask(monkeypatch, X, y)


# ---------------------------------------------------------------------------
# meta models

def test_meta_linear_fit_perfect():
    rng = np.random.default_rng(7)
    X = rng.uniform(-5, 5, size=(100, 4))
    y = 3.0 - 2.0 * X[:, 0] + 0.5 * X[:, 2]
    out = _named(META_MODEL_FEATURES, meta_model_features(X, y))
    assert out["ela_meta.lin_simple.adj_r2"] == pytest.approx(1.0, abs=1e-9)
    assert out["ela_meta.lin_simple.intercept"] == pytest.approx(3.0, abs=1e-8)
    assert out["ela_meta.lin_simple.coef.max"] == pytest.approx(2.0, abs=1e-8)


def test_meta_quadratic_bowl():
    rng = np.random.default_rng(8)
    X = rng.uniform(-5, 5, size=(120, 3))
    X -= X.mean(axis=0)
    y = np.sum(X**2, axis=1)
    out = _named(META_MODEL_FEATURES, meta_model_features(X, y))
    assert out["ela_meta.quad_simple.adj_r2"] == pytest.approx(1.0, abs=1e-9)
    assert out["ela_meta.lin_simple.adj_r2"] < 0.5


def test_meta_quad_condition_number():
    rng = np.random.default_rng(9)
    X = rng.uniform(-5, 5, size=(150, 2))
    y = X[:, 0] ** 2 + 10.0 * X[:, 1] ** 2
    out = _named(META_MODEL_FEATURES, meta_model_features(X, y))
    assert out["ela_meta.quad_simple.cond"] == pytest.approx(10.0, abs=1e-6)


def test_meta_constant_y_convention():
    rng = np.random.default_rng(10)
    X = rng.uniform(-5, 5, size=(80, 3))
    out = _named(META_MODEL_FEATURES, meta_model_features(X, np.full(80, 1.5)))
    for name in ("lin_simple", "lin_w_interact", "quad_simple", "quad_w_interact"):
        assert out[f"ela_meta.{name}.adj_r2"] == 0.0


def test_meta_needs_enough_points():
    rng = np.random.default_rng(11)
    X = rng.uniform(-5, 5, size=(10, 4))
    with pytest.raises(ConfigurationError):
        meta_model_features(X, np.zeros(10))


# ---------------------------------------------------------------------------
# level sets

def test_level_separable_blobs():
    # two Gaussian blobs far apart along the first axis; the lower-y blob
    # is exactly the lower half, so lda should separate almost perfectly
    rng = np.random.default_rng(12)
    n = 100
    X = rng.normal(scale=0.5, size=(n, 3))
    X[: n // 2, 0] -= 5.0
    X[n // 2:, 0] += 5.0
    y = X[:, 0]
    out = _named(LEVEL_FEATURES, level_features(X, y))
    assert out["ela_level.mmce_lda_50"] <= 0.02


def test_level_no_signal_error_near_minority_rate():
    rng = np.random.default_rng(13)
    X = rng.uniform(-5, 5, size=(500, 3))
    y = rng.normal(size=500)  # independent of X
    out = _named(LEVEL_FEATURES, level_features(X, y))
    for q, rate in ((10, 0.10), (25, 0.25), (50, 0.50)):
        assert abs(out[f"ela_level.mmce_lda_{q:02d}"] - rate) <= 0.1


def test_level_ratio_guard():
    assert _safe_ratio(0.1, 0.1) == pytest.approx(1.0)
    assert _safe_ratio(0.0, 0.0) == pytest.approx(1.0)
    assert _safe_ratio(0.2, 0.0) > 1.0


def test_level_mmce_in_unit_interval():
    inst = make_instance(3, 1, 3)
    out = _named(LEVEL_FEATURES, level_features(*sample_design(inst, 120, seed=2)))
    for name, value in out.items():
        if "mmce" in name:
            assert 0.0 <= value <= 1.0


def test_level_needs_50_points():
    rng = np.random.default_rng(14)
    with pytest.raises(ConfigurationError):
        level_features(rng.normal(size=(49, 2)), rng.normal(size=49))


@pytest.mark.parametrize("n", [50, 51, 120])
def test_lda_qda_is_the_correctly_rounded_count_ratio(n):
    for a in range(n + 1):
        for b in range(n + 1):
            want = float(Fraction(a, b)) if a and b else _safe_ratio(a / n, b / n)
            assert _lda_qda(a / n, b / n, n) == want, (a, b)


def test_lda_qda_gives_equal_ratios_equal_floats():
    # a ratio of the rounded rates puts these one ulp apart
    assert (8 / 50) / (5 / 50) != (16 / 51) / (10 / 51)
    assert _lda_qda(8 / 50, 5 / 50, 50) == _lda_qda(16 / 51, 10 / 51, 51) == 8 / 5


@pytest.mark.parametrize("problem_id", [1, 8, 15, 21])
def test_level_lda_qda_divides_the_error_counts(problem_id):
    X, y = sample_design(make_instance(problem_id, 1, 5), 100, seed=problem_id)
    out = _named(LEVEL_FEATURES, level_features(X, y))
    for q in LEVEL_QUANTILES:
        labels = _level_labels(y, q)
        rates = [naive_cv_mmce(X, labels, pooled=pooled, n_folds=LEVEL_CV_FOLDS)
                 for pooled in (True, False)]
        errors = [round(rate * len(y)) for rate in rates]
        assert [errors[0] / len(y), errors[1] / len(y)] == rates
        want = (float(Fraction(*errors)) if all(errors) else _safe_ratio(*rates))
        assert out[f"ela_level.lda_qda_{round(100 * q):02d}"] == want


def _level_labels(y, q):
    """The level split of level_features: 1 on the lowest ceil(q n) objective values."""
    labels = np.zeros(len(y), dtype=int)
    labels[np.argsort(y, kind="stable")[:math.ceil(q * len(y))]] = 1
    return labels


def _assert_cv_matches_two_pass_reference(X, labels):
    lda, qda = _cv_mmce(X, labels)
    assert (lda, qda) == (naive_cv_mmce(X, labels, pooled=True, n_folds=LEVEL_CV_FOLDS),
                          naive_cv_mmce(X, labels, pooled=False, n_folds=LEVEL_CV_FOLDS))


@pytest.mark.parametrize("seed, n, dim", [(0, 50, 2), (1, 60, 3), (2, 120, 5), (3, 250, 4)])
@pytest.mark.parametrize("q", LEVEL_QUANTILES)
def test_cv_mmce_matches_two_pass_reference_on_random_designs(seed, n, dim, q):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(n, dim))
    y = np.sum(X**2, axis=1) + rng.normal(scale=5.0, size=n)
    _assert_cv_matches_two_pass_reference(X, _level_labels(y, q))


@pytest.mark.parametrize("q", LEVEL_QUANTILES)
def test_cv_mmce_matches_two_pass_reference_on_tied_objective_values(q):
    rng = np.random.default_rng(31)
    X = rng.uniform(-5, 5, size=(80, 3))
    y = rng.integers(0, 4, size=80).astype(float)
    _assert_cv_matches_two_pass_reference(X, _level_labels(y, q))


@pytest.mark.parametrize("problem_id", [1, 8, 15, 21])
def test_cv_mmce_matches_two_pass_reference_on_sampled_designs(problem_id):
    X, y = sample_design(make_instance(problem_id, 1, 5), 100, seed=problem_id)
    for q in LEVEL_QUANTILES:
        _assert_cv_matches_two_pass_reference(X, _level_labels(y, q))


@pytest.mark.parametrize("size", range(2, LEVEL_CV_FOLDS))
def test_cv_mmce_matches_two_pass_reference_with_a_class_below_the_fold_count(size):
    rng = np.random.default_rng(40 + size)
    X = rng.normal(size=(50, 3))
    labels = np.zeros(50, dtype=int)
    labels[rng.permutation(50)[:size]] = 1
    _assert_cv_matches_two_pass_reference(X, labels)
    _assert_cv_matches_two_pass_reference(X, 1 - labels)


# ---------------------------------------------------------------------------
# pca

def test_pca_isotropic_cube():
    inst = make_instance(1, 1, 5)
    out = _named(PCA_FEATURES, pca_features(*sample_design(inst, 1000, seed=21)))
    assert out["pca.expl_var_PC1.cov_x"] == pytest.approx(1.0 / 5.0, abs=0.05)


def test_pca_rank_one_line():
    t = np.linspace(-1, 1, 50)
    direction = np.array([1.0, 2.0, -1.0])
    X = t[:, None] * direction[None, :]
    out = _named(PCA_FEATURES, pca_features(X, t))
    assert out["pca.expl_var_PC1.cov_x"] == pytest.approx(1.0)
    assert out["pca.expl_var.cov_x"] == pytest.approx(1.0 / 3.0)


def test_pca_fraction_range():
    rng = np.random.default_rng(15)
    out = _named(PCA_FEATURES, pca_features(rng.normal(size=(60, 4)), rng.normal(size=60)))
    for name, value in out.items():
        if name.startswith("pca.expl_var."):
            assert 0.0 < value <= 1.0
        else:
            assert 0.0 <= value <= 1.0


def test_pca_zero_variance_column_under_correlation():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(50, 3))
    X[:, 1] = 2.0  # constant column
    assert all(math.isfinite(v) for v in pca_features(X, rng.normal(size=50)))


# ---------------------------------------------------------------------------
# full vector

def test_schema_has_enough_features_across_groups():
    assert len(FEATURE_SCHEMA) >= 40
    groups = {name.partition(".")[0] for name in FEATURE_SCHEMA}
    assert groups == {"disp", "ic", "nbc", "ela_meta", "ela_level", "pca"}


def test_feature_schema_pinned():
    # the schema names the columns of features.csv and feature_schema.json, in order
    assert len(FEATURE_SCHEMA) == len(set(FEATURE_SCHEMA)) == 43
    assert hashlib.sha256("\n".join(FEATURE_SCHEMA).encode()).hexdigest() == (
        "428903fe9e9dceb2db896b8e1905137c8f0fd60ebdb17d08e87de8a4eebb565e")


@pytest.mark.parametrize("group, names, diagonal", [
    (disp_features, DISP_FEATURES, 0.0),
    (ic_features, IC_FEATURES, np.inf),
    (nbc_features, NBC_FEATURES, np.inf),
    (meta_model_features, META_MODEL_FEATURES, None),
    (level_features, LEVEL_FEATURES, None),
    (pca_features, PCA_FEATURES, None),
], ids=["disp", "ic", "nbc", "meta_model", "level", "pca"])
def test_group_returns_one_value_per_name(group, names, diagonal):
    # values carry no names, so a short or long group would misalign the schema
    X, y = sample_design(make_instance(5, 1, 3), 100, seed=4)
    values = group(X, y) if diagonal is None else group(y, _distances(X, diagonal))
    assert len(values) == len(names)


def test_extract_all_schema_and_determinism():
    inst = make_instance(5, 1, 2)
    a = extract_all(inst, 60, seed=4)
    b = extract_all(inst, 60, seed=4)
    assert a.values.shape == (len(FEATURE_SCHEMA),)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.sanitized_count == 0
    other = extract_all(make_instance(22, 3, 2), 60, seed=4)
    assert other.values.shape == a.values.shape


def test_extract_all_zeroes_and_counts_non_finite_features(monkeypatch, caplog):
    inst = make_instance(5, 1, 2)
    clean = extract_all(inst, 60, seed=4)
    broken = {"pca.expl_var.cov_x": math.nan, "pca.expl_var.cor_x": -math.inf,
              "pca.expl_var_PC1.cor_init": math.inf}
    real = ela_mod.pca_features
    monkeypatch.setattr(ela_mod, "pca_features", lambda X, y: [
        broken.get(name, value) for name, value in zip(PCA_FEATURES, real(X, y))])
    with caplog.at_level(logging.WARNING, logger="footprints.ela"):
        vec = extract_all(inst, 60, seed=4)
    cols = [FEATURE_SCHEMA.index(name) for name in broken]
    assert vec.sanitized_count == 3
    assert vec.values[cols].tolist() == [0.0, 0.0, 0.0]
    kept = np.ones(len(FEATURE_SCHEMA), dtype=bool)
    kept[cols] = False
    assert vec.values[kept].tobytes() == clean.values[kept].tobytes()
    warned = [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()]
    assert len(warned) == 3
    for name in broken:
        assert sum(f"feature {name} " in message for message in warned) == 1


def test_extract_all_shares_one_distance_matrix(monkeypatch):
    # disp, ic and nbc read one matrix built once; ic reads no diagonal entry
    inst = make_instance(5, 1, 2)
    X, y = sample_design(inst, 60, seed=4)
    assert _ic(X, y) == _ic(X, y, np.inf)
    calls = []
    real = ela_mod.cdist
    monkeypatch.setattr(ela_mod, "cdist", lambda XA, XB: calls.append(XA.shape) or real(XA, XB))
    vec = extract_all(inst, 60, seed=4)
    assert calls == [(60, 2)]
    expected = {**_disp(X, y), **_ic(X, y, np.inf), **_nbc(X, y)}
    assert [vec.values[FEATURE_SCHEMA.index(name)] for name in expected] == list(
        expected.values())


@pytest.mark.parametrize("problem_id", [21, 23])
def test_extract_all_peak_memory_is_about_one_distance_matrix(problem_id):
    # nbc masks the matrix a block of rows at a time, so no second n x n
    # array lives beside it
    n = 1000
    inst = make_instance(problem_id, 1, 10)
    extract_all(inst, n, seed=1)
    tracemalloc.start()
    try:
        extract_all(inst, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8


@pytest.mark.parametrize("dim", [2, 5, 10])
def test_cdist_gives_squareform_pdist_bytes(dim):
    # extract_all builds its matrix with cdist(X, X); a SciPy whose cdist
    # differs from squareform(pdist(X)) in any bit would move features.csv
    rng = np.random.default_rng(dim)
    X, _ = sample_design(make_instance(21, 1, dim), 100 * dim, seed=dim)
    designs = [X, np.repeat(rng.normal(size=(20, dim)), 2, axis=0)[rng.permutation(40)],
               rng.integers(-2, 3, size=(50, dim)).astype(float)]
    for D in designs:
        assert cdist(D, D).tobytes() == squareform(pdist(D)).tobytes()


def test_extract_all_minimum_size_guard():
    inst = make_instance(1, 1, 2)
    assert minimum_sample_size(2) == 50
    with pytest.raises(ConfigurationError):
        extract_all(inst, 49, seed=0)


def test_extract_all_values_finite():
    inst = make_instance(16, 2, 3)
    vec = extract_all(inst, 100, seed=5)
    assert np.isfinite(vec.values).all()


def test_features_csv_roundtrip(tmp_path):
    vectors = [extract_all(make_instance(p, 1, 2), 60, seed=1) for p in (1, 2)]
    path = tmp_path / "features.csv"
    write_features_csv(vectors, path)
    keys, X = read_features_csv(path)
    assert keys == [(1, 1, 2), (2, 1, 2)]
    assert X.tobytes() == np.stack([v.values for v in vectors]).tobytes()
