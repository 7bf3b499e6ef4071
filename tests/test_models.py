import math
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from footprints import models
from footprints.config import RunConfig
from footprints.errors import ConfigurationError
from footprints.models import (
    MODEL_KINDS,
    MODELS,
    KernelRidgeModel,
    KnnModel,
    RandomForestModel,
    RegressionTree,
    evaluate_model,
    fit_kernel,
    fit_knn,
    fit_random_forest,
    make_folds,
    _grow_forest,
)
from footprints.seeding import derive_seed

from _oracles import (naive_build_tree, naive_fit_random_forest, naive_forest_predict,
                      naive_knn_predict)


def _grid_keys(n_problems=24, n_instances=5, dim=10):
    return [(p, i, dim) for p in range(1, n_problems + 1) for i in range(1, n_instances + 1)]


# ---------------------------------------------------------------------------
# folds

def _test_sets(fold_of, k):
    """The test keys of each fold 1..k of a make_folds map."""
    return [[key for key, fold in fold_of.items() if fold == f] for f in range(1, k + 1)]


def test_fold_counts_24x5():
    fold_of = make_folds(_grid_keys(), k=5, seed=0)
    assert set(fold_of.values()) == {1, 2, 3, 4, 5}
    for test in _test_sets(fold_of, 5):
        assert len(test) == 24
        assert len({key[0] for key in test}) == 24  # one per problem


def test_folds_partition_test_sets():
    fold_of = make_folds(_grid_keys(), k=5, seed=3)
    seen = [key for test in _test_sets(fold_of, 5) for key in test]
    assert len(seen) == len(fold_of) == 120
    assert set(seen) == set(_grid_keys())


def test_k1_rejected():
    with pytest.raises(ConfigurationError):
        make_folds(_grid_keys(n_instances=1), k=1, seed=0)


def test_unequal_instance_counts_rejected():
    keys = _grid_keys(n_problems=2, n_instances=3)
    keys.append((1, 4, 10))
    with pytest.raises(ConfigurationError):
        make_folds(keys, k=3, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fold_invariants_hold_for_any_seed(seed):
    keys = _grid_keys(n_problems=6, n_instances=4, dim=5)
    fold_of = make_folds(keys, k=4, seed=seed)
    seen = []
    for test in _test_sets(fold_of, 4):
        assert len(test) == len({key[0] for key in test}) == 6
        seen.extend(test)
    assert sorted(seen) == sorted(fold_of) == sorted(keys)


def test_folds_deterministic_given_seed():
    a = make_folds(_grid_keys(), k=5, seed=11)
    b = make_folds(_grid_keys(), k=5, seed=11)
    assert list(a.items()) == list(b.items())


# ---------------------------------------------------------------------------
# random forest

def test_forest_constant_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = np.full(30, 3.5)
    model = fit_random_forest(X, y, n_trees=10, seed=1)
    pred = model.predict(rng.normal(size=(10, 4)))
    assert np.allclose(pred, 3.5)
    assert evaluate_model(model.predict(X), y)[0] == 0.0


def test_forest_leaf_value_is_sequential_prefix_mean():
    # a constant target leaves every tree a root leaf, whatever its bootstrap;
    # sixteen 0.1s summed in order give 1.6000000000000003, where numpy's
    # pairwise sum gives 1.6 and a mean of exactly 0.1
    X = np.random.default_rng(0).normal(size=(16, 3))
    model = fit_random_forest(X, np.full(16, 0.1), n_trees=3, seed=5)
    expected = np.cumsum(np.full(16, 0.1))[-1] / 16
    assert expected == 0.10000000000000002
    for tree in model.trees:
        assert list(tree.feature) == [-1]
        assert tree.value.tobytes() == np.array([expected]).tobytes()


def test_single_stump_matches_hand_computation():
    # 4 points, one feature: best split at 1.5 separates {0,0} from {1,1};
    # a tree on all 4 rows is that stump and predicts each side's mean
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    trees = _grow_forest(X, y, np.arange(4)[None], [np.random.default_rng(0)], 1)
    model = RandomForestModel(trees=trees, n_features=1)
    assert len(model.trees[0].feature) == 3
    pred = model.predict(np.array([[0.5], [2.5]]))
    assert pred[0] == pytest.approx(0.0)
    assert pred[1] == pytest.approx(1.0)
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(1.5)


def test_forest_default_parameters():
    import inspect

    assert models.MIN_LEAF == 2
    # the tree count and the seed come from the run config, so neither has a default
    params = inspect.signature(fit_random_forest).parameters
    assert list(params) == ["X", "y", "n_trees", "seed"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_forest_predictions_within_training_range():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 5))
    y = rng.normal(size=60) * 10
    model = fit_random_forest(X, y, n_trees=25, seed=2)
    pred = model.predict(rng.normal(size=(200, 5)) * 3)
    assert np.all(pred >= y.min() - 1e-12)
    assert np.all(pred <= y.max() + 1e-12)


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    q = rng.normal(size=(15, 6))
    a = fit_random_forest(X, y, n_trees=12, seed=9).predict(q)
    b = fit_random_forest(X, y, n_trees=12, seed=9).predict(q)
    assert np.array_equal(a, b)


def test_forest_learns_signal():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(150, 3))
    y = 4.0 * X[:, 0] + np.sin(3 * X[:, 1])
    model = fit_random_forest(X, y, n_trees=50, seed=3)
    Xt = rng.uniform(-1, 1, size=(50, 3))
    yt = 4.0 * Xt[:, 0] + np.sin(3 * Xt[:, 1])
    assert evaluate_model(model.predict(Xt), yt)[1] > 0.5


def _assert_trees_bitwise_equal(trees, reference):
    assert len(trees) == len(reference)
    for t, (tree, ref) in enumerate(zip(trees, reference)):
        for name in ("feature", "threshold", "left", "right", "value"):
            got, want = getattr(tree, name), ref[name]
            assert got.dtype == want.dtype, (t, name)
            assert got.shape == want.shape, (t, name)
            assert got.tobytes() == want.tobytes(), (t, name)


def _fit_both(X, y, *, n_trees, seed, fixed_rows=False):
    """A forest's trees and the reference's: each tree on a bootstrap sample
    of the rows, as fit_random_forest grows them, or on every row in order
    if `fixed_rows`, through _grow_forest."""
    if not fixed_rows:
        return (fit_random_forest(X, y, n_trees=n_trees, seed=seed).trees,
                naive_fit_random_forest(X, y, n_trees=n_trees, seed=seed))
    n, m = X.shape
    n_sub = math.ceil(m / 3)

    def rngs():
        return [np.random.default_rng(derive_seed(seed, t)) for t in range(n_trees)]

    trees = _grow_forest(X, y, np.tile(np.arange(n), (n_trees, 1)), rngs(), n_sub)
    return trees, [naive_build_tree(X, y, np.arange(n), rng, n_sub) for rng in rngs()]


def _forest_case(name):
    """(X, y, _fit_both kwargs) of one named split-search edge case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "ties_and_boundary_duplicates":
        return rng.integers(0, 4, (40, 6)).astype(float), rng.normal(size=40), {}
    if name == "constant_columns":
        X = rng.normal(size=(30, 7))
        X[:, [0, 3, 4, 5]] = 2.0
        return X, rng.normal(size=30), {}
    if name == "no_valid_split":
        # the only distinct boundary leaves 1 row on the right, under MIN_LEAF
        X = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [1.0]])
        return X, np.arange(6.0), {"fixed_rows": True}
    if name == "split_equal_to_parent_sse_refused":
        # the one allowed split leaves both sides' means at the parent's
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        return X, np.array([0.0, 1.0, 0.0, 1.0]), {"fixed_rows": True}
    if name == "two_rows_one_feature":
        # the fewest rows a fit takes: under 2 * MIN_LEAF, so every root is a leaf
        return np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), {}
    if name == "one_feature_n_sub_equals_m":
        return np.round(rng.normal(size=(20, 1)), 1), rng.normal(size=20), {}
    if name == "bootstrap_duplicates":
        return rng.normal(size=(12, 4)), rng.normal(size=12), {"n_trees": 30}
    if name == "y_constant_inside_nodes":
        X = rng.integers(0, 5, (45, 6)).astype(float)
        return X, 3.0 * (X[:, 1] > 2) + (X[:, 4] > 3), {}
    if name == "identical_columns_tie_across_features":
        X = np.repeat(rng.normal(size=(30, 1)), 6, axis=1)
        return X, rng.normal(size=30), {}
    raise KeyError(name)


FOREST_CASES = [
    "ties_and_boundary_duplicates", "constant_columns", "no_valid_split",
    "split_equal_to_parent_sse_refused", "two_rows_one_feature", "one_feature_n_sub_equals_m",
    "bootstrap_duplicates", "y_constant_inside_nodes", "identical_columns_tie_across_features",
]


@pytest.mark.parametrize("name", FOREST_CASES)
def test_forest_matches_per_feature_reference(name):
    X, y, kwargs = _forest_case(name)
    _assert_trees_bitwise_equal(*_fit_both(X, y, **{"n_trees": 8, "seed": 3, **kwargs}))


def test_forest_reference_cases_reach_their_paths():
    """The named cases above exercise what their names say."""
    def fit(name):
        X, y, kwargs = _forest_case(name)
        return _fit_both(X, y, **{"n_trees": 8, "seed": 3, **kwargs})[0]

    for name in ("no_valid_split", "split_equal_to_parent_sse_refused", "two_rows_one_feature"):
        assert [len(tree.feature) for tree in fit(name)] == [1] * 8, name
    for tree in fit("identical_columns_tie_across_features"):
        splits = tree.feature[tree.feature >= 0]
        assert len(splits) and np.all(splits <= 4)
    X, _, kwargs = _forest_case("bootstrap_duplicates")
    rng = np.random.default_rng(derive_seed(3, 0))
    assert len(np.unique(rng.integers(0, len(X), len(X)))) < len(X)


@pytest.mark.parametrize("n_sub", [1, 3, 5])
def test_tree_with_every_n_sub_matches_reference(n_sub):
    rng = np.random.default_rng(n_sub)
    X = np.round(rng.normal(size=(40, 5)), 1)
    X[:, 2] = 1.0
    y = np.round(rng.normal(size=40), 1)
    trees, reference = [], []
    for seed in range(4):
        idx = np.random.default_rng(seed).integers(0, 40, 40)
        trees += _grow_forest(X, y, idx[None], [np.random.default_rng(seed)], n_sub)
        reference.append(naive_build_tree(X, y, idx, np.random.default_rng(seed), n_sub))
    _assert_trees_bitwise_equal(trees, reference)


@pytest.mark.parametrize("seed", range(6))
def test_equal_sse_across_columns_goes_to_the_lower_feature(seed):
    # columns 0 and 1 cut the rows into the same two halves; column 1 ties
    # within each half, so only a stable sort sums its halves in row order
    # and gives exactly column 0's SSE
    rng = np.random.default_rng(seed)
    n = 40
    upper = rng.permutation(n) >= n // 2
    rank = np.empty(n)
    rank[~upper], rank[upper] = np.arange(n // 2), np.arange(n // 2, n)
    X = np.column_stack([rank, upper]).astype(float)
    y = 5.0 * upper + rng.normal(size=n)
    tree, = _grow_forest(X, y, np.arange(n)[None], [np.random.default_rng(seed)], 2)
    assert (tree.feature[0], tree.threshold[0]) == (0, n // 2 - 0.5)
    reference = naive_build_tree(X, y, np.arange(n), np.random.default_rng(seed), 2)
    _assert_trees_bitwise_equal([tree], [reference])


@pytest.mark.parametrize("case", range(10))
def test_forest_matches_per_feature_reference_random(case):
    rng = np.random.default_rng(1000 + case)
    n, m = int(rng.integers(4, 131)), int(rng.integers(1, 45))
    X = rng.normal(size=(n, m))
    if case % 2:
        X = np.round(X, 1)
    y = rng.integers(0, 4, n).astype(float) if case % 3 == 0 else rng.normal(size=n)
    _assert_trees_bitwise_equal(*_fit_both(X, y, n_trees=2, seed=case))


def _lockstep_case(name):
    """(X, y, _fit_both kwargs) of a forest of many trees that end at
    different steps of the lockstep growth."""
    rng = np.random.default_rng(sum(map(ord, name)))
    kind, _, arg = name.partition("-")
    if kind == "no_bootstrap":
        # every tree on all rows; coarse columns: whether a node can split
        # depends on its draw
        X = rng.integers(0, 3, (45, 7)).astype(float)
        return X, rng.normal(size=45), {"n_trees": 30, "fixed_rows": True}
    if kind == "tied_x_and_y":
        X = rng.integers(0, 4, (60, 8)).astype(float)
        return X, rng.integers(0, 3, 60).astype(float), {"n_trees": 50}
    if kind == "constant_y_subtrees":
        X = rng.integers(0, 6, (70, 6)).astype(float)
        y = np.where(X[:, 0] > 2, 1.5, rng.normal(size=70))
        return X, y, {"n_trees": 40}
    if kind == "random":
        n, m = int(rng.integers(4, 131)), int(rng.integers(1, 45))
        X = rng.normal(size=(n, m))
        if int(arg) % 2:
            X = np.round(X, 1)
        y = rng.integers(0, 4, n).astype(float) if int(arg) % 3 == 0 else rng.normal(size=n)
        return X, y, {"n_trees": 30}
    if kind == "largest_n":
        X = np.round(rng.normal(size=(130, 12)), 1)
        return X, rng.normal(size=130), {"n_trees": 30}
    if kind == "desk":
        m = int(arg)  # desk's forests: 24 rows and 43 or 30 features, 100 trees
        return rng.normal(size=(24, m)), rng.normal(size=24), {"n_trees": 100}
    if kind == "nan_and_signed_zero_x":
        # NaN sorts last and takes no split; -0.0 ties with 0.0
        X = np.round(rng.normal(size=(40, 6)), 1)
        X[rng.random(X.shape) < 0.1] = np.nan
        X[:, 5] = rng.choice([0.0, -0.0, 1.0], 40)
        return X, rng.normal(size=40), {"n_trees": 30}
    if kind == "adjacent_floats_and_inf":
        # rows 20.. hold the next float up from rows ..20, where a midpoint
        # often rounds up; column 0 also holds +inf
        X = rng.normal(size=(20, 5)) * 100
        X = np.vstack([X, np.nextafter(X, np.inf)])
        X[rng.random(40) < 0.2, 0] = np.inf
        return X, rng.normal(size=40), {"n_trees": 30}
    raise KeyError(name)


LOCKSTEP_CASES = (
    ["no_bootstrap-1", "no_bootstrap-2", "no_bootstrap-3", "tied_x_and_y",
     "constant_y_subtrees-0", "constant_y_subtrees-1",
     "largest_n", "desk-43", "desk-30", "nan_and_signed_zero_x", "adjacent_floats_and_inf"]
    + [f"random-{case}" for case in range(6)]
)


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_lockstep_forest_matches_per_feature_reference(name):
    X, y, kwargs = _lockstep_case(name)
    trees, reference = _fit_both(X, y, seed=5, **kwargs)
    _assert_trees_bitwise_equal(trees, reference)
    # the trees end at different steps: their node counts differ
    sizes = [len(tree.feature) for tree in trees]
    assert len(set(sizes)) > 1
    # and each case exercises what its name says
    if name == "constant_y_subtrees-0":
        assert any(np.any(tree.value[tree.feature < 0] == 1.5) for tree in trees)
    if name == "nan_and_signed_zero_x":
        assert np.isnan(X).any() and np.signbit(X[:, 5][X[:, 5] == 0]).any()
    if name == "adjacent_floats_and_inf":
        mids = 0.5 * (X[:20] + X[20:])
        assert np.any(mids == X[20:]) and np.isinf(X).any()
        assert not any(np.isnan(tree.value).any() for tree in trees)


@pytest.mark.parametrize("group_cost, group_cells", [(0, 1 << 30), (1 << 30, 1 << 30),
                                                     (1 << 30, 1)])
def test_lockstep_grouping_never_changes_the_trees(monkeypatch, group_cost, group_cells):
    # equal sizes only, one padded group a step, one node a group
    monkeypatch.setattr(models, "GROUP_COST", group_cost)
    monkeypatch.setattr(models, "GROUP_CELLS", group_cells)
    for name in ("random-1", "tied_x_and_y", "desk-30"):
        X, y, kwargs = _lockstep_case(name)
        _assert_trees_bitwise_equal(*_fit_both(X, y, seed=5, **kwargs))


def test_split_between_adjacent_floats_keeps_both_children():
    # 0.5 * (a + b) rounds up to b: a threshold there would send every row
    # left and repeat the node, with an empty right child, without end
    a = -130.41436035341954
    b = np.nextafter(a, np.inf)
    assert 0.5 * (a + b) == b
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    trees, reference = _fit_both(X, y, n_trees=3, seed=0, fixed_rows=True)
    for tree in trees:
        assert tree.feature.tolist() == [0, -1, -1] and tree.threshold[0] == a
        assert tree.value.tolist() == [0.5, 0.0, 1.0]
    assert RandomForestModel(trees=trees, n_features=1).predict(X).tolist() == y.tolist()
    _assert_trees_bitwise_equal(trees, reference)


def _predict_forest(n, m, n_trees, seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, m)), 1)
    return fit_random_forest(X, rng.normal(size=n), n_trees=n_trees, seed=seed), rng


@pytest.mark.parametrize("n, m, n_trees", [(24, 43, 100), (24, 30, 100), (96, 12, 20),
                                           (7, 3, 5), (130, 5, 1)])
def test_forest_predict_matches_tree_at_a_time_reference(n, m, n_trees):
    model, rng = _predict_forest(n, m, n_trees, seed=n + m)
    Q = np.vstack([np.round(rng.normal(size=(40, m)), 1), rng.normal(size=(40, m)) * 3])
    got = model.predict(Q)
    assert got.dtype == np.float64 and got.tobytes() == naive_forest_predict(model, Q).tobytes()


def test_forest_predict_one_row_matches_reference():
    model, rng = _predict_forest(30, 6, 25, seed=2)
    for q in np.round(rng.normal(size=(10, 6)), 1):
        got = model.predict(q[None, :])
        assert got.shape == (1,)
        assert got.tobytes() == naive_forest_predict(model, q[None, :]).tobytes()


def test_forest_predict_value_equal_to_threshold_goes_left():
    tree = RegressionTree(feature=np.array([0, -1, 1, -1, -1]),
                          threshold=np.array([1.5, 0.0, -2.0, 0.0, 0.0]),
                          left=np.array([1, -1, 3, -1, -1]), right=np.array([2, -1, 4, -1, -1]),
                          value=np.array([0.0, 10.0, 0.0, 20.0, 30.0]))
    model = RandomForestModel(trees=[tree], n_features=2)
    Q = np.array([[1.5, 0.0], [1.6, -2.0], [1.6, -1.9], [-1.0, 9.0]])
    assert model.predict(Q).tolist() == [10.0, 20.0, 30.0, 10.0]
    # and so does every row of a fitted forest queried at its split thresholds
    fitted, _ = _predict_forest(40, 4, 30, seed=3)
    Q = np.array([[tree.threshold[0]] * 4 for tree in fitted.trees if tree.feature[0] >= 0])
    assert fitted.predict(Q).tobytes() == naive_forest_predict(fitted, Q).tobytes()


def test_forest_predict_root_leaf_tree():
    leaf = RegressionTree(feature=np.array([-1]), threshold=np.array([0.0]),
                          left=np.array([-1]), right=np.array([-1]), value=np.array([2.5]))
    stump = RegressionTree(feature=np.array([0, -1, -1]), threshold=np.array([0.0, 0.0, 0.0]),
                           left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                           value=np.array([0.0, -1.0, 1.0]))
    Q = np.array([[-1.0], [1.0], [0.0]])
    assert RandomForestModel(trees=[leaf], n_features=1).predict(Q).tolist() == [2.5] * 3
    model = RandomForestModel(trees=[leaf, stump, leaf], n_features=1)
    assert model.predict(Q).tobytes() == naive_forest_predict(model, Q).tobytes()
    X, y, kwargs = _forest_case("no_valid_split")
    fitted = RandomForestModel(trees=_fit_both(X, y, n_trees=3, seed=0, **kwargs)[0],
                               n_features=1)
    assert all(len(tree.feature) == 1 for tree in fitted.trees)
    assert fitted.predict(X).tobytes() == naive_forest_predict(fitted, X).tobytes()


@pytest.mark.parametrize("kwargs", [{"n_trees": 0}, {"n_trees": -1}])
def test_forest_rejects_no_trees_and_empty_leaves(kwargs):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        fit_random_forest(rng.normal(size=(10, 3)), rng.normal(size=10), seed=0, **kwargs)


# ---------------------------------------------------------------------------
# knn

def test_knn_k1_returns_training_target():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_knn(X, y, k_neighbors=1)
    assert np.allclose(model.predict(X), y)


def test_knn_full_set_is_global_mean():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    model = fit_knn(X, y, k_neighbors=15)
    pred = model.predict(rng.normal(size=(4, 2)))
    assert np.allclose(pred, y.mean())


def test_knn_distance_tie_prefers_lower_index():
    # two training points equidistant from the query; k=1 must take index 0
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
    y = np.array([10.0, 20.0, 30.0])
    model = fit_knn(X, y, k_neighbors=1)
    # standardization is symmetric in the first two points; query at origin
    assert model.predict(np.array([[0.0, 0.0]]))[0] == pytest.approx(10.0)


@pytest.mark.parametrize("n, m, k", [(20, 3, 1), (40, 7, 5), (33, 1, 4), (12, 4, 12)])
def test_knn_predict_matches_row_by_row_reference(n, m, k):
    rng = np.random.default_rng(n * 100 + m)
    X = rng.normal(size=(n, m))
    model = fit_knn(X, rng.normal(size=n), k_neighbors=k)
    queries = np.vstack([rng.normal(size=(25, m)), X[:3]])
    assert np.array_equal(model.predict(queries), naive_knn_predict(model, queries))


def test_knn_predict_exact_ties_match_reference():
    # a lattice symmetric about 0, so standardizing keeps equal distances equal
    grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float) - 1.5
    y = np.arange(16, dtype=float) ** 1.5
    queries = np.array([[0.0, 0.0], [0.0, 0.5], [1.0, 1.0], [-1.0, 0.0], [0.5, 0.0]])
    for k in (1, 2, 3, 5, 16):
        model = fit_knn(grid, y, k_neighbors=k)
        assert np.array_equal(model.predict(queries), naive_knn_predict(model, queries))
    # (0, 0.5) lies midway between rows 6 and 10: k=1 takes the lower index
    assert fit_knn(grid, y, k_neighbors=1).predict(np.array([[0.0, 0.5]]))[0] == y[6]


@pytest.mark.parametrize("k", [1, 4, 5, 6, 9])
def test_knn_predict_tie_across_the_kth_neighbour_matches_reference(k):
    # 30 training rows at one point, equidistant from every query: ties
    # straddle the k-th and (k+1)-th neighbour, and an unstable sort would
    # take some other tied rows, or the same rows in another order
    rng = np.random.default_rng(k)
    X = np.vstack([rng.normal(size=(10, 3)), np.tile([2.0, -1.0, 0.5], (30, 1))])
    rng.shuffle(X)
    model = fit_knn(X, rng.normal(size=40) * 1e3, k_neighbors=k)
    queries = np.vstack([X[:2], model.mean + model.std * np.array([2.0, -1.0, 0.5]),
                         rng.normal(size=(5, 3))])
    got = model.predict(queries)
    assert got.tobytes() == naive_knn_predict(model, queries).tobytes()


@pytest.mark.parametrize("coarse", [False, True])
def test_knn_predict_k_equal_to_training_size_matches_reference(coarse):
    # every row is a neighbour: the sum runs in stable distance order
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 3))
    if coarse:
        X = np.round(X)  # many distance ties
    model = fit_knn(X, rng.normal(size=40) * 1e3, k_neighbors=40)
    queries = np.vstack([rng.normal(size=(6, 3)), X[:3]])
    got = model.predict(queries)
    assert got.tobytes() == naive_knn_predict(model, queries).tobytes()


@pytest.mark.parametrize("k", [1, 3, 12, 40])
def test_knn_predict_non_finite_queries_match_reference(k):
    # NaN distances and all-infinite rows tie every training row
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 3))
    model = fit_knn(X, rng.normal(size=40) * 1e3, k_neighbors=k)
    queries = rng.normal(size=(8, 3))
    queries[0, 0], queries[1, 2], queries[2, 1] = np.nan, np.inf, -np.inf
    queries[3] = [np.inf, -np.inf, np.nan]
    queries[4] = np.nan
    queries[5, :2] = -np.inf
    got = model.predict(queries)
    assert got.tobytes() == naive_knn_predict(model, queries).tobytes()
    assert np.isfinite(got).all()


def test_knn_k_exceeding_rows_rejected():
    X = np.zeros((5, 2))
    with pytest.raises(ConfigurationError):
        fit_knn(X, np.zeros(5), k_neighbors=6)


def test_knn_standardization_uses_train_only():
    rng = np.random.default_rng(10)
    X_train = rng.normal(loc=0.0, size=(30, 3))
    y = rng.normal(size=30)
    model = fit_knn(X_train, y, k_neighbors=3)
    assert np.allclose(model.mean, X_train.mean(axis=0))
    assert np.allclose(model.std, X_train.std(axis=0))
    # predicting far-shifted test data must not change the stored statistics
    model.predict(X_train + 100.0)
    assert np.allclose(model.mean, X_train.mean(axis=0))


def _near_tie_queries(model, rng, tries=50, rank=None):
    """Up to four queries whose k-th and (k+1)-th cdist distances (the
    rank-th and (rank+1)-th, if given) differ by 1, 2, 3 and 4 ulps: a line
    of adjacent floats is scanned through a point equidistant from those two
    nearest training rows of a random point."""
    T, k = model.X_train, rank or model.k_neighbors
    found = {}
    for _ in range(tries):
        z = rng.normal(size=T.shape[1])
        d = cdist(z[None], T)[0]
        a, b = np.argsort(d, kind="stable")[k - 1: k + 1]
        w = T[b] - T[a]
        if not w.any():
            continue
        x = model.mean + model.std * (z + (d[b] ** 2 - d[a] ** 2) / (2 * w @ w) * w)
        line = x + np.arange(-200, 201)[:, None] * np.sign(w) * np.spacing(np.abs(x))
        D = np.sort(cdist((line - model.mean) / model.std, T), axis=1)
        ulps = (D[:, k] - D[:, k - 1]) / np.spacing(D[:, k - 1])
        for gap in range(1, 5):
            hit = np.flatnonzero(ulps == gap)
            if hit.size:
                found.setdefault(gap, line[hit[0]])
        if len(found) == 4:
            break
    assert found, "no near tie found"
    return np.array([found[gap] for gap in sorted(found)])


@pytest.mark.parametrize("n, m, k", [(2, 1, 1), (2, 4, 2), (3, 1, 2), (5, 3, 4), (7, 50, 3),
                                     (24, 10, 5), (24, 30, 5), (60, 2, 59), (120, 7, 60),
                                     (120, 50, 1), (120, 20, 120)])
def test_knn_predict_is_bitwise_the_reference_across_sizes(n, m, k):
    # duplicated training rows, queries equal to training rows, and queries
    # whose k-th and (k+1)-th distances differ by 1-4 ulps
    rng = np.random.default_rng(1000 * n + m)
    X = rng.normal(size=(n, m)) * rng.uniform(0.1, 10.0, size=m) + rng.normal(size=m)
    dup = n // 4
    X[n - dup:] = X[:dup]
    model = fit_knn(X, rng.normal(size=n) * 1e3, k_neighbors=k)
    queries = [X.mean(axis=0) + X.std(axis=0) * rng.normal(size=(40, m)), X[: n - dup + 1]]
    if k < n:
        queries.append(_near_tie_queries(model, rng))
    queries = np.vstack(queries)
    assert model.predict(queries).tobytes() == naive_knn_predict(model, queries).tobytes()


def _record_cdist(monkeypatch):
    """The query rows of each call that `models` makes from now on to the
    KNN fallback's column-by-column distances, cdist's rounding."""
    calls = []
    real = models._column_sq_distances

    def recording(Z, T):
        calls.append(np.array(Z))
        return real(Z, T)

    monkeypatch.setattr(models, "_column_sq_distances", recording)
    return calls


def test_column_sq_distances_are_cdist_bitwise():
    # the KNN fallback sorts these distances; cdist is the reference whose
    # stable sort naive_knn_predict takes. -0.0, subnormals, values up to
    # +-1e300 (whose squares overflow), +-inf and NaN give cdist's bits and
    # no warning
    rng = np.random.default_rng(22)
    tiny = np.finfo(float).smallest_subnormal
    awkward = np.array([-0.0, 0.0, 5 * tiny, -tiny, 1e-320, -2.5e-310, 0.25, 3.0, -1e10,
                        1e150, -1e150, 1e200, -1e200, 1e300, -1e300, np.inf, -np.inf, np.nan])
    cases = [(rng.uniform(-1, 1, size=(40, m)), rng.uniform(-1, 1, size=(25, m)))
             for m in (1, 2, 5, 43)]
    cases += [(rng.choice(awkward, size=(40, m)), rng.choice(awkward, size=(25, m)))
              for m in (1, 6, 30)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Z, T in cases:
            got = np.sqrt(models._column_sq_distances(Z, T))
            assert got.tobytes() == cdist(Z, T).tobytes()


def test_knn_predict_sends_only_uncertified_rows_to_cdist(monkeypatch):
    calls = _record_cdist(monkeypatch)
    rng = np.random.default_rng(16)
    X = rng.normal(size=(24, 5))
    model = fit_knn(X, rng.normal(size=24) * 1e3, k_neighbors=5)
    separated = rng.normal(size=(30, 5))
    model.predict(separated)
    assert calls == []

    # near ties, NaN, +-inf, and a row whose squared norm overflows
    planted = np.vstack([_near_tie_queries(model, rng), np.full((1, 5), np.nan),
                         np.full((1, 5), np.inf), np.full((1, 5), -np.inf),
                         np.full((1, 5), 1e300)])
    planted[-3, 1:] = 0.0
    planted[-2, :4] = 0.0
    queries = np.vstack([separated, planted])
    shuffle = rng.permutation(len(queries))
    queries = queries[shuffle]
    got = model.predict(queries)
    assert len(calls) == 1
    reached = np.sort(np.argsort(shuffle)[len(separated):])
    assert np.array_equal(calls[0], ((queries - model.mean) / model.std)[reached], equal_nan=True)
    assert got.tobytes() == naive_knn_predict(model, queries).tobytes()

    # k == n_train: every gap of a separated row is certified
    calls.clear()
    full = fit_knn(X, rng.normal(size=24), k_neighbors=24)
    assert full.predict(separated).tobytes() == naive_knn_predict(full, separated).tobytes()
    assert calls == []


@pytest.mark.parametrize("rank", [1, 6, 11])
def test_knn_predict_k_equal_to_training_size_sends_interior_near_ties_to_cdist(
        monkeypatch, rank):
    # with every training row a neighbour there is no (k+1)-th one; a near tie
    # between ranks `rank` and `rank + 1` must still fail the certificate
    calls = _record_cdist(monkeypatch)
    rng = np.random.default_rng(19 + rank)
    X = rng.normal(size=(12, 4))
    model = fit_knn(X, rng.normal(size=12) * 1e3, k_neighbors=12)
    planted = _near_tie_queries(model, rng, rank=rank)
    queries = np.vstack([rng.normal(size=(30, 4)), planted])
    shuffle = rng.permutation(len(queries))
    queries = queries[shuffle]
    got = model.predict(queries)
    assert len(calls) == 1
    reached = np.sort(np.argsort(shuffle)[30:])
    assert calls[0].tobytes() == ((queries - model.mean) / model.std)[reached].tobytes()
    assert got.tobytes() == naive_knn_predict(model, queries).tobytes()


def _fraction_keys(z, t):
    """The exact key |t|^2 - 2 z.t and the exact squared distance |z - t|^2."""
    z, t = [Fraction(v) for v in z], [Fraction(v) for v in t]
    key = sum(b * b for b in t) - 2 * sum(a * b for a, b in zip(z, t))
    return key, sum((a - b) ** 2 for a, b in zip(z, t))


@pytest.mark.parametrize("case", ["random", "large norms, tiny distances", "near underflow",
                                  "near overflow"])
def test_rank_keys_bound_covers_the_keys_and_cdist(case):
    rng = np.random.default_rng(17)
    for _ in range(15):
        m, n = int(rng.integers(1, 13)), int(rng.integers(2, 9))
        centre = rng.normal(size=m)
        spread = 1.0
        if case == "large norms, tiny distances":
            centre, spread = centre * 1e8, 1e-6
        elif case == "near underflow":
            centre, spread = centre * 1e-155, 1e-160
        elif case == "near overflow":
            centre, spread = centre * 1e150, 1e149
        T = centre + spread * rng.normal(size=(n, m))
        Z = centre + spread * rng.normal(size=(3, m))
        s, bound = models._rank_keys(Z, T)
        q = cdist(Z, T, "sqeuclidean")
        assert np.isfinite(bound).all()
        for i in range(len(Z)):
            for j in range(n):
                key, dist = _fraction_keys(Z[i], T[j])
                assert abs(Fraction(s[i, j]) - key) <= Fraction(bound[i])
                assert abs(Fraction(q[i, j]) - dist) <= Fraction(bound[i])
        model = KnnModel(mean=np.zeros(m), std=np.ones(m), X_train=T, y_train=rng.normal(size=n),
                         k_neighbors=int(rng.integers(1, n)))
        assert model.predict(Z).tobytes() == naive_knn_predict(model, Z).tobytes()


def test_knn_predict_does_not_depend_on_the_key_summation_order(monkeypatch):
    rng = np.random.default_rng(18)
    X = rng.normal(size=(40, 30))
    model = fit_knn(X, rng.normal(size=40) * 1e3, k_neighbors=5)
    queries = np.vstack([rng.normal(size=(200, 30)), X[:5]])
    expected = model.predict(queries)
    rank_keys = models._rank_keys
    Z = (queries - model.mean) / model.std
    reversed_keys = rank_keys(Z[:, ::-1], model.X_train[:, ::-1])[0]
    assert (reversed_keys != rank_keys(Z, model.X_train)[0]).any()  # other bits, same ranking
    monkeypatch.setattr(models, "_rank_keys", lambda Z, T: rank_keys(Z[:, ::-1], T[:, ::-1]))
    assert model.predict(queries).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# kernel ridge (svm surrogate)

def test_kernel_large_penalty_shrinks_to_mean():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25) + 5.0
    model = fit_kernel(X, y, penalty=1e9)
    pred = model.predict(rng.normal(size=(8, 3)))
    assert np.allclose(pred, y.mean(), atol=1e-6)


def test_kernel_interpolates_small_penalty():
    # independent check: solve the 5x5 kernel system directly
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    model = fit_kernel(X, y, penalty=1e-10)
    assert np.mean(np.abs(model.predict(X) - y)) <= 1e-6

    Z = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    sq = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
    h = np.median(sq[np.triu_indices(5, k=1)] ** 0.5)
    K = np.exp(-sq / (2 * h * h))
    coef = np.linalg.solve(K + 1e-10 * np.eye(5), y - y.mean())
    assert np.allclose(model.coef, coef)


def test_kernel_default_bandwidth_is_median_distance():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    model = fit_kernel(X, y, penalty=1e-3)
    Z = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    from scipy.spatial.distance import pdist

    assert model.bandwidth == pytest.approx(float(np.median(pdist(Z))))


def test_kernel_predict_row_bits_alone_in_two_and_1024_row_calls():
    # the squared distances are einsum sums; a BLAS product's bits for a row
    # can depend on how many rows share its call
    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 43))
    model = fit_kernel(X, rng.normal(size=300), penalty=1e-3)
    Q = rng.normal(size=(1024, 43))
    batch = model.predict(Q)
    for i in (0, 1, 511, 1023):
        assert model.predict(Q[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
        pair = model.predict(Q[[i, (i + 1) % 1024]])
        assert pair[:1].tobytes() == batch[i:i + 1].tobytes()


def test_kernel_predict_row_does_not_depend_on_the_batch():
    # a row's prediction is bitwise the same in a batch and on its own
    rng = np.random.default_rng(21)
    X = rng.normal(size=(96, 30))
    model = fit_kernel(X, rng.normal(size=96), penalty=1e-3)
    Q = rng.normal(size=(300, 30))
    batch = model.predict(Q)
    single = np.array([model.predict(Q[i:i + 1])[0] for i in range(len(Q))])
    assert np.array_equal(batch, single)
    assert np.array_equal(model.predict(Q[7:40]), batch[7:40])


def test_kernel_penalty_must_be_positive():
    with pytest.raises(ConfigurationError):
        fit_kernel(np.zeros((4, 2)), np.zeros(4), penalty=0.0)


def test_models_table():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    assert MODEL_KINDS == tuple(MODELS)
    config_fields = {f.name for f in fields(RunConfig)}
    classes = {"random_forest": RandomForestModel, "knn": KnnModel, "kernel": KernelRidgeModel}
    for kind, (label, field, fit) in MODELS.items():
        assert label and field in config_fields, kind
        # each fit returns its model class at the config default
        assert isinstance(fit(X, y, getattr(RunConfig(), field), 0), classes[kind]), kind


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_predictions():
    assert evaluate_model(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == (0.0, 1.0)


def test_metrics_mean_predictor_r2_zero():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    _, r2 = evaluate_model(np.full(4, y.mean()), y)
    assert r2 == pytest.approx(0.0)


def test_metrics_hand_arithmetic():
    mae, _ = evaluate_model(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
    assert mae == pytest.approx(1.0)


def test_metrics_constant_truth_conventions():
    y = np.array([2.0, 2.0])
    assert evaluate_model(np.array([2.0, 2.0]), y)[1] == 1.0
    assert evaluate_model(np.array([2.0, 2.5]), y)[1] == 0.0
