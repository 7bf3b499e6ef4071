import numpy as np
import pytest

from footprints.errors import ContractViolation
from footprints import shapley
from footprints.models import (RandomForestModel, RegressionTree, fit_kernel, fit_knn,
                               fit_random_forest)
from footprints.shapley import (
    PREDICT_CHUNK_ROWS,
    attribute,
    global_importance,
    sampling_shap,
    select_portfolio,
    tree_shap_batch,
)

from _oracles import (brute_force_shapley, naive_chain_states, naive_kernel_chain,
                      naive_knn_predict, naive_sampling_shap, naive_tree_shap)


def _stump(feature, threshold, left_value, right_value, n_features):
    tree = RegressionTree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, left_value, right_value]),
    )
    return RandomForestModel(trees=[tree], n_features=n_features)


def test_stump_attributes_everything_to_split_feature():
    model = _stump(feature=1, threshold=0.0, left_value=-3.0, right_value=5.0,
                   n_features=4)
    rng = np.random.default_rng(0)
    background = rng.normal(size=(20, 4))
    x = np.array([0.5, 2.0, -1.0, 0.1])
    rep = tree_shap_batch(model, x[None, :], background)[0]
    assert rep.phi[1] == pytest.approx(rep.prediction - rep.base_value)
    for j in (0, 2, 3):
        assert rep.phi[j] == 0.0


def test_null_feature_gets_exact_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 5))
    y = X[:, 0] * 2.0  # only feature 0 matters for the fitted trees? not forced
    model = _stump(feature=0, threshold=0.3, left_value=1.0, right_value=2.0,
                   n_features=5)
    rep = tree_shap_batch(model, rng.normal(size=5)[None, :], rng.normal(size=(10, 5)))[0]
    assert all(rep.phi[j] == 0.0 for j in range(1, 5))


def test_symmetric_duplicated_features_equal_attribution():
    # two identical columns used symmetrically by two trees: attributions
    # must match each other and the brute-force oracle
    t0 = _stump(0, 0.0, -1.0, 1.0, 2).trees[0]
    t1 = _stump(1, 0.0, -1.0, 1.0, 2).trees[0]
    model = RandomForestModel(trees=[t0, t1], n_features=2)
    rng = np.random.default_rng(2)
    col = rng.normal(size=(15, 1))
    background = np.hstack([col, col])
    x = np.array([0.7, 0.7])
    rep = tree_shap_batch(model, x[None, :], background)[0]
    assert rep.phi[0] == pytest.approx(rep.phi[1], abs=1e-9)
    oracle = brute_force_shapley(model, x, background)
    assert np.max(np.abs(rep.phi - oracle)) <= 1e-9


def test_matches_brute_force_on_random_ensembles():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n_features = int(rng.integers(2, 9))
        X = rng.normal(size=(30, n_features))
        y = rng.normal(size=30)
        model = fit_random_forest(
            X, y, n_trees=int(rng.integers(1, 6)), seed=trial,
        )
        x = rng.normal(size=n_features)
        background = rng.normal(size=(int(rng.integers(1, 8)), n_features))
        rep = tree_shap_batch(model, x[None, :], background)[0]
        oracle = brute_force_shapley(model, x, background)
        assert np.max(np.abs(rep.phi - oracle)) <= 1e-9
        assert rep.efficiency_gap <= 1e-9


def test_efficiency_on_fitted_forest():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 7))
    y = np.sum(X[:, :3], axis=1) + rng.normal(scale=0.1, size=60)
    model = fit_random_forest(X, y, n_trees=30, seed=5)
    reps = tree_shap_batch(model, X[:10], X)
    for rep in reps:
        assert rep.efficiency_gap <= 1e-6


def test_background_contract_checks():
    model = _stump(0, 0.0, 0.0, 1.0, 3)
    with pytest.raises(ContractViolation):
        tree_shap_batch(model, np.zeros(3)[None, :], np.zeros((0, 3)))
    with pytest.raises(ContractViolation):
        tree_shap_batch(model, np.zeros(3)[None, :], np.zeros((4, 2)))


def _assert_tree_shap_matches_reference(model, X, background):
    reps = tree_shap_batch(model, X, background)
    base, phi, preds = naive_tree_shap(model, X, background)
    got_phi = np.stack([rep.phi for rep in reps])
    got_base = np.array([rep.base_value for rep in reps])
    got_preds = np.array([rep.prediction for rep in reps])
    assert got_phi.dtype == phi.dtype and got_phi.shape == phi.shape
    assert got_phi.tobytes() == phi.tobytes()
    assert got_base.tobytes() == np.full(len(reps), base).tobytes()
    assert got_preds.dtype == preds.dtype and got_preds.tobytes() == preds.tobytes()
    return got_phi


def _tree(feature, threshold, left, right, value):
    return RegressionTree(feature=np.array(feature), threshold=np.array(threshold, dtype=float),
                          left=np.array(left), right=np.array(right),
                          value=np.array(value, dtype=float))


# feature 0 is split at the root and again on each side, feature 1 in between
_REPEATED = dict(feature=[0, 0, -1, -1, 1, -1, 0, -1, -1],
                 threshold=[0.5, -0.3, 0, 0, 0.0, 0, 1.2, 0, 0],
                 left=[1, 2, -1, -1, 5, -1, 7, -1, -1],
                 right=[4, 3, -1, -1, 6, -1, 8, -1, -1],
                 value=[0, 0, -2.0, 0.7, 0, 1.3, 0, -0.4, 3.1])


def _renumbered(arrays, new_of_old):
    """The same tree with node i stored at new_of_old[i] (the root stays 0)."""
    new_of_old = np.asarray(new_of_old)
    out = {}
    for name, values in arrays.items():
        values = np.asarray(values)
        if name in ("left", "right"):
            values = np.where(values >= 0, new_of_old[values], -1)
        moved = np.empty_like(values)
        moved[new_of_old] = values
        out[name] = moved
    return _tree(**out)


def _hand_built(name):
    stump = _stump(1, 0.0, -3.0, 5.0, 3).trees[0]
    repeated = _tree(**_REPEATED)
    # children stored before their parents and right subtrees before left ones
    shuffled = _renumbered(_REPEATED, [0, 5, 8, 1, 2, 7, 3, 6, 4])
    root_only = [_tree([-1], [0.0], [-1], [-1], [v]) for v in (1.5, -0.25, 4.0)]
    trees = {"stump": [stump], "repeated_feature": [repeated, stump],
             "renumbered_nodes": [shuffled, stump], "root_only": root_only,
             "root_only_and_stump": [root_only[0], stump, root_only[1]]}[name]
    return RandomForestModel(trees=trees, n_features=3)


@pytest.mark.parametrize("name", ["stump", "repeated_feature", "renumbered_nodes",
                                  "root_only", "root_only_and_stump"])
def test_tree_shap_hand_built_trees_match_reference_bitwise(name):
    rng = np.random.default_rng(len(name))
    X = np.round(rng.normal(scale=0.8, size=(9, 3)), 1)  # coarse: values on thresholds
    background = np.round(rng.normal(scale=0.8, size=(14, 3)), 1)
    phi = _assert_tree_shap_matches_reference(_hand_built(name), X, background)
    if name == "root_only":
        assert not phi.any()


# (rows, features, x rows, background rows, trees): the desk selection
# shape (x rows are the training rows); the unshrunk explain shape (several
# chunks); x and background counts that differ; one x row and one background
# row; m = 1; deep trees that split features again and again; the desk
# selection shape with each background row explained 4 times
FITTED_CASES = [
    (24, 43, 24, 24, 100),
    (96, 30, 24, 96, 20),
    (30, 5, 7, 13, 10),
    (30, 5, 1, 1, 10),
    (40, 1, 9, 17, 10),
    (60, 3, 12, 20, 8),
    (24, 43, 96, 24, 100),
]


@pytest.mark.parametrize("n, m, n_x, n_background, n_trees", FITTED_CASES)
def test_tree_shap_fitted_forest_matches_reference_bitwise(n, m, n_x, n_background, n_trees):
    rng = np.random.default_rng(n * 100 + m)
    X = rng.normal(size=(n, m))
    y = X[:, 0] + 0.5 * X[:, m - 1] ** 2 + rng.normal(scale=0.3, size=n)
    model = fit_random_forest(X, y, n_trees=n_trees, seed=m)
    if n_x == n_background:
        explicands = X[:n_x]
    elif n_x % n_background == 0:  # the background rows repeated, shuffled
        explicands = X[rng.permutation(np.arange(n_x) % n_background)]
    else:
        explicands = rng.normal(size=(n_x, m))
    _assert_tree_shap_matches_reference(model, explicands, X[:n_background])


@pytest.mark.parametrize("cells", [1, 7 * 5 * 13 + 3])
def test_tree_shap_chunk_edges_match_reference_bitwise(monkeypatch, cells):
    # 1 cell: one path per chunk; 7 * x rows * background rows + 3 cells:
    # at most 7 slots per chunk, which splits the forest between and
    # inside trees at no fixed path length
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 6))
    model = fit_random_forest(X, X[:, 0] - X[:, 3] + rng.normal(scale=0.2, size=40),
                              n_trees=12, seed=4)
    monkeypatch.setattr(shapley, "TREE_CHUNK_CELLS", cells)
    _assert_tree_shap_matches_reference(model, X[:5], X[5:18])


@pytest.mark.parametrize("cells", [shapley.TREE_CHUNK_CELLS, 1])
def test_tree_shap_repeated_explicand_matches_its_one_row_call(monkeypatch, cells):
    # explicands with one pass/fail pattern share their rows over the
    # background; every copy must still get the phi of explaining it alone
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 6))
    model = fit_random_forest(X, X[:, 0] - X[:, 3] + rng.normal(scale=0.2, size=40),
                              n_trees=12, seed=4)
    monkeypatch.setattr(shapley, "TREE_CHUNK_CELLS", cells)
    row = X[3]
    batch = np.vstack([X[:5], row, X[10:14], row, row, rng.normal(size=(3, 6))])
    background = X[5:30]
    reps = tree_shap_batch(model, batch, background)
    (alone,) = tree_shap_batch(model, row[None, :], background)
    for i in (3, 5, 10, 11):
        assert reps[i].phi.tobytes() == alone.phi.tobytes()
        assert reps[i].prediction == alone.prediction
        assert reps[i].base_value == alone.base_value


def _chain(depth):
    """One tree that splits feature i at 0 on level i: a leaf on the left,
    the next level on the right, so its deepest paths have `depth` features."""
    split = np.arange(depth)
    feature = np.full(2 * depth + 1, -1)
    feature[2 * split] = split
    left = np.full(2 * depth + 1, -1)
    right = np.full(2 * depth + 1, -1)
    left[2 * split], right[2 * split] = 2 * split + 1, 2 * split + 2
    value = np.sin(np.arange(2 * depth + 1.0))
    return _tree(feature, np.zeros(2 * depth + 1), left, right, value)


def test_tree_shap_paths_longer_than_64_features_match_reference_bitwise():
    # explicands that differ only past a path's 64th feature have different
    # pass/fail patterns on the deepest paths
    m = 70
    model = RandomForestModel(trees=[_chain(m), _chain(40)], n_features=m)
    rng = np.random.default_rng(16)
    X = np.abs(rng.normal(size=(9, m))) + 0.1
    X[1], X[2], X[3] = X[0], X[0], X[0]
    X[2, 66] = X[3, 68] = -1.0
    X[4, 5] = -1.0
    background = np.abs(rng.normal(size=(12, m))) + 0.1
    background[::3, 67] = -1.0
    background[1::4, 10] = -1.0
    phi = _assert_tree_shap_matches_reference(model, X, background)
    assert phi[2, 66] != 0.0 and phi[3, 68] != 0.0
    assert phi[0].tobytes() == phi[1].tobytes()


def test_tree_shap_non_finite_explicand_values_match_reference_bitwise():
    # padded path slots pass for every value, -inf and NaN included
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 3))
    model = fit_random_forest(X, X[:, 0] + X[:, 2], n_trees=6, seed=2)
    explicands = X[:6].copy()
    explicands[0, 0], explicands[1, 2], explicands[2, 1] = -np.inf, np.nan, np.inf
    _assert_tree_shap_matches_reference(model, explicands, X[6:])


# ---------------------------------------------------------------------------
# sampling estimator

class _AdditiveModel:
    def __init__(self, coefs):
        self.coefs = np.asarray(coefs, dtype=float)

    def standardize(self, X):
        return X

    def predict_standardized(self, Z):
        return Z @ self.coefs

    def predict_chain(self, z_x, Z, orders):
        return naive_chain_states(z_x, Z, orders) @ self.coefs


def test_sampling_additive_closed_form():
    # analytic attribution of an additive model: a_i * (x_i - mean(bg_i))
    model = _AdditiveModel([2.0, -1.0])
    background = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    x = np.array([5.0, 1.0])
    rep = sampling_shap(model, x, background, n_permutations=8, seed=0)
    expected = model.coefs * (x - background.mean(axis=0))
    assert np.allclose(rep.phi, expected)
    assert rep.efficiency_gap <= 1e-9


def test_sampling_constant_model_zero_phi():
    class Constant:
        def standardize(self, X):
            return X

        def predict_standardized(self, Z):
            return np.full(Z.shape[0], 7.0)

        def predict_chain(self, z_x, Z, orders):
            return np.full((Z.shape[0], orders.shape[1] - 1), 7.0)

    rep = sampling_shap(Constant(), np.zeros(4), np.zeros((3, 4)),
                        n_permutations=16, seed=1)
    assert np.allclose(rep.phi, 0.0)
    assert np.allclose(rep.stderr, 0.0)


def test_sampling_same_seed_identical():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    model = fit_knn(X, y, k_neighbors=3)
    a = sampling_shap(model, X[0], X, n_permutations=32, seed=9)
    b = sampling_shap(model, X[0], X, n_permutations=32, seed=9)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.stderr, b.stderr)


def test_sampling_efficiency_exact_for_model_agnostic_path():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 5))
    y = rng.normal(size=25)
    model = fit_knn(X, y, k_neighbors=4)
    rep = sampling_shap(model, X[3], X, n_permutations=20, seed=2)
    assert rep.efficiency_gap <= 1e-9


def test_sampling_rejects_empty_background():
    with pytest.raises(ContractViolation, match="background set must be non-empty"):
        sampling_shap(_AdditiveModel([1.0, 2.0]), np.zeros(2), np.zeros((0, 2)),
                      n_permutations=8, seed=0)


@pytest.mark.parametrize("m", [1, 2, 30, 43])
@pytest.mark.parametrize("n_pairs", [1, 32, 128])
def test_permuted_rows_are_the_per_row_permutation_stream(m, n_pairs):
    # sampling_shap draws all its permutations with one `permuted` call; the
    # one-permutation-at-a-time reference draws them with `permutation`
    one, many = np.random.default_rng(m * 1000 + n_pairs), np.random.default_rng(m * 1000 + n_pairs)
    expected = np.stack([one.permutation(m) for _ in range(n_pairs)])
    got = many.permuted(np.tile(np.arange(m), (n_pairs, 1)), axis=1)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert one.random() == many.random()


class _RowByRowKnn:
    """A KNN model predicted by the row-by-row reference."""

    def __init__(self, model):
        self.model = model

    def predict(self, X):
        return naive_knn_predict(self.model, X)


# (m, n_background, n_permutations): odd counts round up to an even total;
# m = 1; a one-row background; more pairs than background rows; and
# (m + 1) * 2 * pairs = 2580 states, not a multiple of the chunk
REFERENCE_CASES = [(5, 20, 31), (1, 10, 8), (4, 1, 12), (3, 4, 40), (9, 30, 257)]


@pytest.mark.parametrize("m, n_background, n_permutations", REFERENCE_CASES)
def test_sampling_knn_matches_reference_bitwise(m, n_background, n_permutations):
    rng = np.random.default_rng(m * 1000 + n_permutations)
    X = rng.normal(size=(30, m))
    model = fit_knn(X, rng.normal(size=30), k_neighbors=3)
    x, background = rng.normal(size=m), X[:n_background]
    rep = sampling_shap(model, x, background, n_permutations=n_permutations, seed=11)
    base, phi, prediction, stderr = naive_sampling_shap(
        _RowByRowKnn(model), x, background, n_permutations, seed=11)
    assert rep.base_value == base and rep.prediction == prediction
    assert np.array_equal(rep.phi, phi) and np.array_equal(rep.stderr, stderr)


def test_sampling_knn_full_training_set_matches_reference_bitwise():
    rng = np.random.default_rng(12)
    X = np.round(rng.normal(size=(8, 3)), 1)  # coarse values: many distance ties
    model = fit_knn(X, rng.normal(size=8), k_neighbors=8)
    rep = sampling_shap(model, X[0] + 0.5, X, n_permutations=16, seed=3)
    base, phi, prediction, stderr = naive_sampling_shap(
        _RowByRowKnn(model), X[0] + 0.5, X, 16, seed=3)
    assert rep.base_value == base and rep.prediction == prediction
    assert np.array_equal(rep.phi, phi) and np.array_equal(rep.stderr, stderr)


@pytest.mark.parametrize("m, n_background, n_permutations", REFERENCE_CASES)
def test_sampling_kernel_matches_reference(m, n_background, n_permutations):
    # kernel ridge predicts each chain state on its own, so chunking changes
    # no bit: every value is the one-permutation-at-a-time chain's. State 0
    # and x are predicted directly, so base and prediction keep the bits of
    # predicting the built states, and phi moves only in the last bits
    rng = np.random.default_rng(m * 1000 + n_permutations)
    X = rng.normal(size=(30, m))
    model = fit_kernel(X, rng.normal(size=30), penalty=1e-3)
    x, background = rng.normal(size=m), X[:n_background]
    rep = sampling_shap(model, x, background, n_permutations=n_permutations, seed=11)
    base, phi, prediction, stderr = naive_sampling_shap(
        model, x, background, n_permutations, seed=11,
        chain=lambda b, order: naive_kernel_chain(model, x, b, order))
    assert rep.base_value == base and rep.prediction == prediction
    assert rep.phi.tobytes() == phi.tobytes() and rep.stderr.tobytes() == stderr.tobytes()
    base, phi, prediction, stderr = naive_sampling_shap(
        model, x, background, n_permutations, seed=11)
    assert rep.base_value == base and rep.prediction == prediction
    assert np.abs(rep.phi - phi).max() <= 1e-12
    assert np.abs(rep.stderr - stderr).max() <= 1e-12


def _recording(model, calls):
    """Record the rows of each `predict_standardized` call and the orders
    of each `predict_chain` call that sampling makes on `model`."""
    predict_standardized, predict_chain = model.predict_standardized, model.predict_chain

    def standardized(Z):
        calls.append(("standardized", len(Z)))
        return predict_standardized(Z)

    def chain(z_x, Z, orders):
        assert orders.shape == (len(Z), len(z_x))  # whole permutations
        calls.append(("chain", len(Z)))
        return predict_chain(z_x, Z, orders)

    model.predict_standardized, model.predict_chain = standardized, chain


def _assert_bounded_chunks(calls, m, n_background):
    # the pairs' distinct background rows and x are predicted once each, in
    # one call, then the chains in calls of whole permutations
    per_call = max(1, PREDICT_CHUNK_ROWS // (m + 1))
    assert calls[0] == ("standardized", n_background + 1)
    chains = [rows for kind, rows in calls[1:] if kind == "chain"]
    assert len(chains) == len(calls) - 1
    assert sum(chains) == 256
    assert max(chains) == min(per_call, 256)
    assert len(chains) == -(-256 // per_call)


@pytest.mark.parametrize("m", [1, 9, 43, 1100])
def test_sampling_predicts_in_bounded_chunks(m):
    calls = []
    model = _AdditiveModel(np.ones(m))
    _recording(model, calls)
    sampling_shap(model, np.ones(m), np.zeros((2, m)), n_permutations=256, seed=0)
    _assert_bounded_chunks(calls, m, 2)


def _awkward_inputs(kind):
    """A model fit on rows with two zero-variance columns (std replaced by
    1.0), and an explicand and background holding -0.0, subnormals and
    values far outside the training range."""
    rng = np.random.default_rng(33)
    X = rng.normal(size=(30, 6))
    X[:, 0], X[:, 1] = 0.0, 3.0  # mean 0.0 keeps -0.0 and subnormals as they are
    y = rng.normal(size=30)
    model = fit_knn(X, y, k_neighbors=3) if kind == "knn" else fit_kernel(X, y, penalty=1e-3)
    tiny = np.finfo(float).smallest_subnormal
    x = np.array([-0.0, 5 * tiny, 1e150, -2.5e-310, -1e200, 0.25])
    background = np.vstack([
        X[:4],
        [5 * tiny, -0.0, -1e150, 1e-320, 0.0, -0.0],
        [-tiny, 3.0, 0.5, -0.0, 1e300, -1e10],
    ])
    background[1, 0], background[2, 5] = -0.0, tiny
    return model, x, background


@pytest.mark.parametrize("kind", ["knn", "kernel"])
def test_standardized_states_are_the_states_standardized_bitwise(kind):
    # sampling_shap mixes standardized x and background rows; each state must
    # hold the bytes of standardizing the raw mixed state
    model, x, background = _awkward_inputs(kind)
    m = len(x)
    rng = np.random.default_rng(4)
    rank = np.argsort(rng.permuted(np.tile(np.arange(m), (16, 1)), axis=1), axis=1)
    b_rows = background[np.arange(16) % len(background)]
    steps = np.arange(m + 1)[None, :, None]
    raw = np.where(rank[:, None, :] < steps, x, b_rows[:, None, :]).reshape(-1, m)
    mixed = np.where(rank[:, None, :] < steps, model.standardize(x),
                     model.standardize(b_rows)[:, None, :]).reshape(-1, m)
    assert model.standardize(raw).tobytes() == mixed.tobytes()
    assert (np.signbit(mixed) & (mixed == 0)).any()  # -0.0 survived
    assert np.array_equal(model.predict(raw), model.predict_standardized(mixed))


@pytest.mark.parametrize("kind", ["knn", "kernel"])
@pytest.mark.parametrize("n_permutations", [2, 31, 256])
def test_sampling_awkward_inputs_match_reference_bitwise(kind, n_permutations):
    # the reference predicts raw states through predict, standardizing each
    model, x, background = _awkward_inputs(kind)
    reference = _RowByRowKnn(model) if kind == "knn" else model
    rep = sampling_shap(model, x, background, n_permutations=n_permutations, seed=7)
    base, phi, prediction, stderr = naive_sampling_shap(
        reference, x, background, n_permutations, seed=7)
    assert np.array([rep.base_value, rep.prediction]).tobytes() == np.array(
        [base, prediction]).tobytes()
    assert rep.phi.tobytes() == phi.tobytes() and rep.stderr.tobytes() == stderr.tobytes()


@pytest.mark.parametrize("m", [1, 9, 43, 1100])
def test_sampling_predicts_standardized_states_in_bounded_chunks(m):
    rng = np.random.default_rng(m)
    model = fit_knn(rng.normal(size=(4, m)), rng.normal(size=4), k_neighbors=1)
    calls, raw_calls = [], []
    _recording(model, calls)
    model.predict = lambda X: raw_calls.append(len(X))
    sampling_shap(model, np.ones(m), np.zeros((2, m)), n_permutations=256, seed=0)
    assert raw_calls == []
    _assert_bounded_chunks(calls, m, 2)


def test_attribute_picks_the_estimator_by_model():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 3))
    y = X[:, 0] + rng.normal(scale=0.1, size=20)
    forest = fit_random_forest(X, y, n_trees=3, seed=1)
    exact = tree_shap_batch(forest, X[:4], X)
    got = attribute(forest, X[:4], X, seeds=range(4), n_permutations=8)
    assert len(got) == len(exact) == 4
    for rep, want in zip(got, exact):
        assert np.array_equal(rep.phi, want.phi)
    knn = fit_knn(X, y, k_neighbors=3)
    reps = attribute(knn, X[:4], X, seeds=[5, 6, 7, 8], n_permutations=8)
    assert len(reps) == 4
    for i, rep in enumerate(reps):
        want = sampling_shap(knn, X[i], X, n_permutations=8, seed=5 + i)
        assert np.array_equal(rep.phi, want.phi)
    with pytest.raises(ValueError):
        attribute(knn, X[:4], X, seeds=[5, 6, 7], n_permutations=8)


# ---------------------------------------------------------------------------
# importance + portfolio

def test_global_importance_single_rep():
    order = global_importance(np.array([[0.5, -2.0, 1.0]]), ["a", "b", "c"])
    assert [name for name, _ in order] == ["b", "c", "a"]


def test_global_importance_tie_breaks_alphabetically():
    phi = np.array([[1.0, -1.0], [-1.0, 1.0]])
    order = global_importance(phi, ["zeta", "alpha"])
    assert [name for name, _ in order] == ["alpha", "zeta"]
    assert all(imp == pytest.approx(1.0) for _, imp in order)


def test_global_importance_zero_feature_last():
    order = global_importance(np.array([[0.0, 3.0, 1.0]]), ["z", "m", "a"])
    assert order[-1] == ("z", 0.0)


def test_select_portfolio_full_schema_reorders():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 6))
    y = 3.0 * X[:, 2] + rng.normal(scale=0.05, size=50)
    names = [f"f{j}" for j in range(6)]
    ranked = select_portfolio(fit_random_forest(X, y, n_trees=20, seed=0), X, names,
                              seed=0, n_permutations=64)
    assert all(isinstance(name, str) and isinstance(imp, float) for name, imp in ranked)
    assert sorted(name for name, _ in ranked) == sorted(names)
    assert ranked[0][0] == "f2"  # the informative feature leads


def test_select_portfolio_shuffled_labels_structural():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    y = rng.permutation(np.arange(30)).astype(float)
    names = ["a", "b", "c", "d"]
    ranked = select_portfolio(fit_random_forest(X, y, n_trees=10, seed=2), X, names,
                              seed=2, n_permutations=64)
    assert sorted(name for name, _ in ranked) == names
    assert len(ranked) == len(names)


def test_select_portfolio_deterministic_and_train_only():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    names = [f"f{j}" for j in range(5)]
    a = select_portfolio(fit_random_forest(X, y, n_trees=10, seed=4), X, names,
                         seed=4, n_permutations=64)
    b = select_portfolio(fit_random_forest(X, y, n_trees=10, seed=4), X, names,
                         seed=4, n_permutations=64)
    # recomputation from the training split alone reproduces the selection
    assert a == b


def test_select_portfolio_sampling_path():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 4))
    y = 2.0 * X[:, 1] + rng.normal(scale=0.1, size=25)
    ranked = select_portfolio(fit_knn(X, y, k_neighbors=3), X, ["a", "b", "c", "d"],
                              seed=3, n_permutations=32)
    assert sorted(name for name, _ in ranked) == ["a", "b", "c", "d"]
    assert ranked[0][0] == "b"  # the informative feature leads
