import csv

import numpy as np
import pytest

import footprints.suite as suite_mod
from footprints.de import default_population_size
from footprints.ela import sample_design
from footprints.errors import ConfigurationError, ContractViolation
from footprints.seeding import SUITE_SALT, derive_seed
from footprints.suite import (
    N_PROBLEMS,
    SHIFT_RANGE,
    ProblemInstance,
    make_instance,
    make_suite,
    precision,
    write_suite_csv,
)

from _oracles import (
    NAIVE_SETUP_PROBLEMS,
    naive_gallagher,
    naive_gallagher_per_peak,
    naive_gallagher_setup,
    naive_katsuura,
    naive_setup,
)


def test_full_suite_has_120_instances():
    instances = make_suite(range(1, 25), (1, 2, 3, 4, 5), 10)
    assert len(instances) == 120


def test_singleton_config():
    instances = make_suite((1,), (1,), 10)
    assert len(instances) == 1
    assert instances[0].key == (1, 1, 10)


def test_suite_order_problem_major():
    # ids are deduplicated and sorted, whatever order they are given in
    instances = make_suite((2, 1, 2), (3, 1, 2, 1), 5)
    assert [(i.problem_id, i.instance_id) for i in instances] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)
    ]


def test_unknown_problem_id_rejected():
    with pytest.raises(ConfigurationError):
        make_suite((0,), (1,), 5)
    with pytest.raises(ConfigurationError):
        make_suite((25,), (1,), 5)
    with pytest.raises(ConfigurationError):
        make_instance(99, 1, 5)


def test_bad_dimension_and_instance_rejected():
    with pytest.raises(ConfigurationError):
        make_suite((1,), (1,), 1)
    with pytest.raises(ConfigurationError):
        make_suite((1,), (0,), 5)


def test_sphere_optimum_is_offset_exactly():
    inst = make_instance(1, 1, 10)
    assert inst.evaluate_batch(inst.shift[None, :])[0] == inst.f_offset
    assert precision(inst, inst.evaluate_batch(inst.shift[None, :])[0]) == 0.0


def test_sphere_unit_step():
    inst = make_instance(1, 1, 10)
    e1 = np.zeros(10)
    e1[0] = 1.0
    assert inst.evaluate_batch((inst.shift + e1)[None, :])[0] == pytest.approx(inst.f_offset + 1.0, abs=1e-12)


def test_instances_of_same_problem_differ():
    a = make_instance(1, 1, 10)
    b = make_instance(1, 2, 10)
    assert not np.allclose(a.shift, b.shift)
    # b's optimum is not a's optimum
    assert a.evaluate_batch(b.shift[None, :])[0] > a.f_offset


def test_precision_examples():
    inst = make_instance(1, 1, 5)
    assert precision(inst, inst.f_offset) == 0.0
    assert precision(inst, inst.f_offset + 3.5) == 3.5
    assert precision(inst, inst.f_offset - 1e-15) == 0.0  # rounding clamp


@pytest.mark.parametrize("problem_id", range(1, N_PROBLEMS + 1))
def test_optimum_exact_and_precision_nonnegative(problem_id):
    inst = make_instance(problem_id, 1, 5)
    assert inst.evaluate_batch(inst.shift[None, :])[0] == inst.f_offset
    rng = np.random.default_rng(1234 + problem_id)
    X = rng.uniform(-5.0, 5.0, (1000, 5))
    values = inst.evaluate_batch(X)
    assert np.all(np.isfinite(values))
    assert np.all(values - inst.f_offset >= -1e-9)
    assert all(precision(inst, v) >= 0.0 for v in values)


def test_bit_identical_reconstruction():
    rng = np.random.default_rng(5)
    X = rng.uniform(-5.0, 5.0, (50, 10))
    for problem_id in (3, 6, 17, 20, 21, 24):
        a = make_instance(problem_id, 2, 10)
        b = make_instance(problem_id, 2, 10)
        assert np.array_equal(a.shift, b.shift)
        assert a.f_offset == b.f_offset
        assert np.array_equal(a.evaluate_batch(X), b.evaluate_batch(X))


@pytest.mark.parametrize("dimension", [2, 5, 10])
def test_evaluate_batch_rows_are_independent(dimension):
    # runs advanced in lockstep stack their populations into one call; the
    # values must be those of one call per population, bit for bit. A 1-row
    # batch is not covered: its rotation takes another BLAS path
    rng = np.random.default_rng(dimension)
    for problem_id in range(1, N_PROBLEMS + 1):
        inst = make_instance(problem_id, 1, dimension)
        for rows in (4, 50, 100):
            populations = [rng.uniform(-5.0, 5.0, (rows, dimension)) for _ in range(3)]
            separate = np.concatenate([inst.evaluate_batch(X) for X in populations])
            stacked = inst.evaluate_batch(np.concatenate(populations))
            assert stacked.tobytes() == separate.tobytes(), (problem_id, rows)


@pytest.mark.parametrize("dimension", [2, 5, 10])
def test_setups_match_naive_setup(dimension):
    # each setup names its draws; they come in the named order, after the
    # shift and the offset, bit for bit as the one-function-per-combination setups
    for problem_id in NAIVE_SETUP_PROBLEMS:
        for instance_id in (1, 4):
            rng = np.random.default_rng(derive_seed(SUITE_SALT, problem_id, instance_id,
                                                    dimension))
            rng.uniform(-SHIFT_RANGE, SHIFT_RANGE, dimension)
            rng.uniform(-100.0, 100.0)
            expected = naive_setup(problem_id, dimension, rng)
            aux = make_instance(problem_id, instance_id, dimension).aux
            assert list(aux) == list(expected), problem_id
            for name, value in expected.items():
                assert aux[name].dtype == value.dtype and aux[name].shape == value.shape
                assert aux[name].tobytes() == value.tobytes(), (problem_id, name)


def _points(inst, rows, rng):
    """`rows` points: uniform in the domain, the optimum first where there
    is room, and far points (every Gallagher peak's exp underflows) last."""
    X = rng.uniform(-5.0, 5.0, (rows, inst.dimension))
    if rows >= 3:
        X[0] = inst.shift
        X[-1] = 40.0
        X[-2] = -40.0
    return X


def _naive_gallagher_setup(problem_id, instance_id, dimension):
    rng = np.random.default_rng(derive_seed(SUITE_SALT, problem_id, instance_id, dimension))
    rng.uniform(-SHIFT_RANGE, SHIFT_RANGE, dimension)
    rng.uniform(-100.0, 100.0)
    return naive_gallagher_setup(problem_id, dimension, rng)


@pytest.mark.parametrize("problem_id", [21, 22])
@pytest.mark.parametrize("dimension", [2, 5, 10])
def test_gallagher_setup_keeps_its_draw_order(problem_id, dimension):
    # R, the diagonals and the weights are the per-peak setup's draws, bit for
    # bit, and the expanded constants are built from its peaks
    for instance_id in (1, 4):
        setup = _naive_gallagher_setup(problem_id, instance_id, dimension)
        aux = make_instance(problem_id, instance_id, dimension).aux
        C = setup["peaks"] @ setup["R"].T
        expected = {"R": setup["R"], "D": setup["diags"], "M": -2.0 * setup["diags"] * C,
                    "k": np.sum(setup["diags"] * C * C, axis=1), "weights": setup["weights"]}
        assert list(aux) == list(expected)
        for name, value in expected.items():
            assert aux[name].shape == value.shape
            assert aux[name].tobytes() == value.tobytes(), (problem_id, instance_id, name)


def _assert_gallagher_matches_unchunked_pass(inst, X):
    expected = naive_gallagher(X - inst.shift, inst.aux) - inst.core_at_opt + inst.f_offset
    assert inst.evaluate_batch(X).tobytes() == expected.tobytes(), X.shape


@pytest.mark.parametrize("problem_id", [21, 22])
@pytest.mark.parametrize("dimension", [2, 5, 10])
def test_gallagher_matches_unchunked_pass(problem_id, dimension):
    # every value is the one-pass oracle's, bit for bit, whatever the batch size
    rng = np.random.default_rng(problem_id * dimension)
    inst = make_instance(problem_id, 2, dimension)
    for rows in (1, 2, 3, default_population_size(dimension), 163, 487):
        _assert_gallagher_matches_unchunked_pass(inst, _points(inst, rows, rng))
    X, _ = sample_design(inst, 100 * dimension, seed=dimension)  # the ELA sample
    _assert_gallagher_matches_unchunked_pass(inst, X)


@pytest.mark.parametrize("problem_id", [21, 22])
@pytest.mark.parametrize("dimension", [2, 5, 10, 20])
def test_gallagher_matches_per_peak_loop(problem_id, dimension):
    # the expanded form in rotated coordinates is the per-peak quadratic form
    # (y - y_p)' B_p (y - y_p) with B_p = R' diag_p R, up to rounding: over
    # uniform points and points near every peak, for five instances
    for instance_id in range(1, 6):
        inst = make_instance(problem_id, instance_id, dimension)
        setup = _naive_gallagher_setup(problem_id, instance_id, dimension)
        rng = np.random.default_rng(instance_id * dimension)
        near = setup["peaks"][:, None, :] + rng.normal(0.0, 1e-3, (len(setup["peaks"]), 4,
                                                                  dimension))
        Y = np.concatenate([rng.uniform(-5.0, 5.0, (300, dimension)) - inst.shift,
                            setup["peaks"], near.reshape(-1, dimension)])
        np.testing.assert_allclose(suite_mod._gallagher(Y, inst.aux),
                                   naive_gallagher_per_peak(Y, setup), rtol=1e-11, atol=0.0,
                                   err_msg=f"instance {instance_id}")


@pytest.mark.parametrize("problem_id", [21, 22])
@pytest.mark.parametrize("dimension", [2, 5, 10, 20])
def test_gallagher_optimum_is_offset_exactly(problem_id, dimension):
    # peak 0 sits on the shift with C = 0, so its expanded form is exactly 0 there
    for instance_id in (1, 2, 3):
        inst = make_instance(problem_id, instance_id, dimension)
        assert inst.core_at_opt == 0.0
        assert inst.evaluate_batch(inst.shift[None, :])[0] == inst.f_offset
        X = np.stack([inst.shift, inst.shift + 1.0, inst.shift])
        assert inst.evaluate_batch(X)[[0, 2]].tolist() == [inst.f_offset] * 2


def _assert_katsuura_matches_unchunked_pass(inst, X):
    expected = naive_katsuura(X - inst.shift, inst.aux) - inst.core_at_opt + inst.f_offset
    assert inst.evaluate_batch(X).tobytes() == expected.tobytes(), X.shape


@pytest.mark.parametrize("dimension", [2, 5, 10])
def test_katsuura_matches_unchunked_pass(dimension):
    # every value is the one-pass oracle's, bit for bit, whatever the batch size
    rng = np.random.default_rng(23 * dimension)
    inst = make_instance(23, 2, dimension)
    for rows in (1, 2, 3, default_population_size(dimension), 163, 487):
        _assert_katsuura_matches_unchunked_pass(inst, _points(inst, rows, rng))
    X, _ = sample_design(inst, 100 * dimension, seed=dimension)  # the ELA sample
    _assert_katsuura_matches_unchunked_pass(inst, X)


def test_shifts_pairwise_distinct_across_instances():
    for problem_id in (1, 8, 21):
        shifts = [make_instance(problem_id, i, 10).shift for i in range(1, 6)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(shifts[i], shifts[j])


def test_optimum_inside_domain():
    for problem_id in range(1, N_PROBLEMS + 1):
        inst = make_instance(problem_id, 1, 10)
        assert np.all(inst.shift >= -4.0) and np.all(inst.shift <= 4.0)


def test_dimension_mismatch_is_contract_violation():
    inst = make_instance(1, 1, 5)
    with pytest.raises(ContractViolation):
        inst.evaluate_batch(np.zeros((1, 4)))
    with pytest.raises(ContractViolation):
        inst.evaluate_batch(np.zeros((3, 6)))


def test_evaluation_allowed_outside_bounds():
    inst = make_instance(2, 1, 5)
    value = inst.evaluate_batch(np.full((1, 5), 7.5))[0]
    assert np.isfinite(value)
    assert value >= inst.f_offset


def test_suite_csv_export(tmp_path):
    instances = make_suite((1, 2), (1, 2), 3)
    path = tmp_path / "suite.csv"
    write_suite_csv(instances, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"problem_id", "instance_id", "dimension", "f_offset",
                            "shift_0", "shift_1", "shift_2"}
    first = instances[0]
    assert float(rows[0]["f_offset"]) == first.f_offset
    assert float(rows[0]["shift_1"]) == first.shift[1]


def test_instance_key():
    inst = make_instance(20, 3, 5)
    assert inst.key == (20, 3, 5)
    assert isinstance(inst, ProblemInstance)
