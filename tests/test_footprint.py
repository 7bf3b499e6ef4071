import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from footprints.errors import ContractViolation
from footprints.footprint import (
    ALGORITHM_POOR,
    EPS_GUARD,
    LABELS,
    MODEL_POOR,
    compute_target_t,
    footprint_fold,
    read_assignments_csv,
    relative_error,
    write_assignments_csv,
)

from _oracles import naive_footprint_fold, naive_sensitivity

T, P = 1.0, 0.15


def _label(true, pred, t=T, p=P):
    """The label name of each (true, pred) pair under t and p."""
    true, pred = np.atleast_1d(np.asarray(true, dtype=float)), np.asarray(pred, dtype=float)
    return [LABELS[i] for i in footprint_fold(true, relative_error(true, pred), t, p)]


def _algorithm_good(label: str) -> bool:
    return label.startswith("good_")


def _model_good(label: str) -> bool:
    return label.endswith("_good")


def test_label_encoding_owned_by_the_constants():
    for algorithm_poor in (False, True):
        for model_poor in (False, True):
            label = LABELS[ALGORITHM_POOR * algorithm_poor + MODEL_POOR * model_poor]
            assert label == ("poor" if algorithm_poor else "good") + "_" + (
                "poor" if model_poor else "good")


def test_classify_spec_examples():
    assert _label([0.5, 2.0, 0.5, 2.0], [0.56, 2.1, 0.9, 4.0]) == [
        "good_good",  # rel err 0.12
        "poor_good",  # rel err 0.05
        "good_poor",  # rel err 0.8
        "poor_poor",  # rel err 1.0
    ]


def test_boundaries_count_as_good():
    # true exactly at t: algorithm Good
    assert _algorithm_good(_label(1.0, 1.0)[0])
    # relative error exactly p: model Good
    assert _model_good(_label(2.0, 2.0 * (1 + 0.15))[0])
    # a hair beyond either boundary flips
    assert not _algorithm_good(_label(np.nextafter(1.0, 2.0), 1.0)[0])


def test_relative_error_guard_near_zero_truth():
    rel = relative_error(np.array([0.0, -2.0]), np.array([0.5, -1.0]))
    assert rel[0] == pytest.approx(0.5 / 1e-6)
    assert rel[1] == pytest.approx(0.5)


def test_compute_target_t_examples():
    assert compute_target_t([-2.0, 0.0, 4.0]) == 0.0
    assert compute_target_t(np.array([1.0, 3.0])) == 2.0
    with pytest.raises(ContractViolation):
        compute_target_t([])
    with pytest.raises(ContractViolation):
        compute_target_t(np.array([]))


def test_target_t_differs_across_folds():
    assert compute_target_t([-1.0, 0.0, 1.0]) != compute_target_t([2.0, 3.0, 4.0])


def test_footprint_fold_partition():
    true = np.array([float(p % 3) for p in range(1, 25)])
    labels = footprint_fold(true, relative_error(true, true * 1.05), T, P)
    assert labels.shape == (24,)
    assert set(labels.tolist()) <= set(range(len(LABELS)))


def test_footprint_fold_exact_predictions_model_good():
    true = np.arange(1.0, 6.0)
    labels = footprint_fold(true, relative_error(true, true), T, P)
    assert not np.any(labels & MODEL_POOR)


def test_sensitivity_tightening_p_only_degrades_model_axis():
    true = 1.0 + np.arange(1, 25) * 0.1
    rel = relative_error(true, true * 1.1)
    loose, tight = footprint_fold(true, rel, 2.0, 0.15), footprint_fold(true, rel, 2.0, 0.05)
    assert np.array_equal(loose & ALGORITHM_POOR, tight & ALGORITHM_POOR)
    changed = loose != tight
    assert not np.any(loose[changed] & MODEL_POOR) and np.all(tight[changed] & MODEL_POOR)


def test_sensitivity_identity_when_p_unchanged():
    true = np.arange(1.0, 10.0)
    rel = relative_error(true, true * 1.01)
    assert np.array_equal(footprint_fold(true, rel, T, P), footprint_fold(true, rel, T, P))


def test_sensitivity_threshold_crossing():
    assert _label(2.0, 2.2, t=1.0, p=0.15) == ["poor_good"]  # rel err 0.10
    assert _label(2.0, 2.2, t=1.0, p=0.05) == ["poor_poor"]


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(true=finite, pred=finite, t=finite,
       p1=st.floats(min_value=0.01, max_value=1.0),
       p2=st.floats(min_value=0.01, max_value=1.0))
def test_p_monotonicity_property(true, pred, t, p1, p2):
    lo, hi = sorted((p1, p2))
    [loose] = _label(true, pred, t=t, p=hi)
    [tight] = _label(true, pred, t=t, p=lo)
    assert _algorithm_good(loose) == _algorithm_good(tight)
    if loose != tight:
        assert _model_good(loose) and not _model_good(tight)


@settings(max_examples=200, deadline=None)
@given(true=finite, pred=finite, p=st.floats(min_value=0.01, max_value=1.0),
       t1=finite, t2=finite)
def test_t_monotonicity_property(true, pred, p, t1, t2):
    lo, hi = sorted((t1, t2))
    [strict] = _label(true, pred, t=lo, p=p)
    [loose] = _label(true, pred, t=hi, p=p)
    assert _model_good(strict) == _model_good(loose)
    if strict != loose:
        # raising t can only flip the algorithm axis Poor -> Good
        assert not _algorithm_good(strict) and _algorithm_good(loose)


@settings(max_examples=100, deadline=None)
@given(true=finite, pred=finite)
def test_classify_total_and_exhaustive(true, pred):
    [label] = _label(true, pred)
    assert label in LABELS


# ---------------------------------------------------------------------------
# the array functions against the scalar references, bit for bit

def _fold_cases():
    rng = np.random.default_rng(20240012)
    t, p = 0.25, 0.15
    random = (rng.uniform(-4, 4, 500), rng.uniform(-4, 4, 500) * rng.uniform(0.5, 1.5, 500))
    # true == t and rel_err == p exactly (binary-representable), and one ulp either side
    at_t = np.array([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)] * 3)
    pred_at_t = np.repeat([t * 1.1, t * 2.0, t], 3)
    at_p = np.full(3, 2.0)
    pred_at_p = np.array([2.5, np.nextafter(2.5, 0.0), np.nextafter(2.5, 3.0)])
    # truths under the guard: the denominator is EPS_GUARD, not |true|
    tiny = np.array([0.0, 1e-9, -1e-9, EPS_GUARD, -EPS_GUARD, np.nextafter(EPS_GUARD, 0.0)])
    pred_tiny = np.array([1e-7, 0.0, 1.2e-7, 2e-6, -1e-6, 1e-6])
    # raw scale: Python's 10.0**v of log-precision values
    logs = rng.uniform(-9, 2, 500)
    raw = (np.array([10.0**v for v in logs.tolist()]),
           np.array([10.0**v for v in (logs + rng.normal(0, 0.1, 500)).tolist()]))
    return [
        ("random", *random, t, p),
        ("true_at_t", at_t, pred_at_t, t, 0.25),
        ("rel_err_at_p", at_p, pred_at_p, t, 0.25),
        ("truth_under_guard", tiny, pred_tiny, 0.0, 0.15),
        ("raw_scale", *raw, 10.0**-3.5, p),
    ]


@pytest.mark.parametrize("name, true, pred, t, p", _fold_cases(),
                         ids=[case[0] for case in _fold_cases()])
def test_array_functions_match_scalar_oracles(name, true, pred, t, p):
    keys = [(i % 24 + 1, i // 24 + 1, 5) for i in range(len(true))]
    reference = naive_footprint_fold(zip(keys, true.tolist(), pred.tolist()), t, p)
    rel = relative_error(true, pred)
    labels = footprint_fold(true, rel, t, p)
    assert rel.tobytes() == np.array([r[3] for r in reference]).tobytes()
    assert [LABELS[i] for i in labels] == [r[4] for r in reference]
    # relabelling the same relative errors under other tolerances
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for p2 in (0.05, p, 0.5):
        relabelled = footprint_fold(true, rel, t, p2)
        assert [(keys[i], LABELS[labels[i]], LABELS[relabelled[i]]) for i in order] == (
            naive_sensitivity(reference, t, p2))


def test_assignments_csv_roundtrip(tmp_path):
    keys = [(p, 2, 5) for p in range(1, 6)]
    true = np.arange(1.0, 6.0)
    pred = true * 1.2
    rel = relative_error(true, pred)
    labels = footprint_fold(true, rel, T, P)
    path = tmp_path / "assignments.csv"
    write_assignments_csv("kernel", [(3, keys, true, pred, rel, labels)], path)
    loaded_keys, fold_ids, loaded_labels = read_assignments_csv(path)
    assert loaded_keys == keys
    assert fold_ids.tolist() == [3] * 5
    assert np.array_equal(loaded_labels, labels)
