import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from footprints.errors import ConfigurationError, ContractViolation
from footprints.footprint import (
    FootprintLabel,
    Thresholds,
    classify,
    compute_target_t,
    footprint_fold,
    read_assignments_csv,
    relative_error,
    sensitivity,
    write_assignments_csv,
)


TH = Thresholds(t=1.0, p=0.15)


def test_classify_spec_examples():
    assert classify(0.5, 0.56, TH) == FootprintLabel.GOOD_GOOD   # rel err 0.12
    assert classify(2.0, 2.1, TH) == FootprintLabel.POOR_GOOD    # rel err 0.05
    assert classify(0.5, 0.9, TH) == FootprintLabel.GOOD_POOR    # rel err 0.8
    assert classify(2.0, 4.0, TH) == FootprintLabel.POOR_POOR    # rel err 1.0


def test_boundaries_count_as_good():
    # true exactly at t: algorithm Good
    assert classify(1.0, 1.0, TH).algorithm_good
    # relative error exactly p: model Good
    assert classify(2.0, 2.0 * (1 + 0.15), TH).model_good
    # a hair beyond either boundary flips
    assert not classify(np.nextafter(1.0, 2.0), 1.0, TH).algorithm_good


def test_relative_error_guard_near_zero_truth():
    assert relative_error(0.0, 0.5) == pytest.approx(0.5 / 1e-6)
    assert relative_error(-2.0, -1.0) == pytest.approx(0.5)


def test_thresholds_validation():
    with pytest.raises(ConfigurationError):
        Thresholds(t=0.0, p=0.0)


def test_compute_target_t_examples():
    assert compute_target_t([-2.0, 0.0, 4.0]) == 0.0
    assert compute_target_t([1.0, 3.0]) == 2.0
    with pytest.raises(ContractViolation):
        compute_target_t([])


def test_target_t_differs_across_folds():
    assert compute_target_t([-1.0, 0.0, 1.0]) != compute_target_t([2.0, 3.0, 4.0])


def test_footprint_fold_partition():
    predictions = [((p, 1, 5), float(p % 3), float(p % 3) * 1.05) for p in range(1, 25)]
    assignments = footprint_fold(predictions, TH, fold_id=1, model_kind="random_forest")
    assert len(assignments) == 24
    counts = {}
    for a in assignments:
        counts[a.label] = counts.get(a.label, 0) + 1
    assert sum(counts.values()) == 24


def test_footprint_fold_exact_predictions_model_good():
    predictions = [((p, 1, 5), float(p), float(p)) for p in range(1, 6)]
    assignments = footprint_fold(predictions, TH, 1, "knn")
    assert all(a.label.model_good for a in assignments)


def test_footprint_fold_duplicate_key_rejected():
    predictions = [((1, 1, 5), 0.0, 0.0), ((1, 1, 5), 1.0, 1.0)]
    with pytest.raises(ContractViolation):
        footprint_fold(predictions, TH, 1, "knn")


def test_sensitivity_tightening_p_only_degrades_model_axis():
    predictions = [((p, 1, 5), 1.0 + p * 0.1, (1.0 + p * 0.1) * 1.1) for p in range(1, 25)]
    a = footprint_fold(predictions, Thresholds(t=2.0, p=0.15), 1, "rf")
    for _, from_label, to_label in sensitivity(a, Thresholds(t=2.0, p=0.05)):
        assert from_label.algorithm_good == to_label.algorithm_good
        if from_label != to_label:
            assert from_label.model_good and not to_label.model_good


def test_sensitivity_identity_when_p_unchanged():
    predictions = [((p, 1, 5), float(p), float(p) * 1.01) for p in range(1, 10)]
    a = footprint_fold(predictions, TH, 1, "rf")
    pairs = sensitivity(a, TH)
    assert len(pairs) == len(predictions)
    assert all(x == y for _, x, y in pairs)


def test_sensitivity_threshold_crossing():
    predictions = [((1, 1, 5), 2.0, 2.2)]  # rel err 0.10
    a = footprint_fold(predictions, Thresholds(t=1.0, p=0.15), 1, "rf")
    b = footprint_fold(predictions, Thresholds(t=1.0, p=0.05), 1, "rf")
    assert a[0].label == FootprintLabel.POOR_GOOD
    assert b[0].label == FootprintLabel.POOR_POOR


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(true=finite, pred=finite, t=finite,
       p1=st.floats(min_value=0.01, max_value=1.0),
       p2=st.floats(min_value=0.01, max_value=1.0))
def test_p_monotonicity_property(true, pred, t, p1, p2):
    lo, hi = sorted((p1, p2))
    loose = classify(true, pred, Thresholds(t=t, p=hi))
    tight = classify(true, pred, Thresholds(t=t, p=lo))
    assert loose.algorithm_good == tight.algorithm_good
    if loose != tight:
        assert loose.model_good and not tight.model_good


@settings(max_examples=200, deadline=None)
@given(true=finite, pred=finite, p=st.floats(min_value=0.01, max_value=1.0),
       t1=finite, t2=finite)
def test_t_monotonicity_property(true, pred, p, t1, t2):
    lo, hi = sorted((t1, t2))
    strict = classify(true, pred, Thresholds(t=lo, p=p))
    loose = classify(true, pred, Thresholds(t=hi, p=p))
    assert strict.model_good == loose.model_good
    if strict != loose:
        # raising t can only flip the algorithm axis Poor -> Good
        assert not strict.algorithm_good and loose.algorithm_good


@settings(max_examples=100, deadline=None)
@given(true=finite, pred=finite)
def test_classify_total_and_exhaustive(true, pred):
    label = classify(true, pred, TH)
    assert label in FootprintLabel


def test_assignments_csv_roundtrip(tmp_path):
    predictions = [((p, 2, 5), float(p), float(p) * 1.2) for p in range(1, 6)]
    assignments = footprint_fold(predictions, TH, 3, "kernel")
    path = tmp_path / "assignments.csv"
    write_assignments_csv(assignments, path)
    loaded = read_assignments_csv(path)
    assert loaded == assignments
