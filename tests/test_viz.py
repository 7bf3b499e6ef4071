import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from footprints.errors import ContractViolation
from footprints.footprint import ALGORITHM_POOR, LABELS, MODEL_POOR, footprint_fold, relative_error
from footprints.viz import (
    EMPTY_CELL,
    embed_2d,
    emit_beeswarm_data,
    emit_distribution_table,
    emit_feature_distribution,
    emit_footprint_plot,
)

GOLDEN = Path(__file__).parent / "golden"

KEYS4 = [(1, 1, 5), (2, 1, 5), (3, 1, 5), (4, 1, 5)]
MAT4 = np.array(
    [[0.0, 0.0, 1.0], [1.0, 0.5, 0.0], [-1.0, 2.0, 0.5], [0.5, -1.5, 2.0]]
)
TRUE4 = np.array([0.5, 0.5, 3.0, 3.0])
PRED4 = np.array([0.5, 2.0, 3.1, 9.0])


def _labels(true, pred):
    """The labels of (true, pred) under t = 1 and p = 0.15."""
    return footprint_fold(true, relative_error(true, pred), 1.0, 0.15)


def _assignments4():
    return dict(zip(KEYS4, _labels(TRUE4, PRED4)))


# ---------------------------------------------------------------------------
# embedding

def test_embedding_shape_and_tag():
    assert embed_2d(MAT4).shape == (4, 2)


def test_embedding_rank_one_line_collapses_second_axis():
    t = np.linspace(-2, 2, 6)
    mat = t[:, None] * np.array([1.0, -2.0, 0.5])[None, :] + 3.0
    coords = embed_2d(mat)
    assert np.max(np.abs(coords[:, 1])) <= 1e-9
    assert np.std(coords[:, 0]) > 0


def test_embedding_duplicate_rows_identical_coords():
    mat = np.vstack([MAT4, MAT4[1]])
    coords = embed_2d(mat)
    assert np.allclose(coords[1], coords[4])


def test_embedding_zero_variance_all_origin():
    mat = np.ones((5, 3))
    assert np.allclose(embed_2d(mat), 0.0)


def test_embedding_deterministic_sign():
    a = embed_2d(MAT4)
    b = embed_2d(MAT4)
    assert np.array_equal(a, b)


def test_embedding_contracts():
    with pytest.raises(ContractViolation):
        embed_2d(MAT4[:2])
    # both scatter plots need one key per embedded row
    with pytest.raises(ContractViolation, match="one key per row"):
        emit_footprint_plot(KEYS4[:3], embed_2d(MAT4), _assignments4(), title="t")
    with pytest.raises(ContractViolation, match="one key per row"):
        emit_feature_distribution(KEYS4[:3], embed_2d(MAT4), "f", np.zeros(3), title="t")


# ---------------------------------------------------------------------------
# footprint plot

def test_footprint_plot_marker_and_color_counts():
    svg = emit_footprint_plot(KEYS4, embed_2d(MAT4), _assignments4(), title="t")
    assert svg.count('stroke-width="3.0"') == 2 + 1  # 2 cross points + legend cross
    assert svg.count("#1f77b4") == 2 + 1             # 2 good points + legend circle
    assert svg.count("#ffcc00") == 2 + 1


def test_footprint_plot_labels_independent_of_embedding():
    assignments = _assignments4()
    svg_a = emit_footprint_plot(KEYS4, embed_2d(MAT4), assignments, title="t")
    svg_b = emit_footprint_plot(KEYS4, embed_2d(MAT4 * -3.0 + 1.0), assignments, title="t")

    def markers(svg):
        return [line.split()[0] for line in svg.splitlines() if "circle" in line or "path" in line]

    assert markers(svg_a) == markers(svg_b)


def test_footprint_plot_missing_assignment_rejected():
    label_of = _assignments4()
    del label_of[KEYS4[3]]
    with pytest.raises(ContractViolation, match="no assignment for embedded keys"):
        emit_footprint_plot(KEYS4, embed_2d(MAT4), label_of, title="t")


def test_footprint_plot_golden():
    svg = emit_footprint_plot(KEYS4, embed_2d(MAT4), _assignments4(), title="toy footprint")
    assert svg == (GOLDEN / "footprint_toy.svg").read_text()


def test_footprint_plot_is_valid_xml():
    svg = emit_footprint_plot(KEYS4, embed_2d(MAT4), _assignments4(), title="t")
    ET.fromstring(svg)


# ---------------------------------------------------------------------------
# beeswarm

def _reps24():
    rng = np.random.default_rng(0)
    keys = [(p, 1, 5) for p in range(1, 25)]
    names = [f"feat.{chr(97 + j)}" for j in range(12)]
    phi = np.stack([rng.normal(size=12) for _ in keys])
    values = rng.uniform(size=phi.shape)
    return keys, phi, names, values


def test_beeswarm_row_count_k_times_n():
    keys, phi, names, values = _reps24()
    csv_text, svg = emit_beeswarm_data(keys, phi, names, values, top_k=10, title="t")
    rows = csv_text.strip().splitlines()
    assert len(rows) == 1 + 10 * 24
    ET.fromstring(svg)


def test_beeswarm_first_block_is_most_important_feature():
    keys, phi, names, values = _reps24()
    from footprints.shapley import global_importance

    top = global_importance(phi, names)[0][0]
    csv_text, _ = emit_beeswarm_data(keys, phi, names, values, top_k=5, title="t")
    first_row = csv_text.splitlines()[1]
    assert first_row.startswith(top + ",")


def test_beeswarm_constant_feature_normalizes_to_half():
    keys, phi, names, values = _reps24()
    values[:, 0] = 2.0
    csv_text, _ = emit_beeswarm_data(keys, phi, names, values, top_k=len(names), title="t")
    for line in csv_text.splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == names[0]:
            assert float(cells[-1]) == 0.5


def test_beeswarm_top_k_validated():
    keys, phi, names, values = _reps24()
    with pytest.raises(ContractViolation, match="top_k exceeds portfolio size"):
        emit_beeswarm_data(keys, phi, names, values, top_k=len(names) + 1, title="t")


@pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1], np.s_[:, :, None]])
def test_beeswarm_value_shape_mismatch_rejected(cut):
    keys, phi, names, values = _reps24()
    with pytest.raises(ContractViolation, match="do not match phi"):
        emit_beeswarm_data(keys, phi, names, values[cut], top_k=5, title="t")


# ---------------------------------------------------------------------------
# feature distribution

def test_feature_distribution_color_endpoints():
    coords = embed_2d(MAT4)
    svg = emit_feature_distribution(KEYS4, coords, "f", np.arange(4.0), title="t")
    # min instance gets the low color, max gets the high color
    assert "#1f77b4" in svg
    assert "#d62728" in svg
    ET.fromstring(svg)


def test_feature_distribution_positions_shared_across_features():
    coords = embed_2d(MAT4)

    def centers(svg):
        return [part.split('"')[1] for part in svg.split("cx=")[1:]]

    assert centers(emit_feature_distribution(KEYS4, coords, "f", np.arange(4.0), "f")) == centers(
        emit_feature_distribution(KEYS4, coords, "g", -np.arange(4.0), "g")
    )


@pytest.mark.parametrize("values", [np.arange(3.0), np.arange(5.0), np.zeros((4, 1))])
def test_feature_distribution_value_shape_mismatch_rejected(values):
    with pytest.raises(ContractViolation, match="values of f for 4 keys"):
        emit_feature_distribution(KEYS4, embed_2d(MAT4), "f", values, title="t")


def test_feature_distribution_golden():
    coords = embed_2d(MAT4)
    svg = emit_feature_distribution(KEYS4, coords, "feat.a", np.arange(4.0), title="toy feature")
    assert svg == (GOLDEN / "feature_dist_toy.svg").read_text()


# ---------------------------------------------------------------------------
# distribution table

def test_table_all_good_good_row():
    keys = [(p, 1, 5) for p in range(1, 25)]
    labels = _labels(np.zeros(24), np.zeros(24))
    text, _ = emit_distribution_table("random_forest", np.ones(24, dtype=int), keys, labels)
    row = text.splitlines()[1]
    expected_ids = ", ".join(str(p) for p in range(1, 25))
    assert row == f"RF | 1 | {expected_ids} | {EMPTY_CELL} | {EMPTY_CELL} | {EMPTY_CELL}"


def _reference_fold1():
    """The keys and labels of the frozen fold-1 membership table."""
    memberships = {
        "good_good": [16, 19, 20, 21, 22],
        "good_poor": [1, 2, 5, 14, 17, 18, 23],
        "poor_good": [3, 4, 6, 7, 8, 9, 10, 11, 12, 15, 24],
        "poor_poor": [13],
    }
    keys, true, pred = [], [], []
    for label, problems in memberships.items():
        for p in problems:
            t = 2.0 if LABELS.index(label) & ALGORITHM_POOR else 0.5
            keys.append((p, 1, 10))
            true.append(t)
            pred.append(t * (2.0 if LABELS.index(label) & MODEL_POOR else 1.05))
    return keys, _labels(np.array(true), np.array(pred))


def test_table_reference_fold1_layout_golden():
    keys, labels = _reference_fold1()
    text, _ = emit_distribution_table("random_forest", np.ones(len(keys), dtype=int), keys, labels)
    assert text == (GOLDEN / "table_fold1.txt").read_text()


def test_table_every_problem_in_exactly_one_column():
    rng = np.random.default_rng(1)
    keys = [(p, 1, 5) for p in range(1, 25)]
    true, pred = rng.uniform(-2, 2, 24), rng.uniform(-2, 2, 24)
    labels = footprint_fold(true, relative_error(true, pred), 0.0, 0.15)
    text, csv_text = emit_distribution_table("knn", np.full(24, 2), keys, labels)
    cells = text.splitlines()[1].split(" | ")[2:]
    ids = []
    for cell in cells:
        if cell != EMPTY_CELL:
            ids.extend(int(v) for v in cell.split(", "))
    assert sorted(ids) == list(range(1, 25))
    assert csv_text.splitlines()[0] == "model,fold,good_good,good_poor,poor_good,poor_poor"


def test_table_rows_in_fold_order():
    # rows of folds 2, 3 and 1, interleaved: one table row per fold, in fold order
    keys = [(p, 1, 5) for p in range(1, 7)]
    fold_ids = np.array([2, 3, 1, 2, 3, 1])
    labels = _labels(np.zeros(6), np.zeros(6))
    text, csv_text = emit_distribution_table("random_forest", fold_ids, keys, labels)
    lines = text.strip().splitlines()[1:]
    assert [line.split(" | ")[:3] for line in lines] == [
        ["RF", "1", "3, 6"], ["RF", "2", "1, 4"], ["RF", "3", "2, 5"]
    ]
    assert [row.split(",")[:2] for row in csv_text.splitlines()[1:]] == [
        ["RF", "1"], ["RF", "2"], ["RF", "3"]
    ]
