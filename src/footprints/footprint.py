"""Deterministic four-cluster footprint over (true performance, prediction error).

A label pairs algorithm performance (true value <= target t is Good) with
model performance (relative prediction error <= tolerance p is Good);
boundaries count as Good on both axes. A label is an index into LABELS:
ALGORITHM_POOR * (true > t) + MODEL_POOR * (relative error > p). These
three names are the one place that knows the encoding; a fold is labelled
as one array by `footprint_fold`, and relabelled under another tolerance
by calling it again on the same relative errors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .csvio import KEY_COLUMNS, Key, read_csv, row_key, write_csv
from .errors import ContractViolation

LABELS = ("good_good", "good_poor", "poor_good", "poor_poor")
ALGORITHM_POOR = 2
MODEL_POOR = 1

# the floor of a relative error's denominator, for true values near zero
EPS_GUARD = 1e-6


def compute_target_t(train_values: Sequence[float]) -> float:
    """The target t of a fold: the median of its training targets."""
    if len(train_values) == 0:
        raise ContractViolation("need at least one training value")
    return float(np.median(train_values))


def relative_error(true: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    return np.abs(predicted - true) / np.maximum(np.abs(true), EPS_GUARD)


def footprint_fold(true: np.ndarray, rel_err: np.ndarray, t: float, p: float) -> np.ndarray:
    """The LABELS index of every test row of one fold, from its true values
    and relative errors under target t and tolerance p."""
    return ALGORITHM_POOR * (true > t) + MODEL_POOR * (rel_err > p)


# ---------------------------------------------------------------------------
# CSV round trip

def write_assignments_csv(model_kind: str, folds, path) -> None:
    """Rows: one per test key of each (fold_id, keys, true, predicted,
    relative error, labels) block of `folds`, in block order."""
    write_csv(
        path,
        ["fold_id", "model_kind", *KEY_COLUMNS, "true", "predicted", "relative_error", "label"],
        ([fold_id, model_kind, *key, tv, pv, re, LABELS[label]]
         for fold_id, keys, true, predicted, rel_err, labels in folds
         for key, tv, pv, re, label in zip(keys, true, predicted, rel_err, labels, strict=True)),
    )


def read_assignments_csv(path) -> tuple[list[Key], np.ndarray, np.ndarray]:
    """The row keys, their fold ids and their LABELS indices."""
    _, rows = read_csv(path)
    return ([row_key(row) for row in rows],
            np.array([int(row["fold_id"]) for row in rows], dtype=int),
            np.array([LABELS.index(row["label"]) for row in rows], dtype=int))


def write_transitions_csv(reports, path) -> None:
    """Rows: one per key of each (fold_id, p_from, p_to, keys, labels under
    p_from, labels under p_to) sensitivity run of `reports`."""
    write_csv(
        path,
        ["fold_id", "p_from", "p_to", *KEY_COLUMNS, "label_from", "label_to"],
        ([fold_id, p_from, p_to, *key, LABELS[a], LABELS[b]]
         for fold_id, p_from, p_to, keys, labels_from, labels_to in reports
         for key, a, b in zip(keys, labels_from, labels_to, strict=True)),
    )
