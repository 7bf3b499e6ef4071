"""Deterministic four-cluster footprint over (true performance, prediction error).

Labels pair algorithm performance (true value <= target t is Good) with
model performance (relative prediction error <= tolerance p is Good);
boundaries count as Good on both axes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .csvio import KEY_COLUMNS, read_csv, row_key, write_csv
from .errors import ConfigurationError, ContractViolation

Key = tuple[int, int, int]


class FootprintLabel(enum.Enum):
    GOOD_GOOD = "good_good"
    GOOD_POOR = "good_poor"
    POOR_GOOD = "poor_good"
    POOR_POOR = "poor_poor"

    @property
    def algorithm_good(self) -> bool:
        return self in (FootprintLabel.GOOD_GOOD, FootprintLabel.GOOD_POOR)

    @property
    def model_good(self) -> bool:
        return self in (FootprintLabel.GOOD_GOOD, FootprintLabel.POOR_GOOD)


# the floor of a relative error's denominator, for true values near zero
EPS_GUARD = 1e-6


@dataclass(frozen=True)
class Thresholds:
    t: float
    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise ConfigurationError("tolerance p must be positive")


@dataclass(frozen=True)
class FootprintAssignment:
    key: Key
    true_value: float
    predicted_value: float
    relative_error: float
    label: FootprintLabel
    fold_id: int
    model_kind: str


def compute_target_t(train_values: Sequence[float]) -> float:
    """The target t of a fold: the median of its training targets."""
    if not train_values:
        raise ContractViolation("need at least one training value")
    return float(np.median(train_values))


def relative_error(true_value: float, predicted_value: float) -> float:
    return abs(predicted_value - true_value) / max(abs(true_value), EPS_GUARD)


def classify(true_value: float, predicted_value: float, thresholds: Thresholds) -> FootprintLabel:
    algorithm_good = true_value <= thresholds.t
    model_good = relative_error(true_value, predicted_value) <= thresholds.p
    if algorithm_good:
        return FootprintLabel.GOOD_GOOD if model_good else FootprintLabel.GOOD_POOR
    return FootprintLabel.POOR_GOOD if model_good else FootprintLabel.POOR_POOR


def footprint_fold(
    predictions: Iterable[tuple[Key, float, float]],
    thresholds: Thresholds,
    fold_id: int,
    model_kind: str,
) -> list[FootprintAssignment]:
    """Label every (key, true, predicted) triple of one test fold."""
    assignments = []
    seen: set[Key] = set()
    for key, true_value, predicted_value in predictions:
        if key in seen:
            raise ContractViolation(f"duplicate instance key {key}")
        seen.add(key)
        assignments.append(
            FootprintAssignment(
                key=key,
                true_value=float(true_value),
                predicted_value=float(predicted_value),
                relative_error=relative_error(true_value, predicted_value),
                label=classify(true_value, predicted_value, thresholds),
                fold_id=fold_id,
                model_kind=model_kind,
            )
        )
    return assignments


Transition = tuple[Key, FootprintLabel, FootprintLabel]


def sensitivity(
    assignments: Sequence[FootprintAssignment], thresholds: Thresholds
) -> tuple[Transition, ...]:
    """Per-instance (key, label, label under `thresholds`) transitions of one
    fold's labelling, in key order."""
    return tuple(
        (a.key, a.label, classify(a.true_value, a.predicted_value, thresholds))
        for a in sorted(assignments, key=lambda a: a.key)
    )


# ---------------------------------------------------------------------------
# CSV round trip

def write_assignments_csv(assignments: Sequence[FootprintAssignment], path) -> None:
    write_csv(
        path,
        ["fold_id", "model_kind", *KEY_COLUMNS, "true", "predicted", "relative_error", "label"],
        ([a.fold_id, a.model_kind, *a.key, a.true_value, a.predicted_value,
          a.relative_error, a.label.value] for a in assignments),
    )


def read_assignments_csv(path) -> list[FootprintAssignment]:
    _, rows = read_csv(path)
    return [
        FootprintAssignment(
            key=row_key(row),
            true_value=float(row["true"]),
            predicted_value=float(row["predicted"]),
            relative_error=float(row["relative_error"]),
            label=FootprintLabel(row["label"]),
            fold_id=int(row["fold_id"]),
            model_kind=row["model_kind"],
        )
        for row in rows
    ]


def write_transitions_csv(
    reports: Sequence[tuple[int, float, float, Sequence[Transition]]], path
) -> None:
    """Rows: one per instance per (fold, p_from, p_to) sensitivity run."""
    write_csv(
        path,
        ["fold_id", "p_from", "p_to", *KEY_COLUMNS, "label_from", "label_to"],
        ([fold_id, p_from, p_to, *key, label_a.value, label_b.value]
         for fold_id, p_from, p_to, pairs in reports
         for key, label_a, label_b in pairs),
    )
