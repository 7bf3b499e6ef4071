"""Output checks on a finished run directory, using the standard library only.

Each ``check_*`` function returns a list of problems; an empty list means
the check passed. ``facts`` describes the run's config (see child.py).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

N_FEATURES = 43
LABELS = {"good_good", "good_poor", "poor_good", "poor_poor"}
EFFICIENCY_TOL = 1e-9
KEY_COLUMNS = 3  # problem_id, instance_id, dimension


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _dict_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _all_keys(facts) -> set[tuple[int, int]]:
    return {(p, i) for p in facts["problems"] for i in facts["instances"]}


def expected_artifacts(facts) -> list[str]:
    folds = range(1, facts["k_folds"] + 1)
    per_stage = {
        "suite": ["suite.csv"],
        "solve": ["performance.csv"],
        "features": ["features.csv", "feature_schema.json"],
        "folds": ["folds.csv"],
        "train": ["metrics.csv"] + [f"predictions/fold_{f}.csv" for f in folds] + [
            f"portfolios/{kind}_fold_{f}.json" for kind in facts["model_kinds"] for f in folds],
        "explain": [f"explanations/fold_{f}.csv" for f in folds],
        "footprint": ["assignments.csv"] + (["transitions.csv"] if facts["sensitivity"] else []),
        "report": ["distribution_table.txt", "distribution_table.csv"] + [
            f"figures/{name}_fold_{f}.{ext}" for f in folds
            for name, ext in (("footprint", "svg"), ("beeswarm", "svg"), ("beeswarm", "csv"))],
    }
    return [name for stage in facts["stages"] for name in per_stage[stage]]


def check_artifacts(out: Path, facts) -> list[str]:
    problems = []
    try:
        recorded = json.loads((out / "manifest.json").read_text())["stages"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems += [f"manifest lacks stage {s}" for s in facts["stages"] if s not in recorded]
    problems += [f"missing artifact {name}" for name in expected_artifacts(facts)
                 if not (out / name).is_file()]
    return problems


def check_performance(out: Path, facts) -> list[str]:
    rows = _rows(out / "performance.csv")
    header, body = rows[0], rows[1:]
    col = {name: j for j, name in enumerate(header)}
    seen = Counter((r[col["config_id"]], int(r[col["problem_id"]]), int(r[col["instance_id"]]))
                   for r in body)
    expected = {(c, p, i) for c in facts["config_ids"] for p, i in _all_keys(facts)}
    problems = []
    if set(seen) != expected or any(n != 1 for n in seen.values()):
        problems.append("performance.csv: not one row per (config, problem, instance)")
    precision_cols = [j for name, j in col.items()
                      if name == "median_log_precision" or name.startswith("run_")]
    if any(not _finite(r[j]) for r in body for j in precision_cols):
        problems.append("performance.csv: non-finite precision")
    return problems


def check_features(out: Path, facts) -> list[str]:
    rows = _rows(out / "features.csv")
    problems = []
    if len(rows[0]) - KEY_COLUMNS != N_FEATURES:
        problems.append(f"features.csv: {len(rows[0]) - KEY_COLUMNS} feature columns, "
                        f"expected {N_FEATURES}")
    for r in rows[1:]:
        if len(r) != len(rows[0]) or not all(_finite(v) for v in r[KEY_COLUMNS:]):
            problems.append(f"features.csv: non-finite or missing value in row {r[:2]}")
            break
    if Counter((int(r[0]), int(r[1])) for r in rows[1:]) != Counter(_all_keys(facts)):
        problems.append("features.csv: not one row per (problem, instance)")
    return problems


def read_folds(out: Path) -> dict[tuple[int, int], int]:
    return {(int(r[0]), int(r[1])): int(r[3]) for r in _rows(out / "folds.csv")[1:]}


def check_folds(out: Path, facts) -> list[str]:
    rows = _rows(out / "folds.csv")[1:]
    folds = read_folds(out)
    problems = []
    if len(rows) != len(folds) or set(folds) != _all_keys(facts):
        problems.append("folds.csv: not one row per (problem, instance)")
    for f in range(1, facts["k_folds"] + 1):
        per_problem = Counter(p for (p, _), fold in folds.items() if fold == f)
        if per_problem != Counter(facts["problems"]):
            problems.append(f"folds.csv: test fold {f} does not hold one instance per problem")
    return problems


def check_explanations(out: Path, facts) -> list[str]:
    folds = read_folds(out)
    problems = []
    for f in range(1, facts["k_folds"] + 1):
        rows = _rows(out / f"explanations/fold_{f}.csv")[1:]
        keys = Counter((int(r[0]), int(r[1])) for r in rows)
        if keys != Counter(k for k, fold in folds.items() if fold == f):
            problems.append(f"explanations/fold_{f}.csv: not one row per test instance")
        for r in rows:
            values = [float(v) for v in r[KEY_COLUMNS:]]
            base, prediction, phi = values[0], values[1], values[2:]
            if not abs(base + math.fsum(phi) - prediction) <= EFFICIENCY_TOL:
                problems.append(f"explanations/fold_{f}.csv: efficiency gap on {r[:2]}")
                break
    return problems


def check_assignments(out: Path, facts) -> list[str]:
    folds = read_folds(out)
    rows = _dict_rows(out / "assignments.csv")
    keys = Counter((int(r["problem_id"]), int(r["instance_id"])) for r in rows)
    problems = []
    if keys != Counter(folds.keys()):
        problems.append("assignments.csv: not exactly one label per test instance")
    for r in rows:
        key = (int(r["problem_id"]), int(r["instance_id"]))
        if r["label"] not in LABELS or folds.get(key) != int(r["fold_id"]):
            problems.append(f"assignments.csv: bad label or fold on {key}")
            break
    return problems


# artifact that each content check reads
CONTENT_CHECKS = (
    ("performance.csv", check_performance),
    ("features.csv", check_features),
    ("folds.csv", check_folds),
    ("explanations/fold_1.csv", check_explanations),
    ("assignments.csv", check_assignments),
)


def check_run(out: Path, facts) -> list[str]:
    """Every check that applies to the artifacts the run should hold."""
    problems = check_artifacts(out, facts)
    if problems:
        return problems
    present = set(expected_artifacts(dict(facts, stages=[*facts["staged"], *facts["stages"]])))
    for name, check in CONTENT_CHECKS:
        if name in present:
            try:
                problems += check(out, facts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{name}: unreadable ({exc!r})")
    return problems


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact; the manifest holds timings and is left out."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def de_log_precision(out: Path, config_id: str) -> float:
    """Mean over instances of median_log_precision for one DE config, in decades."""
    rows = [r for r in _dict_rows(out / "performance.csv")
            if r["config_id"] == config_id]
    return math.fsum(float(r["median_log_precision"]) for r in rows) / len(rows)


def model_mae(out: Path, kind: str, size: int) -> float:
    """Mean over folds of the footprint model's MAE, in decades."""
    rows = [r for r in _dict_rows(out / "metrics.csv")
            if r["model_kind"] == kind and int(r["portfolio_size"]) == size]
    return math.fsum(float(r["mae"]) for r in rows) / len(rows)
