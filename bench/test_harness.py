"""Tests of the benchmark harness: span arithmetic, tracer patching, output checks.

    PYTHONPATH=src python -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import Tracer  # noqa: E402

SMOKE = ROOT / "configs" / "smoke.yaml"
ALL = ["suite", "solve", "features", "folds", "train", "explain", "footprint", "report"]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("g"):
                pass
        with tr.span("b"):
            pass
    assert tr.self_times() == {"outer": 3, "a": 2, "g": 1, "b": 4}
    assert tr.durations("a") == [3]


def test_repeated_spans_sum_and_inside():
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 6, 7, 8]))
    with tr.span("outer"):
        for _ in range(2):
            with tr.span("leaf"):
                assert tr.inside("outer") and not tr.inside("missing")
    with tr.span("outer"):
        pass
    # the first outer lasts 6 with 2 in leaves; the second lasts 1
    assert tr.self_times() == {"outer": 4 + 1, "leaf": 1 + 1}
    assert not tr.inside("outer")


def _smoke_run(out: Path, trace: bool) -> dict:
    spec = {"config": str(SMOKE), "overrides": {"master_seed": 11}, "stages": ALL,
            "staged": [], "stage_files": [], "stage_from": None, "threads": 1,
            "trace": trace, "cache_check": True, "out": str(out)}
    result: dict = {}
    child.run(spec, time.time(), result)
    return result


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    base = tmp_path_factory.mktemp("smoke")
    plain = _smoke_run(base / "plain", trace=False)
    traced = _smoke_run(base / "traced", trace=True)
    return base, plain, traced


def _api_snapshot():
    """Every callable the footprints modules and patched classes expose."""
    import footprints.cli  # noqa: F401
    from footprints import models, suite

    snapshot = {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("footprints") for attr, value in vars(mod).items()
                if callable(value)}
    for cls in (models.RandomForestModel, models.KnnModel, models.KernelRidgeModel,
                suite.ProblemInstance):
        snapshot.update({(cls.__name__, attr): value for attr, value in vars(cls).items()
                         if callable(value)})
    return snapshot


def test_tracer_restores_api_and_keeps_artifacts(smoke):
    before = _api_snapshot()
    tr = layers.install()
    from footprints import models, pipeline

    assert models.fit_random_forest.__wrapped__ is before[("footprints.models",
                                                           "fit_random_forest")]
    assert pipeline.write_suite_csv is not before[("footprints.pipeline", "write_suite_csv")]
    tr.uninstall()
    assert _api_snapshot() == before
    base, plain, traced = smoke
    assert plain["cache_hit"] and traced["cache_hit"]
    assert checks.digests(base / "plain") == checks.digests(base / "traced")


def test_traced_counts_match_closed_forms(smoke):
    _, plain, traced = smoke
    metrics = {k: v[0] for k, v in traced["layers"].items()}
    assert metrics["suite.evals"] == traced["facts"]["expected_evals"] > 0
    facts = traced["facts"]
    n_items = len(facts["problems"]) * len(facts["instances"])
    assert metrics["de.runs"] == len(facts["config_ids"]) * n_items * 2  # smoke: n_runs 2
    # select, train and explain each fit one forest per fold; explain's are refits
    assert metrics["models.forest_fits"] == 3 * facts["k_folds"]
    assert metrics["models.duplicate_fits"] == facts["k_folds"]
    # selection explains each fold's train rows, explain its test rows
    assert metrics["shapley.tree_rows"] == facts["k_folds"] * n_items
    assert metrics["shapley.efficiency_gap_max"] <= checks.EFFICIENCY_TOL


def test_clean_artifacts_pass_every_check(smoke):
    base, plain, _ = smoke
    assert checks.check_run(base / "plain", plain["facts"]) == []


def _corrupt_copy(tmp_path, smoke, name, edit):
    base, plain, _ = smoke
    out = tmp_path / "copy"
    shutil.copytree(base / "plain", out)
    path = out / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out, plain["facts"]


def _set(rows, r, c, value):
    rows[r][c] = value
    return rows


CORRUPTIONS = {
    "dropped explanation row": ("explanations/fold_1.csv", lambda rows: rows[:-1],
                                checks.check_explanations),
    "broken efficiency": ("explanations/fold_2.csv", lambda rows: _set(rows, 1, 4, "123.0"),
                          checks.check_explanations),
    "nan feature": ("features.csv", lambda rows: _set(rows, 2, 7, "nan"), checks.check_features),
    "dropped feature column": ("features.csv", lambda rows: [r[:-1] for r in rows],
                               checks.check_features),
    "duplicated performance row": ("performance.csv", lambda rows: rows + [rows[1]],
                                   checks.check_performance),
    "infinite precision": ("performance.csv", lambda rows: _set(rows, 3, 6, "inf"),
                           checks.check_performance),
    "fold with two instances of a problem": (
        "folds.csv", lambda rows: _set(rows, 1, 3, rows[2][3]), checks.check_folds),
    "unknown label": ("assignments.csv", lambda rows: _set(rows, 1, 8, "good_fair"),
                      checks.check_assignments),
    "instance labelled twice": ("assignments.csv", lambda rows: rows + [rows[1]],
                                checks.check_assignments),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_each_check_fails_on_corrupted_copy(tmp_path, smoke, case):
    name, edit, check = CORRUPTIONS[case]
    out, facts = _corrupt_copy(tmp_path, smoke, name, edit)
    assert check(out, facts)
    assert checks.check_run(out, facts)


def test_missing_artifact_and_stage_fail(tmp_path, smoke):
    base, plain, _ = smoke
    out = tmp_path / "copy"
    shutil.copytree(base / "plain", out)
    (out / "figures" / "beeswarm_fold_3.csv").unlink()
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["stages"]["footprint"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = checks.check_artifacts(out, plain["facts"])
    assert "missing artifact figures/beeswarm_fold_3.csv" in problems
    assert "manifest lacks stage footprint" in problems


def test_differing_artifacts_fail_determinism(tmp_path):
    bench = bench_run.Bench.__new__(bench_run.Bench)
    bench.runs = [
        {"label": "run0", "digests": {"a.csv": "1", "b.csv": "2"}, "problems": []},
        {"label": "run1", "digests": {"a.csv": "1", "b.csv": "2"}, "problems": []},
        {"label": "run2", "digests": {"a.csv": "1", "b.csv": "3"}, "problems": []},
    ]
    bench.check_determinism()
    assert [bool(r["problems"]) for r in bench.runs] == [False, False, True]
    assert "b.csv" in bench.runs[2]["problems"][0]
