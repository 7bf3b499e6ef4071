"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale pipeline
(D=5, budget 2500, 5 runs, one DE config, forest with 30-feature
portfolio) executes twice, concurrently, in a session fixture; several
criteria read its artifacts.
"""

import csv
import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.spatial.distance import pdist, squareform

from footprints.cli import main
from footprints.ela import (
    FEATURE_SCHEMA,
    IC_FEATURES,
    META_MODEL_FEATURES,
    extract_all,
    ic_features,
    meta_model_features,
)
from footprints.footprint import LABELS, footprint_fold, relative_error
from footprints.models import fit_knn, fit_random_forest, make_folds
from footprints.shapley import sampling_shap, tree_shap_batch
from footprints.suite import make_instance

from _oracles import brute_force_shapley

GOLDEN = Path(__file__).parent / "golden"

DESK_CONFIG = {
    "master_seed": 2024,
    "suite": {"problems": "1-24", "instances": [1, 2, 3, 4, 5], "dimension": 5},
    "de": {
        "budget_multiplier": 500,
        "n_runs": 5,
        "configs": [
            {"config_id": "DE1", "strategy": "rand/1/bin", "F": 0.5, "Cr": 0.9}
        ],
    },
    "ela": {"sample_multiplier": 100},
    "model": {"kinds": ["random_forest"], "portfolio_sizes": [30], "k_folds": 5},
    "footprint": {
        "config_id": "DE1",
        "model": "random_forest",
        "portfolio_size": 30,
        "p": 0.15,
        "sensitivity_p": [0.05],
    },
}


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    config_path = root / "desk.yaml"
    config_path.write_text(yaml.safe_dump(DESK_CONFIG))
    out_a = root / "run_a"
    out_b = root / "run_b"
    # criterion 9 compares two independent runs: run_b runs in a fresh
    # interpreter while run_a runs, and is timed, in this process
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        run_b = pool.submit(main, ["pipeline", "--config", str(config_path), "--out", str(out_b)])
        start = time.perf_counter()
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_a)]) == 0
        elapsed = time.perf_counter() - start
        assert run_b.result() == 0
    return {"out_a": out_a, "out_b": out_b, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 1. deterministic-cluster truth table

def test_criterion_1_truth_table():
    # exact boundary cases with a binary-representable tolerance, so that
    # rel err == p holds without rounding slack
    t, p = 1.0, 0.25
    cases = [
        # all four open quadrants
        (0.5, 0.5 * 1.10, "good_good"),
        (0.5, 0.5 * 1.75, "good_poor"),
        (2.0, 2.0 * 0.90, "poor_good"),
        (2.0, 2.0 * 0.25, "poor_poor"),
        # boundary: true == t is Good on the algorithm axis
        (t, t * 1.10, "good_good"),
        (t, t * 2.00, "good_poor"),
        # boundary: relative error exactly p is Good on the model axis
        (2.0, 2.5, "poor_good"),   # (2.5-2)/2 == 0.25 exactly
        (2.0, 1.5, "poor_good"),
        (0.5, 0.625, "good_good"),
        # both boundaries at once
        (t, t + p, "good_good"),
        # negative targets (log-precision scale goes below zero)
        (-2.0, -2.5, "good_good"),
        (-2.0, -4.0, "good_poor"),
        # one ulp beyond each boundary flips the coordinate
        (np.nextafter(t, 2.0), t, "poor_good"),
        (2.0, np.nextafter(2.5, 3.0), "poor_poor"),
    ]
    # dense grid checked against the rule restated from the definitions
    grid_cases = []
    for true in np.linspace(-4.0, 4.0, 21):
        for pred in np.linspace(-4.0, 4.0, 21):
            alg = "good" if true <= 1.0 else "poor"
            rel = abs(pred - true) / max(abs(true), 1e-6)
            model = "good" if rel <= 0.15 else "poor"
            grid_cases.append((float(true), float(pred), f"{alg}_{model}"))

    def wrong_labels(rows, t, p):
        true, pred, expected = (np.array(col) for col in zip(*rows))
        labels = footprint_fold(true, relative_error(true, pred), t, p)
        return [(tv, pv) for tv, pv, e, i in zip(true, pred, expected, labels) if LABELS[i] != e]

    wrong = wrong_labels(cases, t, p) + wrong_labels(grid_cases, 1.0, 0.15)
    _report(1, "footprint_fold matches the deterministic-cluster truth table",
            not wrong, f"{len(cases) + len(grid_cases)} cases")


# ---------------------------------------------------------------------------
# 2. exact tree attribution vs brute force

def test_criterion_2_shapley_exactness():
    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    max_dev = 0.0
    for trial in range(50):
        n_features = int(rng.integers(2, 9))
        X = rng.normal(size=(25, n_features))
        y = rng.normal(size=25)
        model = fit_random_forest(
            X, y,
            n_trees=int(rng.integers(1, 6)),
            seed=int(rng.integers(0, 10_000)),
        )
        x = rng.normal(size=n_features)
        background = rng.normal(size=(int(rng.integers(1, 8)), n_features))
        rep = tree_shap_batch(model, x[None, :], background)[0]
        oracle = brute_force_shapley(model, x, background)
        max_dev = max(max_dev, float(np.max(np.abs(rep.phi - oracle))))
    elapsed = time.perf_counter() - start
    _report(2, "tree attribution matches 2^M brute force on 50 ensembles",
            max_dev <= 1e-9 and elapsed < 10.0,
            f"max dev {max_dev:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. efficiency on the pipeline run

def test_criterion_3_efficiency(desk_run):
    out = desk_run["out_a"]
    worst = 0.0
    count = 0
    for fold in range(1, 6):
        with open(out / f"explanations/fold_{fold}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                base, pred = float(row[3]), float(row[4])
                phi_sum = sum(float(v) for v in row[5:])
                worst = max(worst, abs(base + phi_sum - pred))
                count += 1
    tree_ok = worst <= 1e-6 and count == 120

    # sampling path: a knn model on the same features, checked against its
    # own reported Monte-Carlo standard errors
    import footprints.ela as ela_mod
    keys, X = ela_mod.read_features_csv(out / "features.csv")
    import footprints.de as de_mod
    y_map = de_mod.read_performance_csv(out / "performance.csv", "DE1")
    y = np.array([y_map[key] for key in keys])
    model = fit_knn(X[:96], y[:96], k_neighbors=5)
    sampling_ok = True
    detail_gap = 0.0
    for i in (96, 100, 110, 119):
        rep = sampling_shap(model, X[i], X[:96], n_permutations=64, seed=i)
        budget = max(3.0 * math.sqrt(float(np.sum(rep.stderr**2))), 1e-9)
        detail_gap = max(detail_gap, rep.efficiency_gap)
        sampling_ok = sampling_ok and rep.efficiency_gap <= budget
    _report(3, "attribution efficiency holds on every pipeline test instance",
            tree_ok and sampling_ok,
            f"tree worst {worst:.2e} over {count}, sampling worst {detail_gap:.2e}")


# ---------------------------------------------------------------------------
# 4. fold structure across 100 seeds

def test_criterion_4_fold_structure():
    keys = [(p, i, 10) for p in range(1, 25) for i in range(1, 6)]
    rng = np.random.default_rng(20240004)
    ok = True
    for _ in range(100):
        fold_of = make_folds(keys, k=5, seed=int(rng.integers(0, 2**63 - 1)))
        seen = []
        for fold in range(1, 6):
            test = [key for key, f in fold_of.items() if f == fold]
            ok = ok and len(test) == 24
            ok = ok and len({k[0] for k in test}) == 24
            seen.extend(test)
        ok = ok and sorted(seen) == sorted(fold_of) == sorted(keys)
        if not ok:
            break
    _report(4, "stratified folds partition 120 instances, one per problem, 100 seeds", ok)


# ---------------------------------------------------------------------------
# 5. ELA analytic fixtures and the full D=10 feature matrix

def test_criterion_5_ela_fixtures():
    rng = np.random.default_rng(20240005)
    X = rng.uniform(-5, 5, size=(200, 4))
    linear = dict(zip(META_MODEL_FEATURES,
                      meta_model_features(X, 1.0 + X @ np.array([2.0, -1.0, 0.5, 3.0]))))
    lin_ok = abs(linear["ela_meta.lin_simple.adj_r2"] - 1.0) <= 1e-9

    constant = dict(zip(IC_FEATURES, ic_features(np.full(200, 3.0), squareform(pdist(X)))))
    ic_ok = constant["ic.h_max"] == 0.0

    Xc = X - X.mean(axis=0)
    quad = dict(zip(META_MODEL_FEATURES, meta_model_features(Xc, np.sum(Xc**2, axis=1))))
    quad_ok = abs(quad["ela_meta.quad_simple.adj_r2"] - 1.0) <= 1e-9

    start = time.perf_counter()
    range_ok, finite_ok = True, True
    for problem in range(1, 25):
        for instance_id in range(1, 6):
            inst = make_instance(problem, instance_id, 10)
            vec = extract_all(inst, 1000, seed=20240005)
            finite_ok = finite_ok and bool(np.isfinite(vec.values).all())
            for name, v in zip(FEATURE_SCHEMA, vec.values, strict=True):
                if name.startswith("pca.expl_var"):
                    range_ok = range_ok and 0.0 <= v <= 1.0
                if "mmce" in name:
                    range_ok = range_ok and 0.0 <= v <= 1.0
    elapsed = time.perf_counter() - start
    _report(5, "ELA analytic fixtures and full 120x D=10 matrix",
            lin_ok and ic_ok and quad_ok and range_ok and finite_ok and elapsed < 60.0,
            f"matrix in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. sensitivity transition theorem

def test_criterion_6_sensitivity_transitions(desk_run):
    out = desk_run["out_a"]
    violations = []
    with open(out / "transitions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "sensitivity run produced no transitions"
    for row in rows:
        a, b = row["label_from"], row["label_to"]
        if a == b:
            continue
        same_alg = a.split("_")[0] == b.split("_")[0]
        good_to_poor = a.endswith("_good") and b.endswith("_poor")
        if not (same_alg and good_to_poor):
            violations.append((a, b))
    _report(6, "p tightening yields only identity or (.,Good)->(.,Poor) transitions",
            not violations, f"{len(rows)} instance transitions checked")


# ---------------------------------------------------------------------------
# 7. desk-scale end-to-end run

def test_criterion_7_desk_scale_run(desk_run):
    out = desk_run["out_a"]
    elapsed = desk_run["elapsed"]
    with open(out / "assignments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    count_ok = len(rows) == 120
    folds_ok = {r["fold_id"] for r in rows} == {"1", "2", "3", "4", "5"}
    sphere = [r for r in rows if r["problem_id"] == "1"]
    hardest = [r for r in rows if r["problem_id"] == "24"]
    sphere_ok = len(sphere) == 5 and all(
        r["label"] in ("good_good", "good_poor") for r in sphere
    )
    hardest_ok = len(hardest) == 5 and all(
        r["label"] in ("poor_good", "poor_poor") for r in hardest
    )
    time_ok = elapsed <= 15 * 60
    _report(7, "desk-scale pipeline: 120 assignments, sphere easy / f24 hard in 5/5 folds",
            count_ok and folds_ok and sphere_ok and hardest_ok and time_ok,
            f"{elapsed:.0f}s wall")


# ---------------------------------------------------------------------------
# 8. model sanity on the desk run

def test_criterion_8_model_metrics(desk_run):
    out = desk_run["out_a"]
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rf_rows = [r for r in rows if r["model_kind"] == "random_forest"
               and r["portfolio_size"] == "30"]
    has_both = all({"mae", "r2"} <= set(r) for r in rf_rows)
    positive = sum(float(r["r2"]) > 0.0 for r in rf_rows)
    _report(8, "forest emits MAE/R2 per fold with R2 > 0 on >= 4 of 5 folds",
            has_both and len(rf_rows) == 5 and positive >= 4,
            f"{positive}/5 folds positive")


# ---------------------------------------------------------------------------
# 9. determinism of complete reruns

def test_criterion_9_rerun_determinism(desk_run):
    def tree_digest(root: Path) -> dict:
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                rel = str(path.relative_to(root))
                out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    a = tree_digest(desk_run["out_a"])
    b = tree_digest(desk_run["out_b"])
    _report(9, "two pipeline executions produce byte-identical artifacts",
            a == b and len(a) > 20, f"{len(a)} files compared")


# ---------------------------------------------------------------------------
# 10. membership table golden rendering

def test_criterion_10_table_golden():
    from footprints.viz import emit_distribution_table

    memberships = {
        "good_good": [16, 19, 20, 21, 22],
        "good_poor": [1, 2, 5, 14, 17, 18, 23],
        "poor_good": [3, 4, 6, 7, 8, 9, 10, 11, 12, 15, 24],
        "poor_poor": [13],
    }
    keys, true, pred = [], [], []
    for label, problems in memberships.items():
        for problem in problems:
            value = 0.5 if label.startswith("good_") else 2.0
            keys.append((problem, 1, 10))
            true.append(value)
            pred.append(value * (1.05 if label.endswith("_good") else 2.0))
    true, pred = np.array(true), np.array(pred)
    labels = footprint_fold(true, relative_error(true, pred), 1.0, 0.15)
    text, _ = emit_distribution_table("random_forest", np.ones(len(keys), dtype=int),
                                      keys, labels)
    frozen = (GOLDEN / "table_fold1.txt").read_text()
    _report(10, "fold-1 membership table matches the frozen layout character for character",
            text == frozen)
