"""Stage orchestration: suite -> solve -> features -> folds -> train ->
explain -> footprint -> report.

Every stage is a pure function of its input files and config, with all
randomness drawn from documented seed chains, so reruns reproduce byte
identical CSV/SVG artifacts. The manifest holds the config and, per stage, the
code version, the config fields read and the digests of the files read and
written; unless --force is given, a stage is skipped when all still match.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import logging
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

import numpy as np
# numpy loads these on first use: numpy.random at the first seed, numpy.ma
# inside the first np.median. Every run uses both, so they load with the
# package rather than inside the first stage that needs them
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import __version__
from . import de as de_mod
from . import ela as ela_mod
from . import footprint as fp_mod
from . import models as models_mod
from . import shapley as shap_mod
from . import viz as viz_mod
from .config import RunConfig, validate
from .csvio import KEY_COLUMNS, Key, read_csv, row_key, write_csv, write_json, write_text
from .errors import ConfigurationError
from .seeding import (EXPLAIN_SALT, FEATURES_SALT, FOLDS_SALT, SOLVE_SALT,
                      TRAIN_SALT, derive_seed)
from .suite import make_instance, make_suite, write_suite_csv

logger = logging.getLogger(__name__)

# In run order. What a stage depends on is not declared: its record holds
# the files and config fields that its _run_* method read while it ran.
STAGES = ("suite", "solve", "features", "folds", "train", "explain", "footprint", "report")

# explanations/fold_N.csv: these columns, then one phi column per portfolio feature
EXPLANATION_COLUMNS = (*KEY_COLUMNS, "base_value", "prediction")
# sampled permutations a row when the model is not a forest: each training
# row of selection's model, each test row of the footprint model
SELECTION_PERMUTATIONS = 64
EXPLAIN_PERMUTATIONS = 256
# beeswarm rows a fold, at most the portfolio size
REPORT_TOP_K = 10

# each RunConfig field's dotted key
_KEYS = {f.name: f.metadata["key"] for f in fields(RunConfig)}


class _RecordingConfig(RunConfig):
    """A RunConfig that records each field read in `reads`, under the
    field's dotted key, with its value."""

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if name in _KEYS:
            super().__getattribute__("reads")[_KEYS[name]] = value
        return value


class StageFailure(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# parallel work items (module level for pickling)

def _solve_item(args):
    """One performance.csv row: (config_id, key, run precisions)."""
    (problem_id, instance_id, dimension, config, budget, n_runs, base_seed) = args
    instance = make_instance(problem_id, instance_id, dimension)
    return (config.config_id, instance.key,
            de_mod.measure(instance, config, budget, n_runs, base_seed))


def _feature_item(args):
    (problem_id, instance_id, dimension, n, seed) = args
    instance = make_instance(problem_id, instance_id, dimension)
    return ela_mod.extract_all(instance, n, seed)


def _pmap(fn, items, threads: int, stage: str):
    """fn over (problem, instance, ...) items, in order, on at most one
    worker per item. The StageFailure that names a failing item is raised
    here, in the parent: it does not survive unpickling from a pool worker."""
    workers = min(threads, len(items))
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_keep_freed_memory)).map
        results = mapper(fn, items)
        out = []
        for item in items:
            try:
                out.append(next(results))
            except Exception as exc:
                raise StageFailure(stage, f"problem {item[0]}, instance {item[1]}: "
                                          f"{type(exc).__name__}: {exc}") from exc
        return out


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse. By default it maps every
    allocation of 128 KiB or more afresh and returns a free heap top of
    that size to the OS, so the temporaries of the hot loops fault in their
    pages again on every call: a sampling chunk's states, its distances and
    kernel values (about 40,000 minor faults in one model-sweep run of the
    benchmark), and the suite cores' temporaries on an ELA-size batch
    (Gallagher's (rows, peaks) quadratic forms, Katsuura's (rows, D, 32)
    digit terms). Up to 32 MiB an allocation now comes from the heap,
    which is trimmed only past 256 MiB free. `_pmap`'s pool workers run it
    as their initializer, whatever the start method; without glibc it does
    nothing."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)


# ---------------------------------------------------------------------------

class Pipeline:
    def __init__(self, cfg: RunConfig, out_dir, *, threads: int, force: bool = False):
        issues = validate(cfg)
        if issues:
            raise ConfigurationError("invalid config:\n" + "\n".join(f"- {s}" for s in issues))
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        self.cfg = _RecordingConfig(**{f.name: getattr(cfg, f.name) for f in fields(cfg)})
        # the config by dotted key, as the manifest's JSON gives it back
        self._settings = json.loads(json.dumps({k: getattr(cfg, n) for n, k in _KEYS.items()}))
        self._header = {"tool_version": __version__, "config": self._settings}
        self.out = Path(out_dir)
        self.force = force
        self.threads = threads
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self.manifest = self._load_manifest()
        # the running stage, the files it has read and written, and the config fields read
        self._stage, self._read, self._written, self.cfg.reads = None, [], [], {}

    # -- artifact paths ------------------------------------------------
    def _input(self, name: str) -> Path:
        """Where the running stage reads `name`; its stage record hashes it."""
        path = self.out / name
        if not path.exists():
            raise StageFailure(self._stage, f"missing input {name}; run earlier stages first")
        self._read.append(name)
        return path

    def _output(self, name: str) -> Path:
        """Where the running stage writes `name`; its stage record hashes it."""
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self._written.append(name)
        return path

    def _fold_ids(self) -> list[int]:
        return list(range(1, self.cfg.k_folds + 1))

    # -- manifest ------------------------------------------------------
    def _load_manifest(self) -> dict:
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError):
                manifest = None
            stages = manifest.get("stages") if isinstance(manifest, dict) else None
            # the stage records, their inputs and outputs are read as mappings
            if (isinstance(stages, dict)
                    and all(isinstance(record, dict)
                            and isinstance(record.get("inputs", {}), dict)
                            and isinstance(record.get("outputs", {}), dict)
                            for record in stages.values())):
                return manifest
            logger.warning("unreadable manifest; starting fresh")
        return {"stages": {}}

    def _save_manifest(self) -> None:
        """Writes this run's version and config and the stage records, nothing else."""
        self.manifest = {**self._header, "stages": self.manifest["stages"]}
        write_json(self.manifest_path, self.manifest)

    def _stage_done(self, stage: str) -> bool:
        """Recorded by this code version, with each config field it read still
        holding its value and each file it read or wrote its digest."""
        record = self.manifest["stages"].get(stage, {})
        config = record.get("config")
        return (record.get("version") == __version__ and isinstance(config, dict)
                and config.items() <= self._settings.items()
                and self._digests_match(record.get("inputs", {}))
                and self._digests_match(record.get("outputs", {})))

    def _artifact(self, name: str) -> Path | None:
        """`name`'s path if it is a regular file inside --out, else None: the
        manifest is input, so the stage cache hashes and removes nothing else."""
        path = self.out / name
        if path.is_file() and path.resolve().is_relative_to(self.out.resolve()):
            return path
        return None

    def _digests_match(self, digests: dict) -> bool:
        return all((path := self._artifact(name)) and _sha256(path) == digest
                   for name, digest in digests.items())

    def _record_stage(self, stage: str, elapsed: float, facts: dict) -> None:
        """Records what the stage read, wrote and returned; removes its stale outputs."""
        previous = self.manifest["stages"].get(stage, {}).get("outputs", {})
        self.manifest["stages"][stage] = {
            "version": __version__,
            "config": dict(self.cfg.reads),
            "inputs": {name: _sha256(self.out / name) for name in self._read},
            "outputs": {name: _sha256(self.out / name) for name in self._written},
            "elapsed_s": round(elapsed, 3),
            **facts,
        }
        for name in set(previous) - set(self._written):
            if path := self._artifact(name):
                path.unlink()
        self._save_manifest()

    # -- public entry ----------------------------------------------------
    def run(self, stages=None) -> None:
        _keep_freed_memory()
        wanted = list(STAGES) if stages is None else list(stages)
        for stage in wanted:
            if stage not in STAGES:
                raise StageFailure(stage, "unknown stage")
        for stage in [s for s in STAGES if s in wanted]:
            if not self.force and self._stage_done(stage):
                logger.info("stage %s: cached, skipping", stage)
                continue
            start = time.perf_counter()
            logger.info("stage %s: running", stage)
            self._stage, self._read, self._written, self.cfg.reads = stage, [], [], {}
            try:
                facts = getattr(self, f"_run_{stage}")() or {}
            except StageFailure:
                raise
            except Exception as exc:
                raise StageFailure(stage, f"{type(exc).__name__}: {exc}") from exc
            self._record_stage(stage, time.perf_counter() - start, facts)
            logger.info("stage %s: done", stage)
        # all stages may be cached under another config, or an older manifest's keys
        if self.manifest != {**self._header, "stages": self.manifest["stages"]}:
            self._save_manifest()

    # -- stages ----------------------------------------------------------
    def _run_suite(self):
        cfg = self.cfg
        write_suite_csv(make_suite(cfg.problems, cfg.instances, cfg.dimension),
                        self._output("suite.csv"))

    def _suite_keys(self) -> list[Key]:
        """The instance keys of suite.csv, in its row order."""
        return [row_key(row) for row in read_csv(self._input("suite.csv"))[1]]

    def _run_solve(self):
        cfg = self.cfg
        keys = self._suite_keys()
        items = []
        for ci, dcfg in enumerate(cfg.resolved_de_configs()):
            for p, i, d in keys:
                base_seed = derive_seed(cfg.master_seed, SOLVE_SALT, ci, p, i)
                items.append((p, i, d, dcfg, cfg.budget, cfg.n_runs, base_seed))
        de_mod.write_performance_csv(_pmap(_solve_item, items, self.threads, "solve"),
                                     self._output("performance.csv"))

    def _run_features(self):
        cfg = self.cfg
        items = [
            (p, i, d, cfg.sample_size, derive_seed(cfg.master_seed, FEATURES_SALT, p, i, d))
            for p, i, d in self._suite_keys()
        ]
        vectors = _pmap(_feature_item, items, self.threads, "features")
        ela_mod.write_features_csv(vectors, self._output("features.csv"))
        ela_mod.write_schema_json(self._output("feature_schema.json"))
        return {"sanitized": sum(v.sanitized_count for v in vectors)}

    def _run_folds(self):
        cfg = self.cfg
        keys, _ = ela_mod.read_features_csv(self._input("features.csv"))
        fold_of = models_mod.make_folds(keys, cfg.k_folds, derive_seed(cfg.master_seed, FOLDS_SALT))
        write_csv(self._output("folds.csv"), [*KEY_COLUMNS, "test_fold"],
                  ([*key, fold_of[key]] for key in sorted(fold_of)))

    # -- fold models -----------------------------------------------------
    def _fold_data(self):
        """keys, the feature matrix, and each key's target and test fold, aligned."""
        keys, X = ela_mod.read_features_csv(self._input("features.csv"))
        wanted = self.cfg.footprint_config_id
        y_map = de_mod.read_performance_csv(self._input("performance.csv"), wanted)
        if set(keys) - set(y_map):
            raise StageFailure(self._stage, f"performance data missing for config {wanted!r}")
        _, rows = read_csv(self._input("folds.csv"))
        fold_of = {row_key(row): int(row["test_fold"]) for row in rows}
        return keys, X, np.array([y_map[k] for k in keys]), np.array([fold_of[k] for k in keys])

    def _train_seed(self, kind: str, fold_id: int, size: int) -> int:
        """The seed of the `kind` model of a fold on `size` portfolio
        features; size 0 is selection's model, on every feature."""
        cfg = self.cfg
        return derive_seed(cfg.master_seed, TRAIN_SALT, cfg.model_kinds.index(kind), fold_id, size)

    def _fit(self, kind: str, fold_id: int, size: int, X, y):
        """The `kind` model of a fold on `size` portfolio features, fit on X
        and y. Every fold model, selection's included, is fit here."""
        _, field, fit = models_mod.MODELS[kind]
        return fit(X, y, getattr(self.cfg, field), self._train_seed(kind, fold_id, size))

    def _run_train(self):
        cfg = self.cfg
        keys, X, y, test_fold = self._fold_data()
        metrics_rows = []
        predictions: dict[int, list] = {f: [] for f in self._fold_ids()}
        for kind in cfg.model_kinds:
            for fold_id in self._fold_ids():
                train, test = test_fold != fold_id, np.flatnonzero(test_fold == fold_id)
                # selection's model is fit on X[train] itself: a column-gathered
                # copy is F-ordered, and its standardization differs in the last bit
                train_X, train_y = X[train], y[train]
                ranked = shap_mod.select_portfolio(
                    self._fit(kind, fold_id, 0, train_X, train_y), train_X,
                    ela_mod.FEATURE_SCHEMA, self._train_seed(kind, fold_id, 0),
                    SELECTION_PERMUTATIONS,
                )
                write_json(self._output(f"portfolios/{kind}_fold_{fold_id}.json"), {
                    "model_kind": kind,
                    "fold_id": fold_id,
                    "ranking": [{"name": name, "importance": imp} for name, imp in ranked],
                })
                ranked_cols = [ela_mod.FEATURE_SCHEMA.index(name) for name, _ in ranked]
                for size in cfg.portfolio_sizes:
                    cols = ranked_cols[:size]
                    model = self._fit(kind, fold_id, size, train_X[:, cols], train_y)
                    pred = model.predict(X[np.ix_(test, cols)])
                    metrics_rows.append((kind, fold_id, size,
                                         *models_mod.evaluate_model(pred, y[test])))
                    predictions[fold_id] += [
                        (kind, size, *keys[i], y[i], p) for i, p in zip(test, pred)
                    ]
        write_csv(self._output("metrics.csv"),
                  ["model_kind", "fold_id", "portfolio_size", "mae", "r2"], metrics_rows)
        for fold_id, rows in predictions.items():
            write_csv(self._output(f"predictions/fold_{fold_id}.csv"),
                      ["model_kind", "portfolio_size", *KEY_COLUMNS, "true", "predicted"], rows)

    def _read_portfolio(self, kind: str, fold_id: int) -> list[str]:
        payload = json.loads(self._input(f"portfolios/{kind}_fold_{fold_id}.json").read_text())
        return [entry["name"] for entry in payload["ranking"]]

    def _run_explain(self):
        """Refits the footprint model of each fold with _fit, on the same
        matrix as train did, and attributes its test predictions."""
        cfg = self.cfg
        keys, X, y, test_fold = self._fold_data()
        kind, size = cfg.footprint_model, cfg.footprint_portfolio_size
        for fold_id in self._fold_ids():
            train, test = test_fold != fold_id, np.flatnonzero(test_fold == fold_id)
            names = self._read_portfolio(kind, fold_id)[:size]
            cols = [ela_mod.FEATURE_SCHEMA.index(name) for name in names]
            train_X = X[train][:, cols]
            model = self._fit(kind, fold_id, size, train_X, y[train])
            test_keys = [keys[i] for i in test]
            reps = shap_mod.attribute(
                model, X[np.ix_(test, cols)], train_X,
                seeds=[derive_seed(cfg.master_seed, EXPLAIN_SALT, fold_id, p, i)
                       for p, i, _ in test_keys],
                n_permutations=EXPLAIN_PERMUTATIONS,
            )
            write_csv(self._output(f"explanations/fold_{fold_id}.csv"),
                      [*EXPLANATION_COLUMNS, *names],
                      ([*key, rep.base_value, rep.prediction, *rep.phi]
                       for key, rep in zip(test_keys, reps, strict=True)))

    def _read_explanations(self, fold_id: int):
        """The row keys, the phi column names and the (rows, names) phi matrix."""
        header, rows = read_csv(self._input(f"explanations/fold_{fold_id}.csv"))
        names = header[len(EXPLANATION_COLUMNS):]
        phi = np.array([[float(row[name]) for name in names] for row in rows])
        return [row_key(row) for row in rows], names, phi

    def _fold_predictions(self, fold_id: int):
        """The keys and the true and predicted values of the footprint
        model/portfolio size in one fold, as (keys, true, predicted)."""
        cfg = self.cfg
        _, rows = read_csv(self._input(f"predictions/fold_{fold_id}.csv"))
        rows = [row for row in rows if row["model_kind"] == cfg.footprint_model
                and int(row["portfolio_size"]) == cfg.footprint_portfolio_size]
        if not rows:
            raise StageFailure(
                self._stage,
                f"no predictions for model {cfg.footprint_model!r} at portfolio "
                f"size {cfg.footprint_portfolio_size} in fold {fold_id}",
            )
        keys = [row_key(row) for row in rows]
        if len(set(keys)) < len(keys):
            duplicated = sorted(key for key, n in Counter(keys).items() if n > 1)
            raise StageFailure(self._stage,
                               f"duplicate instance keys {duplicated} in fold {fold_id}")
        return (keys, np.array([float(row["true"]) for row in rows]),
                np.array([float(row["predicted"]) for row in rows]))

    def _run_footprint(self):
        """Labels each fold once under footprint.p and once more under each
        sensitivity tolerance, from the same relative errors. It reads only
        train's predictions: their `true` column holds the target of every
        key, so the other folds' rows are a fold's training targets."""
        cfg = self.cfg
        by_fold = {fold_id: self._fold_predictions(fold_id) for fold_id in self._fold_ids()}
        folds, reports = [], []
        for fold_id, (keys, true, predicted) in by_fold.items():
            # an explicit target is already on the labelling scale
            t = cfg.t_value
            if t is None:
                t = fp_mod.compute_target_t(np.concatenate(
                    [other_true for other, (_, other_true, _) in by_fold.items()
                     if other != fold_id]))
                t = 10.0**t if cfg.scale == "raw" else t
            if cfg.scale == "raw":
                # Python's 10.0**v per element: numpy's power can differ in the last bit
                true = np.array([10.0**v for v in true.tolist()])
                predicted = np.array([10.0**v for v in predicted.tolist()])
            rel_err = fp_mod.relative_error(true, predicted)
            labels = fp_mod.footprint_fold(true, rel_err, t, cfg.p)
            folds.append((fold_id, keys, true, predicted, rel_err, labels))
            order = sorted(range(len(keys)), key=keys.__getitem__)
            reports += [(fold_id, cfg.p, p2, [keys[i] for i in order], labels[order],
                         fp_mod.footprint_fold(true, rel_err, t, p2)[order])
                        for p2 in cfg.sensitivity_p]
        fp_mod.write_assignments_csv(cfg.footprint_model, folds, self._output("assignments.csv"))
        if cfg.sensitivity_p:
            fp_mod.write_transitions_csv(reports, self._output("transitions.csv"))

    def _run_report(self):
        cfg = self.cfg
        assigned_keys, assigned_folds, labels = fp_mod.read_assignments_csv(
            self._input("assignments.csv"))
        feature_keys, X = ela_mod.read_features_csv(self._input("features.csv"))
        row_of = {key: i for i, key in enumerate(feature_keys)}

        dist_features: list[str] | None = None
        if isinstance(cfg.distribution_features, list):
            dist_features = list(cfg.distribution_features)

        for fold_id in self._fold_ids():
            keys, names, phi = self._read_explanations(fold_id)
            rows = [row_of[key] for key in keys]
            label_of = {key: label for key, f, label in zip(assigned_keys, assigned_folds, labels)
                        if f == fold_id}
            coords = viz_mod.embed_2d(phi)
            svg = viz_mod.emit_footprint_plot(
                keys, coords, label_of,
                title=f"{models_mod.MODELS[cfg.footprint_model][0]} footprint, fold {fold_id}"
                      " (pca embedding)",
            )
            write_text(self._output(f"figures/footprint_fold_{fold_id}.svg"), svg)
            top_k = min(REPORT_TOP_K, len(names))
            bee_csv, bee_svg = viz_mod.emit_beeswarm_data(
                keys, phi, names,
                X[np.ix_(rows, [ela_mod.FEATURE_SCHEMA.index(name) for name in names])],
                top_k=top_k,
                title=f"top {top_k} features, fold {fold_id}",
            )
            write_text(self._output(f"figures/beeswarm_fold_{fold_id}.csv"), bee_csv)
            write_text(self._output(f"figures/beeswarm_fold_{fold_id}.svg"), bee_svg)
            if dist_features is None:
                dist_features = [name for name, _ in shap_mod.global_importance(phi, names)[:2]]
            for fname in dist_features:
                safe = fname.replace(".", "_")
                svg = viz_mod.emit_feature_distribution(
                    keys, coords, fname, X[rows, ela_mod.FEATURE_SCHEMA.index(fname)],
                    title=f"{fname}, fold {fold_id}",
                )
                write_text(self._output(f"figures/feature_dist_fold_{fold_id}_{safe}.svg"), svg)

        table_txt, table_csv = viz_mod.emit_distribution_table(
            cfg.footprint_model, assigned_folds, assigned_keys, labels)
        write_text(self._output("distribution_table.txt"), table_txt)
        write_text(self._output("distribution_table.csv"), table_csv)
