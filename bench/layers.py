"""Which footprints functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Every wrapped function is public except
``pipeline._sha256``, the one place the stage cache hashes artifacts.
Timed metrics are self times; counts repeat exactly for a fixed seed.
"""

from __future__ import annotations

import hashlib
import inspect

from tracer import Tracer, percentile

CSV_READERS = (
    ("footprints.de", "read_performance_csv"),
    ("footprints.ela", "read_features_csv"),
    ("footprints.footprint", "read_assignments_csv"),
)
CSV_WRITERS = (
    ("footprints.suite", "write_suite_csv"),
    ("footprints.de", "write_performance_csv"),
    ("footprints.ela", "write_features_csv"),
    ("footprints.footprint", "write_assignments_csv"),
    ("footprints.footprint", "write_transitions_csv"),
)
ELA_GROUPS = ("sample_design", "disp", "ic", "nbc", "meta_model", "level", "pca")
VIZ_EMITTERS = ("emit_footprint_plot", "emit_beeswarm_data", "emit_feature_distribution",
                "emit_distribution_table")


def _on_evaluate(tr, args, kwargs, result):
    rows = len(args[1])
    tr.counts["suite.evals"] += rows
    tr.counts["suite.eval_calls"] += 1
    if tr.inside("de.run_de"):
        tr.counts["de.evals"] += rows
        tr.counts["de.eval_calls"] += 1


def _on_run_de(tr, args, kwargs, result):
    tr.counts["de.runs"] += 1


def _on_extract(tr, args, kwargs, result):
    tr.counts["ela.sanitized"] += result.sanitized_count


def _fit_key(bound) -> str:
    h = hashlib.sha256()
    for name, value in sorted(bound.arguments.items()):
        h.update(name.encode())
        if hasattr(value, "tobytes"):
            h.update(repr(value.shape).encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _on_forest_fit(signature):
    seen: set[str] = set()

    def after(tr, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = _fit_key(bound)
        tr.counts["models.forest_fits"] += 1
        tr.counts["models.duplicate_fits"] += key in seen
        seen.add(key)
        tr.counts["models.trees"] += len(result.trees)
        tr.values["models.trees_per_fit"].append(len(result.trees))

    return after


def _on_predict(kind):
    def after(tr, args, kwargs, result):
        tr.counts[f"models.{kind}_predict_calls"] += 1
        tr.counts[f"models.{kind}_predict_rows"] += len(args[1])
        if tr.inside("shapley.sampling_shap"):
            tr.counts["shapley.sampling_predict_calls"] += 1

    return after


def _on_tree_shap(tr, args, kwargs, result):
    tr.counts["shapley.tree_rows"] += len(result)
    tr.values["shapley.efficiency_gap"].extend(rep.efficiency_gap for rep in result)


def _on_sampling_shap(tr, args, kwargs, result):
    tr.counts["shapley.sampling_rows"] += 1
    tr.values["shapley.efficiency_gap"].append(result.efficiency_gap)


def install() -> Tracer:
    """Import footprints and wrap its layers; returns the live tracer."""
    import footprints.cli  # noqa: F401  (loads every module before the search)
    from footprints import models

    tr = Tracer()
    tr.patch_function("footprints.config", "load_config", "config.load_config")
    tr.patch_function("footprints.config", "validate", "config.validate")
    tr.patch_function("footprints.pipeline", "_sha256", "pipeline.sha256")
    for module, attr in CSV_READERS:
        tr.patch_function(module, attr, "pipeline.csv_read")
    for module, attr in CSV_WRITERS:
        tr.patch_function(module, attr, "pipeline.csv_write")
    tr.patch_method("footprints.suite", "ProblemInstance.evaluate_batch", "suite.evaluate_batch",
                    _on_evaluate)
    tr.patch_function("footprints.de", "run_de", "de.run_de", _on_run_de)
    tr.patch_function("footprints.ela", "extract_all", "ela.extract_all", _on_extract)
    tr.patch_function("footprints.ela", "sample_design", "ela.sample_design")
    for group in ELA_GROUPS[1:]:
        tr.patch_function("footprints.ela", f"{group}_features", f"ela.{group}")
    tr.patch_function("footprints.models", "fit_random_forest", "models.fit_random_forest",
                      _on_forest_fit(inspect.signature(models.fit_random_forest)))
    tr.patch_method("footprints.models", "RandomForestModel.predict", "models.forest_predict",
                    _on_predict("forest"))
    tr.patch_method("footprints.models", "KnnModel.predict", "models.knn_predict",
                    _on_predict("knn"))
    tr.patch_function("footprints.models", "fit_kernel", "models.fit_kernel")
    tr.patch_method("footprints.models", "KernelRidgeModel.predict", "models.kernel_predict",
                    _on_predict("kernel"))
    tr.patch_function("footprints.shapley", "select_portfolio", "shapley.select_portfolio")
    tr.patch_function("footprints.shapley", "tree_shap_batch", "shapley.tree_shap_batch",
                      _on_tree_shap)
    tr.patch_function("footprints.shapley", "sampling_shap", "shapley.sampling_shap",
                      _on_sampling_shap)
    tr.patch_function("footprints.footprint", "footprint_fold", "footprint.footprint_fold")
    tr.patch_function("footprints.viz", "embed_2d", "viz.embed_2d")
    for attr in VIZ_EMITTERS:
        tr.patch_function("footprints.viz", attr, "viz.emit")
    return tr


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    st = tr.self_times()
    c = tr.counts

    def s(name):
        return st.get(name, 0.0)

    def ms(values, q):
        return 1000.0 * percentile(values, q)

    run_de = tr.durations("de.run_de")
    fits = tr.durations("models.fit_random_forest")
    per_tree = [d / n for d, n in zip(fits, tr.values["models.trees_per_fit"]) if n]
    sampling = tr.durations("shapley.sampling_shap")
    tree_shap_total = sum(tr.durations("shapley.tree_shap_batch"))
    out = {
        "pipeline.sha256_s": (s("pipeline.sha256"), "s"),
        "pipeline.csv_read_s": (s("pipeline.csv_read"), "s"),
        "pipeline.csv_write_s": (s("pipeline.csv_write"), "s"),
        "suite.evals": (c["suite.evals"], "count"),
        "suite.eval_s": (s("suite.evaluate_batch"), "s"),
        "suite.evals_per_s": (_ratio(c["suite.evals"], s("suite.evaluate_batch")), "1/s"),
        "suite.rows_per_call": (_ratio(c["suite.evals"], c["suite.eval_calls"]), "rows/call"),
        "de.runs": (c["de.runs"], "count"),
        "de.generations": (c["de.eval_calls"] - c["de.runs"], "count"),
        "de.run_ms_p50": (ms(run_de, 50), "ms"),
        "de.run_ms_p90": (ms(run_de, 90), "ms"),
        "de.self_s": (s("de.run_de"), "s"),
        "de.evals_per_s": (_ratio(c["de.evals"], sum(run_de)), "1/s"),
    }
    for group in ELA_GROUPS:
        out[f"ela.{group}_s"] = (s(f"ela.{group}"), "s")
    out.update({
        "ela.instance_ms_p50": (ms(tr.durations("ela.extract_all"), 50), "ms"),
        "ela.sanitized": (c["ela.sanitized"], "count"),
        "models.forest_fits": (c["models.forest_fits"], "count"),
        "models.duplicate_fits": (c["models.duplicate_fits"], "count"),
        "models.trees": (c["models.trees"], "count"),
        "models.forest_fit_s": (s("models.fit_random_forest"), "s"),
        "models.tree_fit_ms_p50": (1000.0 * percentile(per_tree, 50), "ms"),
        "models.forest_predict_rows": (c["models.forest_predict_rows"], "count"),
        "models.forest_predict_s": (s("models.forest_predict"), "s"),
        "models.knn_predict_calls": (c["models.knn_predict_calls"], "count"),
        "models.knn_predict_rows": (c["models.knn_predict_rows"], "count"),
        "models.knn_predict_s": (s("models.knn_predict"), "s"),
        "models.kernel_fit_s": (s("models.fit_kernel"), "s"),
        "models.kernel_predict_rows": (c["models.kernel_predict_rows"], "count"),
        "models.kernel_predict_s": (s("models.kernel_predict"), "s"),
        "shapley.select_s": (s("shapley.select_portfolio"), "s"),
        "shapley.tree_rows": (c["shapley.tree_rows"], "count"),
        "shapley.tree_s": (s("shapley.tree_shap_batch"), "s"),
        "shapley.tree_rows_per_s": (_ratio(c["shapley.tree_rows"], tree_shap_total), "1/s"),
        "shapley.sampling_rows": (c["shapley.sampling_rows"], "count"),
        "shapley.sampling_s": (s("shapley.sampling_shap"), "s"),
        "shapley.sampling_ms_p50": (ms(sampling, 50), "ms"),
        "shapley.sampling_ms_p90": (ms(sampling, 90), "ms"),
        "shapley.predict_calls_per_row": (
            _ratio(c["shapley.sampling_predict_calls"], c["shapley.sampling_rows"]), "calls/row"),
        "shapley.efficiency_gap_max": (max(tr.values["shapley.efficiency_gap"], default=0.0),
                                       "decades"),
        "footprint.fold_s": (s("footprint.footprint_fold"), "s"),
        "viz.embed_s": (s("viz.embed_2d"), "s"),
        "viz.emit_s": (s("viz.emit"), "s"),
        "config.load_s": (s("config.load_config") + s("config.validate"), "s"),
    })
    return out
