import csv
import functools
import hashlib
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import footprints
from footprints.cli import main
from footprints.config import load_config, parse_config, validate
from footprints.errors import ConfigurationError
from footprints.pipeline import STAGES, Pipeline

TINY = {
    "master_seed": 7,
    "suite": {"problems": [1, 2, 24], "instances": [1, 2, 3, 4, 5], "dimension": 2},
    "de": {
        "budget_multiplier": 100,
        "n_runs": 2,
        "configs": [
            {"config_id": "DE1", "strategy": "rand/1/bin", "F": 0.5, "Cr": 0.9}
        ],
    },
    "ela": {"sample_multiplier": 30},
    "model": {"kinds": ["random_forest"], "portfolio_sizes": [10], "k_folds": 5,
              "forest_trees": 20},
    "footprint": {"config_id": "DE1", "model": "random_forest",
                  "portfolio_size": 10, "p": 0.15, "sensitivity_p": [0.05]},
}


def _write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def _settings(cfg) -> dict:
    """The config by dotted key, as manifest.json records it."""
    return json.loads(json.dumps({f.metadata["key"]: getattr(cfg, f.name) for f in fields(cfg)}))


def _digest_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# config parsing and validation

def test_unknown_top_level_key_named():
    with pytest.raises(ConfigurationError, match="bogus"):
        parse_config({"bogus": 1})


def test_unknown_section_key_named():
    with pytest.raises(ConfigurationError, match="footprint.tee"):
        parse_config({"footprint": {"tee": 1.0}})


def test_range_string_ids():
    cfg = parse_config({"suite": {"problems": "1-24"}})
    assert cfg.problems == list(range(1, 25))


def test_validate_p_zero_reported():
    cfg = parse_config({"footprint": {"p": 0.0}})
    issues = validate(cfg)
    assert any("footprint.p" in issue for issue in issues)


def test_validate_fold_rule():
    ok = parse_config({"model": {"k_folds": 5}})
    assert not any("k_folds" in s for s in validate(ok))
    bad = parse_config({"model": {"k_folds": 4}})
    assert any("k_folds" in s for s in validate(bad))


def test_validate_defaults_clean():
    assert validate(parse_config({})) == []


def test_validate_footprint_references():
    cfg = parse_config({"footprint": {"config_id": "DE9"}})
    assert any("DE9" in s for s in validate(cfg))
    cfg = parse_config({"footprint": {"model": "knn"}})
    assert any("knn" in s for s in validate(cfg))
    cfg = parse_config({"footprint": {"portfolio_size": 12}})
    assert any("portfolio_size" in s for s in validate(cfg))


@pytest.mark.parametrize("data, message", [
    ({"master_seed": -1}, "master_seed must be >= 0"),
    ({"model": {"forest_trees": 0}}, "model.forest_trees must be >= 1"),
    ({"de": {"n_runs": 0}}, "de.n_runs must be >= 1"),
    ({"suite": {"dimension": 1}}, "suite.dimension must be >= 2"),
    ({"model": {"kinds": ["random_forest", "boosting"]}},
     "model.kinds contains unknown kind 'boosting'"),
])
def test_validate_minimums_named(data, message):
    assert message in validate(parse_config(data))


def test_validate_budget_vs_population():
    cfg = parse_config({"de": {"budget_multiplier": 1}})
    assert any("budget" in s for s in validate(cfg))


def test_validate_population_size_zero_reported():
    de_config = {"config_id": "DE1", "strategy": "rand/1/bin", "F": 0.5, "Cr": 0.9}
    cfg = parse_config({"de": {"configs": [dict(de_config, population_size=0)]}})
    assert any(s.startswith("de.configs invalid: population_size 0 ") for s in validate(cfg))
    # null keeps the default population
    cfg = parse_config({"de": {"configs": [dict(de_config, population_size=None)]}})
    assert validate(cfg) == []


def test_validate_names_each_incomplete_de_config():
    # a bad but complete entry is not built while another entry is incomplete
    cfg = parse_config({"de": {"configs": [
        {"config_id": "DE1", "strategy": "rand/1/bin", "Cr": 0.9},
        {"config_id": "DE2", "strategy": "rand/1/bin", "F": 0.5, "Cr": 0.9, "population_size": 0},
        {"config_id": "DE3"},
    ]}})
    assert validate(cfg) == ["de.configs[0] is missing F",
                             "de.configs[2] is missing strategy, F, Cr"]


def test_validate_knn_neighbors_against_fold_training_size():
    # each fold trains on 3 problems x (5 - 1) instances = 12 rows
    model = {"kinds": ["random_forest", "knn"], "knn_neighbors": 13}
    cfg = parse_config({"suite": {"problems": [1, 2, 3]}, "model": model})
    assert any(s.startswith("model.knn_neighbors (13) ") for s in validate(cfg))
    cfg.knn_neighbors = 12
    assert validate(cfg) == []
    cfg.model_kinds = ["random_forest"]
    cfg.knn_neighbors = 13
    assert validate(cfg) == []


def test_validate_unknown_distribution_feature_reported():
    cfg = parse_config({"report": {"distribution_features": ["disp.ratio_mean_02",
                                                             "bogus.feature"]}})
    assert validate(cfg) == [
        "report.distribution_features contains unknown features ['bogus.feature']"]


def test_distribution_features_accepts_only_auto_or_a_list():
    assert validate(parse_config({"report": {"distribution_features": "auto"}})) == []
    with pytest.raises(ConfigurationError) as info:
        parse_config({"report": {"distribution_features": "bogus"}})
    assert str(info.value) == (
        "config key report.distribution_features: expected 'auto' or a list, got 'bogus'")


@pytest.mark.parametrize("model, message", [
    ({"portfolio_sizes": [30, 30], "kinds": ["random_forest"]},
     "model.portfolio_sizes must not repeat an entry; got [30, 30]"),
    ({"portfolio_sizes": [30], "kinds": ["random_forest", "random_forest"]},
     "model.kinds must not repeat an entry; got ['random_forest', 'random_forest']"),
    # a portfolio is the first `size` ranked features: past the catalog's 43,
    # 50 and 64 both take all of them (30 is footprint.portfolio_size)
    ({"portfolio_sizes": [30, 50, 64], "kinds": ["random_forest"]},
     "model.portfolio_sizes must not repeat an entry; got [30, 50, 64], "
     "which count as [30, 43, 43]"),
])
def test_validate_repeated_model_entries_reported(model, message):
    assert validate(parse_config({"model": model})) == [message]


def test_validate_repeated_sensitivity_tolerance_reported():
    # each tolerance relabels every key once, so a repeat wrote each transition twice
    cfg = parse_config({"footprint": {"sensitivity_p": [0.05, 0.1, 0.05]}})
    assert validate(cfg) == [
        "footprint.sensitivity_p must not repeat an entry; got [0.05, 0.1, 0.05]"]


DEFAULTS = {
    "master_seed": 0,
    "suite.problems": list(range(1, 25)),
    "suite.instances": [1, 2, 3, 4, 5],
    "suite.dimension": 10,
    "de.budget_multiplier": 500,
    "de.n_runs": 30,
    "de.configs": [],
    "ela.sample_multiplier": 100,
    "model.kinds": ["random_forest"],
    "model.portfolio_sizes": [30],
    "model.k_folds": 5,
    "model.forest_trees": 100,
    "model.knn_neighbors": 5,
    "model.kernel_penalty": 0.001,
    "footprint.config_id": "DE1",
    "footprint.model": "random_forest",
    "footprint.portfolio_size": 30,
    "footprint.p": 0.15,
    "footprint.t_value": None,
    "footprint.scale": "log",
    "footprint.sensitivity_p": [],
    "report.distribution_features": "auto",
}


def _assert_settings(cfg, expected):
    # a results directory records these values, so a change here changes what
    # an old manifest.json means; 1 == 1.0, but their JSON differs
    assert _settings(cfg) == expected
    assert json.dumps(_settings(cfg), sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_config_defaults_pinned():
    _assert_settings(parse_config({}), DEFAULTS)


DE1 = {"config_id": "DE1", "strategy": "rand/1/bin", "F": 0.5, "Cr": 0.9}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, changed", [
    ("desk.yaml", {"master_seed": 2024, "suite.dimension": 5, "de.n_runs": 5,
                   "de.configs": [DE1], "footprint.sensitivity_p": [0.05]}),
    ("smoke.yaml", {"master_seed": 7, "suite.problems": [1, 2, 24], "suite.dimension": 2,
                    "de.budget_multiplier": 100, "de.n_runs": 2, "de.configs": [DE1],
                    "ela.sample_multiplier": 30, "model.portfolio_sizes": [10],
                    "model.forest_trees": 20, "footprint.portfolio_size": 10,
                    "footprint.sensitivity_p": [0.05]}),
    ("full.yaml", {"master_seed": 1, "model.kinds": ["random_forest", "knn", "kernel"],
                   "model.portfolio_sizes": [10, 20, 30, 40, 50],
                   "footprint.sensitivity_p": [0.05]}),
])
def test_committed_configs_pinned(name, changed):
    _assert_settings(load_config(CONFIGS / name), dict(DEFAULTS, **changed))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_committed_configs_validate(path):
    assert validate(load_config(path)) == []


def test_null_and_empty_keep_defaults():
    cfg = parse_config({"de": {"configs": None, "n_runs": None},
                        "footprint": {"t_value": None, "sensitivity_p": []}})
    assert cfg == parse_config({})
    assert parse_config({"de": {"configs": []}}) == parse_config({})


@pytest.mark.parametrize("data, message", [
    ({"bogus": 1}, "unknown config key: 'bogus'"),
    ({"footprint": {"tee": 1.0}}, "unknown config key: footprint.tee"),
    ({"suite": [1, 2]}, "config section 'suite' must be a mapping"),
    ({"de": {"configs": [3]}}, "de.configs[0] must be a mapping"),
    ({"de": {"configs": [{"config_id": "DE1", "f": 0.5}]}},
     "unknown config key: de.configs[0].f"),
    # de.configs entries are typed like every other key: no truncation, no bool as 1.0
    ({"de": {"configs": [{"config_id": "DE1", "population_size": 20.7}]}},
     "config key de.configs[0].population_size: expected an integer, got 20.7"),
    ({"de": {"configs": [{"config_id": "DE1"}, {"config_id": "DE2", "F": True}]}},
     "config key de.configs[1].F: expected a finite number, got True"),
    # constants of the pipeline, not settings: SELECTION_PERMUTATIONS, REPORT_TOP_K
    ({"model": {"selection_permutations": 64}},
     "unknown config key: model.selection_permutations"),
    ({"report": {"top_k": 10}}, "unknown config key: report.top_k"),
    # a null footprint.t_value is the training median, a number the target itself
    ({"footprint": {"t_mode": "explicit"}}, "unknown config key: footprint.t_mode"),
    # only null keeps a section's defaults: a falsy non-mapping is an error
    ({"model": []}, "config section 'model' must be a mapping"),
    ({"model": 0}, "config section 'model' must be a mapping"),
    ({"model": False}, "config section 'model' must be a mapping"),
    ([], "config root must be a mapping"),
    (False, "config root must be a mapping"),
])
def test_key_error_messages_exact(data, message):
    with pytest.raises(ConfigurationError) as info:
        parse_config(data)
    assert str(info.value) == message


@pytest.mark.parametrize("data, key", [
    ({"suite": {"dimension": "ten"}}, "suite.dimension"),
    ({"model": {"kinds": "knn"}}, "model.kinds"),
    ({"model": {"portfolio_sizes": "35"}}, "model.portfolio_sizes"),
    ({"footprint": {"sensitivity_p": 0.05}}, "footprint.sensitivity_p"),
    ({"footprint": {"p": "tight"}}, "footprint.p"),
    ({"suite": {"problems": [1, "two"]}}, "suite.problems"),
    ({"master_seed": 1.5}, "master_seed"),
    ({"report": {"distribution_features": "bogus"}}, "report.distribution_features"),
    ({"report": {"distribution_features": "disp.ratio_mean_02"}},
     "report.distribution_features"),
    ({"model": {"kernel_penalty": float("nan")}}, "model.kernel_penalty"),
    ({"model": {"kernel_penalty": float("inf")}}, "model.kernel_penalty"),
    ({"footprint": {"sensitivity_p": [0.05, -float("inf")]}}, "footprint.sensitivity_p"),
    ({"footprint": {"t_value": "1e400"}}, "footprint.t_value"),
    # a single id never passes validate: fewer than 3 problems, or k_folds = 1
    ({"suite": {"problems": 5}}, "suite.problems"),
])
def test_malformed_value_names_key(data, key):
    with pytest.raises(ConfigurationError, match=f"^config key {key}: "):
        parse_config(data)


def test_yaml_exponent_strings_read_as_numbers():
    # YAML 1.1 reads 1e-3 (no dot) as a string
    cfg = parse_config(yaml.safe_load("model: {kernel_penalty: 1e-3}"))
    assert cfg.kernel_penalty == 1e-3


def test_validate_needs_three_problems():
    cfg = parse_config({"suite": {"problems": [1, 2]}})
    assert any("suite.problems" in s for s in validate(cfg))
    assert not validate(parse_config({"suite": {"problems": [1, 2, 3]}}))


@pytest.mark.parametrize("text, defaults", [("", True), ("null\n", True), ("{}\n", True),
                                           ("[]\n", False), ("false\n", False)])
def test_load_config_of_an_empty_or_non_mapping_root(tmp_path, text, defaults):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    if defaults:
        assert load_config(path) == parse_config({})
    else:
        with pytest.raises(ConfigurationError, match="^config root must be a mapping$"):
            load_config(path)


def test_load_config_from_file(tmp_path):
    path = _write_config(tmp_path, TINY)
    cfg = load_config(path)
    assert cfg.problems == [1, 2, 24]
    assert cfg.budget == 200


# ---------------------------------------------------------------------------
# CLI behaviour

def test_cli_validate_ok(tmp_path, capsys):
    path = _write_config(tmp_path, TINY)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = dict(TINY)
    bad["footprint"] = dict(TINY["footprint"], p=0.0)
    path = _write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == 1
    assert "footprint.p" in capsys.readouterr().out


@pytest.mark.parametrize("bad, code, out", [
    (False, 0, "config OK"),
    (True, 1, "violation: footprint.p must be in (0, 1]; got 0.0"),
])
def test_python_dash_m_footprints_runs_the_cli(tmp_path, bad, code, out):
    config = (_write_config(tmp_path, dict(TINY, footprint=dict(TINY["footprint"], p=0.0))) if bad
              else CONFIGS / "smoke.yaml")
    # the child imports the same package as this test, installed or not
    src = str(Path(footprints.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "footprints", "validate", "--config", str(config)]
    done = subprocess.run(command, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == code, done.stderr
    assert out in done.stdout


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # the runtime needs numpy and PyYAML alone; scipy is a test dependency
    src = str(Path(footprints.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import footprints.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_unknown_key_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, dict(TINY, mystery=1))
    assert main(["validate", "--config", str(path)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_cli_malformed_value_is_config_error(tmp_path, capsys):
    bad = dict(TINY, suite=dict(TINY["suite"], dimension="ten"))
    path = _write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error: config key suite.dimension: " in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(yaml.safe_dump(TINY).encode() + b"# caf\x80\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config file: ")


def test_cli_two_problems_rejected_by_validate(tmp_path, capsys):
    bad = dict(TINY, suite=dict(TINY["suite"], problems=[1, 2]))
    path = _write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == 1
    assert "suite.problems" in capsys.readouterr().out


def test_cli_missing_inputs_is_stage_failure(tmp_path, capsys):
    path = _write_config(tmp_path, TINY)
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "train" in capsys.readouterr().err


def test_cli_unusable_out_is_a_one_line_error(tmp_path, capsys):
    path = _write_config(tmp_path, TINY)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    assert main(["suite", "--config", str(path), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot use --out {taken}: ") and err.count("\n") == 1
    assert taken.read_text() == "a file"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_is_config_error(tmp_path, capsys, threads):
    path = _write_config(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(path), "--out", str(out),
                 "--threads", threads]) == 1
    assert capsys.readouterr().err == f"config error: threads must be >= 1, got {threads}\n"
    assert not out.exists()


def test_cli_invalid_config_blocks_pipeline(tmp_path, capsys):
    bad = dict(TINY)
    bad["model"] = dict(TINY["model"], k_folds=4)
    path = _write_config(tmp_path, bad)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_cli_knn_neighbors_over_training_size_blocks_pipeline(tmp_path, capsys):
    bad = dict(TINY, model=dict(TINY["model"], kinds=["random_forest", "knn"],
                                knn_neighbors=13))
    path = _write_config(tmp_path, bad)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 1
    assert "model.knn_neighbors" in capsys.readouterr().err
    assert not (out / "suite.csv").exists()


@pytest.mark.parametrize("section, values, key", [
    ("report", {"distribution_features": ["bogus.feature"]}, "report.distribution_features"),
    ("model", dict(TINY["model"], portfolio_sizes=[10, 10]), "model.portfolio_sizes"),
    ("model", dict(TINY["model"], kinds=["random_forest", "random_forest"]), "model.kinds"),
    ("report", {"distribution_features": "bogus"}, "report.distribution_features"),
    ("model", dict(TINY["model"], kinds=["random_forest", "kernel"],
                   kernel_penalty=float("nan")), "model.kernel_penalty"),
    ("footprint", dict(TINY["footprint"], sensitivity_p=[0.05, 0.05]),
     "footprint.sensitivity_p"),
    ("report", {"distribution_features": ["pca.expl_var.cov_x", "pca.expl_var.cov_x"]},
     "report.distribution_features must not repeat an entry"),
])
def test_cli_late_failing_config_blocks_pipeline(tmp_path, capsys, section, values, key):
    # each of these used to pass validate, then fail in the footprint or report stage,
    # or, for a bare string, be read as auto, or, for a repeated tolerance or
    # distribution feature, write every transition or figure twice
    path = _write_config(tmp_path, dict(TINY, **{section: values}))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "suite.csv").exists()


# ---------------------------------------------------------------------------
# pipeline end to end (tiny scale)

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    config_path = _write_config(root, TINY)
    out = root / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == 0
    return config_path, out


def test_pipeline_produces_all_artifacts(tiny_run):
    _, out = tiny_run
    for name in (
        "suite.csv", "performance.csv", "features.csv", "feature_schema.json",
        "folds.csv", "metrics.csv", "assignments.csv", "transitions.csv",
        "manifest.json", "distribution_table.txt", "distribution_table.csv",
    ):
        assert (out / name).exists(), name
    for fold in range(1, 6):
        assert (out / f"predictions/fold_{fold}.csv").exists()
        assert (out / f"explanations/fold_{fold}.csv").exists()
        assert (out / f"figures/footprint_fold_{fold}.svg").exists()


def test_pipeline_assignment_count(tiny_run):
    _, out = tiny_run
    with open(out / "assignments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15  # 3 problems x 5 instances
    assert {r["fold_id"] for r in rows} == {"1", "2", "3", "4", "5"}


def test_pipeline_rerun_identical_digests(tiny_run, tmp_path):
    config_path, out = tiny_run
    out2 = tmp_path / "rerun"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out2)]) == 0
    assert _digest_tree(out) == _digest_tree(out2)


def _stages_run(config_path, out, caplog) -> list[str]:
    """Run the whole pipeline over `out`; the stages that were not cached."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="footprints.pipeline"):
        assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == 0
    messages = [rec.getMessage() for rec in caplog.records]
    return [m.split()[1].rstrip(":") for m in messages if m.endswith(": running")]


def test_pipeline_resume_skips_stages(tiny_run, caplog):
    config_path, out = tiny_run
    assert _stages_run(config_path, out, caplog) == []
    assert sum("cached" in rec.message for rec in caplog.records) == 8


def test_stage_records_from_older_version_rerun(tiny_run, tmp_path, caplog):
    config_path, out = tiny_run
    stale = tmp_path / "stale"
    shutil.copytree(out, stale)
    manifest = json.loads((stale / "manifest.json").read_text())
    for record in manifest["stages"].values():
        record["version"] = "0.1.0"
    (stale / "manifest.json").write_text(json.dumps(manifest))
    assert "solve" in _stages_run(config_path, stale, caplog)
    assert _digest_tree(stale) == _digest_tree(out)


def test_changed_performance_reruns_downstream_stages(tiny_run, tmp_path, caplog):
    # as after `solve --force` under a new code version: performance.csv and
    # the solve record change together, the config does not
    from footprints.csvio import read_csv, write_csv

    config_path, out = tiny_run
    changed = tmp_path / "changed"
    shutil.copytree(out, changed)
    perf = changed / "performance.csv"
    header, rows = read_csv(perf)
    write_csv(perf, header,
              ([-float(v) if name == "median_log_precision" else v for name, v in row.items()]
               for row in rows))
    manifest = json.loads((changed / "manifest.json").read_text())
    manifest["stages"]["solve"]["outputs"]["performance.csv"] = (
        hashlib.sha256(perf.read_bytes()).hexdigest()
    )
    (changed / "manifest.json").write_text(json.dumps(manifest))
    assert _stages_run(config_path, changed, caplog) == [
        "train", "explain", "footprint", "report"
    ]
    assert ((changed / "predictions/fold_1.csv").read_bytes()
            != (out / "predictions/fold_1.csv").read_bytes())
    assert _stages_run(config_path, changed, caplog) == []


def test_exception_inside_stage_is_stage_failure(tiny_run, tmp_path, capsys):
    # a fold whose explanations hold two rows cannot be embedded in 2-D
    config_path, out = tiny_run
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    explanations = broken / "explanations/fold_1.csv"
    explanations.write_text("".join(explanations.read_text().splitlines(True)[:3]))
    code = main(["report", "--config", str(config_path), "--out", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'report' failed: ContractViolation: embedding needs at least 3 rows" in err


def test_configuration_error_inside_stage_is_stage_failure(tiny_run, tmp_path, capsys):
    # a problem left with four feature rows cannot be split into five folds
    config_path, out = tiny_run
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    features = broken / "features.csv"
    features.write_text("".join(features.read_text().splitlines(True)[:-1]))
    code = main(["folds", "--config", str(config_path), "--out", str(broken)])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'folds' failed: ConfigurationError: every problem needs exactly k=5" in err


@pytest.mark.parametrize("stage", ["train", "explain"])
def test_missing_targets_fail_train_and_explain_alike(tiny_run, tmp_path, capsys, stage):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    performance = copy / "performance.csv"
    performance.write_text(performance.read_text().replace("DE1,", "DE2,"))
    assert main([stage, "--config", str(config_path), "--out", str(copy), "--force"]) == 2
    err = capsys.readouterr().err
    assert f"stage {stage!r} failed: performance data missing for config 'DE1'" in err


def test_explain_refits_the_kernel_model_train_scored(tmp_path, monkeypatch):
    # explain attributes the model whose predictions train scored: the same
    # training matrix down to its memory layout, so the standardization and
    # the ridge solve agree to the last bit
    from footprints import models

    data = dict(TINY, model=dict(TINY["model"], kinds=["kernel"]),
                footprint=dict(TINY["footprint"], model="kernel"))
    pipe = Pipeline(parse_config(data), tmp_path / "run", threads=1)
    pipe.run(["suite", "solve", "features", "folds"])
    fit_kernel = models.fit_kernel

    def recording(log):
        def fit(X, y, *, penalty):
            model = fit_kernel(X, y, penalty=penalty)
            log.append(model)
            return model
        return fit

    train_fits, explain_fits = [], []
    monkeypatch.setattr(models, "fit_kernel", recording(train_fits))
    pipe.run(["train"])
    monkeypatch.setattr(models, "fit_kernel", recording(explain_fits))
    pipe.run(["explain"])
    # train fits selection's model, then the one portfolio size, per fold
    trained = train_fits[1::2]
    assert len(train_fits) == 10 and len(explain_fits) == 5
    for model, reference in zip(explain_fits, trained):
        for attr in ("coef", "mean", "std", "X_train"):
            assert getattr(model, attr).tobytes() == getattr(reference, attr).tobytes(), attr
        assert (model.bandwidth, model.y_mean) == (reference.bandwidth, reference.y_mean)


def test_sampling_portfolios_rank_a_model_fit_on_the_train_rows(tmp_path):
    # selection's model is fit on X[train] itself: a column-gathered copy is
    # F-ordered, and its standardization differs in the last bit
    from footprints import ela, models
    from footprints.pipeline import SELECTION_PERMUTATIONS
    from footprints.seeding import TRAIN_SALT, derive_seed
    from footprints.shapley import select_portfolio

    assert SELECTION_PERMUTATIONS == 64
    data = dict(TINY, model=dict(TINY["model"], kinds=["knn", "kernel"]),
                footprint=dict(TINY["footprint"], model="knn"))
    cfg = parse_config(data)
    pipe = Pipeline(cfg, tmp_path / "run", threads=1)
    pipe.run(["suite", "solve", "features", "folds", "train"])
    _, X, y, test_fold = pipe._fold_data()
    fits = {"knn": lambda X, y: models.fit_knn(X, y, k_neighbors=cfg.knn_neighbors),
            "kernel": lambda X, y: models.fit_kernel(X, y, penalty=cfg.kernel_penalty)}
    for ki, kind in enumerate(cfg.model_kinds):
        for fold_id in range(1, cfg.k_folds + 1):
            train = test_fold != fold_id
            expected = select_portfolio(
                fits[kind](X[train], y[train]), X[train], ela.FEATURE_SCHEMA,
                derive_seed(cfg.master_seed, TRAIN_SALT, ki, fold_id, 0),
                SELECTION_PERMUTATIONS)
            payload = json.loads((tmp_path / f"run/portfolios/{kind}_fold_{fold_id}.json")
                                 .read_text())
            assert [(e["name"], e["importance"]) for e in payload["ranking"]] == expected


@pytest.mark.parametrize("kind", ["knn", "kernel"])
def test_sampling_explanations_attribute_the_fold_model_with_the_explain_seeds(tmp_path, kind):
    # a footprint model that is not a forest: each test row gets
    # EXPLAIN_PERMUTATIONS permutations, seeded from EXPLAIN_SALT and its key
    from footprints import ela, models
    from footprints.csvio import read_csv, row_key
    from footprints.pipeline import EXPLAIN_PERMUTATIONS, EXPLANATION_COLUMNS
    from footprints.seeding import EXPLAIN_SALT, derive_seed
    from footprints.shapley import attribute

    assert EXPLAIN_PERMUTATIONS == 256
    data = dict(TINY, model=dict(TINY["model"], kinds=[kind]),
                footprint=dict(TINY["footprint"], model=kind))
    cfg = parse_config(data)
    run = tmp_path / "run"
    pipe = Pipeline(cfg, run, threads=1)
    pipe.run(["suite", "solve", "features", "folds", "train", "explain"])
    keys, X, y, test_fold = pipe._fold_data()
    fits = {"knn": lambda X, y: models.fit_knn(X, y, k_neighbors=cfg.knn_neighbors),
            "kernel": lambda X, y: models.fit_kernel(X, y, penalty=cfg.kernel_penalty)}
    for fold_id in range(1, cfg.k_folds + 1):
        train, test = test_fold != fold_id, np.flatnonzero(test_fold == fold_id)
        ranking = json.loads((run / f"portfolios/{kind}_fold_{fold_id}.json").read_text())
        names = [entry["name"] for entry in ranking["ranking"]][:cfg.footprint_portfolio_size]
        cols = [ela.FEATURE_SCHEMA.index(name) for name in names]
        train_X = X[train][:, cols]
        seeds = [derive_seed(cfg.master_seed, EXPLAIN_SALT, fold_id, *keys[i][:2]) for i in test]
        reps = attribute(fits[kind](train_X, y[train]), X[np.ix_(test, cols)], train_X, seeds,
                         EXPLAIN_PERMUTATIONS)
        header, rows = read_csv(run / f"explanations/fold_{fold_id}.csv")
        assert header == [*EXPLANATION_COLUMNS, *names]
        assert [row_key(row) for row in rows] == [keys[i] for i in test]
        for row, rep in zip(rows, reps, strict=True):
            assert [float(row[name]) for name in header[3:]] == [
                rep.base_value, rep.prediction, *rep.phi.tolist()]


def _fail_on_problem_2(item):
    if item[0] == 2:
        raise ValueError("boom")
    return item


@pytest.mark.parametrize("threads", [1, 2])
def test_pmap_failure_names_stage_and_item(threads):
    from footprints.pipeline import StageFailure, _pmap

    items = [(1, 1), (1, 2), (2, 3), (3, 1)]
    assert _pmap(_fail_on_problem_2, items[:2], threads, "solve") == items[:2]
    with pytest.raises(StageFailure) as info:
        _pmap(_fail_on_problem_2, items, threads, "solve")
    assert info.value.stage == "solve"
    assert str(info.value) == "stage 'solve' failed: problem 2, instance 3: ValueError: boom"


@pytest.mark.parametrize("threads, n_items, workers", [
    (8, 3, 3), (2, 5, 2), (4, 1, None), (1, 4, None), (3, 0, None),
])
def test_pmap_starts_no_more_workers_than_items(monkeypatch, threads, n_items, workers):
    from footprints import pipeline

    started = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingExecutor)
    items = [(1, i) for i in range(1, n_items + 1)]
    assert pipeline._pmap(_fail_on_problem_2, items, threads, "solve") == items
    assert started == ([] if workers is None else [workers])


@functools.cache
def _first_big_buffer_on_heap():
    """Whether this process's first 24 MiB buffer lies below the program
    break. glibc maps a fresh process's buffers of 128 KiB or more; under
    `_keep_freed_memory` the heap serves them up to 32 MiB."""
    import ctypes

    sbrk = ctypes.CDLL(None).sbrk
    sbrk.argtypes, sbrk.restype = (ctypes.c_ssize_t,), ctypes.c_void_p
    return np.empty(3 << 20).ctypes.data < sbrk(0)


def _with_first_big_buffer(item):
    return item, _first_big_buffer_on_heap()


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_pmap_workers_keep_freed_memory_under_spawn(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from footprints import pipeline

    def spawn_pool(**kwargs):
        return ProcessPoolExecutor(mp_context=get_context("spawn"), **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", spawn_pool)
    items = [(1, i) for i in range(1, 5)]
    assert pipeline._pmap(_with_first_big_buffer, items, 2, "solve") == [
        (item, True) for item in items]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_pipeline_run_keeps_freed_memory_in_process(tmp_path):
    # at --threads 1 no pool worker runs the allocator rule; run applies it
    # in the pipeline's own process, which must be fresh to show it
    src = str(Path(footprints.__file__).resolve().parents[1])
    paths = [src, str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys; from footprints.config import load_config; "
            "from footprints.pipeline import Pipeline; "
            "from test_cli import _first_big_buffer_on_heap; "
            "Pipeline(load_config(sys.argv[1]), sys.argv[2], threads=1).run(['suite']); "
            "print(_first_big_buffer_on_heap())")
    done = subprocess.run([sys.executable, "-c", code, str(CONFIGS / "smoke.yaml"),
                           str(tmp_path / "run")], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_pipeline_run_of_no_stages_writes_only_the_manifest(tmp_path):
    Pipeline(parse_config(TINY), tmp_path / "run", threads=1).run([])
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["manifest.json"]
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"] == {}


def test_pipeline_manifest_contents(tiny_run):
    _, out = tiny_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "stages", "tool_version"]
    assert manifest["config"] == _settings(parse_config(TINY))
    assert set(manifest["stages"]) == {
        "suite", "solve", "features", "folds", "train", "explain", "footprint", "report"
    }
    for record in manifest["stages"].values():
        assert record["outputs"]
    assert manifest["stages"]["features"]["sanitized"] == 0


def test_every_artifact_is_the_output_of_one_stage(tiny_run):
    _, out = tiny_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    owners = Counter(name for record in stages.values() for name in record["outputs"])
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(owners) == files - {"manifest.json"}
    assert set(owners.values()) == {1}


def test_recorded_inputs_are_the_files_each_stage_reads(tiny_run):
    _, out = tiny_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    folds = range(1, 6)
    upstream = ["features.csv", "performance.csv", "folds.csv"]
    assert {stage: sorted(record["inputs"]) for stage, record in stages.items()} == {
        "suite": [],
        "solve": ["suite.csv"],
        "features": ["suite.csv"],
        "folds": ["features.csv"],
        "train": sorted(upstream),
        "explain": sorted(upstream + [f"portfolios/random_forest_fold_{f}.json" for f in folds]),
        "footprint": [f"predictions/fold_{f}.csv" for f in folds],
        "report": sorted(["assignments.csv", "features.csv"]
                         + [f"explanations/fold_{f}.csv" for f in folds]),
    }


def test_recorded_config_keys_are_the_fields_each_stage_reads(tiny_run):
    _, out = tiny_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    seeded = ["master_seed", "model.k_folds", "model.kinds", "model.forest_trees",
              "footprint.config_id"]
    assert {stage: sorted(record["config"]) for stage, record in stages.items()} == {
        "suite": ["suite.dimension", "suite.instances", "suite.problems"],
        "solve": ["de.budget_multiplier", "de.configs", "de.n_runs", "master_seed",
                  "suite.dimension"],
        "features": ["ela.sample_multiplier", "master_seed", "suite.dimension"],
        "folds": ["master_seed", "model.k_folds"],
        "train": sorted(seeded + ["model.portfolio_sizes"]),
        "explain": sorted(seeded + ["footprint.model", "footprint.portfolio_size"]),
        "footprint": ["footprint.model", "footprint.p", "footprint.portfolio_size",
                      "footprint.scale", "footprint.sensitivity_p", "footprint.t_value",
                      "model.k_folds"],
        "report": ["footprint.model", "model.k_folds", "report.distribution_features"],
    }
    assert stages["footprint"]["config"]["footprint.p"] == 0.15
    assert stages["solve"]["config"]["de.configs"] == TINY["de"]["configs"]


@pytest.mark.parametrize("section, key, value, expected", [
    # at 0.25 two more keys are model-good; at 0.2 the labels, and so report, stay cached
    ("footprint", "p", 0.25, ["footprint", "report"]),
    ("report", "distribution_features", ["disp.ratio_mean_02"], ["report"]),
    ("de", "n_runs", 3, ["solve", "train", "explain", "footprint", "report"]),
    # t = 0 moves problem 24's keys below the training median to algorithm-poor
    ("footprint", "t_value", 0.0, ["footprint", "report"]),
])
def test_config_change_reruns_the_stages_that_read_it(tiny_run, tmp_path, caplog,
                                                       section, key, value, expected):
    # a stage reruns when a field it read changed, or when one of its input files did
    _, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = dict(TINY, **{section: dict(TINY.get(section, {}), **{key: value})})
    changed = _write_config(tmp_path, data)
    assert _stages_run(changed, copy, caplog) == expected
    assert _stages_run(changed, copy, caplog) == []
    assert json.loads((copy / "manifest.json").read_text())["config"] == (
        _settings(parse_config(data)))


def test_records_holding_a_config_digest_rerun_once(tiny_run, tmp_path, caplog):
    # the records of an older manifest name the whole config's digest, not the fields read
    config_path, out = tiny_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    manifest = json.loads((old / "manifest.json").read_text())
    for record in manifest["stages"].values():
        del record["config"]
        record["config_digest"] = (
            "c8b82a35294b53f72f62f01f333c1a3f535660892c7bcf363d23b6141c9fd72f")
    (old / "manifest.json").write_text(json.dumps(manifest))
    assert _stages_run(config_path, old, caplog) == list(STAGES)
    assert _digest_tree(old) == _digest_tree(out)
    assert _stages_run(config_path, old, caplog) == []


def test_rerun_with_fewer_folds_removes_the_stale_fold_outputs(tiny_run, tmp_path, caplog):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = dict(TINY, suite=dict(TINY["suite"], instances=[1, 2, 3, 4]),
                model=dict(TINY["model"], k_folds=4))
    assert _stages_run(_write_config(tmp_path, data), copy, caplog) == list(STAGES)
    files = {str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()}
    assert not [name for name in files if "fold_5" in name]
    stages = json.loads((copy / "manifest.json").read_text())["stages"]
    assert files - {"manifest.json"} == {
        name for record in stages.values() for name in record["outputs"]}


def test_stale_output_removal_stays_inside_the_run_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "outside.txt").write_text("keep")
    (out / "stale.txt").write_text("stale")
    (out / "manifest.json").write_text(json.dumps({"stages": {"suite": {
        "outputs": {"suite.csv": "0", "stale.txt": "0", "../outside.txt": "0"}}}}))
    assert main(["suite", "--config", str(_write_config(tmp_path, TINY)),
                 "--out", str(out)]) == 0
    assert (tmp_path / "outside.txt").read_text() == "keep"
    assert not (out / "stale.txt").exists()


@pytest.mark.parametrize("where", ["relative", "absolute"])
def test_cache_check_ignores_a_record_naming_a_file_outside_the_run_directory(
        tmp_path, caplog, where):
    # the file and its digest match, but only files inside --out are artifacts
    out = tmp_path / "out"
    config = ["--config", str(_write_config(tmp_path, TINY)), "--out", str(out)]
    assert main(["suite", *config]) == 0
    outside = tmp_path / "outside.txt"
    outside.write_text("not an artifact")
    name = "../outside.txt" if where == "relative" else str(outside)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"]["suite"]["outputs"][name] = hashlib.sha256(outside.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    with caplog.at_level(logging.INFO, logger="footprints.pipeline"):
        assert main(["suite", *config]) == 0
    assert "stage suite: running" in caplog.text
    assert outside.read_text() == "not an artifact"
    record = json.loads((out / "manifest.json").read_text())["stages"]["suite"]
    assert list(record["outputs"]) == ["suite.csv"]


def test_cache_check_reruns_a_stage_whose_record_names_a_directory(tmp_path, caplog):
    out = tmp_path / "out"
    config = ["--config", str(_write_config(tmp_path, TINY)), "--out", str(out)]
    assert main(["suite", *config]) == 0
    (out / "sub").mkdir()
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"]["suite"]["outputs"]["sub"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    with caplog.at_level(logging.INFO, logger="footprints.pipeline"):
        assert main(["suite", *config]) == 0
    assert "stage suite: running" in caplog.text
    assert (out / "sub").is_dir()


def test_each_stage_records_the_files_it_opens_for_reading(tmp_path, monkeypatch):
    # an oracle for the recorded inputs: every file under --out that a
    # stage's _run_* method opens for reading, whether through _input or not
    import builtins
    import io

    out = (tmp_path / "out").resolve()
    opened: dict[str, set] = {}
    running: list[set] = []
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if running and isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            path = Path(file).resolve()
            if path.is_relative_to(out):
                running[-1].add(str(path.relative_to(out)))
        return real_open(file, mode, *args, **kwargs)

    def watching(stage, run):
        def wrapper(self):
            running.append(opened.setdefault(stage, set()))
            try:
                run(self)
            finally:
                running.pop()
        return wrapper

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    for stage in STAGES:
        monkeypatch.setattr(Pipeline, f"_run_{stage}",
                            watching(stage, getattr(Pipeline, f"_run_{stage}")))
    data = dict(TINY, model=dict(TINY["model"], kinds=["random_forest", "knn", "kernel"]),
                footprint=dict(TINY["footprint"], model="kernel", t_value=-2.0))
    assert main(["pipeline", "--config", str(_write_config(tmp_path, data)),
                 "--out", str(out)]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert {stage: sorted(opened[stage]) for stage in STAGES} == {
        stage: sorted(record["inputs"]) for stage, record in stages.items()}


def test_algorithm_axis_compares_true_with_median_training_target(tiny_run, tmp_path,
                                                                   monkeypatch):
    # a fold's t is the median target over its training keys; here the
    # targets come from performance.csv and the training keys from folds.csv
    from footprints import footprint
    from footprints.de import read_performance_csv

    config_path, out = tiny_run
    targets = read_performance_csv(out / "performance.csv", "DE1")
    with open(out / "folds.csv", newline="") as fh:
        fold_of = {(int(row["problem_id"]), int(row["instance_id"]), int(row["dimension"])):
                   int(row["test_fold"]) for row in csv.DictReader(fh)}
    training = {fold: sorted(y for key, y in targets.items() if fold_of[key] != fold)
                for fold in range(1, 6)}
    keys, fold_ids, labels = footprint.read_assignments_csv(out / "assignments.csv")
    with open(out / "assignments.csv", newline="") as fh:
        true = [float(row["true"]) for row in csv.DictReader(fh)]
    assert sorted(keys) == sorted(targets)
    for fold, train_targets in training.items():
        t = float(np.median(train_targets))
        in_fold = np.flatnonzero(fold_ids == fold)
        assert len(in_fold) and all(fold_of[keys[i]] == fold for i in in_fold)
        for i in in_fold:
            assert true[i] == targets[keys[i]]
            algorithm_good = not labels[i] & footprint.ALGORITHM_POOR
            assert algorithm_good == (true[i] <= t), (fold, keys[i])
    # and t is computed from exactly those training targets, fold by fold
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    seen = []
    compute = footprint.compute_target_t
    monkeypatch.setattr(footprint, "compute_target_t",
                        lambda values: seen.append(sorted(values)) or compute(values))
    Pipeline(load_config(config_path), copy, threads=1, force=True).run(["footprint"])
    assert seen == list(training.values())
    assert _digest_tree(copy) == _digest_tree(out)


@pytest.mark.parametrize("scale, t_value", [("log", 0.0), ("raw", 1.0)])
def test_explicit_target_is_compared_with_true_on_the_labelling_scale(tiny_run, tmp_path,
                                                                      scale, t_value):
    # under raw, true is 10**v and t_value is not exponentiated: t = 1 splits
    # the keys as t = 0 does under log, where 10**1 would call every
    # problem-24 key algorithm-good
    from footprints import footprint

    _, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    data = dict(TINY, footprint=dict(TINY["footprint"], scale=scale, t_value=t_value))
    Pipeline(parse_config(data), copy, threads=1, force=True).run(["footprint"])
    _, _, labels = footprint.read_assignments_csv(copy / "assignments.csv")
    with open(copy / "assignments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    true = np.array([float(row["true"]) for row in rows])
    poor = (labels & footprint.ALGORITHM_POOR) != 0
    assert np.array_equal(poor, true > t_value)
    assert poor.tolist() == [row["problem_id"] != "1" for row in rows]


def test_transitions_relabel_the_assignments_under_each_tolerance(tiny_run):
    from footprints.csvio import read_csv, row_key
    from footprints.footprint import ALGORITHM_POOR, LABELS, MODEL_POOR

    config_path, out = tiny_run
    cfg = load_config(config_path)
    _, folds = read_csv(out / "folds.csv")
    test_keys = {fold: sorted(row_key(r) for r in folds if int(r["test_fold"]) == fold)
                 for fold in range(1, cfg.k_folds + 1)}
    _, assigned = read_csv(out / "assignments.csv")
    assignment = {(int(r["fold_id"]), row_key(r)): r for r in assigned}
    _, transitions = read_csv(out / "transitions.csv")
    blocks: dict[tuple[int, float], list] = {}
    for row in transitions:
        fold, key, p_to = int(row["fold_id"]), row_key(row), float(row["p_to"])
        a = assignment[(fold, key)]
        assert float(row["p_from"]) == cfg.p
        assert row["label_from"] == a["label"], (fold, key)
        label_from, label_to = LABELS.index(row["label_from"]), LABELS.index(row["label_to"])
        assert label_to & ALGORITHM_POOR == label_from & ALGORITHM_POOR, (fold, key)
        assert (not label_to & MODEL_POOR) == (float(a["relative_error"]) <= p_to), (fold, key)
        blocks.setdefault((fold, p_to), []).append(key)
    assert any(r["label_from"] != r["label_to"] for r in transitions)
    # one row per test key and tolerance, in key order
    assert blocks == {(fold, p): keys for fold, keys in test_keys.items()
                      for p in cfg.sensitivity_p}


def test_duplicate_prediction_key_fails_footprint_stage(tiny_run, tmp_path, capsys):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / "predictions" / "fold_1.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines, lines[1]]))
    assert main(["footprint", "--config", str(config_path), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    key = tuple(int(v) for v in lines[1].split(",")[2:5])
    assert f"stage 'footprint' failed: duplicate instance keys [{key}] in fold 1" in err


def test_transitions_in_key_order_whatever_the_prediction_order(tiny_run, tmp_path):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / "predictions" / "fold_1.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, *reversed(rows)]))
    assert main(["footprint", "--config", str(config_path), "--out", str(copy)]) == 0
    assert (copy / "transitions.csv").read_bytes() == (out / "transitions.csv").read_bytes()
    assert (copy / "assignments.csv").read_bytes() != (out / "assignments.csv").read_bytes()


def test_solve_and_features_iterate_the_suite_csv(tiny_run, tmp_path):
    # suite.csv holds each (problem, instance) once, in id order; a config that
    # repeats or reorders problem ids must give the same artifacts through folds
    _, out = tiny_run
    data = dict(TINY, suite=dict(TINY["suite"], problems=[24, 1, 2, 1]))
    config_path = _write_config(tmp_path, data)
    run = tmp_path / "run"
    for stage in ("suite", "solve", "features", "folds"):
        assert main([stage, "--config", str(config_path), "--out", str(run)]) == 0, stage
    reference = _digest_tree(out)
    digests = _digest_tree(run)
    assert sorted(digests) == ["feature_schema.json", "features.csv", "folds.csv",
                               "performance.csv", "suite.csv"]
    assert digests == {name: reference[name] for name in digests}


def test_deleted_feature_distribution_figure_reruns_report_only(tiny_run, tmp_path, caplog):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    figure = sorted(copy.glob("figures/feature_dist_fold_*"))[0]
    figure.unlink()
    assert _stages_run(config_path, copy, caplog) == ["report"]
    assert _digest_tree(copy) == _digest_tree(out)


@pytest.mark.parametrize("size", [12, 3])
def test_report_plots_the_top_features(tiny_run, tmp_path, size):
    # each fold's beeswarm holds its min(REPORT_TOP_K, portfolio size) most
    # important features; under auto, every fold's distribution figures
    # show the first two of fold 1
    from footprints.csvio import read_csv
    from footprints.pipeline import EXPLANATION_COLUMNS, REPORT_TOP_K
    from footprints.shapley import global_importance

    assert REPORT_TOP_K == 10
    _, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    data = dict(TINY, model=dict(TINY["model"], portfolio_sizes=[size]),
                footprint=dict(TINY["footprint"], portfolio_size=size))
    assert main(["pipeline", "--config", str(_write_config(tmp_path, data)),
                 "--out", str(run)]) == 0
    top_k = min(REPORT_TOP_K, size)
    shown = None
    for fold_id in range(1, 6):
        header, rows = read_csv(run / f"explanations/fold_{fold_id}.csv")
        names = header[len(EXPLANATION_COLUMNS):]
        assert len(names) == size
        phi = np.array([[float(row[name]) for name in names] for row in rows])
        ranked = [name for name, _ in global_importance(phi, names)]
        _, bee = read_csv(run / f"figures/beeswarm_fold_{fold_id}.csv")
        assert list(dict.fromkeys(row["feature_name"] for row in bee)) == ranked[:top_k]
        assert f"top {top_k} features, fold {fold_id}" in (
            run / f"figures/beeswarm_fold_{fold_id}.svg").read_text()
        shown = shown or ranked[:2]
        assert sorted(p.name for p in run.glob(f"figures/feature_dist_fold_{fold_id}_*")) == (
            sorted(f"feature_dist_fold_{fold_id}_{name.replace('.', '_')}.svg"
                   for name in shown))


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("content", [
    b'{"stages": {', b"[]", b'{"stages": []}', b"\xff", b'{"stages": {"suite": 3}}',
    b'{"stages": {"suite": {"inputs": [], "outputs": {}}}}',
    b'{"stages": {"suite": {"inputs": {}, "outputs": "suite.csv"}}}',
], ids=["truncated", "list", "stages-list", "not-utf8", "record-int", "inputs-list",
        "outputs-str"])
def test_malformed_manifest_starts_fresh(tmp_path, caplog, content, force):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_bytes(content)
    args = ["suite", "--config", str(_write_config(tmp_path, TINY)), "--out", str(out)]
    with caplog.at_level(logging.WARNING, logger="footprints.pipeline"):
        assert main(args + ["--force"] * force) == 0
    assert "unreadable manifest; starting fresh" in caplog.text
    assert list(json.loads((out / "manifest.json").read_text())["stages"]) == ["suite"]


def test_manifest_records_the_last_master_seed(tmp_path):
    out = tmp_path / "out"
    for seed in (7, 99):
        config = _write_config(tmp_path, dict(TINY, master_seed=seed))
        assert main(["suite", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["master_seed"] == seed


def test_cached_rerun_drops_an_older_manifests_header_keys(tiny_run, tmp_path, caplog):
    # an older manifest also held the whole config's digest, the master seed
    # and the features stage's sanitation count at its top level
    config_path, out = tiny_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    manifest = json.loads((old / "manifest.json").read_text())
    header = {"config_digest": "0" * 64, "master_seed": 7, "sanitation": {"features": 0}}
    (old / "manifest.json").write_text(json.dumps({**manifest, **header}))
    assert _stages_run(config_path, old, caplog) == []
    rewritten = (old / "manifest.json").read_bytes()
    assert sorted(json.loads(rewritten)) == ["config", "stages", "tool_version"]
    assert json.loads(rewritten) == manifest
    # and a fully cached rerun writes nothing
    assert _stages_run(config_path, old, caplog) == []
    assert (old / "manifest.json").read_bytes() == rewritten


def test_failed_manifest_write_keeps_previous_manifest(tiny_run, tmp_path, monkeypatch):
    config_path, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    before = (copy / "manifest.json").read_bytes()

    def dump_part_then_fail(obj, fh, **kwargs):
        fh.write('{"stages": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_part_then_fail)
    with pytest.raises(OSError, match="disk full"):
        Pipeline(load_config(config_path), copy, threads=1, force=True).run(["suite"])
    monkeypatch.undo()
    assert (copy / "manifest.json").read_bytes() == before
    assert json.loads(before)["stages"]["suite"]
    assert sorted(p.name for p in copy.iterdir() if p.name.startswith("manifest")) == [
        "manifest.json"]


def test_pipeline_single_stage_rerun_with_force(tiny_run, capsys):
    config_path, out = tiny_run
    before = _digest_tree(out)["suite.csv"]
    assert main(["suite", "--config", str(config_path), "--out", str(out), "--force"]) == 0
    assert _digest_tree(out)["suite.csv"] == before


def test_cli_env_var_default_out(monkeypatch, tmp_path):
    from footprints.cli import build_parser

    monkeypatch.setenv("FOOTPRINTS_OUT", str(tmp_path / "envout"))
    parser = build_parser()
    args = parser.parse_args(["suite", "--config", "x.yaml"])
    assert args.out == str(tmp_path / "envout")


def test_solve_stage_parallel_results_order_independent(tiny_run, tmp_path):
    # seeds are assigned before dispatch, so worker count must not matter
    config_path, out = tiny_run
    par = tmp_path / "par"
    assert main(["suite", "--config", str(config_path), "--out", str(par),
                 "--threads", "2"]) == 0
    assert main(["solve", "--config", str(config_path), "--out", str(par),
                 "--threads", "2"]) == 0
    assert (par / "performance.csv").read_bytes() == (out / "performance.csv").read_bytes()


def test_footprint_raw_scale_switch(tiny_run, tmp_path):
    # raw scale re-expresses values as 10**v; the algorithm axis is invariant
    # because the transform is monotone and t moves with it
    import shutil

    from footprints.csvio import read_csv, row_key
    from footprints.footprint import ALGORITHM_POOR, LABELS

    config_path, out = tiny_run
    raw_dir = tmp_path / "raw"
    shutil.copytree(out, raw_dir)
    (raw_dir / "manifest.json").unlink()
    raw_cfg = yaml.safe_load(config_path.read_text())
    raw_cfg["footprint"] = dict(raw_cfg["footprint"], scale="raw")
    raw_config_path = tmp_path / "raw.yaml"
    raw_config_path.write_text(yaml.safe_dump(raw_cfg))
    assert main(["footprint", "--config", str(raw_config_path),
                 "--out", str(raw_dir)]) == 0
    log_rows = {row_key(r): r for r in read_csv(out / "assignments.csv")[1]}
    raw_rows = {row_key(r): r for r in read_csv(raw_dir / "assignments.csv")[1]}
    assert set(log_rows) == set(raw_rows)

    def algorithm_poor(row):
        return LABELS.index(row["label"]) & ALGORITHM_POOR

    for key, log_row in log_rows.items():
        assert algorithm_poor(log_row) == algorithm_poor(raw_rows[key])
        for column in ("true", "predicted"):
            assert float(raw_rows[key][column]) == 10.0 ** float(log_row[column])
