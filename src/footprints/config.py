"""Run configuration: strict YAML parsing plus non-raising validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from . import de, ela, models
from .errors import ConfigurationError
from .suite import N_PROBLEMS

SCALES = ("log", "raw")


# Value parsers take the raw YAML value, never null, and raise ValueError
# saying what they expected; parse_config names the key.

def _scalar(kind, what: str, accepted: tuple):
    # strings are converted too: YAML 1.1 reads 1e-3 as a string; a float
    # must be finite, so YAML's .nan and .inf and "1e400" are rejected
    def parse(raw):
        if isinstance(raw, accepted) and not isinstance(raw, bool):
            try:
                value = kind(raw)
            except (ValueError, OverflowError):
                pass
            else:
                if not isinstance(value, float) or math.isfinite(value):
                    return value
        raise ValueError(f"expected {what}, got {raw!r}")
    return parse


_int = _scalar(int, "an integer", (int, str))
_float = _scalar(float, "a finite number", (int, float, str))
_str = _scalar(str, "a string", (str, int, float))


def _list_of(item):
    def parse(raw):
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"expected a list, got {raw!r}")
        return [item(v) for v in raw]
    return parse


def _expand_ids(raw) -> list[int]:
    """Accept [1,2,3] or "1-24"."""
    if isinstance(raw, str):
        lo, _, hi = raw.partition("-")
        if not hi:
            raise ValueError(f"cannot parse id range {raw!r}")
        return list(range(_int(lo), _int(hi) + 1))
    return _list_of(_int)(raw)


# each DeConfig field's parser, by its annotation
_DE_CONFIG_PARSERS = {f.name: {"str": _str, "float": _float, "int": _int}[f.type]
                      for f in fields(de.DeConfig)}


def _de_configs(raw) -> list[dict]:
    """DE config mappings with typed values; a null population_size stays
    None, and resolved_de_configs fills in the default."""
    out = []
    for i, entry in enumerate(_list_of(lambda v: v)(raw)):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"de.configs[{i}] must be a mapping")
        typed = {}
        for sub, value in entry.items():
            if sub not in _DE_CONFIG_PARSERS:
                raise ConfigurationError(f"unknown config key: de.configs[{i}].{sub}")
            if value is None and sub == "population_size":
                typed[sub] = None
                continue
            try:
                typed[sub] = _DE_CONFIG_PARSERS[sub](value)
            except ValueError as exc:
                raise ConfigurationError(f"config key de.configs[{i}].{sub}: {exc}") from exc
        out.append(typed)
    return out


def _names_or_auto(raw) -> list[str] | str:
    if raw == "auto":
        return raw
    if isinstance(raw, str):
        raise ValueError(f"expected 'auto' or a list, got {raw!r}")
    return _list_of(_str)(raw)


def _key(dotted: str, parse, default, minimum=None):
    """A RunConfig field read from a dotted YAML key by `parse`; validate checks `minimum`."""
    meta = {"key": dotted, "parse": parse, "minimum": minimum}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """The config schema: parsing, key checks and the manifest's config all read these fields."""

    master_seed: int = _key("master_seed", _int, 0, minimum=0)
    problems: list[int] = _key("suite.problems", _expand_ids, list(range(1, N_PROBLEMS + 1)))
    instances: list[int] = _key("suite.instances", _expand_ids, [1, 2, 3, 4, 5])
    dimension: int = _key("suite.dimension", _int, 10, minimum=2)
    budget_multiplier: int = _key("de.budget_multiplier", _int, 500)
    n_runs: int = _key("de.n_runs", _int, 30, minimum=1)
    de_configs: list[dict] = _key("de.configs", _de_configs, [])  # empty: default portfolio
    sample_multiplier: int = _key("ela.sample_multiplier", _int, 100)
    model_kinds: list[str] = _key("model.kinds", _list_of(_str), ["random_forest"])
    portfolio_sizes: list[int] = _key("model.portfolio_sizes", _list_of(_int), [30])
    k_folds: int = _key("model.k_folds", _int, 5, minimum=2)
    forest_trees: int = _key("model.forest_trees", _int, 100, minimum=1)
    knn_neighbors: int = _key("model.knn_neighbors", _int, 5, minimum=1)
    kernel_penalty: float = _key("model.kernel_penalty", _float, 1e-3)
    footprint_config_id: str = _key("footprint.config_id", _str, "DE1")
    footprint_model: str = _key("footprint.model", _str, "random_forest")
    footprint_portfolio_size: int = _key("footprint.portfolio_size", _int, 30)
    p: float = _key("footprint.p", _float, 0.15)
    t_value: float | None = _key("footprint.t_value", _float, None)  # None: the training median
    scale: str = _key("footprint.scale", _str, "log")
    sensitivity_p: list[float] = _key("footprint.sensitivity_p", _list_of(_float), [])
    distribution_features: list[str] | str = _key(
        "report.distribution_features", _names_or_auto, "auto")

    # ------------------------------------------------------------------
    def resolved_de_configs(self) -> list[de.DeConfig]:
        if not self.de_configs:
            return de.default_portfolio(self.dimension)
        out = []
        for entry in self.de_configs:
            if entry.get("population_size") is None:
                entry = {**entry, "population_size": de.default_population_size(self.dimension)}
            out.append(de.DeConfig(**entry))
        return out

    @property
    def budget(self) -> int:
        return self.budget_multiplier * self.dimension

    @property
    def sample_size(self) -> int:
        return self.sample_multiplier * self.dimension


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}
_SECTIONS = {key.partition(".")[0] for key in _FIELDS if "." in key}


def parse_config(data: dict) -> RunConfig:
    """Strict parse; unknown keys and malformed values are errors naming the key.
    A key set to null keeps its default."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    flat = {}
    for key, raw in data.items():
        if key in _SECTIONS:
            section = raw or {}
            if not isinstance(section, dict):
                raise ConfigurationError(f"config section {key!r} must be a mapping")
            for sub, value in section.items():
                if f"{key}.{sub}" not in _FIELDS:
                    raise ConfigurationError(f"unknown config key: {key}.{sub}")
                flat[f"{key}.{sub}"] = value
        elif key in _FIELDS and "." not in key:
            flat[key] = raw
        else:
            raise ConfigurationError(f"unknown config key: {key!r}")

    cfg = RunConfig()
    for key, raw in flat.items():
        if raw is None:
            continue
        f = _FIELDS[key]
        try:
            value = f.metadata["parse"](raw)
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError(f"config key {key}: {exc}") from exc
        setattr(cfg, f.name, value)
    return cfg


def load_config(path) -> RunConfig:
    # bytes, so that PyYAML's reader rejects a file that is not UTF-8 as a YAMLError
    text = Path(path).read_bytes()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse config file: {exc}") from exc
    return parse_config(data or {})


def _de_config_issues(cfg: RunConfig) -> list[str]:
    """Each incomplete de.configs entry, in entry order; only when there is
    none are the entries built and checked."""
    incomplete = []
    for i, entry in enumerate(cfg.de_configs):
        # a left-out population_size takes the default
        absent = [f.name for f in fields(de.DeConfig)
                  if f.name not in entry and f.name != "population_size"]
        if absent:
            incomplete.append(f"de.configs[{i}] is missing {', '.join(absent)}")
    if incomplete:
        return incomplete
    try:
        configs = cfg.resolved_de_configs()
    except ConfigurationError as exc:
        return [f"de.configs invalid: {exc}"]
    issues = []
    ids = [c.config_id for c in configs]
    if len(set(ids)) != len(ids):
        issues.append(f"de.configs ids must be unique; got {ids}")
    for c in configs:
        if cfg.budget < c.population_size:
            issues.append(
                f"budget {cfg.budget} below population {c.population_size} of {c.config_id}"
            )
    if cfg.footprint_config_id not in ids:
        issues.append(
            f"footprint.config_id {cfg.footprint_config_id!r} not among de configs {ids}"
        )
    return issues


def validate(cfg: RunConfig) -> list[str]:
    """All invariant violations, without running anything."""
    issues: list[str] = []
    for f in fields(cfg):
        minimum = f.metadata["minimum"]
        if minimum is not None and getattr(cfg, f.name) < minimum:
            issues.append(f"{f.metadata['key']} must be >= {minimum}")
    if len(set(cfg.problems)) < 3:
        # a test fold holds one instance per problem; its 2-D embedding needs 3 rows
        issues.append(f"suite.problems must name at least 3 problems; got {cfg.problems}")
    bad = [p for p in cfg.problems if not 1 <= p <= N_PROBLEMS]
    if bad:
        issues.append(f"suite.problems contains unknown ids {bad}")
    if not cfg.instances:
        issues.append("suite.instances must be non-empty")
    if any(i < 1 for i in cfg.instances):
        issues.append("suite.instances must all be >= 1")
    issues += _de_config_issues(cfg)
    if cfg.dimension >= 2 and cfg.sample_size < (min_n := ela.minimum_sample_size(cfg.dimension)):
        issues.append(
            f"ela sample size {cfg.sample_size} below required {min_n} for D={cfg.dimension}"
        )
    for kind in cfg.model_kinds:
        if kind not in models.MODEL_KINDS:
            issues.append(f"model.kinds contains unknown kind {kind!r}")
    # a repeat would train the same models twice, label each key twice or
    # plot a figure twice, and write it twice; a portfolio is the first `size`
    # ranked features, so every size past the catalog is the same portfolio
    sizes = [min(s, len(ela.FEATURE_SCHEMA)) for s in cfg.portfolio_sizes]
    listed = cfg.distribution_features if cfg.distribution_features != "auto" else []
    for key, values, counted in (
            ("model.kinds", cfg.model_kinds, cfg.model_kinds),
            ("model.portfolio_sizes", cfg.portfolio_sizes, sizes),
            ("footprint.sensitivity_p", cfg.sensitivity_p, cfg.sensitivity_p),
            ("report.distribution_features", listed, listed)):
        if len(set(counted)) != len(counted):
            issues.append(f"{key} must not repeat an entry; got {values}"
                          + (f", which count as {counted}" if counted != values else ""))
    # k_folds equals the instance count, so each fold trains on all other instances
    train_size = len(set(cfg.problems)) * (len(set(cfg.instances)) - 1)
    if "knn" in cfg.model_kinds and cfg.knn_neighbors > train_size:
        issues.append(
            f"model.knn_neighbors ({cfg.knn_neighbors}) exceeds the training size of a fold "
            f"({train_size})"
        )
    if any(s < 1 for s in cfg.portfolio_sizes):
        issues.append("model.portfolio_sizes must all be >= 1")
    if cfg.k_folds != len(set(cfg.instances)):
        issues.append(
            f"model.k_folds ({cfg.k_folds}) must equal the instance count per problem "
            f"({len(set(cfg.instances))}) so each test fold holds one instance per problem"
        )
    if cfg.kernel_penalty <= 0:
        issues.append("model.kernel_penalty must be positive")
    if cfg.footprint_model not in cfg.model_kinds:
        issues.append(
            f"footprint.model {cfg.footprint_model!r} not among model.kinds {cfg.model_kinds}"
        )
    if cfg.footprint_portfolio_size not in cfg.portfolio_sizes:
        issues.append(
            f"footprint.portfolio_size {cfg.footprint_portfolio_size} not among "
            f"model.portfolio_sizes {cfg.portfolio_sizes}"
        )
    if not 0.0 < cfg.p <= 1.0:
        issues.append(f"footprint.p must be in (0, 1]; got {cfg.p}")
    if cfg.scale not in SCALES:
        issues.append(f"footprint.scale must be one of {SCALES}")
    if isinstance(cfg.distribution_features, list):
        unknown = [n for n in cfg.distribution_features if n not in ela.FEATURE_SCHEMA]
        if unknown:
            issues.append(f"report.distribution_features contains unknown features {unknown}")
    for v in cfg.sensitivity_p:
        if not 0.0 < v <= 1.0:
            issues.append(f"footprint.sensitivity_p values must be in (0, 1]; got {v}")
    return issues
