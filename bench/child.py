"""One benchmark run of the footprints pipeline in a fresh process.

Usage: python bench/child.py SPEC.json T0

SPEC names the config file, the overrides, the timed stages, the threads,
the output directory, an optional directory of upstream artifacts to stage,
and whether to trace. T0 is the parent's wall clock just before it started
this process, so set-up time counts from process start. The child writes a
JSON result to ``SPEC["result"]`` and exits with 1 if the run raised.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    """User plus system time of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def run(spec: dict, t0: float, result: dict) -> None:
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install()
    import numpy
    import scipy
    from footprints import config as config_mod
    from footprints import pipeline as pipeline_mod

    cfg = config_mod.load_config(spec["config"])
    for name, value in spec["overrides"].items():
        if not hasattr(cfg, name):
            raise KeyError(f"unknown config field {name!r}")
        setattr(cfg, name, value)
    issues = config_mod.validate(cfg)
    if issues:
        raise ValueError(f"invalid workload config: {issues}")
    out = Path(spec["out"])
    out.mkdir(parents=True)
    for name in spec["stage_files"]:
        shutil.copyfile(Path(spec["stage_from"]) / name, out / name)
    pipe = pipeline_mod.Pipeline(cfg, out, threads=spec["threads"])

    result["setup_s"] = time.time() - t0
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    pipe.run(spec["stages"])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.layer_metrics(tracer)

    manifest_path = out / "manifest.json"
    manifest = manifest_path.read_bytes()
    stages = json.loads(manifest)["stages"]
    result["stage_s"] = {s: stages[s]["elapsed_s"] for s in spec["stages"] if s in stages}
    if spec["cache_check"]:
        start = time.perf_counter()
        pipeline_mod.Pipeline(cfg, out, threads=spec["threads"]).run(spec["stages"])
        result["cache_check_s"] = time.perf_counter() - start
        # a fully cached rerun records nothing, so the manifest keeps its bytes
        result["cache_hit"] = manifest_path.read_bytes() == manifest

    de_configs = cfg.resolved_de_configs()
    instances = len(cfg.problems) * len(cfg.instances)
    result["facts"] = {
        "stages": list(spec["stages"]),
        "staged": list(spec["staged"]),
        "problems": list(cfg.problems),
        "instances": list(cfg.instances),
        "k_folds": cfg.k_folds,
        "config_ids": [c.config_id for c in de_configs],
        "model_kinds": list(cfg.model_kinds),
        "sensitivity": bool(cfg.sensitivity_p),
        "footprint_config_id": cfg.footprint_config_id,
        "footprint_model": cfg.footprint_model,
        "footprint_portfolio_size": cfg.footprint_portfolio_size,
        # DE spends exactly its budget; ELA evaluates each sample point once
        "expected_evals": ("solve" in spec["stages"]) * len(de_configs) * instances
        * cfg.n_runs * cfg.budget + ("features" in spec["stages"]) * instances * cfg.sample_size,
    }
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result: dict = {"ok": False}
    try:
        run(spec, float(argv[2]), result)
        result["ok"] = True
    except Exception:  # the run's failure is a measured outcome, not a crash of the harness
        result["error"] = traceback.format_exc()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
