"""Benchmark of the footprints pipeline, end to end and layer by layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Run from the repository root. Each pipeline run is a fresh child process
(bench/child.py) that imports footprints from ./src, builds the workload's
config, runs its timed stages through the public API and reports times,
CPU, memory and, when traced, per-layer spans. This process checks every
run's artifacts (bench/checks.py), checks that all runs of one seed give
byte-identical artifacts, and prints each metric by name and unit. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 repeats the workload for about --seconds and reports medians of
the end-to-end metrics. --trace 1 makes one untraced run, an untraced
single-thread reference when the workload uses more threads, and one traced
single-thread run, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import ALL_STAGES, UPSTREAM_FILES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run of this script ends well inside 180 s
MAX_REPEATS = 20
PIN_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PRECISION_FLOOR_DECADES = 8.0  # median_log_precision is floored at log10(1e-8)


class Bench:
    def __init__(self, root: Path, workload, seed: int, work: Path, full: bool):
        self.root = root
        self.workload = workload
        self.overrides = workload.config_overrides(seed, full)
        self.work = work
        self.deadline = time.perf_counter() + (math.inf if full else RUN_LIMIT_S)
        self.runs: list[dict] = []

    # -- one child -------------------------------------------------------
    def launch(self, label: str, stages, threads: int, *, trace=False, cache_check=False,
               stage_from: Path | None = None, src: Path | None = None, record=True) -> dict:
        """One child run; `record` counts it towards attempted and failed."""
        out = self.work / label
        spec = {
            "config": str(self.root / self.workload.config),
            "overrides": self.overrides,
            "stages": list(stages),
            "staged": list(self.workload.staged) if stage_from else [],
            "stage_files": list(UPSTREAM_FILES) if stage_from else [],
            "stage_from": str(stage_from) if stage_from else None,
            "threads": threads,
            "trace": trace,
            "cache_check": cache_check,
            "out": str(out),
            "result": str(self.work / f"{label}.result.json"),
        }
        spec_path = self.work / f"{label}.spec.json"
        spec_path.write_text(json.dumps(spec))
        src = src or self.root / "src"
        env = dict(os.environ, **PIN_THREADS,
                   PYTHONPATH=os.pathsep.join([str(src), str(BENCH_DIR)]))
        log_path = self.work / f"{label}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), repr(time.time())],
                env=env, cwd=self.root,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, min(self.left_s(), 3600.0)))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        run = {"label": label, "out": out, "trace": trace, "threads": threads,
               "returncode": proc.returncode, "problems": []}
        try:
            run.update(json.loads(Path(spec["result"]).read_text()))
        except (OSError, ValueError):
            run["ok"] = False
        if proc.returncode != 0 or not run.get("ok"):
            tail = log_path.read_text(errors="replace")[-2000:]
            run["problems"].append(f"run failed (exit {proc.returncode}): "
                                   f"{run.get('error') or tail}")
        else:
            run["problems"] += checks.check_run(out, run["facts"])
            if cache_check and not run["cache_hit"]:
                run["problems"].append("rerun on the finished directory was not fully cached")
            run["digests"] = checks.digests(out)
        if record:
            self.runs.append(run)
        return run

    def timed(self) -> list[dict]:
        """Runs of the workload's timed stages (not the staged upstream)."""
        return [r for r in self.runs if r["label"] != "upstream"]

    def left_s(self) -> float:
        return self.deadline - time.perf_counter()

    # -- workload --------------------------------------------------------
    def prep(self, src: Path | None = None, label: str = "upstream") -> Path | None:
        """Upstream artifacts, made once by the code under test and staged into each run."""
        if not self.workload.staged:
            return None
        return self.launch(label, self.workload.staged, threads=2, src=src,
                           record=src is None)["out"]

    def repeat(self, seconds: float) -> None:
        upstream = self.prep()
        begin = time.perf_counter()
        lengths: list[float] = []
        while len(lengths) < MAX_REPEATS:
            start = time.perf_counter()
            self.launch(f"run{len(lengths)}", self.workload.stages, self.workload.threads,
                        stage_from=upstream)
            lengths.append(time.perf_counter() - start)
            typical = statistics.median(lengths)
            if self.left_s() < 1.5 * typical:
                break
            if len(lengths) >= 2 and time.perf_counter() - begin + typical > seconds:
                break

    def traced(self) -> dict:
        upstream = self.prep()
        wl = self.workload
        main = self.launch("main", wl.stages, wl.threads, cache_check=True, stage_from=upstream)
        ref = main
        if wl.threads != 1:
            ref = self.launch("ref", wl.stages, 1, stage_from=upstream)
        tr = self.launch("traced", wl.stages, 1, trace=True, stage_from=upstream)
        if not all(r.get("ok") for r in (main, ref, tr)):
            return {}
        layers = {name: tuple(v) for name, v in tr["layers"].items()}
        if layers["suite.evals"][0] != tr["facts"]["expected_evals"]:
            tr["problems"].append(
                f"suite.evals {layers['suite.evals'][0]} != closed form "
                f"{tr['facts']['expected_evals']}")
        out = {f"pipeline.{s}_s": (float(main["stage_s"].get(s, 0.0)), "s") for s in ALL_STAGES}
        out["pipeline.cache_check_s"] = (main["cache_check_s"], "s")
        out["pipeline.pool_busy_frac"] = (
            main["cpu_s"] / (wl.threads * main["wall_s"]), "ratio")
        out.update(layers)
        # 0 on a workload that does not train
        out["models.mae"] = (self.quality().get("model_mae", 0.0), "decades")
        out["trace_overhead_frac"] = (tr["wall_s"] / ref["wall_s"] - 1.0, "ratio")
        return out

    # -- results ---------------------------------------------------------
    def check_determinism(self) -> None:
        """Runs of one seed (any threads, traced or not) give identical artifacts."""
        timed = [r for r in self.timed() if r.get("digests")]
        for run in timed[1:]:
            if run["digests"] != timed[0]["digests"]:
                changed = sorted(k for k in set(run["digests"]) | set(timed[0]["digests"])
                                 if run["digests"].get(k) != timed[0]["digests"].get(k))
                run["problems"].append(f"artifacts differ from {timed[0]['label']}: {changed}")

    def quality(self) -> dict:
        """DE precision and footprint-model MAE of the first finished run, in decades.

        Both are fixed by the seed, so any run of it gives the same values.
        """
        run = next((r for r in self.timed() if r.get("ok")), None)
        if run is None:
            return {}
        facts, out = run["facts"], run["out"]
        values = {"de_log_precision": checks.de_log_precision(out, facts["footprint_config_id"])}
        if "train" in facts["stages"]:
            values["model_mae"] = checks.model_mae(out, facts["footprint_model"],
                                                   facts["footprint_portfolio_size"])
        return values

    def end_to_end(self) -> dict:
        good = [r for r in self.timed() if not r["problems"]]
        if not good:
            return {}
        med = {k: statistics.median(r[k] for r in good)
               for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        de = self.quality()["de_log_precision"]
        return {
            "wall_s": (med["wall_s"], "s"),
            "cpu_s": (med["cpu_s"], "s"),
            "setup_s": (med["setup_s"], "s"),
            "peak_rss_mb": (med["peak_rss_mb"], "MB"),
            # shifted by the floor so the value is positive and its spread a fair share
            "de_decades_above_floor": (de + PRECISION_FLOOR_DECADES, "decades"),
        }

    def digest_diff(self, parent: Path) -> list[str]:
        """Per-artifact digest diff against another source tree; reported, never failed."""
        mine = next((r["digests"] for r in self.timed() if r.get("digests")), None)
        if mine is None or self.left_s() < 30:
            return ["digest-diff skipped"]
        upstream = self.prep(src=parent / "src", label="parent-upstream")
        theirs = self.launch("parent", self.workload.stages, self.workload.threads,
                             stage_from=upstream, src=parent / "src",
                             record=False).get("digests", {})
        lines = []
        for name in sorted(set(mine) | set(theirs)):
            state = ("same" if mine.get(name) == theirs.get(name) else
                     "only-here" if name not in theirs else
                     "only-parent" if name not in mine else "changed")
            lines.append(f"digest-diff {state:11s} {name}")
        return lines


def environment(root: Path, runs: list[dict]) -> dict:
    src_files = sorted((root / "src" / "footprints").glob("*.py"))
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    versions = next((r["versions"] for r in runs if r.get("versions")), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **versions,
        "git_revision": revision,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src_files)).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "pinned": PIN_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the workload's config unshrunk (slow; not for timing)")
    parser.add_argument("--parent", type=Path, default=None,
                        help="source tree of the parent commit; report a per-artifact digest diff")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "footprints" / "__init__.py").is_file():
        print("bench: no src/footprints here; run from the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".bench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, wl, args.seed, work, args.full)
        if args.trace:
            metrics = bench.traced()
        else:
            bench.repeat(args.seconds)
        bench.check_determinism()
        if not args.trace:
            metrics = bench.end_to_end()
        quality = bench.quality()
        diff = bench.digest_diff(args.parent.resolve()) if args.parent else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.runs)
    failed = sum(bool(r["problems"]) for r in bench.runs)
    for r in bench.runs:
        for p in r["problems"]:
            print(f"{r['label']}: {p}", file=sys.stderr)
    if not metrics:
        print("bench: no successful run", file=sys.stderr)
        return 1
    env = environment(root, bench.runs)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "full": args.full,
        "env": env, "attempted": attempted, "failed": failed, "quality": quality,
        "runs": [{k: r.get(k) for k in ("label", "threads", "trace", "setup_s", "wall_s",
                                        "cpu_s", "peak_rss_mb", "stage_s", "problems")}
                 for r in bench.runs],
        "digests": next((r["digests"] for r in bench.timed() if r.get("digests")), {}),
        "metrics": result,
    }
    results = root / ".bench_out" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} runs, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted})")
    for name, value in quality.items():
        print(f"{name} {value!r} decades")
    for line in diff:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
