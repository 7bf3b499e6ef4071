"""The benchmark's workloads: a repo config, overrides, timed stages, threads.

Sizes are shrunk from the named configs so that one benchmark run repeats
the workload several times within its time limit. ``full`` undoes the
shrink (the unshrunk desk run takes about 90 s traced).

* desk: the paper's reference scale, all eight stages; time splits between
  DE (solve) and the CART forest plus exact tree Shapley (train, explain).
* model-sweep: the researcher's model-iteration loop; upstream artifacts
  are made once per invocation and staged, so DE, ELA and CART do no timed
  work, and KNN / kernel ridge predictions under sampling Shapley dominate.
* scale-d10: D=10 objectives, all three default DE strategies, the process
  pool at two threads and ELA at n=1000; no model or Shapley work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_STAGES = ("suite", "solve", "features", "folds", "train", "explain", "footprint", "report")
UPSTREAM = ("suite", "solve", "features", "folds")
# Artifacts that the upstream stages leave and later stages read.
UPSTREAM_FILES = ("suite.csv", "performance.csv", "features.csv", "feature_schema.json",
                  "folds.csv")

# Two instances per problem is the least the stratified folds accept
# (k_folds equals the instance count); one DE run per instance.
SHRINK = {"instances": [1, 2], "k_folds": 2, "n_runs": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    stages: tuple[str, ...]
    threads: int
    overrides: dict = field(default_factory=dict)
    staged: tuple[str, ...] = ()

    def config_overrides(self, seed: int, full: bool = False) -> dict:
        """Config fields to set; the benchmark seed becomes a valid master_seed."""
        out = {} if full else dict(SHRINK)
        out.update(self.overrides)
        out["master_seed"] = seed % 2**63
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "configs/desk.yaml", ALL_STAGES, threads=1),
        Workload(
            "model-sweep", "configs/desk.yaml", ALL_STAGES[4:], threads=1,
            overrides={"model_kinds": ["knn", "kernel"], "portfolio_sizes": [10, 20, 30],
                       "footprint_model": "knn"},
            staged=UPSTREAM,
        ),
        # the slice is pinned here so that edits to full.yaml do not move it
        Workload("scale-d10", "configs/full.yaml", UPSTREAM, threads=2,
                 overrides={"dimension": 10, "de_configs": [], "sample_multiplier": 100}),
    )
}

