"""Differential evolution under a fixed evaluation budget.

Runs are deterministic given (instance, config, budget, seed) and consume
exactly ``budget`` objective evaluations; the last generation is truncated
when the remaining budget is smaller than the population.

Selection is generational (Storn & Price 1997), so each generation's trials
are built from one batched draw of parents and crossover masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .csvio import KEY_COLUMNS, Key, read_csv, row_key, write_csv
from .errors import ConfigurationError
from .suite import LOWER_BOUND, UPPER_BOUND, precision

# strategy -> (distinct parents besides the target, mutant(x, best, current, F)),
# where x[j] holds parent j of every target
_MUTANTS = {
    "rand/1/bin": (3, lambda x, best, current, F: x[0] + F * (x[1] - x[2])),
    "best/1/bin": (2, lambda x, best, current, F: best + F * (x[0] - x[1])),
    "rand/2/bin": (5, lambda x, best, current, F: x[0] + F * (x[1] - x[2]) + F * (x[3] - x[4])),
    "current-to-best/1/bin": (
        2, lambda x, best, current, F: current + F * (best - current) + F * (x[0] - x[1])),
}
STRATEGIES = tuple(_MUTANTS)

PRECISION_FLOOR = 1e-8


@dataclass(frozen=True)
class DeConfig:
    config_id: str
    strategy: str
    F: float
    Cr: float
    population_size: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if not 0.0 < self.F <= 2.0:
            raise ConfigurationError("F must be in (0, 2]")
        if not 0.0 <= self.Cr <= 1.0:
            raise ConfigurationError("Cr must be in [0, 1]")
        min_pop = _MUTANTS[self.strategy][0] + 1
        if self.population_size < max(4, min_pop):
            raise ConfigurationError(
                f"population_size {self.population_size} too small for "
                f"{self.strategy} (needs >= {max(4, min_pop)})"
            )


def default_population_size(dimension: int) -> int:
    return min(10 * dimension, 100)


def default_portfolio(dimension: int) -> list[DeConfig]:
    """Conventional three-config portfolio; fully overridable via run config."""
    pop = default_population_size(dimension)
    return [
        DeConfig("DE1", "rand/1/bin", 0.5, 0.9, pop),
        DeConfig("DE2", "best/1/bin", 0.8, 0.5, pop),
        DeConfig("DE3", "rand/2/bin", 0.5, 0.3, pop),
    ]


def median_log_precision(raw_precisions: Sequence[float]) -> float:
    med = float(np.median(np.asarray(raw_precisions, dtype=float)))
    return math.log10(max(med, PRECISION_FLOOR))


def _reflect(X: np.ndarray) -> np.ndarray:
    """Fold arbitrary reals back into [lo, hi] = [LOWER_BOUND, UPPER_BOUND] by
    reflection at the bounds.

    Bitwise ``lo + where(Y > span, 2*span - Y, Y)`` with ``Y = mod(X - lo, 2*span)``.
    Only entries of X - lo outside [0, 2*span) (NaN included) go through np.mod:
    inside, fmod is exact and np.mod differs only by turning -0.0 into +0.0, which
    adding lo erases. Returns a new array; X is left unchanged.
    """
    lo = LOWER_BOUND
    span = UPPER_BOUND - lo
    V = X - lo
    np.mod(V, 2.0 * span, out=V, where=~((V >= 0.0) & (V < 2.0 * span)))
    np.subtract(2.0 * span, V, out=V, where=V > span)
    V += lo
    return V


def _draw_parents(rng: np.random.Generator, pop_size: int, m: int, k: int) -> np.ndarray:
    """Row i: k distinct indices of 0..pop_size-1, never i, uniform in order.

    Sequential sampling without replacement from k*m uniforms u (Bentley & Floyd
    1987): parent t of target i is floor(u[t, i] * (pop_size - 1 - t)), mapped past
    the indices already taken (i and parents 0..t-1) by `j += j >= e` over them in
    ascending order; a min/max insertion keeps them sorted per target. The floor of
    a 53-bit uniform biases each choice by less than pop_size * 2**-53. Parent t of
    every target fills row t of a (k, m) array, so the result is its transpose.
    """
    u = rng.random((k, m))
    drawn = (u * np.arange(pop_size - 1, pop_size - 1 - k, -1)[:, None]).astype(np.intp)
    taken = np.empty((k, m), dtype=np.intp)
    taken[0] = np.arange(m)
    for t, j in enumerate(drawn):
        for e in taken[:t + 1]:
            j += j >= e
        if t + 1 < k:
            c = j.copy()
            for e in taken[:t + 1]:
                hi = np.maximum(e, c)
                np.minimum(e, c, out=e)
                c = hi
            taken[t + 1] = c
    return drawn.T


def run_de(
    instance,
    config: DeConfig,
    budget: int,
    seed: int,
    on_generation: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> float:
    """Best precision reached after exactly `budget` evaluations.

    `on_generation(gen, population, fvalues)` is invoked after the initial
    sampling (gen 0) and after every selection step; intended for tests and
    progress monitoring.

    Each generation passes `evaluate_batch` a new trials array, which no later
    step writes to, so an objective may keep a reference to it. Selection copies
    the accepted trials and their values into the population in place.
    """
    pop_size = config.population_size
    if budget < pop_size:
        raise ConfigurationError(f"budget {budget} smaller than population {pop_size}")
    dim = instance.dimension
    n_parents, mutant = _MUTANTS[config.strategy]
    rng = np.random.default_rng(seed)

    pop = rng.uniform(LOWER_BOUND, UPPER_BOUND, (pop_size, dim))
    fvals = instance.evaluate_batch(pop)
    evals = pop_size
    best_f = float(fvals.min())
    gen = 0
    if on_generation is not None:
        on_generation(gen, pop.copy(), fvals.copy())

    while evals < budget:
        m = min(pop_size, budget - evals)
        best = pop[fvals.argmin()]
        r = _draw_parents(rng, pop_size, m, n_parents)
        current = pop[:m]
        v = mutant(pop[r.T], best, current, config.F)
        cross = rng.random((m, dim)) < config.Cr
        cross.reshape(-1)[np.arange(0, m * dim, dim) + rng.integers(dim, size=m)] = True
        trials = _reflect(np.where(cross, v, current))
        tvals = instance.evaluate_batch(trials)
        evals += m
        best_f = min(best_f, float(tvals.min()))
        accept = tvals <= fvals[:m]
        np.copyto(current, trials, where=accept[:, None])
        np.copyto(fvals[:m], tvals, where=accept)
        gen += 1
        if on_generation is not None:
            on_generation(gen, pop.copy(), fvals.copy())

    return precision(instance, best_f)


def measure(instance, config: DeConfig, budget: int, n_runs: int,
            base_seed: int) -> tuple[float, ...]:
    """The precisions of `n_runs` runs, seeded base_seed..base_seed+n_runs-1."""
    if n_runs < 1:
        raise ConfigurationError("n_runs must be >= 1")
    return tuple(run_de(instance, config, budget, base_seed + r) for r in range(n_runs))


def write_performance_csv(rows: Iterable[tuple[str, tuple, Sequence[float]]], path) -> None:
    """One line per (config_id, key, precisions) row, with its median_log_precision."""
    rows = list(rows)
    n_runs = len(rows[0][2]) if rows else 0
    write_csv(
        path,
        ["config_id", *KEY_COLUMNS, "n_runs", "median_log_precision"]
        + [f"run_{r}" for r in range(n_runs)],
        ([config_id, *key, len(precisions), median_log_precision(precisions), *precisions]
         for config_id, key, precisions in rows),
    )


def read_performance_csv(path, config_id: str) -> dict[Key, float]:
    """{key: median_log_precision} of the rows of one DE config."""
    _, rows = read_csv(path)
    return {row_key(row): float(row["median_log_precision"])
            for row in rows if row["config_id"] == config_id}
