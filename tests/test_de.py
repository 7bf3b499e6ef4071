import math
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from footprints.csvio import read_csv
from footprints.de import (
    STRATEGIES,
    _MUTANTS,
    DeConfig,
    _draw_parents,
    _reflect,
    default_population_size,
    default_portfolio,
    measure,
    median_log_precision,
    run_de,
    write_performance_csv,
    read_performance_csv,
)
from footprints.errors import ConfigurationError
from footprints.suite import make_instance

from _oracles import NAIVE_N_PARENTS, naive_mutant, random_search_precision

RAND1 = DeConfig("DE1", "rand/1/bin", 0.5, 0.9, 20)


class ConstantInstance:
    """Objective stub: f(x) == f_offset everywhere."""

    problem_id = 0
    instance_id = 0
    dimension = 3
    f_offset = 4.25

    def evaluate_batch(self, X):
        return np.full(X.shape[0], self.f_offset)


class CountingInstance:
    """Wraps a real instance, recording every evaluated point and value."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.f_offset = inner.f_offset
        self.points = []
        self.values = []

    def evaluate_batch(self, X):
        out = self.inner.evaluate_batch(X)
        self.points.append(np.array(X))
        self.values.extend(out.tolist())
        return out

    @property
    def n_evaluations(self):
        return len(self.values)


def test_constant_function_gives_zero_precision():
    assert run_de(ConstantInstance(), RAND1, budget=100, seed=1) == 0.0


def test_budget_consumed_exactly():
    inner = make_instance(1, 1, 3)
    for strategy in STRATEGIES:
        config = DeConfig("B", strategy, 0.5, 0.9, 20)
        for budget in (20, 23, 67, 100):
            counting = CountingInstance(inner)
            gens = []
            run_de(counting, config, budget=budget, seed=3,
                   on_generation=lambda gen, pop, fvals: gens.append(gen))
            assert counting.n_evaluations == budget
            assert gens == list(range(1 + math.ceil((budget - 20) / 20)))


@pytest.mark.parametrize("pop_size,m,k", [(8, 8, 3), (8, 8, 7), (20, 13, 5), (6, 1, 5)])
def test_draw_parents_distinct_and_never_the_target(pop_size, m, k):
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = _draw_parents(rng, pop_size, m, k)
        assert r.shape == (m, k)
        assert np.all((r >= 0) & (r < pop_size))
        for i, row in enumerate(r):
            assert len(set(row.tolist())) == k
            assert i not in row


@pytest.mark.parametrize("m", [6, 4])
def test_draw_parents_uniform_per_column(m):
    # every non-target index is equally likely in every column, also when
    # the last generation is truncated to m < pop_size targets
    pop_size, k, draws = 6, 3, 20000
    rng = np.random.default_rng(12)
    counts = np.zeros((m, k, pop_size), dtype=int)
    rows = np.arange(m)[:, None]
    cols = np.arange(k)[None, :]
    for _ in range(draws):
        np.add.at(counts, (rows, cols, _draw_parents(rng, pop_size, m, k)), 1)
    for i in range(m):
        assert counts[i, :, i].sum() == 0
        others = np.delete(counts[i], i, axis=1)
        for j in range(k):
            assert chisquare(others[j]).pvalue > 1e-4, (i, j, others[j])


def test_trials_read_only_previous_generation():
    # rand/1/bin with Cr=1 takes every coordinate from the mutant, so each
    # trial of generation g is reflect(p[a] + F*(p[b] - p[c])) for distinct
    # a, b, c != i of the generation g-1 population p
    pop_size, F = 8, 0.5
    counting = CountingInstance(make_instance(1, 1, 2))
    history = []
    run_de(counting, DeConfig("G", "rand/1/bin", F, 1.0, pop_size), budget=6 * pop_size,
           seed=4, on_generation=lambda gen, pop, fvals: history.append(pop))
    assert len(counting.points) == len(history) == 6
    a, b, c = np.array(list(permutations(range(pop_size), 3))).T
    for g in range(1, len(history)):
        p = history[g - 1]
        candidates = _reflect(p[a] + F * (p[b] - p[c]))
        for i, trial in enumerate(counting.points[g]):
            allowed = (a != i) & (b != i) & (c != i)
            assert np.any(np.all(candidates[allowed] == trial, axis=1)), (g, i)


def test_zero_crossover_rate_takes_exactly_one_mutant_coordinate():
    counting = CountingInstance(make_instance(1, 1, 4))
    history = []
    run_de(counting, DeConfig("X", "rand/1/bin", 0.5, 0.0, 10), budget=45, seed=8,
           on_generation=lambda gen, pop, fvals: history.append(pop))
    for g in range(1, len(history)):
        trials = counting.points[g]
        changed = trials != history[g - 1][: len(trials)]
        assert np.all(changed.sum(axis=1) == 1), g


def test_budget_below_population_rejected():
    with pytest.raises(ConfigurationError):
        run_de(make_instance(1, 1, 3), RAND1, budget=10, seed=0)


def test_result_is_minimum_of_evaluation_stream():
    inner = make_instance(8, 1, 3)
    counting = CountingInstance(inner)
    result = run_de(counting, RAND1, budget=200, seed=11)
    assert result == pytest.approx(min(counting.values) - inner.f_offset)


def test_all_evaluated_points_respect_bounds():
    inner = make_instance(3, 1, 3)
    counting = CountingInstance(inner)
    run_de(counting, DeConfig("x", "rand/1/bin", 1.9, 1.0, 20), budget=400, seed=2)
    allpts = np.vstack(counting.points)
    assert np.all(allpts >= -5.0) and np.all(allpts <= 5.0)


def test_selection_never_worsens_population():
    inner = make_instance(15, 1, 4)
    history = []
    run_de(inner, RAND1, budget=300, seed=7,
           on_generation=lambda gen, pop, fvals: history.append(fvals))
    for prev, cur in zip(history, history[1:]):
        assert np.all(cur <= prev + 1e-12)


def test_best_so_far_trace_monotone():
    inner = make_instance(10, 1, 4)
    counting = CountingInstance(inner)
    run_de(counting, RAND1, budget=300, seed=9)
    best = np.minimum.accumulate(np.array(counting.values))
    assert np.all(np.diff(best) <= 0.0)


def test_de_beats_random_search_on_sphere():
    # independent oracle: uniform random search with the same budget
    inst = make_instance(1, 1, 2)
    config = DeConfig("DE1", "rand/1/bin", 0.5, 0.9, 20)
    de_results = [run_de(inst, config, budget=1000, seed=s) for s in range(30)]
    rs_results = [random_search_precision(inst, 1000, seed=s) for s in range(30)]
    assert np.median(de_results) < np.median(rs_results)


def test_seed_determinism():
    inst = make_instance(6, 2, 5)
    config = DeConfig("DE2", "best/1/bin", 0.8, 0.5, 30)
    a = measure(inst, config, budget=300, n_runs=4, base_seed=77)
    b = measure(inst, config, budget=300, n_runs=4, base_seed=77)
    assert len(a) == 4
    assert a == b


def test_measure_uses_consecutive_seeds():
    inst = make_instance(2, 1, 3)
    precisions = measure(inst, RAND1, budget=100, n_runs=3, base_seed=50)
    singles = tuple(run_de(inst, RAND1, budget=100, seed=50 + r) for r in range(3))
    assert precisions == singles


def test_all_strategies_run():
    inst = make_instance(1, 1, 3)
    for config in default_portfolio(3) + [
        DeConfig("C2B", "current-to-best/1/bin", 0.7, 0.8, 20)
    ]:
        value = run_de(inst, config, budget=3 * config.population_size, seed=5)
        assert value >= 0.0


def test_median_log_examples():
    assert median_log_precision([1.0, 100.0, 10000.0]) == pytest.approx(2.0)
    assert median_log_precision([0.0, 0.0, 0.0]) == pytest.approx(-8.0)
    assert median_log_precision([1.0, 1000.0]) == pytest.approx(np.log10(500.5))


def test_measure_median_and_floor():
    inst = ConstantInstance()
    precisions = measure(inst, RAND1, budget=40, n_runs=3, base_seed=0)
    assert precisions == (0.0, 0.0, 0.0)
    assert median_log_precision(precisions) == pytest.approx(-8.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DeConfig("bad", "rand/7/bin", 0.5, 0.9, 20)
    with pytest.raises(ConfigurationError):
        DeConfig("bad", "rand/1/bin", 0.0, 0.9, 20)
    with pytest.raises(ConfigurationError):
        DeConfig("bad", "rand/1/bin", 0.5, 1.5, 20)
    with pytest.raises(ConfigurationError):
        DeConfig("bad", "rand/1/bin", 0.5, 0.9, 3)
    with pytest.raises(ConfigurationError):
        DeConfig("bad", "rand/2/bin", 0.5, 0.9, 5)  # rand/2 needs >= 6
    DeConfig("ok", "rand/2/bin", 0.5, 0.9, 6)


def test_default_portfolio_population_cap():
    assert default_population_size(5) == 50
    assert default_population_size(30) == 100
    portfolio = default_portfolio(10)
    assert [c.config_id for c in portfolio] == ["DE1", "DE2", "DE3"]
    assert all(c.population_size == 100 for c in portfolio)


def test_n_runs_validated():
    with pytest.raises(ConfigurationError):
        measure(ConstantInstance(), RAND1, budget=40, n_runs=0, base_seed=0)


def test_performance_csv_roundtrip(tmp_path):
    # two configs over two instances: each config reads back its own targets
    rows = [
        (config_id, inst.key, measure(inst, RAND1, budget=60, n_runs=2, base_seed=seed))
        for config_id, seed in (("DE1", 0), ("DE2", 10))
        for inst in (make_instance(1, 1, 3), make_instance(2, 1, 3))
    ]
    path = tmp_path / "performance.csv"
    write_performance_csv(rows, path)
    for config_id in ("DE1", "DE2"):
        assert read_performance_csv(path, config_id) == {
            key: median_log_precision(precisions)
            for cid, key, precisions in rows if cid == config_id
        }
    assert read_performance_csv(path, "DE3") == {}
    header, written = read_csv(path)
    assert header == ["config_id", "problem_id", "instance_id", "dimension", "n_runs",
                      "median_log_precision", "run_0", "run_1"]
    assert [(row["config_id"], int(row["n_runs"]), float(row["run_0"]), float(row["run_1"]))
            for row in written] == [(cid, 2, *precisions) for cid, _, precisions in rows]


@pytest.mark.parametrize("m", [20, 13])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mutants_match_naive_mutant(strategy, m):
    # m < pop_size is a truncated last generation
    assert STRATEGIES == tuple(NAIVE_N_PARENTS)
    pop_size, F = 20, 0.7
    rng = np.random.default_rng(3)
    pop = rng.uniform(-5.0, 5.0, (pop_size, 4))
    best = pop[rng.integers(pop_size)]
    n_parents, mutant = _MUTANTS[strategy]
    assert n_parents == NAIVE_N_PARENTS[strategy]
    x = pop[_draw_parents(rng, pop_size, m, n_parents).T]
    got = mutant(x, best, pop[:m], F)
    expected = naive_mutant(strategy, x, best, pop[:m], F)
    assert got.shape == expected.shape == (m, 4)
    assert got.tobytes() == expected.tobytes()
