import hashlib
import math
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

import footprints.de as de_mod
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

from _oracles import (
    NAIVE_N_PARENTS,
    naive_draw_parents,
    naive_mutant,
    naive_run_de,
    random_search_precision,
    stable_sort_draw_parents,
)

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


class CoarseRng:
    """Generator stub whose uniforms are multiples of 1/8, 0 included."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.floor(8 * self.rng.random(shape)) / 8


@pytest.mark.parametrize("make_rng", [np.random.default_rng, CoarseRng],
                         ids=["uniform", "coarse"])
def test_draw_parents_matches_list_pop(make_rng):
    # bitwise one list.pop per parent from every index but the target, also
    # for a truncated (m < pop_size) or 1-row last generation
    for pop_size in (4, 6, 20, 50, 100):
        for k in sorted({2, 3, 5, pop_size - 1} & set(range(2, pop_size))):
            for m in sorted({pop_size, pop_size // 3, 1}):
                for seed in range(20):
                    got = _draw_parents(make_rng(seed), pop_size, m, k)
                    expected = naive_draw_parents(make_rng(seed), pop_size, m, k)
                    assert got.shape == expected.shape == (m, k)
                    assert np.array_equal(got, expected), (pop_size, m, k, seed)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_draw_parents_of_k_plus_one_take_every_other_index(k):
    # pop_size == k + 1 leaves one choice for the last parent
    rng = np.random.default_rng(k)
    for m in (k + 1, 1):
        for _ in range(20):
            r = _draw_parents(rng, k + 1, m, k)
            for i, row in enumerate(r):
                assert sorted(row.tolist()) == [j for j in range(k + 1) if j != i]


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


class SphereStub:
    """f(x) = sum(x**2): no transcendental or BLAS call, so its bytes do not
    depend on the host. Digests every evaluated point."""

    f_offset = 0.0

    def __init__(self, dimension):
        self.dimension = dimension
        self.digest = hashlib.sha256()

    def evaluate_batch(self, X):
        self.digest.update(X.tobytes())
        return np.sum(X ** 2, axis=1)


# (strategy, dimension, budget, float.hex of the result, sha256 of every evaluated
# point and then the final population); per dimension the budgets leave a full,
# a truncated and a 1-row last generation
RUN_DE_PINS = [
    ("rand/1/bin", 2, 60, "0x1.cd225b8f459b2p-1",
     "fcfb998ec77162600861017269416f9e935024816ed43a3e5a63bd9e0a652f21"),
    ("rand/1/bin", 2, 70, "0x1.cd225b8f459b2p-1",
     "cdbac3488205a813db32e8221b1869bd20aaa5d5a9cc781d9bb47715f0e63fab"),
    ("rand/1/bin", 2, 61, "0x1.e45146451ad96p-4",
     "8c63e03ec0890f4d6dd82473df79420f50da44b0ae257200b42c3e667b9857f3"),
    ("rand/1/bin", 5, 150, "0x1.0c1c4fbaf32c0p+2",
     "5b797cc1718517c056062f2c97d05dd29e92bee75a8adae2786167a204ed77f2"),
    ("rand/1/bin", 5, 175, "0x1.0c1c4fbaf32c0p+2",
     "86cd06e264342f076abab79eaf90ee4a5aefd960f658852ebad0f73e0a047f01"),
    ("rand/1/bin", 5, 151, "0x1.0c1c4fbaf32c0p+2",
     "f33dab0034787af2de04b1a51d6e254599eda0f762d5156d21546afd430390b0"),
    ("rand/1/bin", 10, 300, "0x1.8b7b4ff5e1091p+4",
     "e90e2d36b80119fb97e904f1e99e600a27d6f63b24ba88efec26cb7fe6181cb2"),
    ("rand/1/bin", 10, 350, "0x1.8b7b4ff5e1091p+4",
     "99cb9d75fdf4f9e4bf4126cfe61d4bb521737d7a6c5d74a7b94cef98fb60f6c2"),
    ("rand/1/bin", 10, 301, "0x1.8b7b4ff5e1091p+4",
     "70600ed46b436be38243edf8357480d4f56526cfb474b10276370182074f7741"),
    ("best/1/bin", 2, 60, "0x1.28c03fd3b4701p-2",
     "df1eacdebbfb19c90270713ba27b63cd18c99d9fa0e777990f13c2a53bbfca5b"),
    ("best/1/bin", 2, 70, "0x1.28c03fd3b4701p-2",
     "cb823a4202dc66d867a27c10842261efa4b51fab109ba686e61e17f562e243ab"),
    ("best/1/bin", 2, 61, "0x1.28c03fd3b4701p-2",
     "1b4b35097d23581f1a9939a8c38e2d3c85724f6f3c410a83b4d765c6eae8b5ce"),
    ("best/1/bin", 5, 150, "0x1.a121c7093912ap+0",
     "701a176df7b2cc512fd0965043c1b361e06f8d20af11e058a478af33ebf8b49c"),
    ("best/1/bin", 5, 175, "0x1.a121c7093912ap+0",
     "1d53c39d8959721f2a66d9a358f32416f9ee38c4336e6029f359621240fe9619"),
    ("best/1/bin", 5, 151, "0x1.a121c7093912ap+0",
     "55eaed7737105da247037833d3b7ada18e8605de90651374338d56ba1c3eed04"),
    ("best/1/bin", 10, 300, "0x1.6bec958e6cee8p+4",
     "315e4301bf43b592bd8a46eeb50c78ef1f1f07b60ac63cd9d3386d2cb2d6cbfc"),
    ("best/1/bin", 10, 350, "0x1.6bec958e6cee8p+4",
     "58c8437e31c10598fe1115f00edd21521d2e54a398fd32c76ddcba286582b13a"),
    ("best/1/bin", 10, 301, "0x1.6bec958e6cee8p+4",
     "17f707886d2e438219cd79dc339eba345383866d3861feb68b4bf9ee4590790c"),
    ("rand/2/bin", 2, 60, "0x1.7255147e341b4p-2",
     "6f9d4815e670b7affbc90bff5dd876b5af308ba34b42e976d6a92ed5c1b558a4"),
    ("rand/2/bin", 2, 70, "0x1.7255147e341b4p-2",
     "d492591d67e368551cbe3ff55bbdbb63a2a95dc22658ac8c19f1d6dceb0862a0"),
    ("rand/2/bin", 2, 61, "0x1.7255147e341b4p-2",
     "4efe5188aee46e62544074096478c3d3a90662ca0166783e5cd40b2e38f1eca8"),
    ("rand/2/bin", 5, 150, "0x1.93c69e4824523p+2",
     "c05ecc3987d99b4e8821f89f34545cd10db75a63956d6036712879776c64537b"),
    ("rand/2/bin", 5, 175, "0x1.93c69e4824523p+2",
     "f540ef5284fd6f1a7d3d6d68c5073abc8632abcf2d6a9bdf8fad6778d64cfb56"),
    ("rand/2/bin", 5, 151, "0x1.93c69e4824523p+2",
     "74eba1e23c662207d6408692bb50f8327a5ba51cc845b404f00a6931a010369d"),
    ("rand/2/bin", 10, 300, "0x1.a030d7674ccc2p+4",
     "5c12d21770ce727fccf36d4e1d4f6561ed012b138e650a2e9ec034562754c332"),
    ("rand/2/bin", 10, 350, "0x1.8cfb6cade6907p+4",
     "facc60e06744b6a69c4e325429e97b70695fba0b69d378fb30cb12ff8b750c0c"),
    ("rand/2/bin", 10, 301, "0x1.a030d7674ccc2p+4",
     "9dbe89bf01afdfdaf7974900d6c98a3f1375d067ea5505535e1c0d135bab563e"),
    ("current-to-best/1/bin", 2, 60, "0x1.c8b6c7174f8b2p-3",
     "c18c6d00a5a121e4391ed37a419460c163bb1fadd5ddb218b91d28d8be06ff12"),
    ("current-to-best/1/bin", 2, 70, "0x1.c8b6c7174f8b2p-3",
     "317d0bfe3d13d748ea6820cb387b7e8475d5df3e38a26d4004d304d8529c4e4e"),
    ("current-to-best/1/bin", 2, 61, "0x1.c8b6c7174f8b2p-3",
     "3be77d2d20adc50d484da09f2cf6b94a558d5970afb16b6b102ac58ef6c0db24"),
    ("current-to-best/1/bin", 5, 150, "0x1.b09d2481fc081p+2",
     "7681de19a425a7a830d50757053c975b38778c97f457177f63ff79ff2ce0b166"),
    ("current-to-best/1/bin", 5, 175, "0x1.4ddcaee0dcdd1p+1",
     "fde44e2de4a7f1b06012473422591f7933887962a502c0944cb98eee5301e4ce"),
    ("current-to-best/1/bin", 5, 151, "0x1.b09d2481fc081p+2",
     "b60f5e16f66e2a8b497316c4f374877c08fc50ce8699d45d04a613a6b986b99e"),
    ("current-to-best/1/bin", 10, 300, "0x1.96e8e360e809cp+4",
     "e8de1ed12e20b5f291b82c4210306a6acfb471f5ec311916b1319094db7d0a82"),
    ("current-to-best/1/bin", 10, 350, "0x1.13d3b6b734375p+4",
     "786ce8be19ed20e0a48fa597012a560207a238ae9e0db4413e88a087d96c5b55"),
    ("current-to-best/1/bin", 10, 301, "0x1.96e8e360e809cp+4",
     "01fd422315c839bcf111699dc522b230e6d56b661acfc02fcd3fbad92c3cab64"),
]


def _assert_run_de_pinned(strategy, dim, budget, result_hex, digest):
    sphere = SphereStub(dim)
    populations = []
    config = DeConfig("P", strategy, 0.7, 0.5, default_population_size(dim))
    result = run_de(sphere, config, budget, seed=dim,
                    on_generation=lambda gen, pop, fvals: populations.append(pop))
    sphere.digest.update(populations[-1].tobytes())
    assert result.hex() == result_hex
    assert sphere.digest.hexdigest() == digest


@pytest.mark.parametrize("strategy,dim,budget,result_hex,digest", RUN_DE_PINS,
                         ids=[f"{s}-{d}-{b}" for s, d, b, _, _ in RUN_DE_PINS])
def test_run_de_results_pinned_k_m_draw(strategy, dim, budget, result_hex, digest):
    _assert_run_de_pinned(strategy, dim, budget, result_hex, digest)


# The same runs as recorded before version 0.2.6, whose parent draw was a stable
# sort of (m, pop_size) uniform keys. With that draw put back in, everything else
# run_de does (mutation, crossover, reflection, selection, the truncated last
# generation) still gives the recorded bytes.
STABLE_SORT_DRAW_PINS = [
    ("rand/1/bin", 2, 60, "0x1.46e9b106cf1dep-3",
     "6087469649da10b24376ce5158a6ec45c8f51e09b10c5875495f61795e4b8123"),
    ("rand/1/bin", 2, 70, "0x1.46e9b106cf1dep-3",
     "cb25715dfb330ceb17e8388ef0ffc927350750539a9f484c5c5f9126e3a90b9f"),
    ("rand/1/bin", 2, 61, "0x1.46e9b106cf1dep-3",
     "a55cf1b1b3514022b83bcc30237a2588f359655c492d87ea476d1bc724ccc151"),
    ("rand/1/bin", 5, 150, "0x1.ee622d96b5c88p+2",
     "01f1d3c355a56bf550f13b63a21cd66971bd65033ce847fff087dc15953c04d0"),
    ("rand/1/bin", 5, 175, "0x1.ee622d96b5c88p+2",
     "51b0329986189a9eab6124cd6577c684dfb75b85a6435156cc07795a2270dc11"),
    ("rand/1/bin", 5, 151, "0x1.ee622d96b5c88p+2",
     "4bf02e2bf4ee49ba02240a0f66e802bb1ff4dfd4b077e6be5e527bf7bbbfb13e"),
    ("rand/1/bin", 10, 300, "0x1.a030d7674ccc2p+4",
     "427800601b1e9415a8db749ae7e51bfff85a536975537535e90be1ec1df18b6f"),
    ("rand/1/bin", 10, 350, "0x1.49992d4e811d9p+4",
     "92d90b2c9532c0f8236ec8daa0c3cbad758dca93ef7cdfe09ad79dab3ba7f2e0"),
    ("rand/1/bin", 10, 301, "0x1.a030d7674ccc2p+4",
     "37a3915b43825120b9cc90a699fe62da4155f2ecf8cc02ed71783829f3946757"),
    ("best/1/bin", 2, 60, "0x1.3e01d7b287685p-1",
     "6895b0ea436057b01f4dfe642af64e00b734b18de588e18c8acaee7aadd7135f"),
    ("best/1/bin", 2, 70, "0x1.3e01d7b287685p-1",
     "8098e8e1c0e05107969e2c0e33dc062649a9a950d24d1d67c6f1cff21d308570"),
    ("best/1/bin", 2, 61, "0x1.3e01d7b287685p-1",
     "4a1bd946801d7daaa216446f309a1df9f7b828c221bfb6f805bdfd91698389fc"),
    ("best/1/bin", 5, 150, "0x1.911e4a928650dp+2",
     "9b132730a9214ae1f6bdcc1afa895234473ea1bbf0432438aee81b68af877e07"),
    ("best/1/bin", 5, 175, "0x1.43663f40ee19dp+1",
     "e5f2a241013142b8ed2dc0dafb8a9fe40ca365b7547f12ea2b054b27d103360a"),
    ("best/1/bin", 5, 151, "0x1.911e4a928650dp+2",
     "333ca907035e40787720080981f6e80a5988350f72bc7ea697adda82f2f15fd2"),
    ("best/1/bin", 10, 300, "0x1.d59a6613f3b6cp+3",
     "1c7a575a8cbfd4371d86e3d4418ed6c3a8a8c8d9ca61f792934ce4914c5429c6"),
    ("best/1/bin", 10, 350, "0x1.6e845d231f2a2p+3",
     "8105aefbb3bc2f2be8afd5cb2fa885331f6b0b2bb2f11d1a8cc1c1821a26a550"),
    ("best/1/bin", 10, 301, "0x1.d59a6613f3b6cp+3",
     "5c461337904792d0aa39f3e2350db1f0a8264536ccdd7cad93689c11b9386b81"),
    ("rand/2/bin", 2, 60, "0x1.b816b95eeacf0p-6",
     "7f3e2da2decfb3f4d5e26c3931801b8ba68a37719b74edce26f3c1726de256b4"),
    ("rand/2/bin", 2, 70, "0x1.b816b95eeacf0p-6",
     "4563ef8a3224d8a8abd15916fa2d0f71ed3a377562fef923d0bcaac3866fed91"),
    ("rand/2/bin", 2, 61, "0x1.b816b95eeacf0p-6",
     "5d73f7df8787ff668e7bd978d39dd1c6520bc8b632d39e02e24a2fa897e0128d"),
    ("rand/2/bin", 5, 150, "0x1.922a238239935p+2",
     "c95327f4347d4597c98e233e09bd3f85ef7adafef8b87f2889ea0d4c40802a2d"),
    ("rand/2/bin", 5, 175, "0x1.922a238239935p+2",
     "d7a0a7ec904c5aa265fa90a8d656af81c0bbcf7ed26a20f1c5d17a9eb15631cb"),
    ("rand/2/bin", 5, 151, "0x1.922a238239935p+2",
     "e57e2509e59a61db99dafca4f7af6a28dcca64367fdf5239bc3c7d6e5925615b"),
    ("rand/2/bin", 10, 300, "0x1.821d37bcc3d66p+4",
     "a1e1e3c0775134e22ee01058b0024dac6dddb4805b576e480947b0568e7558fa"),
    ("rand/2/bin", 10, 350, "0x1.821d37bcc3d66p+4",
     "ed8272cb131d1baf600fcb804e88773e05adb2ba1c921bdb25541da18f5b17e9"),
    ("rand/2/bin", 10, 301, "0x1.821d37bcc3d66p+4",
     "f22c25e2a8bd5b8c8f32764f837d5cce9a7e00afc76e643e3ea2fd7022fa8dd7"),
    ("current-to-best/1/bin", 2, 60, "0x1.bd0379a6f8918p-4",
     "ad4aca2ff45829daf1cb0d3f6718747825c7feba529c7f86eb3b7bbbac8174e3"),
    ("current-to-best/1/bin", 2, 70, "0x1.bd0379a6f8918p-4",
     "8082d7e0913a04f5c7b5dc1068dbd87a87fb907283116eca58794ef91c6f9bf7"),
    ("current-to-best/1/bin", 2, 61, "0x1.bd0379a6f8918p-4",
     "87a9f4adab4be63b16543206d85dc3baae561afa065c6bf362ae8d9b4aeb54f1"),
    ("current-to-best/1/bin", 5, 150, "0x1.a6b1ba519d468p+2",
     "c6feb23cb4ee800408705b474494c15ae3f8c3507dbd87d313377962e545c5a2"),
    ("current-to-best/1/bin", 5, 175, "0x1.a6b1ba519d468p+2",
     "722a0290e9d098015fe5bf35127ae5b4b1bb1aa2ba8b4b4d662c0575c1983c6a"),
    ("current-to-best/1/bin", 5, 151, "0x1.a6b1ba519d468p+2",
     "6e228d231ef1523f0f396dd2ca888d28e50a1c65912755534289a4533a2c2701"),
    ("current-to-best/1/bin", 10, 300, "0x1.768d746094c53p+3",
     "b9aeb3ce5b0601ba91ff6f59d0bd096cddb27031a0a1d1451f2adf3fea237d54"),
    ("current-to-best/1/bin", 10, 350, "0x1.768d746094c53p+3",
     "5abd59752853634e85a5011dbd1fcb3f3d507770dfe6919a8e73336bf50cd130"),
    ("current-to-best/1/bin", 10, 301, "0x1.768d746094c53p+3",
     "31644e20f924b23d9813dd2c833c788de92fe42eb902b812dfcb3847b93e3094"),
]


@pytest.mark.parametrize("strategy,dim,budget,result_hex,digest", STABLE_SORT_DRAW_PINS)
def test_run_de_results_pinned(monkeypatch, strategy, dim, budget, result_hex, digest):
    monkeypatch.setattr(de_mod, "_draw_parents", stable_sort_draw_parents)
    _assert_run_de_pinned(strategy, dim, budget, result_hex, digest)


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


def _recorded_run(inner, run):
    """run(instance, on_generation)'s result, every generation's population and
    values, and every evaluated batch, all as bytes."""
    counting = CountingInstance(inner)
    history = []
    result = run(counting, lambda gen, pop, fvals: history.append(
        (gen, pop.tobytes(), fvals.tobytes())))
    return result.hex(), history, [points.tobytes() for points in counting.points]


@pytest.mark.parametrize("dim", [2, 5, 10])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_de_matches_naive_run_de_bitwise(strategy, dim):
    # f5 (linear slope) pushes the population onto the bounds, and F = 2 sends
    # many trials out of them; per (F, Cr) the budgets leave a full, a truncated
    # and a 1-row last generation
    pop_size = default_population_size(dim)
    for problem in (1, 5, 16, 21, 23):
        inner = make_instance(problem, 1, dim)
        for F, Cr in ((0.7, 0.5), (2.0, 0.0), (2.0, 0.5), (2.0, 1.0)):
            config = DeConfig("N", strategy, F, Cr, pop_size)
            for budget in (4 * pop_size, 4 * pop_size + pop_size // 3, 4 * pop_size + 1):
                got = _recorded_run(inner, lambda inst, hook: run_de(
                    inst, config, budget, seed=problem, on_generation=hook))
                expected = _recorded_run(inner, lambda inst, hook: naive_run_de(
                    inst, strategy, F, Cr, pop_size, budget, seed=problem, on_generation=hook))
                assert got == expected, (problem, F, Cr, budget)


def test_reflect_edge_cases_match_one_mod_over_every_coordinate():
    # the bounds, one ulp either side of each, offsets that np.mod rounds up to
    # exactly 2*span, huge and non-finite values, and both signed zeros
    lo, hi = -5.0, 5.0
    span = hi - lo
    edges = [lo, hi, lo + 2.0 * span, lo - 2.0 * span, hi + 2.0 * span]
    values = [-5.0, 5.0, 15.0, -5.0 - 1e-15, 15.0 - 1e-15, -25.0 - 1e-14, lo - 1e-17,
              1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 2.5, -7.25]
    for edge in edges:
        values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    X = np.array([values, values[::-1]]).T
    before = X.tobytes()
    with np.errstate(invalid="ignore"):
        Y = np.mod(X - lo, 2.0 * span)
        expected = lo + np.where(Y > span, 2.0 * span - Y, Y)
        got = _reflect(X)
    assert got.tobytes() == expected.tobytes()
    assert X.tobytes() == before
    assert got is not X
