"""Scalable 24-function benchmark suite with per-instance transformations.

Each problem id maps to one of the classic noiseless single-objective test
functions (sphere ... bi-Rastrigin). An instance shifts the optimum to a
seed-derived point in [-4, 4]^D and translates the objective by a
seed-derived offset, so ``evaluate_batch`` gives exactly ``f_offset`` at the
optimum ``x_opt = shift`` and at least ``f_offset`` everywhere.

Functions are written in optimum-at-origin coordinates ``y = x - shift``.
Where the classic definition pins its optimum elsewhere (linear slope,
Rosenbrock family, Schwefel, Gallagher peaks, bi-Rastrigin) the core is
composed so that the optimum lands on the shift, and the residual core
value at the optimum (FP noise, e.g. ~1e-13 for Schwefel) is subtracted at
construction time. Gallagher's peaks are taken in rotated coordinates, each
quadratic form expanded into two matmuls over all peaks; the optimum peak
sits at the origin of those coordinates, so that core is exactly 0 there.

Evaluation is allowed outside [-5, 5]^D and adds no out-of-bounds penalty;
the only penalty term kept is Schwefel's, which is part of that function
being bounded below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

import numpy as np

from .csvio import KEY_COLUMNS, Key, write_csv
from .errors import ConfigurationError, ContractViolation
from .seeding import SUITE_SALT, derive_seed

LOWER_BOUND = -5.0
UPPER_BOUND = 5.0
SHIFT_RANGE = 4.0
N_PROBLEMS = 24


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One transformed benchmark function; immutable and safe to share."""

    problem_id: int
    instance_id: int
    dimension: int
    shift: np.ndarray
    f_offset: float
    aux: dict = field(repr=False)
    core_at_opt: float = field(repr=False)

    @property
    def key(self) -> Key:
        return (self.problem_id, self.instance_id, self.dimension)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ContractViolation(
                f"expected points of dimension {self.dimension}, got shape {X.shape}"
            )
        Y = X - self.shift[None, :]
        core = _PROBLEMS[self.problem_id][1](Y, self.aux)
        return core - self.core_at_opt + self.f_offset


def make_instance(problem_id: int, instance_id: int, dimension: int) -> ProblemInstance:
    """Construct an instance; identical arguments always give identical functions."""
    if not 1 <= problem_id <= N_PROBLEMS:
        raise ConfigurationError(f"unknown problem id {problem_id}; valid range is 1..{N_PROBLEMS}")
    if instance_id < 1:
        raise ConfigurationError("instance id must be >= 1")
    if dimension < 2:
        raise ConfigurationError("dimension must be >= 2")
    seed = derive_seed(SUITE_SALT, problem_id, instance_id, dimension)
    rng = np.random.default_rng(seed)
    # Fixed draw order: shift, offset, then per-function setup.
    shift = rng.uniform(-SHIFT_RANGE, SHIFT_RANGE, dimension)
    f_offset = round(float(rng.uniform(-100.0, 100.0)), 2)
    setup, core = _PROBLEMS[problem_id]
    aux = setup(dimension, rng)
    shift.setflags(write=False)
    core_at_opt = float(core(np.zeros((1, dimension)), aux)[0])
    return ProblemInstance(
        problem_id=problem_id,
        instance_id=instance_id,
        dimension=dimension,
        shift=shift,
        f_offset=f_offset,
        aux=aux,
        core_at_opt=core_at_opt,
    )


def make_suite(problems: Iterable[int], instances: Iterable[int],
               dimension: int) -> list[ProblemInstance]:
    """All distinct (problem, instance) pairs in problem-major, instance-minor
    order of their ids."""
    return [
        make_instance(p, i, dimension)
        for p in sorted(set(problems))
        for i in sorted(set(instances))
    ]


def precision(instance: ProblemInstance, f_value: float) -> float:
    """Distance of an objective value to the instance optimum, clamped at 0."""
    return max(float(f_value) - instance.f_offset, 0.0)


def write_suite_csv(instances: Iterable[ProblemInstance], path) -> None:
    instances = list(instances)
    dim = instances[0].dimension if instances else 0
    write_csv(
        path,
        [*KEY_COLUMNS, "f_offset"] + [f"shift_{j}" for j in range(dim)],
        ([*inst.key, inst.f_offset, *inst.shift] for inst in instances),
    )


# ---------------------------------------------------------------------------
# shared coordinate transformations (batch form, rows are points)

def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthogonal matrix from QR of a seeded Gaussian, sign-normalized."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))[None, :]


def _t_osz(Z: np.ndarray) -> np.ndarray:
    absZ = np.abs(Z)
    xhat = np.zeros_like(Z)
    nz = absZ > 0
    xhat[nz] = np.log(absZ[nz])
    c1 = np.where(Z > 0, 10.0, 5.5)
    c2 = np.where(Z > 0, 7.9, 3.1)
    out = np.sign(Z) * np.exp(xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))
    out[~nz] = 0.0
    return out


def _t_asy(Z: np.ndarray, beta: float) -> np.ndarray:
    dim = Z.shape[1]
    idx = np.arange(dim) / (dim - 1)
    pos = Z > 0
    exponent = 1.0 + beta * idx[None, :] * np.sqrt(np.where(pos, Z, 0.0))
    return np.where(pos, np.where(pos, Z, 1.0) ** exponent, Z)


def _lam(alpha: float, dim: int) -> np.ndarray:
    """Diagonal of the conditioning matrix, as a vector."""
    return alpha ** (0.5 * np.arange(dim) / (dim - 1))


def _fpen(Z: np.ndarray) -> np.ndarray:
    return np.sum(np.maximum(0.0, np.abs(Z) - 5.0) ** 2, axis=1)


def _rot(Y: np.ndarray, R: np.ndarray) -> np.ndarray:
    return Y @ R.T


# ---------------------------------------------------------------------------
# per-problem setup (seed-derived constants) and cores

def _setup(*names):
    """A setup drawing the named constants in the order named: "R" and "Q"
    are orthogonal matrices, "signs" a vector of random signs."""
    def setup(dim, rng):
        return {name: np.where(rng.random(dim) < 0.5, -1.0, 1.0) if name == "signs"
                else _orthogonal(rng, dim) for name in names}

    return setup


def _setup_gallagher(n_peaks: int, alpha_first: float, peak_range: float):
    """Draws R, each peak's permuted diagonal, then the peaks. The core works in
    rotated coordinates Z = Y @ R.T, where peak p sits at C[p] = peaks[p] @ R.T and
    its quadratic form expands to Z*Z @ D[p] + Z @ (-2*D[p]*C[p]) + sum(D[p]*C[p]**2)
    (Hansen et al. 2009, RR-6829)."""
    def setup(dim, rng):
        R = _orthogonal(rng, dim)
        alpha_set = 1000.0 ** (2.0 * np.arange(n_peaks - 1) / (n_peaks - 2))
        alphas = np.concatenate(([alpha_first], rng.permutation(alpha_set)))
        D = np.array([rng.permutation(_lam(a, dim) / a ** 0.25) for a in alphas])
        peaks = rng.uniform(-peak_range, peak_range, (n_peaks, dim))
        peaks[0] = 0.0  # optimum peak sits on the shift
        C = _rot(peaks, R)
        weights = np.concatenate(
            ([10.0], 1.1 + 8.0 * np.arange(n_peaks - 1) / (n_peaks - 2))
        )
        return {"R": R, "D": D, "M": -2.0 * D * C, "k": np.sum(D * C * C, axis=1),
                "weights": weights}

    return setup


def _f01_sphere(Y, aux):
    return np.sum(Y**2, axis=1)


def _f02_ellipsoid(Y, aux):
    dim = Y.shape[1]
    z = _t_osz(Y)
    scale = 10.0 ** (6.0 * np.arange(dim) / (dim - 1))
    return np.sum(scale[None, :] * z**2, axis=1)


def _rastrigin_sum(Z):
    dim = Z.shape[1]
    return 10.0 * (dim - np.sum(np.cos(2.0 * np.pi * Z), axis=1)) + np.sum(Z**2, axis=1)


def _f03_rastrigin(Y, aux):
    dim = Y.shape[1]
    z = _t_asy(_t_osz(Y), 0.2) * _lam(10.0, dim)[None, :]
    return _rastrigin_sum(z)


def _f04_bueche(Y, aux):
    dim = Y.shape[1]
    z = _t_osz(Y)
    s = 10.0 ** (0.5 * np.arange(dim) / (dim - 1))
    s = np.broadcast_to(s, z.shape).copy()
    odd = np.arange(dim) % 2 == 0  # 1-based odd coordinates
    s[:, odd] = np.where(z[:, odd] > 0, 10.0 * s[:, odd], s[:, odd])
    return _rastrigin_sum(s * z)


def _f05_linear_slope(Y, aux):
    dim = Y.shape[1]
    corner = 5.0 * aux["signs"]
    s = aux["signs"] * 10.0 ** (np.arange(dim) / (dim - 1))
    x = Y + corner[None, :]
    z = np.where(x * corner[None, :] < 25.0, x, corner[None, :])
    return np.sum(5.0 * np.abs(s)[None, :] - s[None, :] * z, axis=1)


def _f06_attractive_sector(Y, aux):
    dim = Y.shape[1]
    z = _rot(_rot(Y, aux["R"]) * _lam(10.0, dim)[None, :], aux["Q"])
    s = np.where(z * aux["signs"][None, :] > 0, 100.0, 1.0)
    total = np.sum((s * z) ** 2, axis=1)
    return _t_osz(total[:, None])[:, 0] ** 0.9


def _f07_step_ellipsoid(Y, aux):
    dim = Y.shape[1]
    zhat = _rot(Y, aux["R"]) * _lam(10.0, dim)[None, :]
    ztilde = np.where(
        np.abs(zhat) > 0.5, np.floor(0.5 + zhat), np.floor(0.5 + 10.0 * zhat) / 10.0
    )
    z = _rot(ztilde, aux["Q"])
    scale = 100.0 * 10.0 ** (2.0 * np.arange(dim) / (dim - 1))
    body = np.sum(scale[None, :] * z**2, axis=1)
    return 0.1 * np.maximum(np.abs(zhat[:, 0]) / 1e4, body)


def _rosenbrock_sum(Z):
    a = Z[:, :-1]
    b = Z[:, 1:]
    return np.sum(100.0 * (a**2 - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _f08_rosenbrock(Y, aux):
    dim = Y.shape[1]
    z = max(1.0, np.sqrt(dim) / 8.0) * Y + 1.0
    return _rosenbrock_sum(z)


def _f09_rosenbrock_rot(Y, aux):
    return _f08_rosenbrock(_rot(Y, aux["R"]), aux)


def _f10_ellipsoid_rot(Y, aux):
    return _f02_ellipsoid(_rot(Y, aux["R"]), aux)


def _f11_discus(Y, aux):
    z = _t_osz(_rot(Y, aux["R"]))
    return 1e6 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=1)


def _f12_bent_cigar(Y, aux):
    z = _rot(_t_asy(_rot(Y, aux["R"]), 0.5), aux["R"])
    return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=1)


def _f13_sharp_ridge(Y, aux):
    dim = Y.shape[1]
    z = _rot(_rot(Y, aux["R"]) * _lam(10.0, dim)[None, :], aux["Q"])
    return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=1))


def _f14_different_powers(Y, aux):
    dim = Y.shape[1]
    z = _rot(Y, aux["R"])
    expo = 2.0 + 4.0 * np.arange(dim) / (dim - 1)
    return np.sqrt(np.sum(np.abs(z) ** expo[None, :], axis=1))


def _f15_rastrigin_rot(Y, aux):
    dim = Y.shape[1]
    z = _t_asy(_t_osz(_rot(Y, aux["R"])), 0.2)
    z = _rot(_rot(z, aux["Q"]) * _lam(10.0, dim)[None, :], aux["R"])
    return _rastrigin_sum(z)


_WEIERSTRASS_K = np.arange(12)
_WEIERSTRASS_F0 = float(np.sum(0.5**_WEIERSTRASS_K * np.cos(np.pi * 3.0**_WEIERSTRASS_K)))


def _f16_weierstrass(Y, aux):
    dim = Y.shape[1]
    z = _rot(_rot(_t_osz(_rot(Y, aux["R"])), aux["Q"]) * _lam(0.01, dim)[None, :], aux["R"])
    half_k = 0.5**_WEIERSTRASS_K
    three_k = 3.0**_WEIERSTRASS_K
    terms = half_k[None, None, :] * np.cos(
        2.0 * np.pi * three_k[None, None, :] * (z[:, :, None] + 0.5)
    )
    inner = np.sum(terms, axis=(1, 2)) / dim
    return 10.0 * (inner - _WEIERSTRASS_F0) ** 3


def _schaffers(Y, aux, condition):
    dim = Y.shape[1]
    z = _rot(_t_asy(_rot(Y, aux["R"]), 0.5), aux["Q"]) * _lam(condition, dim)[None, :]
    s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
    total = np.sum(np.sqrt(s) + np.sqrt(s) * np.sin(50.0 * s**0.2) ** 2, axis=1)
    return (total / (dim - 1.0)) ** 2


def _f19_griewank_rosenbrock(Y, aux):
    dim = Y.shape[1]
    z = max(1.0, np.sqrt(dim) / 8.0) * _rot(Y, aux["R"]) + 1.0
    s = 100.0 * (z[:, :-1] ** 2 - z[:, 1:]) ** 2 + (z[:, :-1] - 1.0) ** 2
    return 10.0 * np.sum(s / 4000.0 - np.cos(s), axis=1) / (dim - 1.0) + 10.0


_SCHWEFEL_XOPT = 4.2096874633


def _f20_schwefel(Y, aux):
    dim = Y.shape[1]
    signs = aux["signs"]
    copt = 0.5 * _SCHWEFEL_XOPT * signs
    x = Y + copt[None, :]
    xhat = 2.0 * signs[None, :] * x
    zhat = xhat.copy()
    zhat[:, 1:] += 0.25 * (xhat[:, :-1] - _SCHWEFEL_XOPT)
    z = 100.0 * (_lam(10.0, dim)[None, :] * (zhat - _SCHWEFEL_XOPT) + _SCHWEFEL_XOPT)
    body = -np.sum(z * np.sin(np.sqrt(np.abs(z))), axis=1) / (100.0 * dim)
    return body + 4.189828872724339 + 100.0 * _fpen(z / 100.0)


# The most cells of one chunk's temporaries in Gallagher's peaks and
# Katsuura's digits: 2^14 float64 cells are 128 KiB, glibc's default mmap
# threshold. A larger temporary goes back to the kernel when it is freed
# (unmapped, or trimmed off the top of the heap), so every call faults its
# pages in afresh; a smaller one is reused from the heap. Both cores chunk
# rows: Gallagher's (rows, peaks) quadratic forms, Katsuura's (rows, D, 32)
# digit terms.
CHUNK_CELLS = 1 << 14


def _gallagher(Y, aux):
    """Gallagher's peaks (f21, f22). All rows are rotated once; then each
    peak's quadratic form is two (rows, D) @ (D, peaks) matmuls plus a
    constant, a chunk of rows at a time. The chunks differ by at most one row
    and hold at least two rows unless the batch has one, since a 1-row matmul
    takes another BLAS path; so each value is the unchunked pass's, and does
    not depend on the other rows of the batch. Peak 0 has C = 0, so the
    value at the optimum is exactly 0."""
    n, dim = Y.shape
    D, M, k, weights = aux["D"], aux["M"], aux["k"], aux["weights"]
    Z = _rot(Y, aux["R"])
    best = np.empty(n)
    n_chunks = max(1, -(-n // max(3, CHUNK_CELLS // weights.size)))
    bounds = np.arange(n_chunks + 1) * n // n_chunks
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z = Z[lo:hi]
        quad = (z * z) @ D.T + z @ M.T + k
        best[lo:hi] = np.max(weights * np.exp(-quad / (2.0 * dim)), axis=1)
    return _t_osz((10.0 - best)[:, None])[:, 0] ** 2


_KATSUURA_J = 2.0 ** np.arange(1, 33)


def _f23_katsuura(Y, aux):
    """Katsuura's function (f23). The (rows, D, 32) digit terms are taken a
    chunk of rows at a time, after the rotations of all rows; each row's
    sums and product are those of one unchunked pass, bit for bit."""
    n, dim = Y.shape
    z = _rot(_rot(Y, aux["R"]) * _lam(100.0, dim)[None, :], aux["Q"])
    s = np.empty_like(z)
    step = max(1, CHUNK_CELLS // (dim * _KATSUURA_J.size))
    for r in range(0, n, step):
        zj = z[r:r + step, :, None] * _KATSUURA_J
        s[r:r + step] = np.sum(np.abs(zj - np.round(zj)) / _KATSUURA_J, axis=2)
    prod = np.prod(1.0 + np.arange(1, dim + 1)[None, :] * s, axis=1)
    return (10.0 / dim**2) * (prod ** (10.0 / dim**1.2) - 1.0)


def _f24_lunacek(Y, aux):
    dim = Y.shape[1]
    signs = aux["signs"]
    mu0 = 2.5
    d = 1.0
    s = 1.0 - 1.0 / (2.0 * np.sqrt(dim + 20.0) - 8.2)
    mu1 = -np.sqrt((mu0**2 - d) / s)
    x = Y + (0.5 * mu0 * signs)[None, :]
    xhat = 2.0 * signs[None, :] * x
    z = _rot(_rot(xhat - mu0, aux["R"]) * _lam(100.0, dim)[None, :], aux["Q"])
    s1 = np.sum((xhat - mu0) ** 2, axis=1)
    s2 = d * dim + s * np.sum((xhat - mu1) ** 2, axis=1)
    return np.minimum(s1, s2) + 10.0 * (dim - np.sum(np.cos(2.0 * np.pi * z), axis=1))


# problem id -> (per-instance setup drawn after shift and offset, core),
# with the function's name in the comment
_PROBLEMS = {
    1: (_setup(), _f01_sphere),  # sphere
    2: (_setup(), _f02_ellipsoid),  # ellipsoid_separable
    3: (_setup(), _f03_rastrigin),  # rastrigin_separable
    4: (_setup(), _f04_bueche),  # bueche_rastrigin
    5: (_setup("signs"), _f05_linear_slope),  # linear_slope
    6: (_setup("R", "Q", "signs"), _f06_attractive_sector),  # attractive_sector
    7: (_setup("R", "Q"), _f07_step_ellipsoid),  # step_ellipsoid
    8: (_setup(), _f08_rosenbrock),  # rosenbrock
    9: (_setup("R"), _f09_rosenbrock_rot),  # rosenbrock_rotated
    10: (_setup("R"), _f10_ellipsoid_rot),  # ellipsoid_rotated
    11: (_setup("R"), _f11_discus),  # discus
    12: (_setup("R"), _f12_bent_cigar),  # bent_cigar
    13: (_setup("R", "Q"), _f13_sharp_ridge),  # sharp_ridge
    14: (_setup("R"), _f14_different_powers),  # different_powers
    15: (_setup("R", "Q"), _f15_rastrigin_rot),  # rastrigin_rotated
    16: (_setup("R", "Q"), _f16_weierstrass),  # weierstrass
    17: (_setup("R", "Q"), partial(_schaffers, condition=10.0)),  # schaffers_f7
    18: (_setup("R", "Q"), partial(_schaffers, condition=1000.0)),  # schaffers_f7_ill
    19: (_setup("R"), _f19_griewank_rosenbrock),  # griewank_rosenbrock
    20: (_setup("signs"), _f20_schwefel),  # schwefel
    21: (_setup_gallagher(101, 1000.0, 5.0), _gallagher),  # gallagher_101
    22: (_setup_gallagher(21, 1000.0**2, 4.9), _gallagher),  # gallagher_21
    23: (_setup("R", "Q"), _f23_katsuura),  # katsuura
    24: (_setup("R", "Q", "signs"), _f24_lunacek),  # lunacek_bi_rastrigin
}
