"""Wigner ensemble sampling, polynomial assembly and empirical spectral statistics.

Entries follow the standard normalization: centered unit-variance atoms
scaled by 1/sqrt(N), real on the diagonal, conjugate-symmetric off it.  Trial
streams are split from the root seed with a counter-based scheme so runs are
reproducible regardless of scheduling, and trials can execute concurrently
with results merged in trial-index order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import InfrastructureError, PolynomialSpec

GAUSSIAN_COMPLEX = "gaussian-complex"
GAUSSIAN_REAL = "gaussian-real"
RADEMACHER = "rademacher"
DISTRIBUTIONS = (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER)

ASYMMETRY_RTOL = 1e-10
EDGE_NEIGHBORS = 8
TILE = 128  # transposes go tile by tile so both sides stay in cache


class AsymmetryBlowupError(InfrastructureError):
    """An input matrix is not Hermitian within the roundoff budget."""


class SimulationError(InfrastructureError):
    """One or more trials failed; carries (trial index, error) pairs."""

    def __init__(self, failures: list[tuple[int, Exception]]):
        lines = ", ".join(f"trial {i}: {err!r}" for i, err in failures)
        super().__init__(f"{len(failures)} trial(s) failed: {lines}")
        self.failures = failures


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble dimensions, entry law and the reproducibility seed."""

    N: int
    dist: str = GAUSSIAN_COMPLEX
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class EdgeVectorStat:
    """Eigenvalue and largest squared eigenvector coordinate near a probed edge."""

    eigenvalue: float
    max_component_sq: float


@dataclass
class SimulationResult:
    """Per-trial eigenvalues (ascending), spectral norms and edge eigenvector stats.

    ``edge_vectors[t]`` holds the stats of the eigenpairs of trial t closest
    to ``edge_target`` (at most 8 pairs), and is empty when no target was given.
    """

    config: EnsembleConfig
    eigenvalues: list[np.ndarray]
    norms: np.ndarray
    edge_target: float | None
    edge_vectors: list[list[EdgeVectorStat]]


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(trial_index),)))


def _atoms(rng: np.random.Generator, dist: str, n: int):
    if dist == GAUSSIAN_COMPLEX:
        re = rng.standard_normal((n, n))
        off = 1j * rng.standard_normal((n, n))
        off += re
        off /= np.sqrt(2.0)  # in place: the same values as (re + 1j * im) / sqrt(2)
        diag = rng.standard_normal(n)
    elif dist == GAUSSIAN_REAL:
        off = rng.standard_normal((n, n))
        diag = rng.standard_normal(n)
    else:
        off = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
        diag = 2.0 * rng.integers(0, 2, size=n).astype(float) - 1.0
    return off, diag


def _tile_pairs(n: int):
    """Row and column slices of the TILE-sized blocks on and above the diagonal."""
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def sample_wigner(n: int, dist: str, rng: np.random.Generator) -> np.ndarray:
    """Hermitian Wigner matrix with i.i.d. upper-triangular entries of variance 1/n.

    Real laws give a real symmetric float64 matrix, the complex Gaussian law a
    complex128 one.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    w, diag = _atoms(rng, dist, n)
    # numpy divides a complex z by a real s as z * (1/s), so multiplying keeps every
    # entry of (U + U^H + D) / sqrt(n) bit for bit; plain real division would not
    inv_scale = 1.0 / np.sqrt(n)
    w *= inv_scale
    for I, J in _tile_pairs(n):
        if I == J:
            upper = np.triu(w[I, I], 1)
            w[I, I] = upper + upper.conj().T
        else:
            w[J, I] = w[I, J].conj().T
    w[np.diag_indices(n)] = diag * inv_scale
    return w


def check_hermitian(X) -> None:
    """Raise AsymmetryBlowupError unless each X_i has ||X - X^H|| <= ASYMMETRY_RTOL ||X||."""
    for x in X:
        sq = 0.0
        for I, J in _tile_pairs(x.shape[0]):
            d = x[I, J] - x[J, I].conj().T
            sq += (1.0 if I == J else 2.0) * np.vdot(d, d).real
        asym = np.sqrt(sq)
        if asym > ASYMMETRY_RTOL * max(np.linalg.norm(x), 1e-300):
            raise AsymmetryBlowupError(f"non-Hermitian input part {asym:.3e} exceeds budget")


def assemble_polynomial(spec: PolynomialSpec, X) -> np.ndarray:
    """Q = sum_ij X_i A_ij X_j + sum_i b_i X_i + c I, built as R + R^H.

    R = sum_i X_i (A_ii/2 X_i + sum_{j>i} A_ij X_j) + (sum_i b_i X_i + c I)/2,
    so each row of A costs one product (none when its coefficients vanish)
    and Q is exactly Hermitian.  Q is real when A and every X_i are real.
    Non-Hermitian inputs raise AsymmetryBlowupError.
    """
    X = [np.asarray(x) for x in X]
    n = X[0].shape[0]
    if any(x.shape != (n, n) for x in X):
        raise ValueError("all matrices must share one dimension")
    if len(X) != spec.l:
        raise ValueError(f"expected {spec.l} matrices, got {len(X)}")
    check_hermitian(X)
    A = spec.A if np.any(spec.A.imag) else spec.A.real
    R = np.eye(n, dtype=np.result_type(A, *X)) * (0.5 * spec.c)
    for i in range(spec.l):
        if spec.b[i] != 0:
            R += (0.5 * spec.b[i]) * X[i]
        row = [(0.5 if j == i else 1.0) * A[i, j] for j in range(spec.l)]
        terms = [row[j] * X[j] for j in range(i, spec.l) if row[j] != 0]
        if terms:
            R += X[i] @ sum(terms[1:], terms[0])
    for I, J in _tile_pairs(n):  # R + R^H
        herm = R[I, J] + R[J, I].conj().T
        R[I, J] = herm
        R[J, I] = herm.conj().T
    return R


def spectrum(Q: np.ndarray, vectors: bool = False):
    """Eigenvalues ascending, optionally with orthonormal eigenvector columns."""
    if vectors:
        vals, vecs = np.linalg.eigh(Q)
        return vals, vecs
    return np.linalg.eigvalsh(Q)


def resolvent_trace(eigenvalues: np.ndarray, z: complex) -> complex:
    """(1/N) tr (Q - z)^{-1} from the eigenvalues of Q; no linear solve involved."""
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError(f"Im z must be positive, got z = {z}")
    return complex(np.mean(1.0 / (np.asarray(eigenvalues) - z)))


def trial_workers(threads: int, trials: int) -> int:
    """Number of trials run at once: at most ``threads`` and ``trials``, and no
    more than the cores this process may use divided by the threads each BLAS
    call takes (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else every
    core, as OpenBLAS itself defaults), so trial threads do not oversubscribe
    the cores BLAS already uses."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        blas_threads = max(1, int(os.environ.get("OPENBLAS_NUM_THREADS") or os.environ["OMP_NUM_THREADS"]))
    except (KeyError, ValueError):
        blas_threads = cores
    return max(1, min(threads, trials, cores // blas_threads))


def _eigenpairs(Q: np.ndarray, vectors: bool):
    return spectrum(Q, vectors=True) if vectors else (spectrum(Q), None)


def _mapped_spectrum(spec: PolynomialSpec, x: np.ndarray, vectors: bool):
    """Spectrum of q(x) = a x^2 + b x + c for l = 1 from the spectrum of x itself."""
    check_hermitian([x])
    a, b, c = spec.A[0, 0].real, spec.b[0], spec.c
    lam, vecs = _eigenpairs(x, vectors)
    mapped = a * lam**2 + b * lam + c
    order = np.argsort(mapped)
    return mapped[order], (vecs[:, order] if vectors else None)


def _run_trial(spec: PolynomialSpec, cfg: EnsembleConfig, edge_target: float | None, index: int):
    rng = trial_rng(cfg.seed, index)
    X = [sample_wigner(cfg.N, cfg.dist, rng) for _ in range(spec.l)]
    want_vectors = edge_target is not None
    if spec.l == 1:
        eigenvalues, vecs = _mapped_spectrum(spec, X[0], want_vectors)
    else:
        eigenvalues, vecs = _eigenpairs(assemble_polynomial(spec, X), want_vectors)
    stats = []
    if want_vectors:
        for k in np.argsort(np.abs(eigenvalues - edge_target))[:EDGE_NEIGHBORS]:
            stats.append(EdgeVectorStat(float(eigenvalues[k]), float(np.max(np.abs(vecs[:, k]) ** 2))))
    return eigenvalues, float(np.max(np.abs(eigenvalues))), stats


def simulate_run(
    spec: PolynomialSpec,
    cfg: EnsembleConfig,
    edge_target: float | None = None,
    threads: int = 1,
) -> SimulationResult:
    """Run independent trials and collect eigenvalues, norms and edge eigenvector stats.

    One RNG stream per trial is derived from (seed, trial index), so the
    result is identical however the trials are scheduled.  ``threads`` caps
    the concurrent trials; ``trial_workers`` sets how many run.  Eigenvectors
    are computed only when ``edge_target`` is given, and only the 8
    eigenpairs nearest it are kept.
    """
    edge_target = None if edge_target is None else float(edge_target)
    indices = range(cfg.trials)

    def runner(i: int):
        try:
            return _run_trial(spec, cfg, edge_target, i), None
        except Exception as exc:  # aggregated below with trial indices
            return None, exc

    # one worker runs in the calling thread: a pool thread gets its own glibc malloc
    # arena, which raised peak RSS by 10 to 36 % for one-worker runs at N = 1024 (2 cores)
    workers = trial_workers(threads, cfg.trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(runner, indices))
    else:
        outcomes = [runner(i) for i in indices]
    failures = [(i, exc) for i, (_, exc) in enumerate(outcomes) if exc is not None]
    if failures:
        raise SimulationError(failures)

    eigenvalues, norms, edge_vectors = zip(*(payload for payload, _ in outcomes))
    return SimulationResult(
        config=cfg,
        eigenvalues=list(eigenvalues),
        norms=np.array(norms),
        edge_target=edge_target,
        edge_vectors=list(edge_vectors),
    )
