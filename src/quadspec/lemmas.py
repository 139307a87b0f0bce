"""Randomized property suites for the two structural lemmas behind the edge analysis.

The quadratic stability implication: for admissible tuples (y, y_hat, c) with
y_i > -1, y_hat_j > -1/2, both sorted non-increasing, y_1 >= y_hat_1 and

    sum y_i^2/(y_i+1)^2 + sum c_j^2/(2 y_hat_j + 1)^3 <= 1,

the strict bound sum y_i^3/(y_i+1)^3 + 3 sum c_j^2 y_hat_j/(2 y_hat_j+1)^4 < 1
must follow.  This is what makes every root of h first order.

The entrywise-real-part suite checks the spectral comparisons between a
Hermitian H and A_hat-style (H + H^t)/2: extreme eigenvalue ordering, norm
monotonicity, sign-definiteness preservation, and the rank-one rank rule.
"""

from __future__ import annotations

import numpy as np

SLOT_COUNT = 6
STRICTNESS_MARGIN = 1e-12
SPECTRAL_RTOL = 1e-10  # relative slack of the entrywise-real-part comparisons


def _split_budget(rng: np.random.Generator, count: int, slots: int) -> np.ndarray:
    w = rng.exponential(size=(count, slots))
    return w / w.sum(axis=1, keepdims=True)


def sample_quad_stability_batch(rng: np.random.Generator, count: int):
    """Admissible tuples (y, y_hat, c_sq) satisfying the hypothesis exactly.

    The h1 values a_i = y_i/(y_i+1) are drawn inside the unit ball (half the
    batch on its boundary, where the hypothesis holds with equality) and
    mapped back; the c budget fills the remainder of the constraint.  A third
    of the batch is forced all-negative in y to cover tuples with y_1 < 0.
    """
    g = rng.standard_normal((count, SLOT_COUNT))
    negative = rng.random(count) < 1.0 / 3.0
    g[negative] = -np.abs(g[negative])
    active = rng.integers(1, SLOT_COUNT + 1, size=count)
    mask = np.arange(SLOT_COUNT) < active[:, None]
    g = np.where(mask, g, 0.0)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0

    y_share = rng.uniform(0.0, 1.0 - 1e-3, size=count)
    a = g / norms * np.sqrt(y_share)[:, None]
    y = a / (1.0 - a)

    boundary = rng.random(count) < 0.5
    c_share = np.where(boundary, 1.0 - y_share, (1.0 - y_share) * rng.random(count))
    y_top = y.max(axis=1)
    y_hat = np.minimum(-0.5 + rng.lognormal(mean=-0.5, sigma=1.0, size=(count, SLOT_COUNT)), y_top[:, None])
    k_active = rng.integers(1, SLOT_COUNT + 1, size=count)
    k_mask = np.arange(SLOT_COUNT) < k_active[:, None]
    weights = _split_budget(rng, count, SLOT_COUNT) * k_mask
    weight_sums = weights.sum(axis=1, keepdims=True)
    weight_sums[weight_sums == 0.0] = 1.0
    weights = weights / weight_sums
    h2_cubed = 1.0 / (2.0 * y_hat + 1.0) ** 3
    c_sq = c_share[:, None] * weights / h2_cubed
    return y, y_hat, c_sq


def quad_stability_violations(count: int, seed: int = 0) -> int:
    """Number of admissible tuples violating the strict implication."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    violations = 0
    batch = 20000
    remaining = count
    while remaining > 0:
        take = min(batch, remaining)
        y, y_hat, c_sq = sample_quad_stability_batch(rng, take)
        hypothesis = np.sum(y**2 / (y + 1.0) ** 2, axis=1) + np.sum(c_sq / (2.0 * y_hat + 1.0) ** 3, axis=1)
        admissible = hypothesis <= 1.0 + 1e-12
        conclusion = np.sum(y**3 / (y + 1.0) ** 3, axis=1) + 3.0 * np.sum(
            c_sq * y_hat / (2.0 * y_hat + 1.0) ** 4, axis=1
        )
        violations += int(np.sum(admissible & (conclusion >= 1.0 - STRICTNESS_MARGIN)))
        remaining -= take
    return violations


def _random_hermitian(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if kind == "real":
        return 0.5 * (g + g.T)
    h = g + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    if kind == "psd":
        return h @ h.conj().T / n
    if kind == "rank-one-real":
        v = rng.standard_normal(n)
        return np.sign(rng.standard_normal()) * np.outer(v, v) / n
    if kind == "rank-one-complex":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.sign(rng.standard_normal()) * np.outer(v, v.conj()).astype(complex) / n
    return h


def entrywise_real_part_violations(count: int, seed: int = 0) -> int:
    """Check the spectral comparisons between H and (H + H^t)/2 on random matrices."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(202,)))
    kinds = ("complex", "real", "psd", "rank-one-real", "rank-one-complex")
    violations = 0
    for i in range(count):
        n = int(rng.integers(1, 7))
        kind = kinds[i % len(kinds)]
        H = _random_hermitian(rng, n, kind)
        H_hat = 0.5 * (H + H.T).real
        eig = np.linalg.eigvalsh(H)
        eig_hat = np.linalg.eigvalsh(H_hat)
        scale = max(np.max(np.abs(eig)), 1e-300)
        ok = eig[-1] >= eig_hat[-1] - SPECTRAL_RTOL * scale
        ok &= eig[0] <= eig_hat[0] + SPECTRAL_RTOL * scale
        ok &= np.max(np.abs(eig)) >= np.max(np.abs(eig_hat)) - SPECTRAL_RTOL * scale
        if kind == "psd":
            ok &= eig_hat[0] >= -SPECTRAL_RTOL * scale
        if kind.startswith("rank-one") and n > 1:
            svals = np.linalg.svd(H_hat, compute_uv=False)
            rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
            is_real = np.max(np.abs(np.asarray(H).imag)) <= 1e-14 * scale
            ok &= rank == (1 if is_real else 2)
        if not ok:
            violations += 1
    return violations
