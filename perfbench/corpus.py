"""Seeded corpus of valid polynomial specs for the ``analytic_corpus`` workload.

Each family below is in the corpus for a stated reason (its ``why``): together
they span l = 1..3, reducible and non-reducible polynomials, b = 0 and b != 0,
both signs of the rank-one coefficient alpha, and specs at and near the
classification thresholds xi = 2 (real direction) and s xi = 2 (genuinely
complex direction).  Every family has a fixed count, so the work in one pass
changes little from seed to seed; only the coefficients are drawn.

Specs are plain dicts in the CLI's JSON layout: ``A`` entries are ``{re, im}``
objects, ``b`` is a list of plain reals and ``c`` a real.  Nothing is filtered
after drawing.  In particular the near-singular and near-threshold families
hold specs whose density mass misses its 1e-3 budget at n_grid = 512 (the
quadrature misses a narrow edge spike); they stay in and show as failed ops
until the quadrature is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from quadspec.edges import compute_s_a

#: Seed on which no tuning of the benchmark was done; re-run later claims on it.
HELD_OUT_SEED = 9173


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    family: str
    data: dict


@dataclass(frozen=True)
class Family:
    name: str
    count: int
    draw: Callable[[np.random.Generator, int], dict]
    why: str


def _spec(A, b, c) -> dict:
    A = np.asarray(A, dtype=complex)
    return {
        "l": int(A.shape[0]),
        "A": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in A],
        "b": [float(x) for x in np.asarray(b, dtype=float)],
        "c": float(c),
    }


def _alpha(rng, i: int) -> float:
    """Rank-one coefficient, alternating in sign so both signs are always present."""
    return (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.5, 2.0)


def _real_unit(rng, l: int) -> np.ndarray:
    v = rng.standard_normal(l)
    return v / np.linalg.norm(v)


def _complex_unit(rng, l: int) -> np.ndarray:
    v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    return v / np.linalg.norm(v)


def _rank_one(alpha: float, xi: float, v: np.ndarray, beta: float) -> dict:
    """q = alpha (v*X - xi)(v*X - xi)* - beta, written out as raw coefficients."""
    A = alpha * np.outer(v, v.conj())
    b = -2.0 * alpha * xi * v.real
    c = alpha * xi**2 - beta
    return _spec(A, b, c)


def _s_constant(v: np.ndarray) -> float:
    return compute_s_a(v).s


def _random_hermitian(rng, l: int) -> np.ndarray:
    g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    return 0.5 * (g + g.conj().T)


def _wigner_square(rng, i):
    l = 1 + i % 2
    return _rank_one(_alpha(rng, i), 0.0, _real_unit(rng, l), rng.normal())


def _real_below(rng, i):
    l = 1 + i % 2
    return _rank_one(_alpha(rng, i), rng.uniform(0.2, 1.8), _real_unit(rng, l), rng.normal())


def _real_at_threshold(rng, i):
    l = 1 + i % 2
    return _rank_one(_alpha(rng, i), 2.0, _real_unit(rng, l), rng.normal())


def _real_near_threshold(rng, i):
    l = 1 + i % 2
    side = 1.0 if i % 2 == 0 else -1.0
    xi = 2.0 * (1.0 + side * 10.0 ** rng.uniform(-3.0, -1.3))
    return _rank_one(_alpha(rng, i), xi, _real_unit(rng, l), rng.normal())


def _real_above(rng, i):
    l = 1 + i % 2
    return _rank_one(_alpha(rng, i), rng.uniform(2.2, 4.0), _real_unit(rng, l), rng.normal())


def _complex_below(rng, i):
    v = _complex_unit(rng, 2 + i % 2)
    xi = rng.uniform(0.1, 0.9) * 2.0 / _s_constant(v)
    return _rank_one(_alpha(rng, i), xi, v, rng.normal())


def _complex_at_threshold(rng, i):
    v = _complex_unit(rng, 2 + i % 2)
    return _rank_one(_alpha(rng, i), 2.0 / _s_constant(v), v, rng.normal())


def _complex_near_threshold(rng, i):
    v = _complex_unit(rng, 2 + i % 2)
    side = 1.0 if i % 2 == 0 else -1.0
    xi = 2.0 / _s_constant(v) * (1.0 + side * 10.0 ** rng.uniform(-3.0, -1.3))
    return _rank_one(_alpha(rng, i), xi, v, rng.normal())


def _nonreducible(rng, i):
    l = 2 + i % 2
    return _spec(_random_hermitian(rng, l), rng.standard_normal(l), rng.normal())


def _nonreducible_b0(rng, i):
    l = 2 + i % 2
    return _spec(_random_hermitian(rng, l), np.zeros(l), rng.normal())


def _near_singular(rng, i):
    sign = 1.0 if i % 2 == 0 else -1.0
    vals = [sign * rng.uniform(0.003, 0.01), rng.uniform(2.0, 4.0)]
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    A = (q * vals) @ q.conj().T
    b = rng.standard_normal(2)
    b *= rng.uniform(0.03, 0.1) / np.linalg.norm(b)
    return _spec(A, b, rng.normal())


FAMILIES: tuple[Family, ...] = (
    Family("wigner_square", 5, _wigner_square,
           "a W^2 + c (l = 1, 2): closed-form limit, b = 0, hard edge with p = -1/2"),
    Family("real_below", 4, _real_below,
           "shifted square with real v, 0 < xi < 2: hard edge at -beta, b != 0"),
    Family("real_at_threshold", 3, _real_at_threshold,
           "real v at xi = 2: the p = -1/4 hard edge and the escaped-root tolerance path"),
    Family("real_near_threshold", 4, _real_near_threshold,
           "real v with xi within 0.1-5% of 2 on both sides: near-threshold verdicts and spikes"),
    Family("real_above", 3, _real_above,
           "real v, xi > 2: the root reappears and both edges are regular"),
    Family("complex_below", 4, _complex_below,
           "genuinely complex v below s xi = 2 (l = 2, 3): hard edge through the s constant"),
    Family("complex_at_threshold", 3, _complex_at_threshold,
           "complex v at s xi = 2: the p = -1/3 hard edge"),
    Family("complex_near_threshold", 4, _complex_near_threshold,
           "complex v with s xi within 0.1-5% of 2 on both sides"),
    Family("nonreducible", 12, _nonreducible,
           "random Hermitian A with b != 0 (l = 2, 3): the generic square-root case, runs mde"),
    Family("nonreducible_b0", 6, _nonreducible_b0,
           "random Hermitian A with b = 0: the b-free self-energy path, runs mde"),
    Family("near_singular", 2, _near_singular,
           "one eigenvalue of A near 0 and small b: a narrow edge spike, the known mass-deficit case"),
)


def build_corpus(seed: int, scale: float = 1.0) -> list[CorpusSpec]:
    """Draw every family from its own stream keyed by (seed, family index).

    ``scale`` multiplies each family count (at least one spec per family), so
    a test can build a small corpus with the same families.
    """
    corpus = []
    for index, family in enumerate(FAMILIES):
        rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(index,)))
        count = max(1, round(family.count * scale))
        for i in range(count):
            corpus.append(CorpusSpec(f"{family.name}-{i}", family.name, family.draw(rng, i)))
    return corpus
