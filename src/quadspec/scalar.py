"""Evaluation of the self-energy gamma and branch-tracked solution of -1/m = z + gamma(m).

In the eigenbasis of A (eigenvalues mu_i) and of its entrywise real part
A_hat (eigenvalues mu_hat_i, eigenvectors w_i) the self-energy is

    gamma(m) = -sum_i mu_i / (1 + m mu_i)
               + m sum_i |<w_i, b>|^2 (1 + m mu_hat_i) / (1 + 2 m mu_hat_i)^2 - c

and h(m) = 1/m^2 - gamma'(m) controls both the edge locations (through its
real roots) and the Newton derivative, since d/dm (1/m + z + gamma(m)) = -h(m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EIG_ZERO_RTOL, InfrastructureError, PolynomialSpec, SpecError

RESIDUAL_RTOL = 1e-11
CONTINUATION_RATIO = 0.7
MAX_NEWTON_ITERATIONS = 200


class NoConvergenceError(InfrastructureError):
    """The damped Newton continuation failed to reach the residual target."""

    def __init__(self, z: complex, residual: float):
        super().__init__(f"no convergence at z = {z}: residual {residual:.3e}")
        self.z = z
        self.residual = residual


@dataclass(frozen=True)
class StieltjesPoint:
    """One solution of the self-consistent equation on the upper half-plane."""

    z: complex
    m: complex
    residual: float
    iterations: int


@dataclass(frozen=True)
class PoleSet:
    """Real poles of gamma with the maximal pole-free intervals around 0.

    h has the same poles plus 0, so ``(m_star_plus, 0)`` and
    ``(0, m_star_minus)`` are the maximal intervals to the left and the right
    of the origin on which h is continuous.
    """

    gamma_poles: np.ndarray
    m_star_plus: float
    m_star_minus: float


def _columns(spec: PolynomialSpec, ndim: int):
    """mu, mu^2, mu_hat and w2 as columns along a leading eigen-axis for an m of ``ndim`` dimensions."""
    column = (-1,) + (1,) * ndim
    mu = spec.mu.reshape(column)
    return mu, mu**2, spec.mu_hat.reshape(column), spec.w2.reshape(column)


def _self_energy(m, columns, c, gamma: bool = True):
    """(gamma(m), gamma'(m)) from the eigen-axis ``columns`` of ``_columns``; gamma is None if not ``gamma``.

    The denominators d = 1 + m mu and e = 1 + 2 m mu_hat are formed once for
    both, and t = m mu_hat once for e and 1 + t.  The terms are added with the
    builtin ``sum``, from 0 and left to right over the eigen-axis, so a point
    gets the same bits alone as in any batch: ``.sum(axis=0)`` would add four
    or more terms pairwise for one point and one by one for many.
    """
    mu, mu2, mu_hat, w2 = columns
    d = 1.0 + m * mu
    value = -sum(mu / d) if gamma else None
    gamma_p = sum(mu2 / d**2)
    if len(w2):
        t = m * mu_hat
        e = 1.0 + 2.0 * t
        if gamma:
            value = value + m * sum(w2 * (1.0 + t) / e**2)
        gamma_p = gamma_p + sum(w2 / e**3)  # e**3, not e**2 * e: the two round apart
    return (value - c if gamma else None), gamma_p


def gamma_terms(m, spec: PolynomialSpec):
    """(gamma(m), gamma'(m)) for scalar or array m (no pole checks).

    gamma'(m) = sum mu^2/(1+m mu)^2 + sum |<w,b>|^2/(1+2m mu_hat)^3.  The
    map of ``gamma_and_prime`` runs the same kernel.  Both depend on m alone,
    not on z, so ``continuation`` hands them from one level to the next
    instead of evaluating them again at an unchanged m.
    """
    m = np.asarray(m, dtype=complex)
    return _self_energy(m, _columns(spec, m.ndim), spec.c)


def gamma_value(m, spec: PolynomialSpec):
    """gamma(m) for scalar or array m (no pole checks)."""
    return gamma_terms(m, spec)[0]


def h_value(m, spec: PolynomialSpec):
    """h(m) = 1/m^2 - gamma'(m); the kernel skips gamma itself."""
    m = np.asarray(m, dtype=complex)
    return 1.0 / m**2 - _self_energy(m, _columns(spec, m.ndim), spec.c, gamma=False)[1]


def h_prime(m, spec: PolynomialSpec):
    """h'(m), used to polish edge roots and certify their first order."""
    m = np.asarray(m, dtype=complex)
    mu, _, mu_hat, w2 = _columns(spec, m.ndim)
    out = -2.0 / m**3 + 2.0 * sum(mu**3 / (1.0 + m * mu) ** 3)
    if len(w2):
        out = out + 6.0 * sum(w2 * mu_hat / (1.0 + 2.0 * m * mu_hat) ** 4)
    return out


def poles(spec: PolynomialSpec) -> PoleSet:
    """Exact pole lists from the eigendata.

    A_hat eigendirections enter only when they carry b weight
    (|<w_i, b>|^2 > 1e-12 ||b||^2).
    """
    mu, mu_hat = spec.mu, spec.mu_hat
    gamma_list = [-1.0 / x for x in mu]
    gamma_list += [-0.5 / x for x in mu_hat[np.abs(mu_hat) > EIG_ZERO_RTOL * max(spec.norm_a, 1e-300)]]
    gamma_poles = np.array(sorted(gamma_list))
    negative = gamma_poles[gamma_poles < 0.0]
    positive = gamma_poles[gamma_poles > 0.0]
    m_star_plus = float(negative.max()) if len(negative) else -np.inf
    m_star_minus = float(positive.min()) if len(positive) else np.inf
    return PoleSet(
        gamma_poles=gamma_poles,
        m_star_plus=m_star_plus,
        m_star_minus=m_star_minus,
    )


def gamma_and_prime(spec: PolynomialSpec):
    """The map m -> (gamma(m), gamma'(m)) that damped_newton takes for ``spec``.

    It takes m as a complex ndarray, the way damped_newton passes it, and
    runs the kernel of ``gamma_terms`` on eigen-axis columns that it lays out
    once per number of dimensions of m and keeps for its later calls.
    """
    layouts = {}

    def terms(m):
        columns = layouts.get(m.ndim)
        if columns is None:
            columns = layouts[m.ndim] = _columns(spec, m.ndim)
        return _self_energy(m, columns, spec.c)

    return terms


def damped_newton(z, m, gamma_and_prime, polish: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton for f(m) = 1/m + z + gamma(m) at fixed z, keeping Im m > 0.

    ``z`` and the start ``m`` have one shape, which the results keep; the
    caller's ``m`` is not written to.  ``gamma_and_prime(m)`` returns
    (gamma(m), gamma'(m)) for a complex array m, so f'(m) = gamma'(m) - 1/m^2;
    it runs once at the start and once per iteration on the points that step.
    ``continuation`` runs this same loop but skips the start's evaluation: it
    passes on the gamma and f' that the level above left at that m.  Each
    iteration steps only the points whose residual still misses the target.
    A step that would leave the upper half-plane is halved until it does not;
    after 60 halvings it is rejected and m stays put.  Raises
    NoConvergenceError when any component misses the residual target after
    the iteration budget.  ``polish`` extra keep-best iterations of every point
    push the residual toward the numerical floor, which sharpens m near the
    edges where f' degenerates.  Returns (m, |f(m)|, iterations).
    """
    m, residual, iterations, _ = _newton(z, m, gamma_and_prime, polish)
    return m, residual, iterations


def _newton(z, m, gamma_and_prime, polish: int = 0, terms=None):
    """The loop of ``damped_newton``, which can start from known terms and hands its own on.

    gamma(m) and f'(m) do not depend on z, so ``terms`` = (gamma(m), f'(m))
    at the start m, from an earlier call at another z, replace the first
    evaluation: f = 1/m + z + gamma is then all that is left to form.  Returns
    (m, |f(m)|, iterations, terms at the returned m); the terms are None after
    a polish, whose keep-best m need not be the last iterate.
    """
    z = np.asarray(z, dtype=complex)
    m = np.array(m, dtype=complex)
    tol = RESIDUAL_RTOL * (1.0 + np.abs(z))

    def residual(z, m, gamma, fp):
        f = 1.0 / m + z + gamma
        return f, fp, np.abs(f), gamma

    def evaluate(z, m):
        gamma, gamma_p = gamma_and_prime(m)
        return residual(z, m, gamma, gamma_p - 1.0 / m**2)

    def damped_step(z, m, f, fp):
        step = f / (fp if fp.all() else np.where(fp == 0.0, 1e-300, fp))
        candidate = m - step
        good = (candidate.imag > 0.0) & np.isfinite(candidate)
        if not good.all():
            scale = np.ones(m.shape)
            for _ in range(60):
                scale = np.where(good, scale, 0.5 * scale)
                candidate = m - scale * step
                good = (candidate.imag > 0.0) & np.isfinite(candidate)
                if good.all():
                    break
            candidate = np.where(good, candidate, m)
        # a numpy scalar would take numpy's scalar-math routines, which may round otherwise
        m = np.asarray(candidate)
        return (m,) + evaluate(z, m)

    f, fp, res, gamma = evaluate(z, m) if terms is None else residual(z, m, *terms)
    iterations = 0
    for _ in range(MAX_NEWTON_ITERATIONS):
        active = res > tol
        if not active.any():
            break
        iterations += 1
        if active.all():  # a 0-d point takes this branch and stays 0-d
            m, f, fp, res, gamma = damped_step(z, m, f, fp)
        else:
            i = active.nonzero()
            m[i], f[i], fp[i], res[i], gamma[i] = damped_step(z[i], m[i], f[i], fp[i])
    if (res > tol).any():
        worst = int(np.argmax(res / (1.0 + np.abs(z))))
        raise NoConvergenceError(complex(z.flat[worst]), float(res.flat[worst]))
    if not polish:
        return m, res, iterations, (gamma, fp)
    best_m, best_res = m, res
    for _ in range(polish):
        m, f, fp, res, gamma = damped_step(z, m, f, fp)
        better = res < best_res
        best_m = np.where(better, m, best_m)
        best_res = np.where(better, res, best_res)
        iterations += 1
    return best_m, best_res, iterations, None


def continuation(z, spec: PolynomialSpec):
    """Walk the Nevanlinna branch down to an array of spectral parameters.

    Continuation starts high above the real axis at eta = H with
    H = 10 (1 + ||A|| + ||b|| + |c|)^2, seeded with m = -1/z there, and the
    imaginary part is lowered geometrically (ratio 0.7) to its target while
    damped Newton tracks the branch; the last level is polished.  Each level
    starts from the m of the level above together with its gamma(m) and
    f'(m), which do not depend on z, so a level evaluates gamma only at the
    points it steps.  Yields (eta, m, residual, newton iterations) at each
    level, from H down.
    """
    z = np.asarray(z, dtype=complex)
    energy, eta_target = z.real, z.imag
    if (eta_target <= 0.0).any():
        raise ValueError("spectral parameters must lie in the upper half-plane")
    gamma_p = gamma_and_prime(spec)
    top = 10.0 * np.float64(spec.coefficient_scale) ** 2
    if not np.isfinite(top):  # the walk down from an infinite H would never end
        raise SpecError(f"coefficients out of range: the continuation start 10 (1 + ||A|| + ||b|| + |c|)^2 = {top}")
    eta = np.maximum(np.full(z.shape, top), eta_target)
    m = -1.0 / (energy + 1j * eta)
    terms = None
    while True:
        final = bool((eta == eta_target).all())
        m, residual, iters, terms = _newton(energy + 1j * eta, m, gamma_p, 3 if final else 0, terms)
        yield eta, m, residual, iters
        if final:
            return
        eta = np.maximum(eta_target, CONTINUATION_RATIO * eta)


def solve_branch(z, spec: PolynomialSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve the self-consistent equation on an array of spectral parameters.

    Runs ``continuation`` to its last level.  Returns (m, residual, newton
    iterations summed over the levels).
    """
    total_iterations = 0
    for _, m, residual, iters in continuation(z, spec):
        total_iterations += iters
    return m, residual, total_iterations


def solve_m(z: complex, spec: PolynomialSpec) -> StieltjesPoint:
    """Unique m(z) in the upper half-plane solving -1/m = z + gamma(m)."""
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError(f"Im z must be positive, got z = {z}")
    m, residual, iterations = solve_branch(np.array(z), spec)
    return StieltjesPoint(z=z, m=complex(m), residual=float(residual), iterations=iterations)
