"""The regularized Dyson equation of the linearization and its stability operator.

The (l+1)-dimensional linearization replaces q by the pencil
K_0 + sum_j K_j x_j, with K_0 = diag(c, -A^{-1}) and K_j = b_j E_00 + E_0j +
E_j0, whose generalized resolvent has the resolvent of q as its (1,1) block.
The Dyson equation

    I + (z J + i eta delta (I - J) - K_0 + Gamma[M]) M = 0,    J = E_00,

has a solution M expressible through its (1,1) entry m_delta, which solves the
scalar equation -1/m = z + gamma_delta(m).  Gamma[R] = sum_j K_j R K_j is
applied in closed form by ``gamma_operator``.  M[1:, :] = A_delta N with
A_delta = A (I + i eta delta A)^{-1} = (i eta delta + A^{-1})^{-1} where A^{-1}
exists, so the residual takes N for the rows 1: of (Z - K_0) M and exists for
every A.  The stability operator L[R] = R - M Gamma[R] M is materialized
densely on the (l+1)^2-dimensional matrix space by ``stability_operator_matrix``;
its smallest eigenvalue beta, which ``stability_spectrum`` returns, vanishes
like sqrt(kappa + eta) at a regular edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import EdgeReport
from .model import InfrastructureError, PolynomialSpec, SpectralClassification, classify_polynomial
from .scalar import NoConvergenceError, damped_newton, solve_m

BETA_KAPPAS = (1e-2, 1e-4, 1e-6)


class WignerSquareUnsupportedError(InfrastructureError):
    """A shifted Wigner square, a valid spec (not a ValueError): its stability operator has an extra
    unstable direction."""


@dataclass(frozen=True)
class MDESolution:
    """Solution of the delta-regularized Dyson equation at one spectral parameter.

    ``de_residual`` is the operator norm of I + (zJ + i eta delta (I-J) - K0 +
    Gamma[M]) M, formed without A^{-1}, so it exists for every A.
    """

    m_delta: complex
    M: np.ndarray
    de_residual: float


@dataclass(frozen=True)
class StabilityReport:
    """Smallest-modulus eigenvalue beta of the stability operator."""

    beta: complex


def gamma_operator(R: np.ndarray, spec: PolynomialSpec) -> np.ndarray:
    """Self-energy block map Gamma[R] = sum_j K_j R K_j on (l+1)x(l+1) matrices.

    For R = [[omega, v^t], [w, T]] it returns
    [[omega ||b||^2 + b^t (v + w) + tr T, omega b^t + w^t],
     [omega b + v, omega I_l]].
    """
    R = np.asarray(R, dtype=complex)
    b = spec.b
    omega = R[0, 0]
    v = R[0, 1:]
    w = R[1:, 0]
    T = R[1:, 1:]
    out = np.zeros_like(R)
    out[0, 0] = omega * (b @ b) + b @ (v + w) + np.trace(T)
    out[0, 1:] = omega * b + w
    out[1:, 0] = omega * b + v
    out[1:, 1:] = omega * np.eye(spec.l)
    return out


def _a_delta(spec: PolynomialSpec, z: complex, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """A_delta = A (I + i delta eta A)^{-1} and its entrywise-real-part analogue."""
    eta = z.imag
    a_vals = spec.eig_a / (1.0 + 1j * delta * eta * spec.eig_a)
    A_delta = (spec.vec_a * a_vals) @ spec.vec_a.conj().T
    A_hat_delta = 0.5 * (A_delta + A_delta.T)
    return A_delta, A_hat_delta


def _gamma_delta_and_prime(x: complex, spec: PolynomialSpec, A_delta, A_hat_delta) -> tuple[complex, complex]:
    l = spec.l
    eye = np.eye(l)
    inv1 = np.linalg.inv(eye + x * A_delta)
    inv2 = np.linalg.inv(eye + 2.0 * x * A_hat_delta)
    b = spec.b
    # V - V A_hat V = x (I + 2x A_hat)^{-2} (I + x A_hat)
    mid = x * inv2 @ inv2 @ (eye + x * A_hat_delta)
    value = -np.trace(A_delta @ inv1) + b @ (mid @ b) - spec.c
    prime = np.trace(A_delta @ inv1 @ A_delta @ inv1) + b @ (inv2 @ inv2 @ inv2 @ b)
    return complex(value), complex(prime)


def _m_factors(x: complex, spec: PolynomialSpec, z: complex, delta: float):
    """A_delta, V = x (I + 2x A_hat_delta)^{-1} and (I + x A_delta)^{-1}, the factors of M at x."""
    A_delta, A_hat_delta = _a_delta(spec, z, delta)
    eye = np.eye(spec.l)
    return A_delta, x * np.linalg.inv(eye + 2.0 * x * A_hat_delta), np.linalg.inv(eye + x * A_delta)


def m_matrix(x: complex, spec: PolynomialSpec, z: complex, delta: float) -> np.ndarray:
    """Dyson-equation solution matrix as a function of its (1,1) entry x; its rows 1: are A_delta N."""
    A_delta, V, inv1 = _m_factors(x, spec, z, delta)
    l = spec.l
    b = spec.b
    M = np.zeros((l + 1, l + 1), dtype=complex)
    M[0, 0] = x
    M[0, 1:] = -x * (b @ V @ A_delta)
    M[1:, 0] = -x * (A_delta @ V @ b)
    M[1:, 1:] = -A_delta @ inv1 + x * (A_delta @ V @ np.outer(b, b) @ V @ A_delta)
    return M


def _de_residual(M: np.ndarray, spec: PolynomialSpec, z: complex, delta: float) -> float:
    x = M[0, 0]
    A_delta, V, inv1 = _m_factors(x, spec, z, delta)
    b = spec.b
    # Z - K0 = diag(z - c, i eta delta I + A^{-1}) and (i eta delta I + A^{-1}) A_delta = I, so the
    # rows 1: of (Z - K0) M are N, whose columns are -x V b and -(I + x A_delta)^{-1} + x V b b^t V A_delta
    z_minus_k0_m = np.empty_like(M)
    z_minus_k0_m[0] = (z - spec.c) * M[0]
    z_minus_k0_m[1:, 0] = -x * (V @ b)
    z_minus_k0_m[1:, 1:] = -inv1 + x * (V @ np.outer(b, b) @ V @ A_delta)
    residual = np.eye(spec.l + 1) + z_minus_k0_m + gamma_operator(M, spec) @ M
    return float(np.linalg.norm(residual, ord=2))


def _m_delta_from(seed: complex, z: complex, delta: float, spec: PolynomialSpec) -> complex:
    """Damped Newton for -1/m = z + gamma_delta(m) started at ``seed``."""
    A_delta, A_hat_delta = _a_delta(spec, z, delta)
    m, _, _ = damped_newton(z, seed, lambda x: _gamma_delta_and_prime(x, spec, A_delta, A_hat_delta))
    return complex(m)


def _m_delta(z: complex, delta: float, spec: PolynomialSpec) -> complex:
    """Solve -1/m = z + gamma_delta(m) by continuation from the delta = 0 branch.

    The delta = 0 solution (the self-consistent Stieltjes transform) seeds a
    damped Newton iteration; if the direct jump to the requested delta fails,
    the regularization is switched on in eight equal sub-steps.
    """
    if z.imag <= 0.0:
        raise ValueError(f"Im z must be positive, got z = {z}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    m = solve_m(z, spec).m
    if delta > 0.0:
        try:
            # a jump that diverges raises NoConvergenceError and falls back to the ramp below
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                m = _m_delta_from(m, z, delta, spec)
        except NoConvergenceError:
            for step_delta in np.linspace(0.0, delta, 9)[1:]:
                m = _m_delta_from(m, z, float(step_delta), spec)
    return m


def solve_m_delta(z: complex, delta: float, spec: PolynomialSpec) -> MDESolution:
    """m_delta, its Dyson-equation matrix M and the residual of the equation at M."""
    z = complex(z)
    m = _m_delta(z, delta, spec)
    M = m_matrix(m, spec, z, delta)
    return MDESolution(m_delta=m, M=M, de_residual=_de_residual(M, spec, z, delta))


def _gamma_matrix(spec: PolynomialSpec) -> np.ndarray:
    """Dense matrix of Gamma in the row-major matrix-unit basis."""
    n = spec.l + 1
    cols = []
    for k in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[k, j] = 1.0
            cols.append(gamma_operator(E, spec).reshape(-1))
    return np.stack(cols, axis=1)


def stability_operator_matrix(M: np.ndarray, spec: PolynomialSpec) -> np.ndarray:
    """Dense matrix of L[R] = R - M Gamma[R] M on the vectorized matrix space."""
    n = spec.l + 1
    gamma_mat = _gamma_matrix(spec)
    return np.eye(n * n) - np.kron(M, M.T) @ gamma_mat


def stability_spectrum(z: complex, delta: float, spec: PolynomialSpec,
                       classification: SpectralClassification | None = None) -> StabilityReport:
    """Smallest-modulus eigenvalue of the stability operator at the solved M.

    Shifted squares of a Wigner matrix are rejected: their stability operator
    has an additional unstable direction, so beta is not its only small
    eigenvalue.
    """
    if classification is None:
        classification = classify_polynomial(spec)
    if classification.kind == "WignerSquare":
        raise WignerSquareUnsupportedError("stability analysis excludes shifted Wigner squares")
    z = complex(z)
    M = m_matrix(_m_delta(z, delta, spec), spec, z, delta)
    values = np.linalg.eigvals(stability_operator_matrix(M, spec))
    return StabilityReport(beta=complex(values[np.argsort(np.abs(values))[0]]))


def beta_slopes(spec: PolynomialSpec, edges: EdgeReport, classification: SpectralClassification) -> dict[str, float]:
    """Log-log slope of |beta(edge +- kappa + 1e-10 i)| over BETA_KAPPAS at each regular
    edge; a square-root edge gives 1/2."""
    slopes = {}
    for side, edge, sign, regular in (
        ("right", edges.tau_plus, +1, edges.right_edge_regular),
        ("left", edges.tau_minus, -1, edges.left_edge_regular),
    ):
        if not regular:
            continue
        betas = [
            abs(stability_spectrum(edge + sign * k + 1e-10j, 0.0, spec, classification).beta)
            for k in BETA_KAPPAS
        ]
        slopes[side] = float(np.polyfit(np.log(BETA_KAPPAS), np.log(betas), 1)[0])
    return slopes
