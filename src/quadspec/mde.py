"""The regularized Dyson equation of the linearization and its stability operator.

The (l+1)-dimensional linearization replaces q by the pencil
K_0 + sum_j K_j x_j, with K_0 = diag(c, -A^{-1}) and K_j = b_j E_00 + E_0j +
E_j0, whose generalized resolvent has the resolvent of q as its (1,1) block.
The Dyson equation

    I + (z J + i eta delta (I - J) - K_0 + Gamma[M]) M = 0,    J = E_00,

has a solution M expressible through its (1,1) entry m_delta, which solves the
scalar equation -1/m = z + gamma_delta(m).  Gamma[R] = sum_j K_j R K_j is
applied in closed form by ``gamma_operator``, and the matrix K_0 is formed only
inside the equation's residual.  The stability operator
L[R] = R - M Gamma[R] M is materialized densely on the (l+1)^2-dimensional
matrix space; its smallest eigenvalue beta vanishes like sqrt(kappa + eta) at
a regular edge, with right eigenvector proportional to dM/dm and left
eigenvector proportional to Gamma[B] there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from .edges import EdgeReport
from .model import InfrastructureError, PolynomialSpec, SpectralClassification, classify_polynomial
from .scalar import NoConvergenceError, damped_newton, solve_m

SINGULAR_A_RTOL = 1e-10
BETA_KAPPAS = (1e-2, 1e-4, 1e-6)


class SingularAError(InfrastructureError):
    """A is not invertible, so K0 and the Dyson-equation residual do not exist;
    a valid spec (not a ValueError) for which an epsilon-perturbed spec can be used."""


class WignerSquareUnsupportedError(InfrastructureError):
    """A shifted Wigner square, a valid spec (not a ValueError): its stability operator has an extra
    unstable direction."""


@dataclass(frozen=True)
class MDESolution:
    """Solution of the delta-regularized Dyson equation at one spectral parameter.

    ``de_residual`` is the operator norm of I + (zJ + i eta delta (I-J) - K0 +
    Gamma[M]) M; it is NaN when A is singular (K0 does not exist there).
    """

    m_delta: complex
    M: np.ndarray
    de_residual: float


@dataclass(frozen=True)
class StabilityReport:
    """Smallest-modulus eigenvalue of the stability operator with its eigenvectors.

    ``overlap`` = |<L, B>| / (||L|| ||B||), ``cubic`` = |<L, M Gamma[B] B>| for
    Hilbert-Schmidt-normalized eigenvectors, ``inv_norm`` the norm of the
    inverse operator, ``beta_gap`` the next-smallest eigenvalue modulus and
    ``isolated`` whether the gap clears 2 |beta| + 0.01.
    """

    beta: complex
    B: np.ndarray
    L: np.ndarray
    overlap: float
    cubic: float
    inv_norm: float
    beta_gap: float
    isolated: bool


def a_is_singular(spec: PolynomialSpec) -> bool:
    """A has an eigenvalue below SINGULAR_A_RTOL ||A||, so K0 = diag(c, -A^{-1}) does not exist."""
    return bool(np.min(np.abs(spec.eig_a)) < SINGULAR_A_RTOL * spec.norm_a)


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


def m_matrix(x: complex, spec: PolynomialSpec, z: complex, delta: float) -> np.ndarray:
    """Dyson-equation solution matrix as a function of its (1,1) entry x."""
    A_delta, A_hat_delta = _a_delta(spec, z, delta)
    l = spec.l
    eye = np.eye(l)
    V = x * np.linalg.inv(eye + 2.0 * x * A_hat_delta)
    b = spec.b
    M = np.zeros((l + 1, l + 1), dtype=complex)
    M[0, 0] = x
    M[0, 1:] = -x * (b @ V @ A_delta)
    M[1:, 0] = -x * (A_delta @ V @ b)
    M[1:, 1:] = -A_delta @ np.linalg.inv(eye + x * A_delta) + x * (A_delta @ V @ np.outer(b, b) @ V @ A_delta)
    return M


def _de_residual(M: np.ndarray, spec: PolynomialSpec, z: complex, delta: float) -> float:
    if a_is_singular(spec):
        return float("nan")
    l = spec.l
    # Z - K0 = diag(z - c, i eta delta I + A^{-1})
    z_minus_k0 = np.zeros((l + 1, l + 1), dtype=complex)
    z_minus_k0[0, 0] = z - spec.c
    z_minus_k0[1:, 1:] = 1j * z.imag * delta * np.eye(l) + np.linalg.inv(spec.A)
    residual = np.eye(l + 1) + (z_minus_k0 + gamma_operator(M, spec)) @ M
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
    """Smallest eigenvalue of the stability operator with eigenvectors and norms.

    Shifted squares of a Wigner matrix are rejected: their stability operator
    has an additional unstable direction and the isolated-eigenvalue picture
    breaks down.
    """
    if classification is None:
        classification = classify_polynomial(spec)
    if classification.kind == "WignerSquare":
        raise WignerSquareUnsupportedError("stability analysis excludes shifted Wigner squares")
    n = spec.l + 1
    z = complex(z)
    M = m_matrix(_m_delta(z, delta, spec), spec, z, delta)
    op = stability_operator_matrix(M, spec)

    eigvals, left, right = eig(op, left=True, right=True)
    order = np.argsort(np.abs(eigvals))
    beta = eigvals[order[0]]
    beta_gap = float(np.abs(eigvals[order[1]])) if len(order) > 1 else float("inf")
    B_vec = right[:, order[0]]
    L_vec = left[:, order[0]]

    hs = np.sqrt(n)
    B = (B_vec / (np.linalg.norm(B_vec) / hs)).reshape(n, n)
    L = (L_vec / (np.linalg.norm(L_vec) / hs)).reshape(n, n)
    overlap = float(np.abs(np.vdot(L_vec, B_vec)) / (np.linalg.norm(L_vec) * np.linalg.norm(B_vec)))
    cubic_target = M @ gamma_operator(B, spec) @ B
    cubic = float(np.abs(np.vdot(L.reshape(-1), cubic_target.reshape(-1))) / n)
    inv_norm = float(1.0 / np.linalg.svd(op, compute_uv=False)[-1])
    return StabilityReport(
        beta=complex(beta),
        B=B,
        L=L,
        overlap=overlap,
        cubic=cubic,
        inv_norm=inv_norm,
        beta_gap=beta_gap,
        isolated=bool(beta_gap >= 2.0 * np.abs(beta) + 0.01),
    )


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
