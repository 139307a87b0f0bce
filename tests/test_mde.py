from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import eig

from quadspec import (
    classify_polynomial,
    compute_edges,
    gamma_operator,
    m_matrix,
    solve_m,
    solve_m_delta,
    stability_spectrum,
    validate_spec,
)
from quadspec.mde import (
    BETA_KAPPAS,
    WignerSquareUnsupportedError,
    _a_delta,
    _gamma_delta_and_prime,
    _gamma_matrix,
    beta_slopes,
    stability_operator_matrix,
)
from quadspec.scalar import MAX_NEWTON_ITERATIONS, RESIDUAL_RTOL, NoConvergenceError


# The regularized Newton loop as it was before it shared the scalar solver's
# damped Newton (scalar complex arithmetic), kept as the oracle for m_delta.
def _oracle_newton_m_delta(z, delta, spec, seed):
    A_delta, A_hat_delta = _a_delta(spec, z, delta)
    m = seed
    tol = RESIDUAL_RTOL * (1.0 + abs(z))
    for _ in range(MAX_NEWTON_ITERATIONS):
        value, prime = _gamma_delta_and_prime(m, spec, A_delta, A_hat_delta)
        f = 1.0 / m + z + value
        if abs(f) <= tol:
            return m
        fp = -1.0 / m**2 + prime
        if fp == 0.0:
            fp = 1e-300
        step = f / fp
        scale = 1.0
        candidate = m - step
        for _ in range(60):
            if candidate.imag > 0.0 and np.isfinite(candidate):
                break
            scale *= 0.5
            candidate = m - scale * step
        m = candidate
    value, _ = _gamma_delta_and_prime(m, spec, A_delta, A_hat_delta)
    raise NoConvergenceError(z, abs(1.0 / m + z + value))


def _oracle_m_delta(z, delta, spec):
    m = solve_m(z, spec).m
    try:
        return _oracle_newton_m_delta(z, delta, spec, m)
    except NoConvergenceError:
        for step_delta in np.linspace(0.0, delta, 9)[1:]:
            m = _oracle_newton_m_delta(z, float(step_delta), spec, m)
        return m


def _pencil(spec):
    """The linearization's K_j = b_j E_00 + E_0j + E_j0, built entry by entry."""
    n = spec.l + 1
    K = []
    for j in range(spec.l):
        Kj = np.zeros((n, n), dtype=complex)
        Kj[0, 0] = spec.b[j]
        Kj[0, j + 1] = Kj[j + 1, 0] = 1.0
        K.append(Kj)
    return K


@pytest.mark.parametrize("a_kind", ["real", "complex"])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_gamma_operator_is_the_pencil_sum(l, a_kind):
    # Gamma[R] = sum_j K_j R K_j ties the closed form to the paper's pencil
    rng = np.random.default_rng(10 * l + (a_kind == "complex"))
    g = rng.standard_normal((l, l)) + (1j * rng.standard_normal((l, l)) if a_kind == "complex" else 0.0)
    spec = validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal()))
    assert np.all(spec.b != 0.0)
    n = l + 1
    for _ in range(5):
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = sum(Kj @ R @ Kj for Kj in _pencil(spec))
        assert np.linalg.norm(gamma_operator(R, spec) - expected) <= 1e-13 * np.linalg.norm(expected)


def _residual_by_inverse(M, spec, z, delta):
    """The Dyson-equation residual with K0 = diag(c, -A^{-1}) formed explicitly; invertible A only."""
    l = spec.l
    z_minus_k0 = np.zeros((l + 1, l + 1), dtype=complex)
    z_minus_k0[0, 0] = z - spec.c
    z_minus_k0[1:, 1:] = 1j * z.imag * delta * np.eye(l) + np.linalg.inv(spec.A)
    return float(np.linalg.norm(np.eye(l + 1) + (z_minus_k0 + gamma_operator(M, spec)) @ M, ord=2))


@pytest.mark.parametrize("spec", [
    validate_spec(1, [[1.0]], [0.0], 0.0),
    validate_spec(2, [[0, 1], [1, 0]], [0, 0], 0.0),
    validate_spec(2, [[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.5]], [0.7, -0.2], 0.3),
], ids=["wigner-square", "anticommutator", "complex-l2"])
def test_residual_matches_inverse_form(spec):
    # the residual never forms A^{-1}; where A is invertible it is the explicit K0 form up to round-off
    rng = np.random.default_rng(26)
    for _ in range(100):
        z = complex(rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 0.5))
        delta = float(rng.uniform(0.0, 1.0))
        sol = solve_m_delta(z, delta, spec)
        assert abs(sol.de_residual - _residual_by_inverse(sol.M, spec, z, delta)) <= 1e-14


def test_linearization_singular_a():
    # K0 = diag(c, -A^{-1}) does not exist for singular A, but the Dyson residual does, and it vanishes;
    # so it does on the epsilon-regularized spec
    spec = validate_spec(2, [[1, 0], [0, 0]], [0, 0], 0.0)
    assert np.min(np.abs(spec.eig_a)) == 0.0
    reg = validate_spec(2, spec.A + 1e-7 * spec.norm_a * np.eye(2), spec.b, spec.c)
    assert np.min(np.abs(reg.eig_a)) >= 1e-8
    for z, delta in ((0.3 + 0.5j, 0.0), (-0.2 + 1e-3j, 0.5), (3.0 + 1.0j, 1.0)):
        assert solve_m_delta(z, delta, spec).de_residual <= 1e-9
        assert solve_m_delta(z, delta, reg).de_residual <= 1e-9


def test_gamma_operator_examples(wigner_square_spec):
    out = gamma_operator(np.array([[1, 0], [0, 0]], dtype=complex), wigner_square_spec)
    assert np.allclose(out, [[0, 0], [0, 1]])
    out2 = gamma_operator(np.eye(2, dtype=complex), wigner_square_spec)
    assert np.allclose(out2, np.eye(2))


def test_gamma_operator_block_formula():
    spec = validate_spec(2, [[1, 0.3], [0.3, 2]], [0.5, -1.0], 0.7)
    rng = np.random.default_rng(0)
    R = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = gamma_operator(R, spec)
    b = spec.b
    assert out[0, 0] == pytest.approx(
        R[0, 0] * (b @ b) + b @ (R[0, 1:] + R[1:, 0]) + np.trace(R[1:, 1:]), abs=1e-13
    )
    assert np.allclose(out[0, 1:], R[0, 0] * b + R[1:, 0])
    assert np.allclose(out[1:, 0], R[0, 0] * b + R[0, 1:])
    assert np.allclose(out[1:, 1:], R[0, 0] * np.eye(2))


def test_gamma_operator_self_adjoint(anticommutator_spec):
    # <S, Gamma[R]> = <Gamma[S*]*, R>, i.e. the dense matrix is Hermitian
    spec2 = validate_spec(2, [[1, 0.3], [0.3, 2]], [0.5, -1.0], 0.7)
    rng = np.random.default_rng(1)
    for spec in (anticommutator_spec, spec2):
        G = _gamma_matrix(spec)
        assert np.max(np.abs(G - G.conj().T)) <= 1e-12
        for _ in range(10):
            n = spec.l + 1
            R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs = np.vdot(S.reshape(-1), gamma_operator(R, spec).reshape(-1))
            rhs = np.vdot(np.conj(gamma_operator(np.conj(S.T), spec)).T.reshape(-1), R.reshape(-1))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_solve_m_delta_zero_matches_scalar(wigner_square_spec, anticommutator_spec):
    rng = np.random.default_rng(2)
    for spec in (wigner_square_spec, anticommutator_spec):
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 0.7))
            sol = solve_m_delta(z, 0.0, spec)
            assert abs(sol.m_delta - solve_m(z, spec).m) <= 1e-11
            assert sol.M[0, 0] == sol.m_delta


def test_dyson_residual_random_points(wigner_square_spec, anticommutator_spec):
    rng = np.random.default_rng(5)
    for spec in (wigner_square_spec, anticommutator_spec):
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 0.7))
            delta = float(rng.uniform(0, 1))
            sol = solve_m_delta(z, delta, spec)
            assert sol.m_delta.imag > 0
            assert sol.de_residual <= 1e-9


def test_m_delta_matches_oracle(wigner_square_spec, anticommutator_spec, complex_threshold_spec):
    # the shared damped Newton moves m_delta only by the rounding of numpy
    # against Python complex arithmetic
    rng = np.random.default_rng(8)
    specs = [wigner_square_spec, anticommutator_spec, complex_threshold_spec]
    for _ in range(6):
        l = int(rng.integers(2, 4))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        specs.append(validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal())))
    for spec in specs:
        for _ in range(15):
            z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 0.7))
            delta = float(rng.uniform(0, 1))
            expected = _oracle_m_delta(z, delta, spec)
            assert abs(solve_m_delta(z, delta, spec).m_delta - expected) <= 1e-14 * abs(expected)


# (spec, z, delta) where the direct Newton jump to delta diverges (residual 4e17) and the
# eight-step ramp recovers (singular A, a real l = 2 spec with b)
_DIVERGING_JUMP = (
    validate_spec(
        2,
        [[-0.9660455935499719, 0.6541061227473745], [0.6541061227473745, -0.4428929883561144]],
        [4.625388170941528, -3.131834297362932],
        -7.4578613509926335,
    ),
    -1.9042255965611545 + 0.01239788308721512j,
    0.863173076188803,
)


def test_diverging_delta_jump_falls_back_quietly():
    # the jump must not warn on its way to the ramp
    spec, z, delta = _DIVERGING_JUMP
    sol = solve_m_delta(z, delta, spec)
    assert sol.m_delta == -0.653493657512861 + 0.3327924076103988j


def test_regularization_error_linear_off_support(wigner_square_spec):
    # |m_delta - m| <= C eta at fixed E off the support; the constant is fit
    # at eta = 1e-3 and reused below it
    E = compute_edges(wigner_square_spec).tau_plus + 0.5
    diffs = {}
    for eta in (1e-3, 1e-4, 1e-5):
        z = E + 1j * eta
        diffs[eta] = abs(solve_m_delta(z, 1.0, wigner_square_spec).m_delta - solve_m(z, wigner_square_spec).m)
    C = diffs[1e-3] / 1e-3
    for eta in (1e-4, 1e-5):
        assert diffs[eta] <= 2.0 * C * eta


def test_stability_rejects_wigner_square(wigner_square_spec):
    with pytest.raises(WignerSquareUnsupportedError):
        stability_spectrum(4.0 + 1e-3j, 0.0, wigner_square_spec)


@pytest.fixture(scope="module")
def anti_edges(anticommutator_spec):
    return compute_edges(anticommutator_spec)


# a complex l = 3 spec with b and c
_COMPLEX_L3 = validate_spec(
    3,
    [[1.0, 0.3 + 0.4j, -0.2j], [0.3 - 0.4j, -0.5, 0.6], [0.2j, 0.6, 0.8]],
    [0.5, -1.0, 0.3],
    0.2,
)
_SLOPE_CASES = [f"slope-{side}-{kappa:g}" for side in ("right", "left") for kappa in BETA_KAPPAS]


@pytest.mark.parametrize(
    "case", ["delta-0", "delta-0.5", "diverging-jump", *_SLOPE_CASES, "complex-l3-delta-0", "complex-l3-delta-0.5"]
)
def test_stability_beta_is_smallest_eigenvalue_at_solved_m(case, anticommutator_spec, anti_edges):
    # stability_spectrum solves for M itself; it must be the M of solve_m_delta, bit for bit,
    # and its eigenvalue-only numpy call must pick the beta of scipy's full left-and-right eig
    cases = {
        "delta-0": (anticommutator_spec, 0.7 + 0.05j, 0.0),
        "delta-0.5": (anticommutator_spec, 0.7 + 0.05j, 0.5),
        "diverging-jump": _DIVERGING_JUMP,
        "complex-l3-delta-0": (_COMPLEX_L3, 0.4 + 0.05j, 0.0),
        "complex-l3-delta-0.5": (_COMPLEX_L3, 0.4 + 0.05j, 0.5),
    }
    # the beta_slopes points edge +- kappa + 1e-10 i outside the support
    for kappa in BETA_KAPPAS:
        cases[f"slope-right-{kappa:g}"] = (anticommutator_spec, anti_edges.tau_plus + kappa + 1e-10j, 0.0)
        cases[f"slope-left-{kappa:g}"] = (anticommutator_spec, anti_edges.tau_minus - kappa + 1e-10j, 0.0)
    spec, z, delta = cases[case]
    op = stability_operator_matrix(solve_m_delta(z, delta, spec).M, spec)
    eigvals = eig(op, left=True, right=True)[0]
    assert stability_spectrum(z, delta, spec).beta == eigvals[np.argmin(np.abs(eigvals))]


@dataclass(frozen=True)
class _CriticalPair:
    """beta of the stability operator with its right and left eigenvectors B and L, each
    scaled to Hilbert-Schmidt norm sqrt(l + 1), and the next-smallest eigenvalue modulus."""

    op: np.ndarray
    M: np.ndarray
    beta: complex
    gap: float
    B: np.ndarray
    L: np.ndarray

    @property
    def overlap(self) -> float:
        return float(abs(np.vdot(self.L, self.B)) / (np.linalg.norm(self.L) * np.linalg.norm(self.B)))


def _critical_pair(z, delta, spec) -> _CriticalPair:
    """Full left-and-right eig of the operator that stability_spectrum builds at the solved M."""
    n = spec.l + 1
    M = solve_m_delta(z, delta, spec).M
    op = stability_operator_matrix(M, spec)
    values, left, right = eig(op, left=True, right=True)
    order = np.argsort(np.abs(values))
    assert values[order[0]] == stability_spectrum(z, delta, spec).beta
    hs = np.sqrt(n)
    B_vec, L_vec = right[:, order[0]], left[:, order[0]]
    return _CriticalPair(
        op=op,
        M=M,
        beta=complex(values[order[0]]),
        gap=float(abs(values[order[1]])),
        B=(B_vec / (np.linalg.norm(B_vec) / hs)).reshape(n, n),
        L=(L_vec / (np.linalg.norm(L_vec) / hs)).reshape(n, n),
    )


def test_stability_small_eigenvalue_at_edge(anticommutator_spec, anti_edges):
    pair = _critical_pair(anti_edges.tau_plus + 1e-10j, 0.0, anticommutator_spec)
    assert abs(pair.beta) <= 1e-4
    assert pair.gap >= 2.0 * abs(pair.beta) + 0.01  # beta is isolated
    assert pair.overlap >= 0.05
    # eigenvector relation L[B] = beta B for the materialized operator
    b_vec = pair.B.reshape(-1)
    assert np.linalg.norm(pair.op @ b_vec - pair.beta * b_vec) <= 1e-9 * np.linalg.norm(b_vec)


def test_stability_critical_directions(anticommutator_spec, anti_edges):
    # at the edge the right eigenvector aligns with dM/dm and the left with Gamma[B]
    z = anti_edges.tau_plus + 1e-10j
    pair = _critical_pair(z, 0.0, anticommutator_spec)
    sol = solve_m_delta(z, 0.0, anticommutator_spec)
    dx = 1e-7
    Mp = (m_matrix(sol.m_delta + dx, anticommutator_spec, z, 0.0)
          - m_matrix(sol.m_delta - dx, anticommutator_spec, z, 0.0)) / (2 * dx)

    def aligned_distance(x, y):
        x = x.reshape(-1) / np.linalg.norm(x)
        y = y.reshape(-1) / np.linalg.norm(y)
        phase = np.vdot(y, x)
        return np.linalg.norm(x - y * phase / abs(phase))

    assert aligned_distance(pair.B, Mp) <= 1e-4
    assert aligned_distance(pair.L, gamma_operator(pair.B, anticommutator_spec)) <= 1e-4


def test_stability_square_root_scaling(anticommutator_spec, anti_edges):
    slopes = beta_slopes(anticommutator_spec, anti_edges, classify_polynomial(anticommutator_spec))
    assert set(slopes) == {"left", "right"}
    for slope in slopes.values():
        assert slope == pytest.approx(0.5, abs=0.05)


def test_stability_bounded_away_from_support(anticommutator_spec, anti_edges):
    pair = _critical_pair(anti_edges.tau_plus + 1.0 + 1e-3j, 0.0, anticommutator_spec)
    # ||L^{-1}|| is the reciprocal of the smallest singular value
    assert 1.0 / np.linalg.svd(pair.op, compute_uv=False)[-1] <= 20.0
    assert pair.overlap >= 0.05


def test_stability_cubic_coefficient_stable(anticommutator_spec, anti_edges):
    def cubic(z):
        """|<L, M Gamma[B] B>| / (l + 1)."""
        pair = _critical_pair(z, 0.0, anticommutator_spec)
        target = pair.M @ gamma_operator(pair.B, anticommutator_spec) @ pair.B
        return float(abs(np.vdot(pair.L, target)) / (anticommutator_spec.l + 1))

    base = cubic(anti_edges.tau_plus + 1e-10j)
    for dz in (-0.05, -0.01, 0.01, 0.05):
        assert base / 2.0 <= cubic(anti_edges.tau_plus + dz + 1e-3j) <= base * 2.0


def test_stability_delta_independent_at_edge(anticommutator_spec, anti_edges):
    # the critical eigenvalue is delta-independent in the eta -> 0 limit;
    # at finite eta the regularization shifts it by O(sqrt eta)
    z = anti_edges.tau_plus + 1e-10j
    beta0 = abs(stability_spectrum(z, 0.0, anticommutator_spec).beta)
    beta1 = abs(stability_spectrum(z, 1.0, anticommutator_spec).beta)
    assert abs(beta0 - beta1) <= 1e-4


def test_stability_rank_one(complex_half_spec):
    # a reducible spec with l = 2 has rank-one, so singular, A; its critical eigenvalue is small at the edge
    spec = complex_half_spec
    edges = compute_edges(spec)
    pair = _critical_pair(edges.tau_plus + 1e-8j, 0.0, spec)
    assert abs(pair.beta) <= 1e-2
    assert pair.overlap > 0.01
