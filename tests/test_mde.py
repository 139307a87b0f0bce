import numpy as np
import pytest

from quadspec import (
    build_linearization,
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
    SingularAError,
    WignerSquareUnsupportedError,
    _a_delta,
    _gamma_delta_and_prime,
    _gamma_matrix,
    a_is_singular,
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


def test_linearization_squared_wigner(wigner_square_spec):
    lin = build_linearization(wigner_square_spec)
    assert np.allclose(lin.K0, [[0, 0], [0, -1]])
    assert np.allclose(lin.K[0], [[0, 1], [1, 0]])
    assert np.allclose(lin.J, [[1, 0], [0, 0]])


def test_linearization_anticommutator(anticommutator_spec):
    lin = build_linearization(anticommutator_spec)
    # A = [[0,1],[1,0]] is its own inverse
    assert np.allclose(lin.K0[1:, 1:], [[0, -1], [-1, 0]])
    assert np.allclose(lin.K0[0, :], 0.0)
    for j, Kj in enumerate(lin.K):
        assert np.allclose(Kj, Kj.conj().T)
        assert Kj[0, j + 1] == 1.0 and Kj[j + 1, 0] == 1.0


def test_linearization_singular_a():
    spec = validate_spec(2, [[1, 0], [0, 0]], [0, 0], 0.0)
    assert a_is_singular(spec)
    with pytest.raises(SingularAError):
        build_linearization(spec)
    reg = validate_spec(2, spec.A + 1e-7 * spec.norm_a * np.eye(2), spec.b, spec.c)
    assert not a_is_singular(reg)
    assert np.min(np.abs(reg.eig_a)) >= 1e-8
    build_linearization(reg)  # must not raise


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


def test_diverging_delta_jump_falls_back_quietly():
    # the direct Newton jump to delta diverges here (residual 4e17) and the eight-step ramp
    # recovers; the jump must not warn on the way (singular A, a real l = 2 spec with b)
    spec = validate_spec(
        2,
        [[-0.9660455935499719, 0.6541061227473745], [0.6541061227473745, -0.4428929883561144]],
        [4.625388170941528, -3.131834297362932],
        -7.4578613509926335,
    )
    sol = solve_m_delta(-1.9042255965611545 + 0.01239788308721512j, 0.863173076188803, spec)
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


def test_stability_small_eigenvalue_at_edge(anticommutator_spec, anti_edges):
    st = stability_spectrum(anti_edges.tau_plus + 1e-10j, 0.0, anticommutator_spec)
    assert abs(st.beta) <= 1e-4
    assert st.isolated
    assert st.overlap >= 0.05
    # eigenvector relation L[B] = beta B for the materialized operator
    op = stability_operator_matrix(
        solve_m_delta(anti_edges.tau_plus + 1e-10j, 0.0, anticommutator_spec).M, anticommutator_spec
    )
    b_vec = st.B.reshape(-1)
    assert np.linalg.norm(op @ b_vec - st.beta * b_vec) <= 1e-9 * np.linalg.norm(b_vec)


def test_stability_critical_directions(anticommutator_spec, anti_edges):
    # at the edge the right eigenvector aligns with dM/dm and the left with Gamma[B]
    z = anti_edges.tau_plus + 1e-10j
    st = stability_spectrum(z, 0.0, anticommutator_spec)
    sol = solve_m_delta(z, 0.0, anticommutator_spec)
    dx = 1e-7
    Mp = (m_matrix(sol.m_delta + dx, anticommutator_spec, z, 0.0)
          - m_matrix(sol.m_delta - dx, anticommutator_spec, z, 0.0)) / (2 * dx)

    def aligned_distance(x, y):
        x = x.reshape(-1) / np.linalg.norm(x)
        y = y.reshape(-1) / np.linalg.norm(y)
        phase = np.vdot(y, x)
        return np.linalg.norm(x - y * phase / abs(phase))

    assert aligned_distance(st.B, Mp) <= 1e-4
    assert aligned_distance(st.L, gamma_operator(st.B, anticommutator_spec)) <= 1e-4


def test_stability_square_root_scaling(anticommutator_spec, anti_edges):
    slopes = beta_slopes(anticommutator_spec, anti_edges, classify_polynomial(anticommutator_spec))
    assert set(slopes) == {"left", "right"}
    for slope in slopes.values():
        assert slope == pytest.approx(0.5, abs=0.05)


def test_stability_bounded_away_from_support(anticommutator_spec, anti_edges):
    st = stability_spectrum(anti_edges.tau_plus + 1.0 + 1e-3j, 0.0, anticommutator_spec)
    assert st.inv_norm <= 20.0
    assert st.overlap >= 0.05


def test_stability_cubic_coefficient_stable(anticommutator_spec, anti_edges):
    z0 = anti_edges.tau_plus + 1e-10j
    base = stability_spectrum(z0, 0.0, anticommutator_spec).cubic
    for dz in (-0.05, -0.01, 0.01, 0.05):
        val = stability_spectrum(anti_edges.tau_plus + dz + 1e-3j, 0.0, anticommutator_spec).cubic
        assert base / 2.0 <= val <= base * 2.0


def test_stability_delta_independent_at_edge(anticommutator_spec, anti_edges):
    # the critical eigenvalue is delta-independent in the eta -> 0 limit;
    # at finite eta the regularization shifts it by O(sqrt eta)
    z = anti_edges.tau_plus + 1e-10j
    beta0 = abs(stability_spectrum(z, 0.0, anticommutator_spec).beta)
    beta1 = abs(stability_spectrum(z, 1.0, anticommutator_spec).beta)
    assert abs(beta0 - beta1) <= 1e-4


def test_stability_regularized_rank_one(complex_half_spec):
    # singular A goes through the epsilon-perturbation path, A + 1e-7 ||A|| I
    spec = complex_half_spec
    reg = validate_spec(spec.l, spec.A + 1e-7 * spec.norm_a * np.eye(spec.l), spec.b, spec.c)
    edges = compute_edges(reg)
    st = stability_spectrum(edges.tau_plus + 1e-8j, 0.0, reg)
    assert abs(st.beta) <= 1e-2
    assert st.overlap > 0.01
