import numpy as np
import pytest

from quadspec import poles, solve_m, validate_spec
from quadspec.scalar import (
    CONTINUATION_RATIO,
    MAX_NEWTON_ITERATIONS,
    RESIDUAL_RTOL,
    NoConvergenceError,
    gamma_prime,
    gamma_value,
    h_value,
    solve_branch,
)


# The damped Newton and continuation as they were before the scalar and the
# regularized solvers shared one implementation, kept as the oracle that
# solve_branch must match bit for bit.
def _oracle_newton_step(z, m, spec, active):
    fp = -h_value(m, spec)
    fp = np.where(fp == 0.0, 1e-300, fp)
    f = 1.0 / m + z + gamma_value(m, spec)
    step = np.where(active, f / fp, 0.0)
    scale = np.ones(m.shape)
    candidate = m - step
    for _ in range(60):
        bad = active & ((candidate.imag <= 0.0) | ~np.isfinite(candidate))
        if not np.any(bad):
            break
        scale = np.where(bad, 0.5 * scale, scale)
        candidate = m - scale * step
    return np.where(active & (candidate.imag > 0.0) & np.isfinite(candidate), candidate, m)


def _oracle_newton_level(z, m, spec, polish=0):
    tol = RESIDUAL_RTOL * (1.0 + np.abs(z))
    iterations = 0
    converged = False
    for _ in range(MAX_NEWTON_ITERATIONS):
        f = 1.0 / m + z + gamma_value(m, spec)
        active = np.abs(f) > tol
        if not np.any(active):
            converged = True
            break
        iterations += 1
        m = _oracle_newton_step(z, m, spec, active)
    if not converged:
        f = 1.0 / m + z + gamma_value(m, spec)
        res = np.abs(f)
        if np.any(res > tol):
            worst = int(np.argmax(res / (1.0 + np.abs(z))))
            raise NoConvergenceError(complex(z.flat[worst]), float(res.flat[worst]))
    best_m = m
    best_res = np.abs(1.0 / m + z + gamma_value(m, spec))
    for _ in range(polish):
        m = _oracle_newton_step(z, m, spec, np.ones(m.shape, dtype=bool))
        res = np.abs(1.0 / m + z + gamma_value(m, spec))
        better = res < best_res
        best_m = np.where(better, m, best_m)
        best_res = np.where(better, res, best_res)
        iterations += 1
    return best_m, iterations


def _oracle_solve_branch(z, spec):
    z = np.asarray(z, dtype=complex)
    big_eta = 10.0 * spec.coefficient_scale**2
    eta_target = z.imag
    eta = np.maximum(np.full(z.shape, big_eta), eta_target)
    m = -1.0 / (z.real + 1j * eta)
    total_iterations = 0
    while True:
        level = z.real + 1j * eta
        final = bool(np.all(eta == eta_target))
        m, iters = _oracle_newton_level(level, m, spec, polish=3 if final else 0)
        total_iterations += iters
        if final:
            break
        eta = np.maximum(eta_target, CONTINUATION_RATIO * eta)
    residual = np.abs(1.0 / m + z + gamma_value(m, spec))
    return m, residual, total_iterations


def test_gamma_h_squared_wigner(wigner_square_spec):
    # gamma(m) = -1/(1+m), h(m) = 1/m^2 - 1/(1+m)^2; m = -1/2 is the root of h
    assert complex(gamma_value(-0.5, wigner_square_spec)) == pytest.approx(-2.0, abs=1e-14)
    assert complex(h_value(-0.5, wigner_square_spec)) == pytest.approx(0.0, abs=1e-13)


def test_gamma_anticommutator_partial_fractions(anticommutator_spec):
    # gamma(m) = 2m/(1 - m^2) by partial fractions over the eigenvalues ±1
    assert complex(gamma_value(1j, anticommutator_spec)) == pytest.approx(1j, abs=1e-14)
    for m in (0.3 + 0.4j, -2.0 + 1.0j, 5.0j):
        assert complex(gamma_value(m, anticommutator_spec)) == pytest.approx(2 * m / (1 - m**2), abs=1e-12)


@pytest.mark.parametrize("spec_name", ["wigner_square_spec", "anticommutator_spec", "complex_threshold_spec"])
def test_gamma_prime_finite_differences(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(4)
    delta = 1e-6
    for _ in range(100):
        m = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        gp = complex(gamma_prime(m, spec))
        fd = (gamma_value(m + delta, spec) - gamma_value(m - delta, spec)) / (2 * delta)
        assert abs(gp - fd) <= 1e-6


def test_pole_sets(wigner_square_spec, anticommutator_spec):
    ps = poles(wigner_square_spec)
    assert ps.gamma_poles.tolist() == [-1.0]
    assert ps.m_star_plus == -1.0
    assert ps.m_star_minus == np.inf
    assert 0.0 in ps.h_poles

    ps2 = poles(anticommutator_spec)
    assert np.allclose(ps2.gamma_poles, [-1.0, 1.0])
    assert ps2.m_star_plus == -1.0 and ps2.m_star_minus == 1.0

    ps3 = poles(validate_spec(1, [[-1.0]], [0.0], 0.0))
    assert ps3.gamma_poles.tolist() == [1.0]
    assert ps3.m_star_plus == -np.inf and ps3.m_star_minus == 1.0


def test_pole_values_blow_up(anticommutator_spec):
    # every listed pole is a genuine pole of h, including the b-weighted family
    with_b = validate_spec(2, [[1, 0], [0, -1]], [1.0, 1.0], 0.0)
    for spec in (anticommutator_spec, with_b):
        ps = poles(spec)
        for p in ps.gamma_poles:
            assert abs(h_value(complex(p + 1e-4), spec)) > 1e6


def test_b_weight_filter():
    # b orthogonal to an A_hat eigenvector removes the corresponding pole family
    spec = validate_spec(2, [[1, 0], [0, -1]], [1.0, 0.0], 0.0)
    ps = poles(spec)
    # mu poles at -1, +1; b couples only to the first eigendirection (mu_hat = ±1)
    assert any(np.isclose(ps.gamma_poles, 0.5)) or any(np.isclose(ps.gamma_poles, -0.5))
    assert not (any(np.isclose(ps.gamma_poles, 0.5)) and any(np.isclose(ps.gamma_poles, -0.5)))


def test_solve_m_squared_wigner_closed_form(wigner_square_spec):
    # z m^2 + z m + 1 = 0 on the branch with m -> -1/z
    pt = solve_m(5 + 1e-9j, wigner_square_spec)
    assert pt.m == pytest.approx((-5 + np.sqrt(5)) / 10, abs=1e-7)
    assert pt.residual <= 1e-11 * (1 + abs(pt.z))

    pt2 = solve_m(2 + 1e-9j, wigner_square_spec)
    assert pt2.m == pytest.approx(-0.5 + 0.5j, abs=1e-7)
    assert pt2.m.imag / np.pi == pytest.approx(0.15915494, abs=1e-7)

    # cross-check against the semicircle transform: m(z) = m_sc(sqrt z)/sqrt z
    for z in (5 + 1e-9j, 7.3 + 1e-6j, 2 + 0.1j):
        w = np.sqrt(z)
        msc = (-w + np.sqrt(w**2 - 4)) / 2
        assert solve_m(z, wigner_square_spec).m == pytest.approx(msc / w, abs=1e-9)


def test_solve_m_large_z_asymptotics(wigner_square_spec, anticommutator_spec, shifted_square_spec):
    pt = solve_m(1e6j, wigner_square_spec)
    assert abs(pt.z * pt.m + 1) <= 1e-4
    for spec in (wigner_square_spec, anticommutator_spec, shifted_square_spec):
        scale = 10.0 * spec.coefficient_scale**2
        for eta in (1e3, 1e4):
            pt = solve_m(1j * eta, spec)
            assert abs(pt.z * pt.m + 1) <= scale / eta


def test_solve_m_rejects_lower_half_plane(wigner_square_spec):
    with pytest.raises(ValueError):
        solve_m(1.0 - 1e-3j, wigner_square_spec)


@pytest.mark.parametrize(
    "spec_name", ["wigner_square_spec", "anticommutator_spec", "complex_threshold_spec"]
)
def test_nevanlinna_property(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(1)
    z = rng.uniform(-10, 10, 1000) + 1j * 10 ** rng.uniform(-3, 1, 1000)
    m, res, _ = solve_branch(z, spec)
    assert np.all(m.imag > 0)
    assert np.all(res <= 1e-11 * (1 + np.abs(z)))


def test_antisymmetric_law_symmetry(anticommutator_spec):
    # X2 -> -X2 maps q to -q, so m(-conj z) = -conj m(z)
    for z in (0.3 + 0.01j, -2 + 1e-3j, 3.3 + 1e-6j, 1.7 + 2j):
        m1 = solve_m(z, anticommutator_spec).m
        m2 = solve_m(-np.conj(z), anticommutator_spec).m
        assert abs(m2 + np.conj(m1)) <= 1e-9


def test_derivative_matches_reciprocal_h(wigner_square_spec, anticommutator_spec):
    # m'(z) = 1/h(m(z)) off the support
    for spec, E in ((wigner_square_spec, 4.5), (anticommutator_spec, 3.8), (anticommutator_spec, -3.8)):
        d = 1e-5
        m_p = solve_m(E + d + 1e-9j, spec).m
        m_m = solve_m(E - d + 1e-9j, spec).m
        m_0 = solve_m(E + 1e-9j, spec).m
        numeric = (m_p - m_m) / (2 * d)
        assert abs(numeric - 1 / h_value(m_0, spec)) <= 1e-5 * abs(numeric)


def test_no_convergence_is_signalled():
    spec = validate_spec(1, [[1.0]], [0.0], 0.0)
    from quadspec import scalar

    original = scalar.MAX_NEWTON_ITERATIONS
    scalar.MAX_NEWTON_ITERATIONS = 1
    try:
        with pytest.raises(NoConvergenceError):
            solve_m(0.5 + 1e-9j, spec)
    finally:
        scalar.MAX_NEWTON_ITERATIONS = original


def _random_specs(rng, count):
    specs = []
    for _ in range(count):
        l = int(rng.integers(1, 4))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)) * (l > 1)
        specs.append(validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal())))
    return specs


def test_solve_branch_matches_oracle_bitwise(
    wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
    complex_half_spec, complex_threshold_spec,
):
    # the shared damped Newton reproduces the old scalar solver bit for bit:
    # the same m, the same residuals and the same iteration counts
    rng = np.random.default_rng(31)
    fixtures = [wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
                complex_half_spec, complex_threshold_spec]
    for spec in fixtures + _random_specs(rng, 12):
        scale = spec.coefficient_scale
        grid = rng.uniform(-2 * scale, 2 * scale, 64) + 1j * 10 ** rng.uniform(-7, 1, 64)
        for z in (grid, grid[:1], np.array(grid[1])):
            try:
                expected = _oracle_solve_branch(z, spec)
            except NoConvergenceError:
                with pytest.raises(NoConvergenceError):
                    solve_branch(z, spec)
                continue
            m, residual, iterations = solve_branch(z, spec)
            assert np.array_equal(m, expected[0])
            assert np.array_equal(residual, expected[1])
            assert iterations == expected[2]
