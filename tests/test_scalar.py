import numpy as np
import pytest

from quadspec import poles, scalar, solve_m, validate_spec
from quadspec.density import ETA_COARSE
from quadspec.mde import _a_delta, _gamma_delta_and_prime
from quadspec.scalar import (
    CONTINUATION_RATIO,
    MAX_NEWTON_ITERATIONS,
    RESIDUAL_RTOL,
    NoConvergenceError,
    continuation,
    damped_newton,
    gamma_and_prime,
    gamma_terms,
    gamma_value,
    h_prime,
    h_value,
    solve_branch,
)


# The self-energy kernels as they were before gamma and gamma' shared one
# kernel over a leading eigen-axis: each point's terms lie along a trailing
# axis of length l.  gamma_terms, h_value and h_prime must match them bit for
# bit for l <= 3.
def _oracle_gamma_value(m, spec):
    m = np.asarray(m, dtype=complex)
    mu, mu_hat, w2 = spec.mu, spec.mu_hat, spec.w2
    x = m[..., None]
    out = -np.sum(mu / (1.0 + x * mu), axis=-1)
    if len(w2):
        out = out + m * np.sum(w2 * (1.0 + x * mu_hat) / (1.0 + 2.0 * x * mu_hat) ** 2, axis=-1)
    return out - spec.c


def _oracle_gamma_prime(m, spec):
    m = np.asarray(m, dtype=complex)
    mu, mu_hat, w2 = spec.mu, spec.mu_hat, spec.w2
    x = m[..., None]
    out = np.sum(mu**2 / (1.0 + x * mu) ** 2, axis=-1)
    if len(w2):
        out = out + np.sum(w2 / (1.0 + 2.0 * x * mu_hat) ** 3, axis=-1)
    return out


def _oracle_h_value(m, spec):
    m = np.asarray(m, dtype=complex)
    return 1.0 / m**2 - _oracle_gamma_prime(m, spec)


def _oracle_h_prime(m, spec):
    m = np.asarray(m, dtype=complex)
    mu, mu_hat, w2 = spec.mu, spec.mu_hat, spec.w2
    x = m[..., None]
    out = -2.0 / m**3 + 2.0 * np.sum(mu**3 / (1.0 + x * mu) ** 3, axis=-1)
    if len(w2):
        out = out + 6.0 * np.sum(w2 * mu_hat / (1.0 + 2.0 * x * mu_hat) ** 4, axis=-1)
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        gp = complex(gamma_terms(m, spec)[1])
        fd = (gamma_value(m + delta, spec) - gamma_value(m - delta, spec)) / (2 * delta)
        assert abs(gp - fd) <= 1e-6


def test_pole_sets(wigner_square_spec, anticommutator_spec):
    ps = poles(wigner_square_spec)
    assert ps.gamma_poles.tolist() == [-1.0]
    assert ps.m_star_plus == -1.0
    assert ps.m_star_minus == np.inf

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


def _kernel_specs(rng, fixtures, l_max=3):
    """The fixtures and seeded random specs with l = 1..l_max, each with its b and with b = 0."""
    specs = list(fixtures)
    for l in range(1, l_max + 1):
        for _ in range(3):
            g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)) * (l > 1)
            A, c = 0.5 * (g + g.conj().T), float(rng.standard_normal())
            specs += [validate_spec(l, A, rng.standard_normal(l), c), validate_spec(l, A, np.zeros(l), c)]
    return specs


def _kernel_points(rng, spec):
    """m in the upper half-plane and on the real axis, as 0-d, 1-d and 2-d arrays."""
    scale = 3.0 / spec.norm_a
    m = rng.uniform(-scale, scale, 24) + 1j * scale * 10 ** rng.uniform(-9, 0, 24)
    m[:4] = m[:4].real
    return [m, m[:1], np.array(m[5]), np.array(m[1].real + 0j), m.reshape(4, 6)]


def test_kernel_matches_oracle_bitwise(
    wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
    complex_half_spec, complex_threshold_spec,
):
    rng = np.random.default_rng(57)
    fixtures = [wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
                complex_half_spec, complex_threshold_spec]
    specs = _kernel_specs(rng, fixtures)
    assert any(len(spec.w2) == 0 for spec in specs) and any(len(spec.w2) == 3 for spec in specs)
    for spec in specs:
        for m in _kernel_points(rng, spec):
            gamma, gamma_p = gamma_terms(m, spec)
            assert _same_bits(gamma, _oracle_gamma_value(m, spec))
            assert _same_bits(gamma_p, _oracle_gamma_prime(m, spec))
            assert _same_bits(gamma_value(m, spec), _oracle_gamma_value(m, spec))
            assert _same_bits(h_value(m, spec), _oracle_h_value(m, spec))
            assert _same_bits(h_prime(m, spec), _oracle_h_prime(m, spec))


def test_kernel_layouts_follow_the_shape_of_m(
    wigner_square_spec, anticommutator_spec, complex_half_spec, complex_threshold_spec,
):
    # one spec object and one map, called with m of changing dimension: a
    # column layout kept for one shape must not serve another
    rng = np.random.default_rng(59)
    for spec in _kernel_specs(rng, [wigner_square_spec, anticommutator_spec, complex_half_spec,
                                    complex_threshold_spec], l_max=3):
        gp = gamma_and_prime(spec)
        m, one, point, _, grid = _kernel_points(rng, spec)
        for x in (point, m, one, np.array(m[7]), grid, m[8:], np.array(m[9]), m):
            gamma, gamma_p = gp(x)
            assert _same_bits(gamma, _oracle_gamma_value(x, spec))
            assert _same_bits(gamma_p, _oracle_gamma_prime(x, spec))
            gamma, gamma_p = gamma_terms(x, spec)
            assert _same_bits(gamma, _oracle_gamma_value(x, spec))
            assert _same_bits(gamma_p, _oracle_gamma_prime(x, spec))
            assert _same_bits(h_value(x, spec), _oracle_h_value(x, spec))
            assert _same_bits(h_prime(x, spec), _oracle_h_prime(x, spec))


def test_kernel_point_ignores_its_batch():
    # every point of a batch gets the bits it gets alone, also with five terms
    # on the eigen-axis, so a point's Newton path does not depend on which
    # other points are still active
    rng = np.random.default_rng(58)
    for spec in _kernel_specs(rng, [], l_max=5):
        m = _kernel_points(rng, spec)[0]
        batch = gamma_terms(m, spec) + (h_prime(m, spec),)
        for i in range(len(m)):
            alone = gamma_terms(m[i], spec) + (h_prime(m[i], spec),)
            assert all(_same_bits(b[i], a) for b, a in zip(batch, alone))


def test_damped_newton_keeps_its_input(anticommutator_spec):
    z = np.array([0.3 + 1e-3j, 2.5 + 1e-6j, -1.0 + 0.5j, 3.4 + 1e-2j])
    start, _, _ = solve_branch(z.real + 2j * z.imag, anticommutator_spec)
    start[0] = solve_branch(z[:1], anticommutator_spec)[0][0]  # converged: only the others step
    kept = start.copy()
    gp = gamma_and_prime(anticommutator_spec)
    m, residual, iterations = damped_newton(z, start, gp)
    assert _same_bits(start, kept)
    assert m.shape == residual.shape == z.shape and iterations > 0
    assert m[0] == kept[0]
    point = np.array(start[1])
    m1, residual1, _ = damped_newton(np.array(z[1]), point, gp, polish=2)
    assert m1.shape == residual1.shape == ()
    assert point == kept[1]


# damped_newton as it was before its per-iteration bookkeeping was trimmed,
# kept as the oracle it must match bit for bit: m, |f| and the iterations
def _oracle_damped_newton(z, m, gamma_and_prime, polish=0):
    z = np.asarray(z, dtype=complex)
    m = np.array(m, dtype=complex)
    tol = RESIDUAL_RTOL * (1.0 + np.abs(z))

    def evaluate(z, m):
        gamma, gamma_p = gamma_and_prime(m)
        return 1.0 / m + z + gamma, gamma_p - 1.0 / m**2

    def damped_step(z, m, f, fp):
        step = f / np.where(fp == 0.0, 1e-300, fp)
        scale = np.ones(m.shape)
        candidate = m - step
        for _ in range(60):
            bad = (candidate.imag <= 0.0) | ~np.isfinite(candidate)
            if not np.any(bad):
                break
            scale = np.where(bad, 0.5 * scale, scale)
            candidate = m - scale * step
        m = np.where((candidate.imag > 0.0) & np.isfinite(candidate), candidate, m)
        return (m,) + evaluate(z, m)

    f, fp = evaluate(z, m)
    iterations = 0
    for _ in range(scalar.MAX_NEWTON_ITERATIONS):
        active = np.abs(f) > tol
        if not np.any(active):
            break
        iterations += 1
        if np.all(active):
            m, f, fp = damped_step(z, m, f, fp)
        else:
            m[active], f[active], fp[active] = damped_step(z[active], m[active], f[active], fp[active])
    res = np.abs(f)
    if np.any(res > tol):
        worst = int(np.argmax(res / (1.0 + np.abs(z))))
        raise NoConvergenceError(complex(z.flat[worst]), float(res.flat[worst]))
    best_m, best_res = m, res
    for _ in range(polish):
        m, f, fp = damped_step(z, m, f, fp)
        res = np.abs(f)
        better = res < best_res
        best_m = np.where(better, m, best_m)
        best_res = np.where(better, res, best_res)
        iterations += 1
    return best_m, best_res, iterations


def _assert_newton_matches_oracle(z, start, gp, polish):
    try:
        expected = _oracle_damped_newton(z, start, gp, polish)
    except NoConvergenceError as exc:
        with pytest.raises(NoConvergenceError) as caught:
            damped_newton(z, start, gp, polish)
        assert (caught.value.z, caught.value.residual) == (exc.z, exc.residual)
        return False
    m, residual, iterations = damped_newton(z, start, gp, polish)
    assert type(m) is type(expected[0]) and type(residual) is type(expected[1])
    assert _same_bits(m, expected[0]) and _same_bits(residual, expected[1])
    assert iterations == expected[2]
    return True


def _full_step_leaves(z, start, gp):
    """Whether the undamped first Newton step leaves the upper half-plane, per point."""
    gamma, gamma_p = gp(start)
    candidate = start - (1.0 / start + z + gamma) / (gamma_p - 1.0 / start**2)
    return candidate.imag <= 0.0


def _scattered_starts(rng, m, spread):
    """Starts scattered around the solutions m, kept in the upper half-plane."""
    start = m * (1.0 + spread * (rng.uniform(-1, 1, m.shape) + 1j * rng.uniform(-1, 1, m.shape)))
    return start.real + 1j * np.abs(start.imag)


def test_damped_newton_matches_oracle_bitwise(wigner_square_spec, anticommutator_spec, complex_half_spec):
    rng = np.random.default_rng(61)
    halving_runs = 0
    for spec in (wigner_square_spec, anticommutator_spec, complex_half_spec):
        gp = gamma_and_prime(spec)
        z = rng.uniform(-3, 6, 36) + 1j * 10 ** rng.uniform(-3, 0, 36)
        m = solve_branch(z, spec)[0]
        scattered = _scattered_starts(rng, m, 0.5)  # every point active
        partial = scattered.copy()
        partial[::3] = m[::3]  # a third has converged: only the rest step
        leaves = _full_step_leaves(z, scattered, gp)
        k = int(np.flatnonzero(leaves & (np.arange(36) % 3 != 0))[0])
        for start in (scattered, partial):
            for polish in (0, 3):
                cases = [(z, start), (z.reshape(6, 6), start.reshape(6, 6))]
                # 0-d: point 0 (converged in the partial start) and point k, whose full step leaves
                cases += [(np.array(z[i]), np.array(start[i])) for i in (0, k)]
                for zz, ss in cases:
                    assert _assert_newton_matches_oracle(zz, ss, gp, polish)
                    halving_runs += bool(_full_step_leaves(zz, ss, gp).any())
    assert halving_runs >= 36  # the 1-d, 2-d and k runs of every spec, start and polish


def test_damped_newton_delta_map_matches_oracle_bitwise(anticommutator_spec, shifted_square_spec):
    # the regularized self-energy of solve_m_delta, one point at a time
    rng = np.random.default_rng(62)
    for spec in (anticommutator_spec, shifted_square_spec):
        for z, delta in ((0.7 + 0.01j, 0.5), (1.9 + 0.1j, 1.0), (-0.4 + 1e-4j, 0.25)):
            A_delta, A_hat_delta = _a_delta(spec, z, delta)
            gp = lambda x: _gamma_delta_and_prime(x, spec, A_delta, A_hat_delta)  # noqa: E731
            seed = np.array(solve_m(z, spec).m)
            for start in (seed, _scattered_starts(rng, seed, 0.1)):
                for polish in (0, 3):
                    assert _assert_newton_matches_oracle(np.array(z), start, gp, polish)


def test_damped_newton_no_convergence_matches_oracle(anticommutator_spec, monkeypatch):
    monkeypatch.setattr(scalar, "MAX_NEWTON_ITERATIONS", 2)
    z = np.array([0.3 + 1e-3j, 2.5 + 1e-6j, -1.0 + 0.5j, 3.4 + 1e-2j])
    gp = gamma_and_prime(anticommutator_spec)
    start = -1.0 / (z.real + 1j)
    for zz, ss in ((z, start), (np.array(z[1]), np.array(start[1]))):
        with pytest.raises(NoConvergenceError):
            _oracle_damped_newton(zz, ss, gp)
        assert not _assert_newton_matches_oracle(zz, ss, gp, 0)


# continuation as it was before a level started from the gamma and f' of the
# level above: every level evaluates gamma afresh at its start m
def _oracle_continuation(z, spec):
    z = np.asarray(z, dtype=complex)
    energy, eta_target = z.real, z.imag
    gp = lambda x: gamma_terms(x, spec)  # noqa: E731
    top = 10.0 * np.float64(spec.coefficient_scale) ** 2
    eta = np.maximum(np.full(z.shape, top), eta_target)
    m = -1.0 / (energy + 1j * eta)
    while True:
        final = bool((eta == eta_target).all())
        m, residual, iters = damped_newton(energy + 1j * eta, m, gp, polish=3 if final else 0)
        yield eta, m, residual, iters
        if final:
            return
        eta = np.maximum(eta_target, CONTINUATION_RATIO * eta)


def _levels(walk):
    """The yielded levels of a continuation, and the (z, residual) of a NoConvergenceError that ends it."""
    levels = []
    try:
        for level in walk:
            levels.append(level)
    except NoConvergenceError as exc:
        return levels, (exc.z, exc.residual)
    return levels, None


def _assert_continuation_matches_oracle(z, spec):
    levels, failure = _levels(continuation(z, spec))
    expected, expected_failure = _levels(_oracle_continuation(z, spec))
    assert failure == expected_failure and len(levels) == len(expected)
    for (eta, m, residual, iters), (eta0, m0, residual0, iters0) in zip(levels, expected):
        assert _same_bits(eta, eta0) and _same_bits(m, m0) and _same_bits(residual, residual0)
        assert iters == iters0
    return len(levels)


def test_continuation_matches_oracle_bitwise(
    wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
    complex_half_spec, complex_threshold_spec,
):
    # each level starts from the gamma and f' the level above left behind and
    # yields the same eta, m, residual and iterations as a fresh evaluation
    rng = np.random.default_rng(63)
    fixtures = [wigner_square_spec, anticommutator_spec, shifted_square_spec, threshold_square_spec,
                complex_half_spec, complex_threshold_spec]
    for spec in _kernel_specs(rng, fixtures, l_max=3):
        scale = spec.coefficient_scale
        energies = rng.uniform(-2 * scale, 2 * scale, 48)
        top = 10.0 * scale**2
        # targets from 1e-7 up to and above the start H: the first three points
        # stop early, at level 1 or 2, while the others walk on
        targets = 10 ** rng.uniform(-7, 0, 48)
        targets[:3] = (0.5 * top, top, 2.0 * top)
        grid = energies + 1j * targets
        for z in (grid, grid[3:4], np.array(grid[5]), energies + 1j * ETA_COARSE):
            assert _assert_continuation_matches_oracle(z, spec) > 10


def test_continuation_density_grid_matches_oracle_bitwise(anticommutator_spec, complex_threshold_spec):
    # the energy grid of a density curve at the walk's ETA_COARSE, edge refinements included
    from quadspec import compute_density, compute_edges

    for spec in (anticommutator_spec, complex_threshold_spec):
        energies = compute_density(spec, compute_edges(spec), 512).energies
        assert _assert_continuation_matches_oracle(energies + 1j * ETA_COARSE, spec) > 10
