from dataclasses import dataclass

import numpy as np
import pytest

from quadspec import (
    classify_polynomial,
    compute_edges,
    compute_s_a,
    find_edge_roots,
    poles,
    reducible_spec,
    solve_m,
    validate_spec,
)
from quadspec.edges import THRESHOLD_RTOL, RealDirectionError, _hard_edge_exponents, _scan_grid
from quadspec.scalar import h_prime, h_value

ANTI_M = np.sqrt(np.sqrt(5.0) - 2.0)  # root of m^4 + 4 m^2 - 1 = 0
ANTI_TAU = 3.3301906767855614  # -1/m_+ - gamma(m_+) at the quartic root
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RootVerdict:
    """Existence of a root of h on (m_*^+, 0); decay exponent p when absent.

    ``h(m) ~ (-m)^{-p}`` as m -> -infinity with p in {3, 4, 5} in the no-root
    cases.
    """

    root_exists: bool
    decay_exponent: int | None = None


def root_existence_conditions(spec) -> RootVerdict:
    """Oracle: analytic root existence for h on (m_*^+, 0) from the raw coefficients.

    h has no root there if and only if A is negative semi-definite of rank
    one, b lies in the image of A_hat, and the linear part is at or below the
    critical size: ||b|| <= 4 ||A|| for real A, or the r_pm-weighted variant
    for genuinely complex A.  Threshold equalities are decided with relative
    tolerance 1e-9 and sharpen the decay of h from (-m)^{-3} to (-m)^{-5}
    (real) or (-m)^{-4} (complex).  It works from the eigendata of A and
    A_hat, independently of the classification that compute_edges uses.
    """
    svals = np.linalg.svd(spec.A, compute_uv=False)
    rank_one = spec.l == 1 or svals[1] <= RANK_RTOL * svals[0]
    if not rank_one:
        return RootVerdict(root_exists=True)
    alpha = float(spec.eig_a[int(np.argmax(np.abs(spec.eig_a)))])
    if alpha > 0:
        return RootVerdict(root_exists=True)

    norm_a = spec.norm_a
    hat_vals = spec.eig_a_hat
    kernel = np.abs(hat_vals) <= RANK_RTOL * norm_a
    kernel_weight = float(np.sum(spec.b_proj[kernel]))
    image_tol = 1e-10 * (spec.norm_b + 1.0)
    if kernel_weight > image_tol**2:
        return RootVerdict(root_exists=True)

    is_real = np.max(np.abs(spec.A.imag)) <= 1e-14 * norm_a
    if is_real:
        crit = 4.0 * norm_a
        if spec.norm_b > crit * (1.0 + THRESHOLD_RTOL):
            return RootVerdict(root_exists=True)
        if abs(spec.norm_b - crit) <= THRESHOLD_RTOL * crit:
            return RootVerdict(root_exists=False, decay_exponent=5)
        return RootVerdict(root_exists=False, decay_exponent=3)

    nz = ~kernel
    mu_pm = hat_vals[nz]
    w_pm = spec.b_proj[nz]
    r_pm = -mu_pm / norm_a
    weighted = float(np.sum(w_pm / r_pm**3))
    crit = (4.0 * norm_a) ** 2
    if weighted > crit * (1.0 + THRESHOLD_RTOL):
        return RootVerdict(root_exists=True)
    if abs(weighted - crit) <= THRESHOLD_RTOL * crit:
        return RootVerdict(root_exists=False, decay_exponent=4)
    return RootVerdict(root_exists=False, decay_exponent=3)


def _count_sign_changes(spec, boundary, sign) -> int:
    """Sign changes of h on the grid that the edge scan uses."""
    _, values = _scan_grid(spec, boundary, sign)
    return int(np.sum(np.sign(values[:-1]) * np.sign(values[1:]) < 0))


def test_find_roots_squared_wigner(wigner_square_spec):
    m_plus, m_minus = find_edge_roots(wigner_square_spec)
    assert m_plus == pytest.approx(-0.5, abs=1e-12)
    assert m_minus is None


def test_find_roots_anticommutator(anticommutator_spec):
    m_plus, m_minus = find_edge_roots(anticommutator_spec)
    assert m_plus == pytest.approx(-ANTI_M, abs=1e-12)
    assert m_minus == pytest.approx(ANTI_M, abs=1e-12)


def test_find_roots_shifted_square_below_threshold(shifted_square_spec):
    # real direction with xi = 1 < 2: no root on the right interval
    _, m_minus = find_edge_roots(shifted_square_spec)
    assert m_minus is None


def test_root_first_order_signs(wigner_square_spec, anticommutator_spec):
    for spec in (wigner_square_spec, anticommutator_spec):
        m_plus, m_minus = find_edge_roots(spec)
        assert abs(h_value(complex(m_plus), spec)) <= 1e-10
        assert np.real(h_prime(complex(m_plus), spec)) > 0
        if m_minus is not None:
            assert abs(h_value(complex(m_minus), spec)) <= 1e-10
            assert np.real(h_prime(complex(m_minus), spec)) < 0


def test_edges_squared_wigner(wigner_square_spec):
    rep = compute_edges(wigner_square_spec)
    assert rep.tau_plus == pytest.approx(4.0, abs=1e-9)
    assert rep.tau_minus == pytest.approx(0.0, abs=1e-9)
    assert rep.left_exponent == pytest.approx(-0.5)
    assert rep.right_edge_regular and not rep.left_edge_regular
    assert rep.tau_star == pytest.approx(4.0, abs=1e-9)


def test_edges_anticommutator(anticommutator_spec):
    rep = compute_edges(anticommutator_spec)
    assert rep.tau_plus == pytest.approx(ANTI_TAU, abs=1e-6)
    assert rep.tau_minus == pytest.approx(-ANTI_TAU, abs=1e-6)
    assert rep.left_edge_regular and rep.right_edge_regular
    assert rep.left_exponent == 0.5 and rep.right_exponent == 0.5
    assert rep.tau_star == pytest.approx(ANTI_TAU, abs=1e-6)


def test_edges_singular_exponent_table(
    wigner_square_spec,
    shifted_square_spec,
    threshold_square_spec,
    complex_half_spec,
    complex_threshold_spec,
):
    expected = [
        (wigner_square_spec, -0.5),
        (shifted_square_spec, -0.5),
        (threshold_square_spec, -0.25),
        (complex_half_spec, -0.5),
        (complex_threshold_spec, -1.0 / 3.0),
    ]
    for spec, exponent in expected:
        rep = compute_edges(spec)
        assert rep.m_minus is None
        assert rep.left_exponent == pytest.approx(exponent, abs=1e-12)
        assert rep.tau_minus == pytest.approx(0.0, abs=1e-9)


def test_edges_above_threshold_regular():
    # real direction with xi = 3 > 2: the left edge detaches from 0 and is regular
    spec = validate_spec(1, [[1.0]], [-6.0], 9.0)  # (X - 3)^2
    rep = compute_edges(spec)
    assert rep.m_minus is not None
    assert rep.left_edge_regular
    assert rep.tau_minus == pytest.approx(1.0, abs=1e-9)  # (2 - 3)^2
    assert rep.tau_plus == pytest.approx(25.0, abs=1e-9)  # (-2 - 3)^2


def test_edges_negative_alpha_mirror(shifted_square_spec):
    # q -> -q swaps and negates the edges; the hard edge moves to the right
    neg = validate_spec(1, [[-1.0]], [2.0], -1.0)  # -(X-1)^2
    rep = compute_edges(shifted_square_spec)
    rep_neg = compute_edges(neg)
    assert rep_neg.tau_plus == pytest.approx(-rep.tau_minus, abs=1e-9)
    assert rep_neg.tau_minus == pytest.approx(-rep.tau_plus, abs=1e-9)
    assert not rep_neg.right_edge_regular
    assert rep_neg.right_exponent == pytest.approx(-0.5)
    assert rep_neg.m_plus is None and rep_neg.m_minus is not None
    assert rep_neg.tau_star == pytest.approx(rep.tau_star, abs=1e-9)


def test_direction_stats_examples(complex_direction):
    st = compute_s_a(complex_direction)
    assert st.sigma**2 == pytest.approx(0.5, abs=1e-14)
    assert st.mu == pytest.approx(0.0, abs=1e-14)
    assert st.s == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(RealDirectionError):
        compute_s_a(np.array([1.0, 0.0]))
    with pytest.raises(RealDirectionError):
        compute_s_a(np.exp(0.7j) * np.array([0.6, 0.8]))  # real up to a twisted phase


def test_direction_stats_vieta():
    rng = np.random.default_rng(3)
    count = 0
    while count < 1000:
        l = int(rng.integers(2, 6))
        v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        try:
            st = compute_s_a(v)
        except RealDirectionError:
            continue
        count += 1
        if st.a_plus is not None:
            assert st.a_plus * st.a_minus == pytest.approx(-1.0, abs=1e-12)


def test_direction_stats_match_weighted_eigendata():
    # the complex-direction threshold s^2 agrees with the A_hat eigenweight form:
    # sum |<b, w_pm>|^2 / r_pm^3 = 4 xi^2 s^2 for q = -(v*X - xi)(v*X - xi)*
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        l = int(rng.integers(2, 5))
        v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        v = v / np.linalg.norm(v)
        try:
            st = compute_s_a(v)
        except RealDirectionError:
            continue
        xi = float(np.abs(rng.standard_normal()) + 0.1)
        neg = reducible_spec(-1.0, xi, v)
        nz = np.abs(neg.eig_a_hat) > 1e-10
        r = -neg.eig_a_hat[nz] / neg.norm_a
        weighted = float(np.sum(neg.b_proj[nz] / r**3))
        assert weighted == pytest.approx(4.0 * xi**2 * st.s**2, rel=1e-8)
        checked += 1


def test_root_existence_examples():
    v1 = root_existence_conditions(validate_spec(1, [[-1.0]], [0.0], 0.0))
    assert not v1.root_exists and v1.decay_exponent == 3
    v2 = root_existence_conditions(validate_spec(1, [[-1.0]], [4.0], 0.0))
    assert not v2.root_exists and v2.decay_exponent == 5
    v3 = root_existence_conditions(validate_spec(1, [[-1.0]], [5.0], 0.0))
    assert v3.root_exists


def test_root_existence_complex_threshold(complex_direction):
    # s xi = 2 sits exactly at the weighted threshold: no root, decay (-m)^{-4}
    neg = reducible_spec(-1.0, 1.0, complex_direction)
    verdict = root_existence_conditions(neg)
    assert not verdict.root_exists and verdict.decay_exponent == 4
    below = root_existence_conditions(reducible_spec(-1.0, 0.5, complex_direction))
    assert not below.root_exists and below.decay_exponent == 3
    above = root_existence_conditions(reducible_spec(-1.0, 1.5, complex_direction))
    assert above.root_exists


def test_root_existence_matches_scan():
    # the analytic verdict and the sampled sign changes agree on random rank-one data
    rng = np.random.default_rng(23)
    for _ in range(60):
        l = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            v = rng.standard_normal(l).astype(complex)
        else:
            v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        spec = reducible_spec(-abs(rng.standard_normal()) - 0.1, abs(rng.standard_normal()), v)
        verdict = root_existence_conditions(spec)
        ps = poles(spec)
        found = _count_sign_changes(spec, ps.m_star_plus, -1) > 0
        assert verdict.root_exists == found
        assert verdict.root_exists == (_hard_edge_exponents(classify_polynomial(spec))[0] is None)


def test_scan_sees_at_most_one_sign_change():
    rng = np.random.default_rng(17)
    for _ in range(200):
        l = int(rng.integers(2, 5))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        spec = validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal()))
        ps = poles(spec)
        assert _count_sign_changes(spec, ps.m_star_plus, -1) <= 1
        assert _count_sign_changes(spec, ps.m_star_minus, +1) <= 1


def test_edge_solver_consistency(wigner_square_spec, anticommutator_spec):
    # |m(tau_+ + kappa) - m_+| / sqrt(kappa) stays within a factor 2 across kappa
    for spec in (wigner_square_spec, anticommutator_spec):
        rep = compute_edges(spec)
        ratios = [
            abs(solve_m(rep.tau_plus + kappa + 1e-9j, spec).m - rep.m_plus) / np.sqrt(kappa)
            for kappa in (1e-2, 1e-3, 1e-4)
        ]
        assert max(ratios) / min(ratios) <= 2.0


def test_edges_reproduce_solver_limits(wigner_square_spec, anticommutator_spec):
    for spec in (wigner_square_spec, anticommutator_spec):
        rep = compute_edges(spec)
        for tau, m_root in ((rep.tau_plus, rep.m_plus), (rep.tau_minus, rep.m_minus)):
            if m_root is None:
                continue
            assert abs(solve_m(tau + 1e-13j, spec).m - m_root) <= 1e-6


def test_random_non_reducible_edges_are_consistent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        l = int(rng.integers(2, 4))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        spec = validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal()))
        rep = compute_edges(spec)
        assert rep.tau_plus > rep.tau_minus
        assert rep.left_edge_regular and rep.right_edge_regular
        assert abs(h_value(complex(rep.m_plus), spec)) <= 1e-10 * (1 + abs(rep.h_prime_at_roots[0]))
