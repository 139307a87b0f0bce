import sys
from pathlib import Path

import numpy as np
import pytest

from quadspec import (
    compute_density,
    compute_edges,
    fit_edge_exponent,
    load_spec,
    quantiles,
    solve_m,
    validate_spec,
    write_density_csv,
)
from quadspec.density import MASS_TOLERANCE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import build_corpus  # noqa: E402

# integral of sqrt((4-E)/E)/(2 pi) from gamma to 4 equals 1/2000 (quadrature oracle)
SQUARED_WIGNER_TOP_QUANTILE = 3.955481225986735


def grid_step(curve) -> float:
    """Median spacing of the energy grid."""
    return float(np.median(np.diff(curve.energies)))


@pytest.fixture(scope="module")
def squared_curve(wigner_square_spec):
    return compute_density(wigner_square_spec, compute_edges(wigner_square_spec), 512)


@pytest.fixture(scope="module")
def anti_curve(anticommutator_spec):
    return compute_density(anticommutator_spec, compute_edges(anticommutator_spec), 512)


def test_density_closed_form_squared_wigner(squared_curve, wigner_square_spec):
    # rho(E) = sqrt((4-E)/E)/(2 pi) on (0, 4)
    inside = (squared_curve.energies > 0.05) & (squared_curve.energies < 3.95)
    E = squared_curve.energies[inside]
    exact = np.sqrt((4.0 - E) / E) / (2.0 * np.pi)
    assert np.max(np.abs(squared_curve.rho[inside] - exact)) <= 1e-5
    m1 = solve_m(2.0 + 1e-6j, wigner_square_spec).m
    m2 = solve_m(2.0 + 5e-7j, wigner_square_spec).m
    rho_2 = (2 * m2.imag - m1.imag) / np.pi
    assert rho_2 == pytest.approx(0.15915494, abs=1e-5)


def test_density_outside_support(squared_curve, wigner_square_spec):
    outside = squared_curve.energies > 4.0 + grid_step(squared_curve)
    assert np.all(squared_curve.rho[outside] <= 1e-6)
    m1 = solve_m(5.0 + 1e-6j, wigner_square_spec).m
    m2 = solve_m(5.0 + 5e-7j, wigner_square_spec).m
    assert max(0.0, 2 * m2.imag - m1.imag) / np.pi <= 1e-6


def test_density_nonnegative_and_mass(squared_curve, anti_curve):
    for curve in (squared_curve, anti_curve):
        assert np.all(curve.rho >= 0.0)
        assert abs(curve.mass - 1.0) <= 1e-3
        assert np.all(np.diff(curve.cdf) >= -1e-15)


def test_density_mass_all_singular_cases(
    shifted_square_spec, threshold_square_spec, complex_half_spec, complex_threshold_spec
):
    for spec in (shifted_square_spec, threshold_square_spec, complex_half_spec, complex_threshold_spec):
        curve = compute_density(spec, compute_edges(spec), 512)
        assert abs(curve.mass - 1.0) <= 1e-3


def test_density_singular_right_edge():
    # -(X-1)^2: the hard edge sits on the right at 0; mass and cdf still work
    spec = validate_spec(1, [[-1.0]], [2.0], -1.0)
    curve = compute_density(spec, compute_edges(spec), 512)
    assert abs(curve.mass - 1.0) <= 1e-3
    assert np.all(np.diff(curve.cdf) >= -1e-15)
    assert fit_edge_exponent(curve, "right") == pytest.approx(-0.5, abs=0.05)
    gamma = quantiles(curve, 100)
    # mirror of (X-1)^2 quantiles
    mirror = compute_density(
        validate_spec(1, [[1.0]], [-2.0], 1.0),
        compute_edges(validate_spec(1, [[1.0]], [-2.0], 1.0)),
        512,
    )
    gamma_mirror = quantiles(mirror, 100)
    assert np.max(np.abs(gamma + gamma_mirror[::-1])) <= 1e-3


def test_density_pushforward_oracle(shifted_square_spec, threshold_square_spec):
    # q = (X - xi)^2 pushes the semicircle forward:
    # rho_q(mu) = [rho_sc(xi - sqrt mu) + rho_sc(xi + sqrt mu)] / (2 sqrt mu)
    def rho_sc(x):
        return np.sqrt(np.maximum(4.0 - x**2, 0.0)) / (2.0 * np.pi)

    for xi, spec in ((1.0, shifted_square_spec), (2.0, threshold_square_spec)):
        curve = compute_density(spec, compute_edges(spec), 512)
        for target in (0.25, 1.0, 2.5):
            idx = int(np.argmin(np.abs(curve.energies - target)))
            mu = curve.energies[idx]
            oracle = (rho_sc(xi - np.sqrt(mu)) + rho_sc(xi + np.sqrt(mu))) / (2.0 * np.sqrt(mu))
            assert curve.rho[idx] == pytest.approx(oracle, abs=1e-5)


def test_density_symmetry_anticommutator(anti_curve):
    assert np.max(np.abs(anti_curve.rho - anti_curve.rho[::-1])) <= 1e-6


def test_quantiles_single_point(squared_curve):
    med = quantiles(squared_curve, 1)
    assert len(med) == 1
    assert squared_curve.cdf_at(med[0]) / squared_curve.mass == pytest.approx(0.5, abs=1e-6)


def test_quantiles_squared_wigner_top(squared_curve):
    gamma = quantiles(squared_curve, 1000)
    assert gamma[-1] == pytest.approx(SQUARED_WIGNER_TOP_QUANTILE, abs=2e-3)
    assert abs(gamma[-1] - 4.0) <= 0.05
    assert gamma[-1] <= 4.0 + grid_step(squared_curve)
    assert gamma[0] >= squared_curve.edge_meta.tau_minus - grid_step(squared_curve)


def test_quantiles_symmetry(anti_curve):
    gamma = quantiles(anti_curve, 100)
    assert np.max(np.abs(gamma + gamma[::-1])) <= 1e-4


def test_fit_exponents_squared_wigner(squared_curve):
    assert fit_edge_exponent(squared_curve, "right") == pytest.approx(0.5, abs=0.05)
    assert fit_edge_exponent(squared_curve, "left") == pytest.approx(-0.5, abs=0.05)


def test_fit_exponent_threshold_quarter(threshold_square_spec):
    curve = compute_density(threshold_square_spec, compute_edges(threshold_square_spec), 512)
    assert fit_edge_exponent(curve, "left") == pytest.approx(-0.25, abs=0.05)
    # the regular right edge of this wide-support curve has too few refined
    # points inside the fit window, so it has no fit
    assert fit_edge_exponent(curve, "right") is None


def test_regular_edge_imaginary_part_scaling(wigner_square_spec, anticommutator_spec):
    # Im m ~ sqrt(kappa + eta) inside the support, ~ eta/sqrt(kappa + eta) outside
    for spec in (wigner_square_spec, anticommutator_spec):
        rep = compute_edges(spec)
        tau = rep.tau_plus
        inside, outside = [], []
        for d_e in (0.0, 1e-4, 1e-2):
            for eta in (1e-6, 1e-4, 1e-2):
                m_in = solve_m(tau - d_e + 1j * eta, spec).m
                inside.append(m_in.imag / np.sqrt(d_e + eta))
                if d_e > 0:
                    m_out = solve_m(tau + d_e + 1j * eta, spec).m
                    outside.append(m_out.imag * np.sqrt(d_e + eta) / eta)
        assert max(inside) / min(inside) <= 4.0
        assert max(outside) / min(outside) <= 4.0


def test_away_from_support_linear_imaginary_part(wigner_square_spec):
    # Im m(E + i eta) / eta is eta-independent (within factor 2) off the support
    for dist in (0.1, 1.0, 10.0):
        E = 4.0 + dist
        ratios = [solve_m(E + 1j * eta, wigner_square_spec).m.imag / eta for eta in (1e-4, 1e-6)]
        assert max(ratios) / min(ratios) <= 2.0


def test_tau_star_matches_support(squared_curve, anti_curve):
    for curve in (squared_curve, anti_curve):
        occupied = curve.energies[curve.rho > 1e-6]
        assert np.max(np.abs(occupied)) == pytest.approx(curve.edge_meta.tau_star, abs=2 * grid_step(curve))


def test_density_grid_validation(wigner_square_spec):
    with pytest.raises(ValueError):
        compute_density(wigner_square_spec, compute_edges(wigner_square_spec), 32)


def test_write_density_csv(tmp_path, squared_curve):
    path = tmp_path / "density.csv"
    write_density_csv(squared_curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "E,rho"
    assert len(lines) == len(squared_curve.energies) + 1
    first_e, first_rho = lines[1].split(",")
    assert float(first_e) == squared_curve.energies[0]
    assert float(first_rho) == squared_curve.rho[0]


# The eta quadrature of the cdf reaches |mass - 1| <= 8.3e-7 on the 150 corpus
# specs of seeds 1, 2 and 9173; a tail cut to one atom at the mean gives 2.3e-5.
QUADRATURE_MASS_ERROR = 1e-5


def semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x**2) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


@pytest.mark.parametrize("xi", [0.0, 1.0, 2.0])
def test_cdf_matches_closed_form_of_shifted_square(xi):
    # (X - xi)^2 <= E  <=>  xi - sqrt E <= X <= xi + sqrt E
    spec = validate_spec(1, [[1.0]], [-2.0 * xi], xi**2)
    curve = compute_density(spec, compute_edges(spec), 512)
    root = np.sqrt(np.maximum(curve.energies, 0.0))
    exact = semicircle_cdf(xi + root) - semicircle_cdf(xi - root)
    assert np.max(np.abs(curve.cdf - exact)) <= 1e-4
    assert abs(curve.mass - 1.0) <= QUADRATURE_MASS_ERROR


# Corpus specs (perfbench corpus, seed 9173) on which a real-axis trapezoid
# rule missed a narrow spike: masses 1.1166, 1.0356 and 1.0117 at n_grid 512.
SPIKE_SPECS = {
    "complex_near_threshold": {
        "l": 2,
        "A": [
            [
                {"re": 0.23799751949090803, "im": 3.659267719750029e-19},
                {"re": 0.587423270451233, "im": 0.00861209350819017},
            ],
            [
                {"re": 0.587423270451233, "im": -0.008612093508190168},
                {"re": 1.450184302594806, "im": 3.818999970293344e-18},
            ],
        ],
        "b": [0.00046389009920576964, 0.001147636533841013],
        "c": 0.5287439387273076,
    },
    "near_singular": {
        "l": 2,
        "A": [
            [
                {"re": 0.7025224219213473, "im": -7.074146168786862e-18},
                {"re": 0.0766956428144877, "im": -1.2641629669765393},
            ],
            [
                {"re": 0.07669564281448771, "im": 1.2641629669765393},
                {"re": 2.304449075663838, "im": -5.1916197549219357e-17},
            ],
        ],
        "b": [-0.03763027499306737, -0.07609992449013979],
        "c": -1.1262681549765823,
    },
    "real_near_threshold": {
        "l": 1,
        "A": [[{"re": 1.4584358504603832, "im": 0.0}]],
        "b": [-5.8475961976102235],
        "c": 6.444827733207245,
    },
}


def assert_valid_curve(curve):
    assert abs(curve.mass - 1.0) <= MASS_TOLERANCE
    assert curve.cdf[0] == 0.0
    assert np.all(np.diff(curve.cdf) >= 0.0)
    gamma = quantiles(curve, 1024)
    assert np.all(np.isfinite(gamma))
    assert np.all(np.diff(gamma) >= 0.0)


@pytest.mark.parametrize("name", sorted(SPIKE_SPECS))
def test_mass_on_narrow_spike_specs(name):
    spec = load_spec(SPIKE_SPECS[name])
    assert_valid_curve(compute_density(spec, compute_edges(spec), 512))


@pytest.mark.parametrize("item", build_corpus(1, 0.3), ids=lambda item: item.name)
def test_corpus_density_is_a_distribution(item):
    spec = load_spec(item.data)
    edges = compute_edges(spec)
    assert edges.tau_minus < edges.tau_plus
    curve = compute_density(spec, edges, 512)
    assert np.all(curve.rho >= 0.0)
    assert_valid_curve(curve)
    assert abs(curve.mass - 1.0) <= QUADRATURE_MASS_ERROR
