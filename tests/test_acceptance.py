"""Acceptance criteria: every check below is an exit criterion for the package.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline)
and enforces its runtime budget.  The Monte Carlo criteria use fixed seeds;
their thresholds are desk-scale surrogates with deliberately wide margins, so
a failure indicates a real regression rather than sampling noise.
"""

import time

import numpy as np
import pytest

from quadspec import (
    EnsembleConfig,
    classify_polynomial,
    compute_density,
    compute_edges,
    fit_edge_exponent,
    reducible_spec,
    simulate_run,
    solve_m,
    solve_m_delta,
    validate_spec,
)
from quadspec import cli
from quadspec.mde import beta_slopes
from quadspec.sim import GAUSSIAN_COMPLEX, RADEMACHER

SEED = 20250809
ANTI_TAU = 3.3301906767855614  # from the quartic oracle m^4 + 4 m^2 - 1 = 0


def _report(index: int, name: str, ok: bool, elapsed: float, detail: str):
    line = f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line, flush=True)
    from conftest import record_acceptance_line

    record_acceptance_line(line)
    return line


@pytest.fixture(scope="module")
def wsq():
    return validate_spec(1, [[1.0]], [0.0], 0.0)


@pytest.fixture(scope="module")
def anti():
    return validate_spec(2, [[0, 1], [1, 0]], [0, 0], 0.0)


@pytest.fixture(scope="module")
def anti_edges(anti):
    return compute_edges(anti)


@pytest.fixture(scope="module")
def anti_run_1024(anti, anti_edges):
    """Shared 20-trial run at N = 1024 used by criteria 7 and 8."""
    cfg = EnsembleConfig(N=1024, dist=GAUSSIAN_COMPLEX, seed=SEED, trials=20)
    return simulate_run(anti, cfg, edge_target=anti_edges.tau_plus)


def test_criterion_1_squared_semicircle_oracle(wsq):
    t0 = time.perf_counter()
    edges = compute_edges(wsq)
    curve = compute_density(wsq, edges, 512)
    m5 = solve_m(5 + 1e-9j, wsq).m
    m1 = solve_m(2.0 + 1e-6j, wsq).m
    m2 = solve_m(2.0 + 5e-7j, wsq).m
    rho2 = (2 * m2.imag - m1.imag) / np.pi
    left = fit_edge_exponent(curve, "left")
    right = fit_edge_exponent(curve, "right")
    elapsed = time.perf_counter() - t0

    checks = {
        "tau_plus": abs(edges.tau_plus - 4.0) <= 1e-9,
        "tau_minus": abs(edges.tau_minus - 0.0) <= 1e-9,
        "m(5)": abs(m5 - (-0.27639320)) <= 1e-7,
        "rho(2)": abs(rho2 - 0.15915494) <= 1e-5,
        "left_exp": abs(left - (-0.5)) <= 0.05,
        "right_exp": abs(right - 0.5) <= 0.05,
        "runtime": elapsed < 5.0,
    }
    detail = (
        f"tau+={edges.tau_plus:.12f} tau-={edges.tau_minus:.2e} m(5)={m5.real:.9f} "
        f"rho(2)={rho2:.9f} exps=({left:.3f}, {right:.3f})"
    )
    _report(1, "squared-semicircle closed form", all(checks.values()), elapsed, detail)
    assert all(checks.values()), checks


def test_criterion_2_anticommutator_quartic(anti):
    t0 = time.perf_counter()
    edges = compute_edges(anti)
    curve = compute_density(anti, edges, 512)
    symmetry = float(np.max(np.abs(curve.rho - curve.rho[::-1])))
    elapsed = time.perf_counter() - t0
    checks = {
        "tau_plus": abs(edges.tau_plus - ANTI_TAU) <= 1e-6,
        "symmetry": symmetry <= 1e-6,
        "mass": abs(curve.mass - 1.0) <= 1e-3,
        "runtime": elapsed < 10.0,
    }
    detail = f"tau+={edges.tau_plus:.9f} sym={symmetry:.2e} mass={curve.mass:.6f}"
    _report(2, "anticommutator quartic oracle", all(checks.values()), elapsed, detail)
    assert all(checks.values()), checks


def test_criterion_3_singular_exponent_table(wsq):
    t0 = time.perf_counter()
    v = np.array([1.0, 1.0j]) / np.sqrt(2)  # sigma^2 = 1/2, mu = 0, s = 2
    cases = [
        (wsq, -0.5),
        (validate_spec(1, [[1.0]], [-2.0], 1.0), -0.5),  # real v, xi = 1
        (validate_spec(1, [[1.0]], [-4.0], 4.0), -0.25),  # real v, xi = 2
        (reducible_spec(1.0, 0.5, v), -0.5),  # s xi = 1
        (reducible_spec(1.0, 1.0, v), -1.0 / 3.0),  # s xi = 2
    ]
    fitted = []
    ok = True
    for spec, expected in cases:
        curve = compute_density(spec, compute_edges(spec), 512)
        value = fit_edge_exponent(curve, "left")
        fitted.append(value)
        ok &= abs(value - expected) <= 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    detail = "fits=" + ", ".join(f"{v:.4f}" for v in fitted)
    _report(3, "reducible left-edge exponents", ok, elapsed, detail)
    assert ok, fitted


def test_criterion_4_lemma_property_suites():
    t0 = time.perf_counter()
    report = cli.run_suite_lemmas(SEED)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 20.0
    v = report.values
    detail = f"quad={v['quad_stability_violations']} hat={v['entrywise_real_part_violations']}"
    _report(4, "lemma property suites", ok, elapsed, detail)
    assert ok, report.values


def test_criterion_5_mde_consistency(wsq, anti, anti_edges):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    max_residual = 0.0
    for spec in (wsq, anti):
        for _ in range(100):
            z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-3, 0.7))
            delta = float(rng.uniform(0, 1))
            max_residual = max(max_residual, solve_m_delta(z, delta, spec).de_residual)
    slopes = beta_slopes(anti, anti_edges, classify_polynomial(anti))
    elapsed = time.perf_counter() - t0

    lo, hi = cli.STABILITY_SLOPE_RANGE
    ok = max_residual <= cli.DE_RESIDUAL_THRESHOLD and len(slopes) == 2 and elapsed < 30.0
    ok = ok and all(lo <= s <= hi for s in slopes.values())
    detail = f"max_residual={max_residual:.2e} slopes=({slopes['right']:.4f}, {slopes['left']:.4f})"
    _report(5, "Dyson equation and stability scaling", ok, elapsed, detail)
    assert ok, detail


def test_criterion_6_norm_convergence_rate(wsq, anti):
    t0 = time.perf_counter()
    sizes = [256, 512, 1024, 2048]
    reports = {
        name: cli.run_suite_norm(spec, sizes, 50, SEED, GAUSSIAN_COMPLEX, threads=1)
        for name, spec in (("squared", wsq), ("anticommutator", anti))
    }
    slopes = {name: report.norm_scaling_slope for name, report in reports.items()}
    elapsed = time.perf_counter() - t0
    window = cli.NORM_SLOPE_RANGE == (-0.85, -0.50)
    ok = window and all(report.passed for report in reports.values()) and elapsed < 1800.0
    detail = " ".join(f"{k}={v:.4f}" for k, v in slopes.items()) + " target=-0.667"
    _report(6, "norm convergence rate", ok, elapsed, detail)
    assert ok, slopes


def test_criterion_7_density_convergence(wsq, anti, anti_edges, anti_run_1024):
    t0 = time.perf_counter()
    curve_anti = compute_density(anti, anti_edges, 512)
    curve_wsq = compute_density(wsq, compute_edges(wsq), 512)
    run_wsq = simulate_run(wsq, EnsembleConfig(N=1024, dist=GAUSSIAN_COMPLEX, seed=SEED + 1, trials=20))
    run_rad = simulate_run(anti, EnsembleConfig(N=1024, dist=RADEMACHER, seed=SEED + 2, trials=20))
    reports = {
        "anticommutator/gaussian": cli.judge_density(anti, curve_anti, anti_run_1024, 512),
        "squared/gaussian": cli.judge_density(wsq, curve_wsq, run_wsq, 512),
        "anticommutator/rademacher": cli.judge_density(anti, curve_anti, run_rad, 512),
    }
    elapsed = time.perf_counter() - t0

    ok = all(report.passed for report in reports.values()) and elapsed < 600.0
    detail = " ".join(f"{k}={report.ks_distance:.4f}" for k, report in reports.items())
    _report(7, "pooled-spectrum KS distance", ok, elapsed, detail)
    assert ok, detail


def test_criterion_8_local_law_surrogates(anti, anti_edges, anti_run_1024):
    t0 = time.perf_counter()
    deloc = cli.judge_deloc(anti, anti_run_1024)
    rigidity = cli.judge_rigidity(anti, compute_density(anti, anti_edges, 512), anti_run_1024, 512)
    elapsed = time.perf_counter() - t0

    needed = {deloc.thresholds["passes_needed"], rigidity.thresholds["passes_needed"]}
    ok = needed == {18} and deloc.passed and rigidity.passed and elapsed < 600.0
    v, t = deloc.values, anti_run_1024.config.trials
    detail = f"trace_ll={v['trace_local_law_passes']}/{t} deloc={v['delocalization_passes']}/{t} "
    detail += f"rigidity={rigidity.values['passes']}/{t}"
    _report(8, "local law, delocalization, rigidity", ok, elapsed, detail)
    assert ok, detail
