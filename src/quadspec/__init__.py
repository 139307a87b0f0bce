"""Spectral theory of Hermitian quadratic polynomials of independent Wigner matrices.

The package computes the self-consistent (limiting) spectral data of

    q(X_1, ..., X_l) = sum_ij X_i A_ij X_j + sum_i b_i X_i + c

for Hermitian A, real b, c: the Stieltjes transform m(z), the density of
states, the support edges with their singularity classification, the
linearization / Dyson-equation machinery with its stability operator, and a
Monte Carlo harness that checks the analytic predictions against sampled
Wigner ensembles.
"""

from .model import (
    PolynomialSpec,
    SpectralClassification,
    classify_polynomial,
    load_spec,
    reducible_spec,
    validate_spec,
)
from .scalar import PoleSet, StieltjesPoint, poles, solve_m
from .edges import DirectionStats, EdgeReport, compute_edges, compute_s_a
from .density import DensityCurve, compute_density, fit_edge_exponent, quantiles, write_density_csv
from .mde import (
    MDESolution,
    StabilityReport,
    gamma_operator,
    m_matrix,
    solve_m_delta,
    stability_spectrum,
)
from .sim import (
    EnsembleConfig,
    SimulationResult,
    assemble_polynomial,
    resolvent_trace,
    sample_wigner,
    simulate_run,
    spectrum,
)

__all__ = [
    "PolynomialSpec",
    "SpectralClassification",
    "validate_spec",
    "classify_polynomial",
    "load_spec",
    "reducible_spec",
    "StieltjesPoint",
    "PoleSet",
    "poles",
    "solve_m",
    "EdgeReport",
    "DirectionStats",
    "compute_edges",
    "compute_s_a",
    "DensityCurve",
    "compute_density",
    "quantiles",
    "fit_edge_exponent",
    "write_density_csv",
    "MDESolution",
    "StabilityReport",
    "gamma_operator",
    "m_matrix",
    "solve_m_delta",
    "stability_spectrum",
    "EnsembleConfig",
    "SimulationResult",
    "sample_wigner",
    "assemble_polynomial",
    "spectrum",
    "resolvent_trace",
    "simulate_run",
]

__version__ = "0.1.0"
