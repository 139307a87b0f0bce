"""Self-consistent density of states on an energy grid by Stieltjes inversion.

The density is rho(E) = (1/pi) lim Im m(E + i eta); the limit is taken by
two-point Richardson extrapolation in eta (1e-6 and 5e-7), which cancels the
O(eta) error of Im m inside the bulk.  The grid is uniform over the padded
support with geometric refinement towards each edge so that edge exponents
can be fitted and the mass integral meets its 1e-3 budget.  Around a
blow-up edge the trapezoid rule is useless, so the cumulative mass on
(edge, edge + kappa_ref] is evaluated from a local power-law model
C kappa^p + D with the analytically known exponent p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import EdgeReport
from .model import PolynomialSpec
from .scalar import solve_branch

ETA_COARSE = 1e-6
ETA_FINE = 5e-7
REFINE_FACTOR = 0.8
REFINE_POINTS = 40
SINGULAR_CUTOFF = 1e-6
MODEL_MATCH_DISTANCE = 1e-3
FIT_WINDOW = (1e-5, 1e-2)
MIN_FIT_POINTS = 20
MASS_TOLERANCE = 1e-3


class MassDeficitError(ValueError):
    """Curve mass deviates from 1 beyond tolerance."""


class InsufficientPointsError(ValueError):
    """Not enough refined grid points inside the exponent fit window."""


@dataclass(frozen=True)
class _EdgeModel:
    """Local density model C kappa^p + D on (edge, edge + kappa_ref]."""

    edge: float
    side: int  # +1: support extends to the right of the edge, -1: to the left
    exponent: float
    coeff: float
    offset: float
    kappa_ref: float

    def cumulative(self, kappa) -> np.ndarray:
        kappa = np.clip(kappa, 0.0, self.kappa_ref)
        p = self.exponent
        return self.coeff * kappa ** (p + 1.0) / (p + 1.0) + self.offset * kappa


@dataclass(frozen=True)
class DensityCurve:
    """Sampled density with cumulative integral and edge metadata.

    ``cdf[i]`` is the mass of (-inf, energies[i]]; ``mass`` its final value.
    Near a singular hard edge the cdf uses the local power-law model instead
    of the trapezoid rule.
    """

    energies: np.ndarray
    rho: np.ndarray
    mass: float
    edge_meta: EdgeReport
    cdf: np.ndarray

    def cdf_at(self, x) -> np.ndarray:
        """Mass of (-inf, x] by monotone piecewise-linear interpolation."""
        return np.interp(x, self.energies, self.cdf, left=0.0, right=self.mass)


def _refined_distances(width: float, singular: bool) -> np.ndarray:
    """Geometric approach distances towards an edge, from inside the support."""
    start = 0.1 * width
    ratio = np.full(REFINE_POINTS, REFINE_FACTOR)
    distances = start * np.cumprod(ratio)
    if singular:
        extra = []
        d = distances[-1] * REFINE_FACTOR
        while d >= SINGULAR_CUTOFF:
            extra.append(d)
            d *= REFINE_FACTOR
        distances = np.concatenate([distances, extra])
    return distances[distances >= SINGULAR_CUTOFF]


def _evaluate_rho(energies: np.ndarray, spec: PolynomialSpec) -> np.ndarray:
    m_coarse, _, _ = solve_branch(energies + 1j * ETA_COARSE, spec)
    m_fine, _, _ = solve_branch(energies + 1j * ETA_FINE, spec)
    extrapolated = 2.0 * m_fine.imag - m_coarse.imag  # linear Richardson to eta = 0
    return np.maximum(extrapolated, 0.0) / np.pi


def _fit_edge_model(energies, rho, edge: float, side: int, exponent: float) -> _EdgeModel:
    """Least-squares fit of rho ~ C kappa^p + D close to a singular edge."""
    kappa = side * (energies - edge)
    window = (kappa >= 1e-4) & (kappa <= 1e-2)
    k = kappa[window]
    r = rho[window]
    design = np.stack([k**exponent, np.ones_like(k)], axis=1)
    (coeff, offset), *_ = np.linalg.lstsq(design, r, rcond=None)
    candidates = kappa[(kappa > 0) & (kappa <= MODEL_MATCH_DISTANCE)]
    kappa_ref = float(candidates.max()) if len(candidates) else MODEL_MATCH_DISTANCE
    return _EdgeModel(
        edge=edge, side=side, exponent=exponent, coeff=float(coeff), offset=float(offset), kappa_ref=kappa_ref
    )


def _cumulative(energies, rho, model: _EdgeModel | None) -> np.ndarray:
    """Cumulative trapezoid integral, with the model replacing the singular-zone cells.

    For every grid cell that overlaps the model zone (signed edge distance in
    (0, kappa_ref]), the trapezoid increment is replaced by the exact
    integral of the local power law; kappa_ref is chosen on a grid point so
    cells never straddle its boundary.
    """
    increments = 0.5 * (rho[1:] + rho[:-1]) * np.diff(energies)
    if model is not None:
        kappa = model.side * (energies - model.edge)
        for i in range(len(increments)):
            k0, k1 = kappa[i], kappa[i + 1]
            lo_k, hi_k = (k0, k1) if model.side > 0 else (k1, k0)
            if hi_k <= 0.0 or lo_k >= model.kappa_ref:
                continue
            increments[i] = float(
                model.cumulative(min(hi_k, model.kappa_ref)) - model.cumulative(max(lo_k, 0.0))
            )
    return np.concatenate([[0.0], np.cumsum(increments)])


def compute_density(spec: PolynomialSpec, edges: EdgeReport, n_grid: int = 512) -> DensityCurve:
    """Density curve over [tau_- - 0.1 W, tau_+ + 0.1 W] with edge refinement.

    ``n_grid`` uniform points (at least 64) are augmented by geometric
    refinement (factor 0.8, 40 points) inside each edge; towards a singular
    hard edge the refinement continues down to distance 1e-6.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    tau_minus, tau_plus = edges.tau_minus, edges.tau_plus
    width = tau_plus - tau_minus
    lo = tau_minus - 0.1 * width
    hi = tau_plus + 0.1 * width
    base = np.linspace(lo, hi, n_grid)
    left_pts = tau_minus + _refined_distances(width, singular=not edges.left_edge_regular)
    right_pts = tau_plus - _refined_distances(width, singular=not edges.right_edge_regular)
    energies = np.unique(np.concatenate([base, left_pts, right_pts]))
    rho = _evaluate_rho(energies, spec)

    model = None
    if not edges.left_edge_regular:
        model = _fit_edge_model(energies, rho, tau_minus, +1, edges.left_exponent)
    elif not edges.right_edge_regular:
        model = _fit_edge_model(energies, rho, tau_plus, -1, edges.right_exponent)
    cdf = _cumulative(energies, rho, model)
    return DensityCurve(
        energies=energies,
        rho=rho,
        mass=float(cdf[-1]),
        edge_meta=edges,
        cdf=cdf,
    )


def quantiles(curve: DensityCurve, n: int) -> np.ndarray:
    """Classical eigenvalue locations gamma_k with integral (k - 1/2)/n, k = 1..n."""
    if abs(curve.mass - 1.0) > MASS_TOLERANCE:
        raise MassDeficitError(f"curve mass {curve.mass} deviates from 1 beyond {MASS_TOLERANCE}")
    targets = (np.arange(1, n + 1) - 0.5) / n * curve.mass
    cdf, energies = curve.cdf, curve.energies
    idx = np.searchsorted(cdf, targets, side="left")
    idx = np.clip(idx, 1, len(cdf) - 1)
    c0, c1 = cdf[idx - 1], cdf[idx]
    e0, e1 = energies[idx - 1], energies[idx]
    frac = np.where(c1 > c0, (targets - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
    return e0 + frac * (e1 - e0)


def fit_edge_exponent(curve: DensityCurve, which: str) -> float:
    """Least-squares slope of log rho vs log|E - tau| over |E - tau| in [1e-5, 1e-2].

    Only grid points on the support side of the chosen edge enter the fit;
    fewer than 20 usable points raise InsufficientPointsError.
    """
    if which == "left":
        edge, side = curve.edge_meta.tau_minus, +1
    elif which == "right":
        edge, side = curve.edge_meta.tau_plus, -1
    else:
        raise ValueError(f"which must be 'left' or 'right', got {which!r}")
    kappa = side * (curve.energies - edge)
    mask = (kappa >= FIT_WINDOW[0]) & (kappa <= FIT_WINDOW[1]) & (curve.rho > 0.0)
    if int(np.sum(mask)) < MIN_FIT_POINTS:
        raise InsufficientPointsError(
            f"{int(np.sum(mask))} points in the fit window at the {which} edge, need {MIN_FIT_POINTS}"
        )
    slope, _ = np.polyfit(np.log(kappa[mask]), np.log(curve.rho[mask]), 1)
    return float(slope)


def write_density_csv(curve: DensityCurve, path) -> None:
    """CSV with header E,rho at full double precision."""
    with open(path, "w") as fh:
        fh.write("E,rho\n")
        for e, r in zip(curve.energies, curve.rho):
            fh.write(f"{e:.17g},{r:.17g}\n")
