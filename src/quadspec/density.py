"""Self-consistent density of states and its distribution function on an energy grid.

The density is rho(E) = (1/pi) lim Im m(E + i eta); the limit is taken by
two-point Richardson extrapolation in eta (1e-6 and 5e-7), which cancels the
O(eta) error of Im m inside the bulk.  The grid is uniform over the padded
support with geometric refinement towards each edge so that edge exponents
can be fitted.

The distribution function is read off the upper half-plane rather than the
real axis:

    F(E) = 1/2 - (1/pi) int_0^inf Re m(E + i eta) d eta.

The integrand is smooth in log eta, so the levels of the continuation that
brings m down to eta = 1e-6 serve as trapezoid nodes in log eta; [0, 1e-6]
adds eta Re m at the last level.  Above the top level H the law is replaced by
two atoms of weight 1/2 at mu +- sigma (its mean tr A + c and variance
||A||_F^2 + ||b||^2), whose tail integral is exact, and an Euler-Maclaurin
term corrects the trapezoid rule at H.  Narrow spikes on the real axis are
smoothed out at eta > 0, so the mass is 1 up to the quadrature error in eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import EdgeReport
from .model import PolynomialSpec
from .scalar import CONTINUATION_RATIO, continuation, damped_newton, gamma_and_prime

ETA_COARSE = 1e-6
ETA_FINE = 5e-7
REFINE_FACTOR = 0.8
REFINE_POINTS = 40
SINGULAR_CUTOFF = 1e-6
FIT_WINDOW = (1e-5, 1e-2)
MIN_FIT_POINTS = 20
MASS_TOLERANCE = 1e-3


@dataclass(frozen=True)
class DensityCurve:
    """Sampled density with cumulative integral and edge metadata.

    ``cdf[i]`` is the mass of (energies[0], energies[i]], from the eta
    integral of Re m; ``mass`` is its final value.
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


def _stieltjes_walk(energies: np.ndarray, spec: PolynomialSpec):
    """m at eta = ETA_COARSE and int_0^inf Re m(E + i eta) d eta, from one continuation."""
    total = None
    for eta, m, _, _ in continuation(energies + 1j * ETA_COARSE, spec):
        g, t = eta * m.real, np.log(eta)  # d eta = eta d(log eta)
        if total is None:
            top, total = eta, np.zeros_like(g)
        else:
            total += 0.5 * (t_prev - t) * (g_prev + g)
        g_prev, t_prev = g, t
    total += g  # [0, ETA_COARSE] at the last level's Re m
    # above H = top: two atoms matching the mean and variance of the law
    mean = float(np.trace(spec.A).real) + spec.c
    sigma = float(np.sqrt(np.sum(np.abs(spec.A) ** 2) + np.sum(spec.b**2)))
    h = np.log(1.0 / CONTINUATION_RATIO)
    for atom in (mean - sigma, mean + sigma):
        a = atom - energies
        total += 0.5 * np.arctan2(a, top)
        total -= h**2 / 12.0 * 0.5 * top * a * (a**2 - top**2) / (a**2 + top**2) ** 2
    return m, total


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
    m_coarse, integral = _stieltjes_walk(energies, spec)
    m_fine, _, _ = damped_newton(energies + 1j * ETA_FINE, m_coarse, gamma_and_prime(spec), polish=3)
    rho = np.maximum(2.0 * m_fine.imag - m_coarse.imag, 0.0) / np.pi  # linear Richardson to eta = 0
    distribution = 0.5 - integral / np.pi
    cdf = distribution - distribution[0]
    return DensityCurve(energies=energies, rho=rho, mass=float(cdf[-1]), edge_meta=edges, cdf=cdf)


def quantiles(curve: DensityCurve, n: int) -> np.ndarray:
    """Classical eigenvalue locations gamma_k with integral (k - 1/2)/n of the curve's mass, k = 1..n."""
    targets = (np.arange(1, n + 1) - 0.5) / n * curve.mass
    cdf, energies = curve.cdf, curve.energies
    idx = np.searchsorted(cdf, targets, side="left")
    idx = np.clip(idx, 1, len(cdf) - 1)
    c0, c1 = cdf[idx - 1], cdf[idx]
    e0, e1 = energies[idx - 1], energies[idx]
    frac = np.where(c1 > c0, (targets - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
    return e0 + frac * (e1 - e0)


def fit_edge_exponent(curve: DensityCurve, which: str) -> float | None:
    """Least-squares slope of log rho vs log|E - tau| over |E - tau| in [1e-5, 1e-2].

    Only grid points on the support side of the chosen edge enter the fit;
    with fewer than MIN_FIT_POINTS usable points there is no fit and the
    result is None.
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
        return None
    slope, _ = np.polyfit(np.log(kappa[mask]), np.log(curve.rho[mask]), 1)
    return float(slope)


def write_density_csv(curve: DensityCurve, path) -> None:
    """CSV with header E,rho at full double precision."""
    with open(path, "w") as fh:
        fh.write("E,rho\n")
        for e, r in zip(curve.energies, curve.rho):
            fh.write(f"{e:.17g},{r:.17g}\n")
