"""Support edges via the real roots of h, with singular-edge classification.

On each side of the origin h has at most one root inside the maximal
pole-free interval; when the root m_+ (left interval) or m_- (right interval)
exists, the corresponding support edge is tau = -1/m - gamma(m) and the
density has square-root decay there.  A missing root happens exactly for
shifted reducible polynomials below the singularity thresholds, in which case
that side is a hard edge at -beta with a density blow-up whose exponent is
-1/2, -1/4 (real direction at threshold xi = 2) or -1/3 (genuinely complex
direction at threshold s xi = 2).  For alpha < 0 the roles of the left and
the right edge are reversed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import PolynomialSpec, SpectralClassification, classify_polynomial
from .scalar import PoleSet, gamma_value, h_prime, h_value, poles

SCAN_POINTS = 400
SCAN_INNER = 1e-8
SCAN_CAP = 1e8
ROOT_RTOL = 1e-13
THRESHOLD_RTOL = 1e-9
ESCAPED_ROOT_FACTOR = 1e3


class RealDirectionError(ValueError):
    """The direction vector is real up to a phase, so s is undefined."""


class InconsistentClassificationError(RuntimeError):
    """Analytic root-existence verdict and numeric scan disagree."""


@dataclass(frozen=True)
class DirectionStats:
    """sigma = ||Re v||, mu = <Re v, Im v> and the derived constants a_pm, s."""

    sigma: float
    mu: float
    a_plus: float | None
    a_minus: float | None
    s: float


@dataclass(frozen=True)
class EdgeReport:
    """Edge locations, extremal m values and singularity data for one polynomial.

    ``m_plus``/``m_minus`` are the roots of h adjacent to 0 (None on a hard
    edge side).  ``left_exponent`` / ``right_exponent`` give the power of the
    density at the respective edge: +1/2 at a regular edge, one of
    {-1/2, -1/4, -1/3} at a singular hard edge.  ``tau_star`` is
    max(|tau_plus|, |tau_minus|), the limit of the operator norm.
    """

    tau_plus: float
    tau_minus: float
    m_plus: float | None
    m_minus: float | None
    right_edge_regular: bool
    left_edge_regular: bool
    left_exponent: float
    right_exponent: float
    h_prime_at_roots: tuple[float | None, float | None]
    tau_star: float


def compute_s_a(v) -> DirectionStats:
    """Direction constants for a unit vector v with genuinely complex direction.

    Requires 0 < ||Re v|| < 1 and Re v, Im v linearly independent; otherwise v
    is real up to a phase and RealDirectionError is raised.
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    sigma = float(np.linalg.norm(v.real))
    mu = float(v.real @ v.imag)
    if sigma < 1e-12 or sigma > 1.0 - 1e-12:
        raise RealDirectionError(f"sigma = {sigma} lies at the real-direction boundary")
    gram_det = sigma**2 * (1.0 - sigma**2) - mu**2
    if gram_det <= 1e-12:
        raise RealDirectionError("Re v and Im v are linearly dependent")
    if mu != 0.0:
        t = (1.0 - 2.0 * sigma**2) / (2.0 * mu)
        root = np.hypot(t, 1.0)
        if t >= 0.0:  # avoid cancellation; a_plus a_minus = -1 by Vieta
            a_plus = t + root
            a_minus = -1.0 / a_plus
        else:
            a_minus = t - root
            a_plus = -1.0 / a_minus
        s2 = 0.0
        for a in (a_plus, a_minus):
            s2 += 1.0 / ((sigma**2 + a**2 * (1.0 - sigma**2) + 2.0 * a * mu) * (sigma**2 + a * mu))
        return DirectionStats(sigma=sigma, mu=mu, a_plus=a_plus, a_minus=a_minus, s=float(np.sqrt(s2)))
    return DirectionStats(sigma=sigma, mu=mu, a_plus=None, a_minus=None, s=sigma**-2)


def _h_real(x: float, spec: PolynomialSpec) -> float:
    return float(np.real(h_value(complex(x), spec)))


def _scan_grid(spec: PolynomialSpec, boundary: float, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid between sign*1e-8 and the interval boundary with the finite values of h on it.

    ``sign`` = -1 covers (m_*^+, 0), +1 covers (0, m_*^-).  The grid is
    geometric in |m| (400 points, capped at 1e8 when the interval is
    unbounded) with extra points stacked against a finite pole, where h
    always dips to -infinity.
    """
    if np.isfinite(boundary):
        inner = min(SCAN_INNER, abs(boundary) * 1e-3)  # stay inside a tiny interval
        outer = abs(boundary) * (1.0 - 1e-9)
        mags = np.geomspace(inner, outer, SCAN_POINTS)
        approach = abs(boundary) * (1.0 - 10.0 ** -np.arange(2.0, 14.0))
        mags = np.unique(np.concatenate([mags, approach[approach > inner]]))
    else:
        mags = np.geomspace(SCAN_INNER, SCAN_CAP, SCAN_POINTS)
    grid = sign * mags
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are dropped below
        values = np.real(h_value(grid.astype(complex), spec))
    ok = np.isfinite(values)
    return grid[ok], values[ok]


def _scan_side(spec: PolynomialSpec, boundary: float, sign: int) -> float | None:
    """First sign change of h on the scan grid, Brent-refined and Newton-polished.

    Returns None when h keeps its sign on the grid.
    """
    grid, values = _scan_grid(spec, boundary, sign)
    flips = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    if len(flips) == 0:
        return None
    i = flips[0]
    a, b = grid[i], grid[i + 1]
    root = brentq(_h_real, min(a, b), max(a, b), args=(spec,), xtol=1e-14, rtol=ROOT_RTOL)
    value = _h_real(root, spec)
    for _ in range(2):  # keep-best Newton polish
        hp = float(np.real(h_prime(complex(root), spec)))
        if hp == 0.0:
            break
        candidate = root - value / hp
        candidate_value = _h_real(candidate, spec)
        if not abs(candidate_value) < abs(value):
            break
        root, value = candidate, candidate_value
    return float(root)


def _threshold_product(classification: SpectralClassification) -> float:
    """xi for a real direction or a vanishing xi, s xi for a genuinely complex one.

    The singularity threshold sits where this product equals 2.
    """
    xi = classification.xi
    if xi <= THRESHOLD_RTOL or classification.v_is_real_up_to_phase:
        return xi
    return compute_s_a(classification.v).s * xi


def _reducible_no_root(classification: SpectralClassification) -> bool:
    """Singularity conditions: the mirrored h has no root on its hard side."""
    return _threshold_product(classification) <= 2.0 * (1.0 + THRESHOLD_RTOL)


def _analytic_no_root(spec: PolynomialSpec, classification: SpectralClassification, side: int) -> bool:
    """True when h provably has no root on the given side (-1 left, +1 right)."""
    if not classification.is_reducible:
        return False
    hard_side = 1 if classification.alpha > 0 else -1
    if side != hard_side:
        return False
    return _reducible_no_root(classification)


def find_edge_roots(
    spec: PolynomialSpec,
    pole_set: PoleSet | None = None,
    classification: SpectralClassification | None = None,
) -> tuple[float | None, float | None]:
    """Roots (m_plus, m_minus) of h adjacent to the origin, None where absent.

    Absence is decided analytically (singularity conditions of the reducible
    classification) and cross-checked against the numeric scan; disagreement
    raises InconsistentClassificationError.  A scan root at a magnitude far
    beyond the coefficient scale is tolerated when the analytic verdict says
    "no root": at a threshold equality the root escapes to infinity and a
    polynomial within tolerance of the threshold may still show a remote sign
    change.
    """
    if pole_set is None:
        pole_set = poles(spec)
    if classification is None:
        classification = classify_polynomial(spec)

    escaped = ESCAPED_ROOT_FACTOR * (1.0 + 1.0 / spec.norm_a)
    out: list[float | None] = []
    for side, boundary in ((-1, pole_set.m_star_plus), (+1, pole_set.m_star_minus)):
        numeric = _scan_side(spec, boundary, side)
        no_root = _analytic_no_root(spec, classification, side)
        if no_root:
            if numeric is not None and abs(numeric) < escaped:
                raise InconsistentClassificationError(
                    f"analytic verdict says no root on side {side:+d} but the scan found m = {numeric}"
                )
            out.append(None)
        else:
            if numeric is None:
                raise InconsistentClassificationError(
                    f"a root of h was expected on side {side:+d} but the scan found none"
                )
            out.append(numeric)
    return out[0], out[1]


def _singular_exponent(classification: SpectralClassification) -> float:
    """Density blow-up exponent at a hard edge, from the singularity table."""
    if abs(_threshold_product(classification) - 2.0) > 2.0 * THRESHOLD_RTOL:
        return -0.5
    return -0.25 if classification.v_is_real_up_to_phase else -1.0 / 3.0


def _edge_from_root(m_root: float, spec: PolynomialSpec) -> float:
    return float(np.real(-1.0 / m_root - gamma_value(complex(m_root), spec)))


def compute_edges(spec: PolynomialSpec, classification: SpectralClassification | None = None) -> EdgeReport:
    """Locate tau_pm, certify regularity and classify a singular hard edge.

    Regular edges come from the roots of h via tau = -1/m - gamma(m); a hard
    edge sits at -beta (the classification shift) and carries the blow-up
    exponent of the singularity table.
    """
    if classification is None:
        classification = classify_polynomial(spec)
    pole_set = poles(spec)
    m_plus, m_minus = find_edge_roots(spec, pole_set, classification)

    hard_value = None
    if m_plus is None or m_minus is None:
        hard_value = -float(classification.beta)

    if m_plus is not None:
        tau_plus = _edge_from_root(m_plus, spec)
        right_regular, right_exponent = True, 0.5
        hp_plus = float(np.real(h_prime(complex(m_plus), spec)))
    else:
        tau_plus = hard_value
        right_regular = False
        right_exponent = _singular_exponent(classification)
        hp_plus = None

    if m_minus is not None:
        tau_minus = _edge_from_root(m_minus, spec)
        left_regular, left_exponent = True, 0.5
        hp_minus = float(np.real(h_prime(complex(m_minus), spec)))
    else:
        tau_minus = hard_value
        left_regular = False
        left_exponent = _singular_exponent(classification)
        hp_minus = None

    if not tau_plus > tau_minus:
        raise InconsistentClassificationError(
            f"edge ordering violated: tau_plus = {tau_plus}, tau_minus = {tau_minus}"
        )
    return EdgeReport(
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        m_plus=m_plus,
        m_minus=m_minus,
        right_edge_regular=right_regular,
        left_edge_regular=left_regular,
        left_exponent=left_exponent,
        right_exponent=right_exponent,
        h_prime_at_roots=(hp_plus, hp_minus),
        tau_star=max(abs(tau_plus), abs(tau_minus)),
    )
