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

``compute_edges`` is the one entry point: per side it scans for the root,
cross-checks the scan against the analytic edge verdict
(``_hard_edge_exponents``) and builds the edge.  The root is refined by
``_brent``, Brent's method (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) transcribed step for step from SciPy's
``brentq.c``, so each iterate is the same IEEE double as SciPy's ``brentq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfrastructureError, PolynomialSpec, SpectralClassification, classify_polynomial, real_direction
from .scalar import NoConvergenceError, gamma_value, h_prime, h_value, poles

SCAN_POINTS = 400
SCAN_INNER = 1e-8
SCAN_CAP = 1e8
ROOT_XTOL = 1e-14
ROOT_RTOL = 1e-13
ROOT_MAXITER = 100
THRESHOLD_RTOL = 1e-9
ESCAPED_ROOT_FACTOR = 1e3


class RealDirectionError(ValueError):
    """The direction vector is real up to a phase, so s is undefined."""


class InconsistentClassificationError(InfrastructureError):
    """Analytic root-existence verdict and numeric scan disagree."""


@dataclass(frozen=True)
class DirectionStats:
    """The direction constant s of a genuinely complex unit v (threshold s xi = 2)."""

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
    """s = sqrt(tau^4 + mu^2) / (sigma^2 tau^2 - mu^2) for the unit v = x + iy.

    sigma^2 = ||x||^2, tau^2 = ||y||^2 and mu = <x, y>, so s^2 is the (1, 1)
    entry of G^-2 for the Gram matrix G = [[sigma^2, mu], [mu, tau^2]].  The
    denominator det G is taken as ||x ^ y||^2 = sum_{i<j} (x_i y_j - x_j y_i)^2
    (Lagrange's identity), which does not cancel as v nears a real direction.
    Raises RealDirectionError when v is real up to a phase (``model.real_direction``).
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    if real_direction(v) is not None:
        raise RealDirectionError("v is real up to a phase")
    x, y = v.real, v.imag
    wedge = np.outer(x, y) - np.outer(y, x)
    return DirectionStats(s=float(np.hypot(y @ y, x @ y) / (0.5 * np.sum(wedge**2))))


def _h_real(x: float, spec: PolynomialSpec) -> float:
    return float(np.real(h_value(complex(x), spec)))


def _brent(f, a: float, b: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method, step for step SciPy's ``brentq.c``.

    Same xtol (ROOT_XTOL), rtol (ROOT_RTOL), iteration cap (ROOT_MAXITER) and
    choice between inverse interpolation, extrapolation and bisection, in the
    same order of floating-point operations, so the result is bitwise SciPy
    ``brentq``'s.  A NaN value of f, ends of one sign and
    ROOT_MAXITER steps without convergence raise NoConvergenceError.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NoConvergenceError(complex(x), fx)
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoConvergenceError(complex(xcur), fcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):  # xcur and xblk bracket the root
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to inf or nan, which fails the test below
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoConvergenceError(complex(xcur), fcur)


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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # non-finite values are dropped below
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite step is not taken
        root = _brent(lambda x: _h_real(x, spec), float(min(a, b)), float(max(a, b)))
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


def _hard_edge_exponents(classification: SpectralClassification) -> tuple[float | None, float | None]:
    """The edge verdict: the blow-up exponent of a hard edge on the m_plus and the m_minus side.

    None where h keeps its root.  Only a reducible q at or below its threshold
    (xi <= 2 for a real direction, s xi <= 2 for a genuinely complex one, each
    up to THRESHOLD_RTOL) loses a root, on the m_minus side for alpha > 0 and on
    the m_plus side for alpha < 0; the exponent is -1/2 below the threshold and
    -1/4 (real) or -1/3 (complex) at it.
    """
    if not classification.is_reducible:
        return None, None
    real = classification.v_is_real_up_to_phase
    product = classification.xi
    if product != 0.0 and not real:
        product *= compute_s_a(classification.v).s
    if not product <= 2.0 * (1.0 + THRESHOLD_RTOL):  # a nan s keeps the roots
        return None, None
    if abs(product - 2.0) > 2.0 * THRESHOLD_RTOL:
        exponent = -0.5
    else:
        exponent = -0.25 if real else -1.0 / 3.0
    return (None, exponent) if classification.alpha > 0 else (exponent, None)


def compute_edges(spec: PolynomialSpec, classification: SpectralClassification | None = None) -> EdgeReport:
    """Locate tau_pm, certify regularity and classify a singular hard edge.

    On each side the scan for a root of h adjacent to 0 is cross-checked
    against the edge verdict; a disagreement raises
    InconsistentClassificationError.  A scan root far beyond the coefficient
    scale is tolerated where the verdict says "no root": at a threshold
    equality the root escapes to infinity, and a polynomial within tolerance
    of the threshold may still show a remote sign change.  A regular edge
    comes from its root m via tau = -1/m - gamma(m); a hard edge sits at
    -beta (the classification shift) and carries the blow-up exponent of the
    edge verdict.
    """
    if classification is None:
        classification = classify_polynomial(spec)
    escaped = ESCAPED_ROOT_FACTOR * (1.0 + 1.0 / spec.norm_a)
    sides = []  # (m, tau, regular, exponent, h'(m)) for the right edge (m_plus side), then the left edge
    for side, boundary, exponent in zip((-1, +1), poles(spec), _hard_edge_exponents(classification)):
        m = _scan_side(spec, boundary, side)
        if exponent is None and m is None:
            raise InconsistentClassificationError(
                f"a root of h was expected on side {side:+d} but the scan found none"
            )
        if exponent is not None and m is not None and abs(m) < escaped:
            raise InconsistentClassificationError(
                f"analytic verdict says no root on side {side:+d} but the scan found m = {m}"
            )
        if exponent is None:
            tau = float(np.real(-1.0 / m - gamma_value(complex(m), spec)))
            sides.append((m, tau, True, 0.5, float(np.real(h_prime(complex(m), spec)))))
        else:
            sides.append((None, -float(classification.beta), False, exponent, None))
    (m_plus, tau_plus, right_regular, right_exponent, hp_plus), (m_minus, tau_minus, left_regular, left_exponent, hp_minus) = sides

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
