"""Polynomial coefficient validation, cached eigendata and reducibility classification.

A quadratic polynomial of ``l`` independent Wigner matrices is described by a
Hermitian matrix ``A`` (quadratic part), a real vector ``b`` (linear part) and
a real constant ``c``.  Every analytic module works off the eigendata of ``A``
and the b-weighted eigenvalues of its entrywise real part ``A_hat``, so both
are computed once here and cached on the (immutable) spec object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERMITICITY_RTOL = 1e-8
RANK_ONE_RTOL = 1e-10
B_SPAN_TOL = 1e-10
B_PROJ_RTOL = 1e-12
EIG_ZERO_RTOL = 1e-14
REAL_DIRECTION_RTOL = 1e-10


class SpecError(ValueError):
    """Invalid polynomial coefficients."""


class InfrastructureError(RuntimeError):
    """A valid input that the solver or the simulation could not handle."""


class ZeroAError(SpecError):
    """The quadratic coefficient matrix vanishes."""


class NonHermitianError(SpecError):
    """A deviates from its adjoint beyond the symmetrization threshold."""


class DimensionMismatchError(SpecError):
    """Coefficient shapes are inconsistent with the declared l."""


@dataclass(frozen=True)
class PolynomialSpec:
    """Validated coefficients plus eigendata shared by the analytic modules.

    ``eig_a``/``vec_a`` are the eigenvalues (ascending) and orthonormal
    eigenvector columns of ``A``, and ``mu`` the eigenvalues above
    1e-14 ||A||.  ``mu_hat``/``w2`` are the eigenvalues mu_hat_i of the
    entrywise real part ``A_hat = (A + A^t)/2`` and the b weights
    ``|<w_i, b>|^2`` of its eigenvectors w_i, kept where the weight exceeds
    1e-12 ||b||^2; the self-energy reads ``mu``, ``mu_hat`` and ``w2``.
    Arrays are read-only.
    """

    l: int
    A: np.ndarray
    b: np.ndarray
    c: float
    eig_a: np.ndarray
    vec_a: np.ndarray
    mu: np.ndarray
    mu_hat: np.ndarray
    w2: np.ndarray

    @property
    def norm_a(self) -> float:
        """Operator norm of A."""
        return float(np.max(np.abs(self.eig_a)))

    @property
    def norm_b(self) -> float:
        """Euclidean norm of b; inf once its square overflows (past about 1e154)."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.b))

    @property
    def coefficient_scale(self) -> float:
        """1 + ||A|| + ||b|| + |c|, the natural energy scale of q."""
        return 1.0 + self.norm_a + self.norm_b + abs(self.c)

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "A": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in self.A],
            "b": [float(x) for x in self.b],
            "c": float(self.c),
        }


@dataclass(frozen=True)
class SpectralClassification:
    """Reducibility verdict for a polynomial.

    ``ShiftedReducible`` means q = alpha (v*X - xi)(v*X - xi)* - beta with
    ``alpha != 0``, ``xi >= 0`` and unit ``v`` (phase fixed so that
    b = -alpha xi (v + conj(v))).  ``WignerSquare`` is the sub-case with real
    ``v`` and ``xi = 0``, i.e. q = a W^2 + c_shift for a single Wigner matrix
    W; the reducible parameters are reported for it as well.
    """

    kind: str  # "NonReducible" | "ShiftedReducible" | "WignerSquare"
    alpha: float | None = None
    beta: float | None = None
    xi: float | None = None
    v: np.ndarray | None = None
    v_is_real_up_to_phase: bool | None = None
    a: float | None = None
    c_shift: float | None = None

    @property
    def is_reducible(self) -> bool:
        return self.kind in ("ShiftedReducible", "WignerSquare")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.is_reducible:
            out.update(
                alpha=self.alpha,
                beta=self.beta,
                xi=self.xi,
                v=[{"re": float(z.real), "im": float(z.imag)} for z in self.v],
                v_is_real_up_to_phase=self.v_is_real_up_to_phase,
            )
        if self.kind == "WignerSquare":
            out.update(a=self.a, c_shift=self.c_shift)
        return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def validate_spec(l: int, A, b, c) -> PolynomialSpec:
    """Validate raw coefficients and build the cached spec.

    Symmetrizes A when the deviation from Hermiticity is below
    ``HERMITICITY_RTOL * ||A||`` and rejects it otherwise, and rejects an A
    whose symmetrized form or eigendata overflow.  Eigendata of A and A_hat are
    computed here, together with the squared projections of b onto the A_hat
    eigenbasis, which select the A_hat eigenvalues that b reaches.
    """
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l < 1:
        raise DimensionMismatchError(f"l must be a positive integer, got {l!r}")
    # np.asarray takes a boolean as 0 or 1, and a mixed list hides it in a float array
    if any(isinstance(x, (bool, np.bool_)) for coeff in (A, b, c) for x in np.asarray(coeff, dtype=object).flat):
        raise DimensionMismatchError("coefficients must be numbers, not booleans")
    A = np.asarray(A, dtype=complex)
    b_arr = np.asarray(b)
    if np.iscomplexobj(b_arr) and np.any(b_arr.imag != 0):
        raise DimensionMismatchError("b must be real")
    b_arr = np.asarray(b_arr.real if np.iscomplexobj(b_arr) else b_arr, dtype=float)
    if A.shape != (l, l):
        raise DimensionMismatchError(f"A has shape {A.shape}, expected ({l}, {l})")
    if b_arr.shape != (l,):
        raise DimensionMismatchError(f"b has shape {b_arr.shape}, expected ({l},)")
    if isinstance(c, complex) and c.imag != 0:
        raise DimensionMismatchError("c must be real")
    c = float(np.real(c))
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag)) and np.all(np.isfinite(b_arr)) and np.isfinite(c)):
        raise SpecError("coefficients must be finite")

    scale = max(float(np.max(np.abs(A.real))), float(np.max(np.abs(A.imag))))
    if scale == 0.0:
        raise ZeroAError("A must be nonzero")
    # the norms of A itself overflow past about 1e154, and numpy divides a complex
    # array by a real scale through 1 / scale, which overflows for subnormal A
    unit = A.real / scale + 1j * (A.imag / scale)
    asym = np.linalg.norm(unit - unit.conj().T) / np.linalg.norm(unit)
    if asym > HERMITICITY_RTOL:
        raise NonHermitianError(f"||A - A*|| / ||A|| = {asym:.3e} exceeds {HERMITICITY_RTOL:.0e}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected just below
        A = 0.5 * (A + A.conj().T)
        A_hat = np.ascontiguousarray(0.5 * (A + A.T).real)
        eig_a, vec_a = np.linalg.eigh(A)
        eig_a_hat, vec_a_hat = np.linalg.eigh(A_hat)
    if not all(np.all(np.isfinite(x)) for x in (A, A_hat, eig_a, vec_a, eig_a_hat, vec_a_hat)):
        raise SpecError(f"A is out of range: its symmetrized form or eigendata overflow (max |A_ij| = {scale:.3e})")
    with np.errstate(over="ignore"):  # an infinite ||b|| is rejected at the continuation start
        b_proj = np.abs(vec_a_hat.T @ b_arr) ** 2
        keep = b_proj > B_PROJ_RTOL * max(float(np.linalg.norm(b_arr)) ** 2, 1e-300)
    mu = eig_a[np.abs(eig_a) > EIG_ZERO_RTOL * max(float(np.max(np.abs(eig_a))), 1e-300)]

    return PolynomialSpec(
        l=int(l),
        A=_freeze(A),
        b=_freeze(b_arr),
        c=c,
        eig_a=_freeze(eig_a),
        vec_a=_freeze(vec_a),
        mu=_freeze(mu),
        mu_hat=_freeze(eig_a_hat[keep]),
        w2=_freeze(b_proj[keep]),
    )


def _parse_number(value, entry) -> float:
    """A JSON number of ``entry``: int or float, never bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DimensionMismatchError(f"coefficient entry {entry!r} is neither a number nor {{re, im}} of numbers")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond double range
        raise DimensionMismatchError(f"coefficient entry {entry!r} is out of range") from exc


def _parse_entry(entry) -> complex:
    """A JSON number or an object with only the keys re and im, a missing one being 0."""
    if isinstance(entry, dict):
        if not entry.keys() <= {"re", "im"}:
            raise DimensionMismatchError(f"coefficient entry {entry!r} has keys other than re and im")
        return complex(_parse_number(entry.get("re", 0.0), entry), _parse_number(entry.get("im", 0.0), entry))
    return complex(_parse_number(entry, entry))


def load_spec(source) -> PolynomialSpec:
    """Load a polynomial spec from a JSON file, JSON string or parsed dict.

    A string whose first non-blank character is ``{`` is JSON; any other
    string or Path names a file, and a file that cannot be read raises
    SpecError.  Expected layout: ``{"l": 2, "A": [[{"re": 0, "im": 0}, ...],
    ...], "b": [0, 0], "c": 0}``.  Every coefficient is a JSON number (not a
    bool or a string) or a ``{re, im}`` object of numbers, a missing part being
    0; ``b`` and ``c`` must have a zero imaginary part.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        data = json.loads(source)
    elif isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {str(source)!r}: {exc.strerror or exc}") from exc
        data = json.loads(text)
    elif isinstance(source, dict):
        data = source
    else:
        raise DimensionMismatchError(f"cannot load a spec from {type(source).__name__}")
    if not isinstance(data, dict):
        raise DimensionMismatchError("spec JSON must be an object")
    try:
        l = data["l"]
        raw_a = data["A"]
        raw_b = data["b"]
        c = data["c"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatchError(f"spec JSON is missing field {exc}") from exc
    if not isinstance(raw_a, list) or not all(isinstance(row, list) for row in raw_a):
        raise DimensionMismatchError("A must be a list of rows")
    A = [[_parse_entry(entry) for entry in row] for row in raw_a]
    if len(A) != l or any(len(row) != l for row in A):
        raise DimensionMismatchError("A rows do not match l")
    if not isinstance(raw_b, list):
        raise DimensionMismatchError("b must be a list")
    return validate_spec(l, A, [_parse_entry(entry) for entry in raw_b], _parse_entry(c))


def spec_hash_payload(spec: PolynomialSpec) -> str:
    """Canonical JSON used to hash a spec (stable under key reordering)."""
    return json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))


def real_direction(v: np.ndarray) -> np.ndarray | None:
    """Return a real unit vector u with v = e^{i phi} u, or None if genuinely complex.

    The one real-direction test: the classification and ``edges.compute_s_a`` both use it.
    """
    k = int(np.argmax(np.abs(v)))
    rotated = v * np.exp(-1j * np.angle(v[k]))
    u = rotated.real
    if np.linalg.norm(rotated - u) > REAL_DIRECTION_RTOL:
        return None
    n = np.linalg.norm(u)
    return u / n


def _b_unit(b: np.ndarray) -> float:
    """max |b_i| once that exceeds 1, else 1: the b tests of the classification
    compare in this unit, so that no norm of b overflows."""
    return max(float(np.max(np.abs(b))), 1.0)


def _off_span(b: np.ndarray, fit: np.ndarray) -> bool:
    """||b - fit|| > B_SPAN_TOL (||b|| + 1), both sides in units of ``_b_unit(b)``."""
    unit = _b_unit(b)
    residual = np.linalg.norm(b / unit - fit / unit)
    return bool(residual > B_SPAN_TOL * (np.linalg.norm(b / unit) + 1.0 / unit))


def classify_polynomial(spec: PolynomialSpec) -> SpectralClassification:
    """Decide whether q is a shifted reducible polynomial and extract its parameters.

    Reducible means A = alpha v v* (numerically rank one) and
    b = -alpha xi (v + conj(v)) for some xi >= 0 once the phase freedom of v
    is fixed; the phase is chosen in closed form as the least-squares
    minimizer of ||b + alpha xi (e^{i phi} v + e^{-i phi} conj(v))||.  A xi
    with |alpha| xi below ``B_SPAN_TOL`` times the coefficient scale is zero;
    the comparison runs in units of ``_b_unit(b)``, so an overflowing ||b||
    cannot zero xi.
    WignerSquare is reported when additionally v is real up to phase and
    xi = 0 (the most specific kind wins).
    """
    b = spec.b
    sv = np.sort(np.abs(spec.eig_a))  # the singular values of the Hermitian A, ascending
    if spec.l > 1 and sv[-2] > RANK_ONE_RTOL * sv[-1]:
        return SpectralClassification(kind="NonReducible")

    idx = int(np.argmax(np.abs(spec.eig_a)))
    alpha = float(spec.eig_a[idx])
    v = spec.vec_a[:, idx].copy()

    u = real_direction(v)
    real_up_to_phase = u is not None

    xi: float
    if real_up_to_phase:
        coeff = float(u @ b)
        if _off_span(b, coeff * u):
            return SpectralClassification(kind="NonReducible")
        xi = -coeff / (2.0 * alpha)
        if xi < 0:
            u = -u
            xi = -xi
    else:
        basis = np.stack([v.real, v.imag], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, b, rcond=None)
        if _off_span(b, basis @ coeffs):
            return SpectralClassification(kind="NonReducible")
        c1, c2 = float(coeffs[0]), float(coeffs[1])
        xi = float(np.hypot(c1, c2) / (2.0 * abs(alpha)))

    unit = _b_unit(b)
    scale = (1.0 + spec.norm_a) / unit + np.linalg.norm(b / unit) + abs(spec.c) / unit
    if xi * abs(alpha) / unit <= B_SPAN_TOL * scale:
        xi = 0.0
    beta = alpha * (xi * xi) - spec.c  # a float product overflows to inf where ** would raise
    if not np.isfinite(beta):
        raise SpecError(f"classification overflows (alpha = {alpha:.3e}, xi = {xi:.3e}): coefficients out of range")
    if real_up_to_phase:
        v_fixed = u.astype(complex)
    elif xi == 0.0:
        k = int(np.argmax(np.abs(v)))
        v_fixed = v * np.exp(-1j * np.angle(v[k]))
    else:
        # b = -2 alpha xi Re(e^{i phi} v) pins the phase
        cos_phi = -c1 / (2.0 * alpha * xi)
        sin_phi = c2 / (2.0 * alpha * xi)
        rot = complex(cos_phi, sin_phi)
        v_fixed = v * (rot / abs(rot))
    square = real_up_to_phase and xi == 0.0
    return SpectralClassification(
        kind="WignerSquare" if square else "ShiftedReducible",
        alpha=alpha,
        beta=beta,
        xi=xi,
        v=_freeze(v_fixed),
        v_is_real_up_to_phase=real_up_to_phase,
        a=alpha if square else None,
        c_shift=spec.c if square else None,
    )


def reducible_spec(alpha: float, xi: float, v, beta: float = 0.0) -> PolynomialSpec:
    """Build the spec of q = alpha (v*X - xi)(v*X - xi)* - beta."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    A = alpha * np.outer(v, v.conj())
    b = -2.0 * alpha * xi * v.real
    c = alpha * xi**2 - beta
    return validate_spec(len(v), A, b, c)
