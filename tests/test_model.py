import json

import numpy as np
import pytest

from quadspec import classify_polynomial, load_spec, reducible_spec, validate_spec
from quadspec.lemmas import entrywise_real_part_violations
from quadspec.model import (
    DimensionMismatchError,
    NonHermitianError,
    SpecError,
    ZeroAError,
    spec_hash_payload,
)


def test_scalar_spec_eigendata():
    spec = validate_spec(1, [[1.0]], [0.0], 0.0)
    assert spec.eig_a.tolist() == [1.0]
    assert spec.mu.tolist() == [1.0]
    assert spec.mu_hat.size == 0 and spec.w2.size == 0  # b = 0 weighs no A_hat direction
    with_b = validate_spec(1, [[1.0]], [3.0], 0.0)
    assert with_b.mu_hat.tolist() == [1.0] and with_b.w2.tolist() == [9.0]


def test_two_by_two_eigendata():
    # hand oracle: [[0,1],[1,0]] has eigenvalues -1, +1 with vectors (1, ∓1)/sqrt 2
    spec = validate_spec(2, [[0, 1], [1, 0]], [0, 0], 0.0)
    assert np.allclose(spec.eig_a, [-1.0, 1.0], atol=1e-14)
    # b = (1, 0) weighs each A_hat eigenvector by 1/2
    with_b = validate_spec(2, [[0, 1], [1, 0]], [1, 0], 0.0)
    assert np.allclose(with_b.mu_hat, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(with_b.w2, [0.5, 0.5], atol=1e-14)


def test_zero_a_rejected():
    with pytest.raises(ZeroAError):
        validate_spec(1, [[0.0]], [1.0], 0.0)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        validate_spec(2, [[0, 1], [0, 0]], [0, 0], 0.0)
    with pytest.raises(NonHermitianError):  # ||A|| and ||A - A*|| overflow; the check compares them scaled
        validate_spec(2, [[0, 1e200], [0, 0]], [0, 0], 0.0)


def test_huge_hermitian_accepted():
    spec = validate_spec(2, [[0, 1e200], [1e200, 0]], [0, 0], 0.0)
    assert np.allclose(spec.eig_a, [-1e200, 1e200], rtol=1e-14, atol=0)
    assert classify_polynomial(spec).kind == "NonReducible"


def test_sub_threshold_asymmetry_is_symmetrized():
    spec = validate_spec(2, [[0, 1], [1 + 1e-12, 0]], [0, 0], 0.0)
    assert np.allclose(spec.A, spec.A.conj().T, atol=0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_spec(2, [[1, 0], [0, 1]], [0], 0.0)
    with pytest.raises(DimensionMismatchError):
        validate_spec(0, [], [], 0.0)
    with pytest.raises(DimensionMismatchError):
        validate_spec(True, [[1]], [0], 0.0)
    # a boolean coefficient is not a number, alone, in a mixed list or as a numpy bool
    for A, b, c in (
        ([[True]], [False], False),
        ([[True, 1.0], [1.0, 0]], [0, 0], 0),
        ([[1.0, 0.0], [0.0, 1.0]], [np.bool_(True), 0.0], 0.0),
        ([[1.0]], [0.0], np.bool_(False)),
        (np.array([[True]]), [0.0], 0.0),
        ([[1.0]], np.array([False]), 0.0),
    ):
        with pytest.raises(DimensionMismatchError):
            validate_spec(len(A), A, b, c)


def test_non_finite_rejected():
    with pytest.raises(SpecError):
        validate_spec(1, [[np.inf]], [0.0], 0.0)
    with pytest.raises(SpecError, match="A is out of range"):  # finite A whose A + A* overflows
        validate_spec(2, [[0, 1e308], [1e308, 0]], [0, 0], 0.0)


def test_eigendata_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        l = int(rng.integers(1, 7))
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        spec = validate_spec(l, 0.5 * (g + g.conj().T), rng.standard_normal(l), float(rng.standard_normal()))
        # mu_hat / w2 are the A_hat eigenvalues and b weights above 1e-12 ||b||^2
        hat_vals, hat_vecs = np.linalg.eigh(0.5 * (spec.A + spec.A.T).real)
        b_proj = np.abs(hat_vecs.T @ spec.b) ** 2
        keep = b_proj > 1e-12 * spec.norm_b**2
        assert np.allclose(spec.mu_hat, hat_vals[keep], rtol=0, atol=1e-12)
        assert np.allclose(spec.w2, b_proj[keep], rtol=0, atol=1e-12)
        # entrywise-real-part comparisons
        scale = max(spec.norm_a, 1e-300)
        assert spec.eig_a[-1] >= hat_vals[-1] - 1e-10 * scale
        assert spec.eig_a[0] <= hat_vals[0] + 1e-10 * scale
        assert spec.norm_a >= np.max(np.abs(hat_vals)) - 1e-10 * scale


def test_entrywise_real_part_suite():
    assert entrywise_real_part_violations(1000, seed=1) == 0


def test_classify_shifted_square():
    spec = validate_spec(1, [[1.0]], [-2.0], 1.0)
    cl = classify_polynomial(spec)
    assert cl.kind == "ShiftedReducible"
    assert cl.alpha == pytest.approx(1.0, abs=1e-12)
    assert cl.xi == pytest.approx(1.0, abs=1e-12)
    assert cl.beta == pytest.approx(0.0, abs=1e-12)


def test_classify_wigner_square():
    cl = classify_polynomial(validate_spec(1, [[1.0]], [0.0], 0.0))
    assert cl.kind == "WignerSquare"
    assert cl.a == pytest.approx(1.0)
    assert cl.c_shift == pytest.approx(0.0)
    assert cl.xi == 0.0 and cl.v_is_real_up_to_phase


def test_classify_non_reducible():
    cl = classify_polynomial(validate_spec(2, [[0, 1], [1, 0]], [0, 0], 0.0))
    assert cl.kind == "NonReducible"
    assert not cl.is_reducible


def _reconstruction_error(spec, cl):
    A = cl.alpha * np.outer(cl.v, np.conj(cl.v))
    b = -2.0 * cl.alpha * cl.xi * np.asarray(cl.v).real
    c = cl.alpha * cl.xi**2 - cl.beta
    err = np.linalg.norm(spec.A - A) + np.linalg.norm(spec.b - b) + abs(spec.c - c)
    return err / (spec.norm_a + spec.norm_b + abs(spec.c) + 1.0)


def test_classify_reconstructs_generating_data():
    rng = np.random.default_rng(7)
    for _ in range(400):
        l = int(rng.integers(1, 6))
        v = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        alpha = float(rng.standard_normal() + np.sign(rng.standard_normal()) * 0.2)
        xi = float(np.abs(rng.standard_normal()))
        beta = float(rng.standard_normal())
        spec = reducible_spec(alpha, xi, v, beta)
        cl = classify_polynomial(spec)
        assert cl.is_reducible
        assert cl.xi >= 0.0
        assert _reconstruction_error(spec, cl) <= 1e-8


def test_classify_phase_invariance():
    # rotating the generating direction must not change the polynomial or the verdict
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    base = reducible_spec(1.3, 0.8, v, 0.1)
    for phi in (0.3, 1.2, 2.9):
        rotated = reducible_spec(1.3, 0.8, np.exp(1j * phi) * v, 0.1)
        cl = classify_polynomial(rotated)
        assert cl.kind == "ShiftedReducible"
        assert _reconstruction_error(rotated, cl) <= 1e-8
        assert cl.xi == pytest.approx(0.8, abs=1e-9)


def test_b_outside_direction_span_is_non_reducible():
    # A = v v* with v = e1 but b along e2: not expressible as -2 alpha xi Re v
    spec = validate_spec(2, [[1, 0], [0, 0]], [0, 1.0], 0.0)
    assert classify_polynomial(spec).kind == "NonReducible"


def test_load_spec_json_roundtrip(tmp_path):
    payload = {
        "l": 2,
        "A": [
            [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
            [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
        ],
        "b": [0, 0],
        "c": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    spec = load_spec(path)
    assert spec.l == 2
    assert np.allclose(spec.A, [[0, 1], [1, 0]])
    # plain numbers are tolerated where {re, im} objects are expected
    payload["A"][0][1] = 1
    spec2 = load_spec(payload)
    assert np.allclose(spec2.A, spec.A)


def test_spec_hash_stable_under_key_reordering():
    a = load_spec({"l": 1, "A": [[{"re": 1, "im": 0}]], "b": [0], "c": 0})
    b = load_spec({"c": 0, "b": [0], "A": [[{"im": 0, "re": 1}]], "l": 1})
    assert spec_hash_payload(a) == spec_hash_payload(b)


def test_spec_is_immutable(wigner_square_spec):
    with pytest.raises((ValueError, RuntimeError)):
        wigner_square_spec.A[0, 0] = 2.0
