import numpy as np
import pytest

from quadspec import (
    EnsembleConfig,
    assemble_polynomial,
    compute_edges,
    resolvent_trace,
    sample_wigner,
    simulate_run,
    spectrum,
    validate_spec,
)
from quadspec.sim import (
    DISTRIBUTIONS,
    GAUSSIAN_COMPLEX,
    GAUSSIAN_REAL,
    RADEMACHER,
    AsymmetryBlowupError,
    SimulationError,
    _run_trial,
    trial_rng,
    trial_workers,
)


def test_sample_is_exactly_hermitian():
    for dist in DISTRIBUTIONS:
        w = sample_wigner(64, dist, trial_rng(0, 0))
        assert np.array_equal(w, w.conj().T)
        assert np.all(w.diagonal().imag == 0.0)


def test_sample_normalization():
    w = sample_wigner(1024, GAUSSIAN_COMPLEX, trial_rng(42, 0))
    assert np.trace(w @ w).real / 1024 == pytest.approx(1.0, abs=0.1)


def test_sample_determinism():
    a = sample_wigner(128, GAUSSIAN_COMPLEX, trial_rng(7, 3))
    b = sample_wigner(128, GAUSSIAN_COMPLEX, trial_rng(7, 3))
    assert np.array_equal(a, b)
    c = sample_wigner(128, GAUSSIAN_COMPLEX, trial_rng(7, 4))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_entry_moments(dist):
    n, trials = 256, 4
    offdiag = []
    for t in range(trials):
        w = sample_wigner(n, dist, trial_rng(1, t)) * np.sqrt(n)
        iu = np.triu_indices(n, 1)
        offdiag.append(w[iu])
    pooled = np.concatenate(offdiag)
    count = len(pooled)
    assert abs(np.mean(pooled)) <= 5.0 / np.sqrt(count)
    second = np.mean(np.abs(pooled) ** 2)
    se = np.std(np.abs(pooled) ** 2) / np.sqrt(count) + 1e-12
    assert abs(second - 1.0) <= 5.0 * se + 1e-9


def test_assemble_scalar_case():
    spec = validate_spec(1, [[1.0]], [0.0], 0.0)
    q = assemble_polynomial(spec, [np.array([[2.0]])])
    assert np.allclose(q, [[4.0]])


def test_assemble_pauli_anticommutator(anticommutator_spec):
    x1 = np.array([[0, 1], [1, 0]], dtype=complex)
    x2 = np.array([[1, 0], [0, -1]], dtype=complex)
    q = assemble_polynomial(anticommutator_spec, [x1, x2])
    assert np.linalg.norm(q) == pytest.approx(0.0, abs=1e-14)


def test_assemble_shifted_square_identity(shifted_square_spec):
    x = sample_wigner(64, GAUSSIAN_COMPLEX, trial_rng(2, 0))
    q = assemble_polynomial(shifted_square_spec, [x])
    direct = (x - np.eye(64)) @ (x - np.eye(64))
    assert np.linalg.norm(q - direct) <= 1e-12 * np.linalg.norm(direct)


def test_assemble_rejects_non_hermitian_input(shifted_square_spec):
    from quadspec.sim import AsymmetryBlowupError

    x = np.triu(np.ones((8, 8)))  # not Hermitian: Q picks up an O(1) asymmetry
    with pytest.raises(AsymmetryBlowupError):
        assemble_polynomial(shifted_square_spec, [x])


def test_spectrum_examples():
    assert np.allclose(spectrum(np.diag([3.0, 1.0, 2.0]).astype(complex)), [1, 2, 3])
    assert np.allclose(spectrum(np.array([[0, 1], [1, 0]], dtype=complex)), [-1, 1])


def test_spectrum_trace_and_vectors():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    q = 0.5 * (g + g.conj().T)
    vals, vecs = spectrum(q, vectors=True)
    assert np.sum(vals) == pytest.approx(np.trace(q).real, abs=1e-9 * 64 * np.linalg.norm(q, 2))
    for k in (0, 31, 63):
        assert np.linalg.norm(q @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-8 * np.linalg.norm(q, 2)


def test_resolvent_trace_examples():
    assert resolvent_trace(np.zeros(3), 1j) == pytest.approx(1j, abs=1e-15)
    assert resolvent_trace(np.ones(3), 1 + 1j) == pytest.approx(1j, abs=1e-15)
    rng = np.random.default_rng(4)
    g = rng.standard_normal((32, 32))
    q = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(q)
    for z in (0.5 + 0.2j, -1 + 1j):
        assert resolvent_trace(eigs, z).imag > 0
    with pytest.raises(ValueError):
        resolvent_trace(eigs, 1 - 1j)


def test_simulate_run_determinism(wigner_square_spec):
    cfg = EnsembleConfig(N=128, dist=GAUSSIAN_COMPLEX, seed=9, trials=3)
    a = simulate_run(wigner_square_spec, cfg)
    b = simulate_run(wigner_square_spec, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.eigenvalues, b.eigenvalues))
    assert np.array_equal(a.norms, b.norms)
    c = simulate_run(wigner_square_spec, cfg, threads=2)
    assert all(np.array_equal(x, y) for x, y in zip(a.eigenvalues, c.eigenvalues))


def test_simulate_run_square_is_positive(wigner_square_spec):
    cfg = EnsembleConfig(N=256, dist=GAUSSIAN_COMPLEX, seed=1, trials=5)
    result = simulate_run(wigner_square_spec, cfg)
    assert min(e.min() for e in result.eigenvalues) >= -1e-8


def test_simulate_run_symmetric_law(anticommutator_spec):
    cfg = EnsembleConfig(N=1024, dist=GAUSSIAN_COMPLEX, seed=2, trials=2)
    result = simulate_run(anticommutator_spec, cfg)
    for eigs in result.eigenvalues:
        assert abs(np.mean(eigs)) <= 0.05


def test_simulate_run_rademacher(anticommutator_spec):
    cfg = EnsembleConfig(N=256, dist=RADEMACHER, seed=3, trials=2)
    result = simulate_run(anticommutator_spec, cfg)
    assert sum(len(eigs) for eigs in result.eigenvalues) == 512


def test_complex_direction_edges_match_sampled_spectrum(complex_half_spec, complex_threshold_spec):
    # end-to-end: the analytic tau_+ of genuinely complex reducible polynomials
    # agrees with the sampled extreme eigenvalues; the hard edge at 0 is
    # approached from above (the polynomial is a PSD square)
    for spec in (complex_half_spec, complex_threshold_spec):
        rep = compute_edges(spec)
        result = simulate_run(spec, EnsembleConfig(N=768, dist=GAUSSIAN_COMPLEX, seed=31, trials=4))
        for eigs in result.eigenvalues:
            assert abs(eigs.max() - rep.tau_plus) <= 0.3
            assert -1e-9 <= eigs.min() <= 0.01


def test_simulate_run_edge_vectors(wigner_square_spec):
    rep = compute_edges(wigner_square_spec)
    cfg = EnsembleConfig(N=128, dist=GAUSSIAN_COMPLEX, seed=4, trials=2)
    result = simulate_run(wigner_square_spec, cfg, edge_target=rep.tau_plus)
    for stats in result.edge_vectors:
        assert len(stats) == 8
        for s in stats:
            assert 0.0 < s.max_component_sq <= 1.0


def _assert_trial_1_reported(monkeypatch, spec):
    import quadspec.sim as sim_module

    original = sim_module.spectrum
    calls = {"n": 0}

    def flaky(Q, vectors=False):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("boom")
        return original(Q, vectors)

    monkeypatch.setattr(sim_module, "spectrum", flaky)
    cfg = EnsembleConfig(N=32, dist=GAUSSIAN_COMPLEX, seed=5, trials=3)
    with pytest.raises(SimulationError) as excinfo:
        simulate_run(spec, cfg)
    assert excinfo.value.failures[0][0] == 1


def test_simulate_run_aggregates_failures(monkeypatch, wigner_square_spec):
    _assert_trial_1_reported(monkeypatch, wigner_square_spec)


def test_simulate_run_aggregates_failures_two_matrices(monkeypatch, anticommutator_spec):
    _assert_trial_1_reported(monkeypatch, anticommutator_spec)


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(N=1, dist=GAUSSIAN_COMPLEX)
    with pytest.raises(ValueError):
        EnsembleConfig(N=16, dist="cauchy")
    with pytest.raises(ValueError):
        EnsembleConfig(N=16, trials=0)


# Reference implementations the trial path is pinned to: the three-line
# sampler and the dense assembly symmetrized once at the end.


def _oracle_atoms(rng, dist, n):
    if dist == GAUSSIAN_COMPLEX:
        off = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        diag = rng.standard_normal(n)
    elif dist == GAUSSIAN_REAL:
        off = rng.standard_normal((n, n))
        diag = rng.standard_normal(n)
    else:
        off = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
        diag = 2.0 * rng.integers(0, 2, size=n).astype(float) - 1.0
    return off, diag


def _oracle_sample_wigner(n, dist, rng):
    off, diag = _oracle_atoms(rng, dist, n)
    upper = np.triu(off, 1)
    return (upper + upper.conj().T + np.diag(diag.astype(complex))) / np.sqrt(n)


def _oracle_assemble(spec, X):
    n = X[0].shape[0]
    mixed = np.tensordot(spec.A, np.stack(X), axes=(1, 0))
    Q = np.zeros((n, n), dtype=complex)
    for i in range(spec.l):
        Q += X[i] @ mixed[i] + spec.b[i] * X[i]
    Q += spec.c * np.eye(n)
    return 0.5 * (Q + Q.conj().T)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_sample_matches_oracle_bitwise(dist):
    for n in (2, 65, 300):  # 300 spans several tiles and a partial one
        new = sample_wigner(n, dist, trial_rng(11, n))
        ref = _oracle_sample_wigner(n, dist, trial_rng(11, n))
        if dist == GAUSSIAN_COMPLEX:
            assert new.dtype == ref.dtype
        else:  # real laws stay real: the oracle's imaginary part is zero
            assert new.dtype == np.float64
            assert not np.any(ref.imag)
            ref = np.ascontiguousarray(ref.real)
        assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


def _generic_l3_spec():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return validate_spec(3, g + g.conj().T, rng.standard_normal(3), 0.7)


_DENSE_CASES = [
    ("square", lambda: validate_spec(1, [[1.0]], [0.0], 0.0)),  # X^2
    ("shifted-square", lambda: validate_spec(1, [[1.0]], [-2.0], 1.0)),  # (X - 1)^2
    ("negative-a", lambda: validate_spec(1, [[-0.7]], [1.3], 0.2)),  # a < 0, b != 0
    ("anticommutator", lambda: validate_spec(2, [[0, 1], [1, 0]], [0, 0], 0.0)),  # X1 X2 + X2 X1
    ("generic-complex-l3", _generic_l3_spec),
]


@pytest.mark.parametrize(
    "make_spec, dist",
    [
        pytest.param(make, dist, id=name if dist == GAUSSIAN_COMPLEX else f"{name}-{dist}")
        for dist in DISTRIBUTIONS
        for name, make in _DENSE_CASES
    ],
)
def test_trial_eigenvalues_match_dense_assembly(make_spec, dist):
    spec = make_spec()
    cfg = EnsembleConfig(N=200, dist=dist, seed=13, trials=1)
    eigenvalues, norm, _ = _run_trial(spec, cfg, None, 0)
    rng = trial_rng(cfg.seed, 0)
    X = [_oracle_sample_wigner(cfg.N, cfg.dist, rng) for _ in range(spec.l)]
    if spec.l > 1:  # Q is complex exactly when A or the law is
        rng = trial_rng(cfg.seed, 0)
        q = assemble_polynomial(spec, [sample_wigner(cfg.N, dist, rng) for _ in range(spec.l)])
        assert np.iscomplexobj(q) == (dist == GAUSSIAN_COMPLEX or bool(np.any(spec.A.imag)))
    ref = np.linalg.eigvalsh(_oracle_assemble(spec, X))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(eigenvalues - ref)) <= 1e-12 * scale
    assert norm == pytest.approx(scale, rel=1e-12)

    # edge eigenvector statistics: columns follow their (re-sorted) eigenvalues
    ref_vals, ref_vecs = np.linalg.eigh(_oracle_assemble(spec, X))
    target = ref_vals[-1]
    _, _, stats = _run_trial(spec, cfg, target, 0)
    order = np.argsort(np.abs(ref_vals - target))[:8]
    for stat, k in zip(stats, order):
        assert stat.eigenvalue == pytest.approx(ref_vals[k], abs=1e-12 * scale)
        assert stat.max_component_sq == pytest.approx(np.max(np.abs(ref_vecs[:, k]) ** 2), rel=1e-6)


def test_assemble_matches_dense_assembly():
    spec = _generic_l3_spec()
    rng = trial_rng(14, 0)
    X = [sample_wigner(300, GAUSSIAN_COMPLEX, rng) for _ in range(3)]
    q = assemble_polynomial(spec, X)
    ref = _oracle_assemble(spec, X)
    assert np.array_equal(q, q.conj().T)
    assert np.linalg.norm(q - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "spec_name, dist",
    [
        ("wigner_square_spec", GAUSSIAN_COMPLEX),
        ("anticommutator_spec", GAUSSIAN_COMPLEX),
        ("anticommutator_spec", RADEMACHER),
    ],
    ids=["wigner_square_spec", "anticommutator_spec", "anticommutator_spec-rademacher"],
)
def test_simulate_run_thread_independent_above_blas_threshold(spec_name, dist, request):
    spec = request.getfixturevalue(spec_name)
    cfg = EnsembleConfig(N=512, dist=dist, seed=15, trials=3)
    serial = simulate_run(spec, cfg, threads=1)
    pooled = simulate_run(spec, cfg, threads=2)
    for a, b in zip(serial.eigenvalues, pooled.eigenvalues):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_non_hermitian_input_raises_for_two_matrices(anticommutator_spec, monkeypatch):
    import quadspec.sim as sim_module

    x = sample_wigner(16, GAUSSIAN_COMPLEX, trial_rng(16, 0))
    with pytest.raises(AsymmetryBlowupError):
        assemble_polynomial(anticommutator_spec, [x, np.triu(np.ones((16, 16)))])

    # the l = 1 trial path checks its input the same way
    monkeypatch.setattr(sim_module, "sample_wigner", lambda n, dist, rng: np.triu(np.ones((n, n))))
    with pytest.raises(SimulationError) as excinfo:
        simulate_run(validate_spec(1, [[1.0]], [0.0], 0.0), EnsembleConfig(N=8, trials=1))
    assert isinstance(excinfo.value.failures[0][1], AsymmetryBlowupError)


def test_trial_workers_respect_blas_threads(monkeypatch):
    import quadspec.sim as sim_module

    monkeypatch.setattr(sim_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert trial_workers(8, 8) == 1  # OpenBLAS takes every core by default
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert trial_workers(8, 8) == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert trial_workers(8, 8) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert trial_workers(8, 3) == 3
    assert trial_workers(2, 8) == 2
    assert trial_workers(0, 8) == 1
