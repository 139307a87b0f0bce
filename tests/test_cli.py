import json
import platform
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadspec
import quadspec.cli as cli_module
import quadspec.edges as edges_module
from quadspec import compute_density, compute_edges, quantiles
from quadspec.cli import EXIT_CRITERIA, EXIT_INFRA, EXIT_INPUT, EXIT_OK, compare_ks, main, spec_digest
from quadspec.edges import InconsistentClassificationError
from quadspec.mde import WignerSquareUnsupportedError
from quadspec.model import InfrastructureError, load_spec
from quadspec.scalar import NoConvergenceError
from quadspec.sim import AsymmetryBlowupError, SimulationError, trial_workers


@pytest.fixture()
def wsq_file(tmp_path):
    path = tmp_path / "wsq.json"
    path.write_text(json.dumps({"l": 1, "A": [[{"re": 1, "im": 0}]], "b": [0], "c": 0}))
    return str(path)


@pytest.fixture()
def anti_file(tmp_path):
    payload = {
        "l": 2,
        "A": [
            [{"re": 0, "im": 0}, {"re": 1, "im": 0}],
            [{"re": 1, "im": 0}, {"re": 0, "im": 0}],
        ],
        "b": [0, 0],
        "c": 0,
    }
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def complex_file(tmp_path):
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    A = np.outer(v, v.conj())
    payload = {
        "l": 2,
        "A": [[{"re": z.real, "im": z.imag} for z in row] for row in A],
        "b": [float(x) for x in -2.0 * v.real],
        "c": 1.0,
    }
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_classify_wigner_square(wsq_file, capsys):
    assert main(["classify", "--spec", wsq_file]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "WignerSquare"
    assert out["a"] == 1.0


def test_classify_non_reducible(anti_file, capsys):
    assert main(["classify", "--spec", anti_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "NonReducible"


def test_classify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"l": ')
    assert main(["classify", "--spec", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err != ""


def _assert_classifies(arg, error, capsys):
    """A Wigner square when ``error`` is None, else an input error starting with it; returns stderr."""
    code = main(["classify", "--spec", arg])
    captured = capsys.readouterr()
    if error is None:
        assert code == EXIT_OK
        assert json.loads(captured.out)["kind"] == "WignerSquare"
    else:
        assert code == EXIT_INPUT
        assert captured.err.startswith(f"input error: {error}")
    return captured.err


@pytest.mark.parametrize(
    "source, error",
    [
        ("directory", "cannot read spec file"),
        ("missing", "cannot read spec file"),
        ("inline", None),
        ("file", None),
    ],
    ids=["directory", "missing", "inline", "file"],
)
def test_classify_spec_source(source, error, wsq_file, tmp_path, capsys):
    arg = {
        "directory": str(tmp_path),
        "missing": str(tmp_path / "nosuch.json"),
        "inline": '  {"l": 1, "A": [[1]], "b": [0], "c": 0}',
        "file": wsq_file,
    }[source]
    err = _assert_classifies(arg, error, capsys)
    assert error is None or arg in err


def test_classify_invalid_spec(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"l": 1, "A": [[{"re": 0, "im": 0}]], "b": [1], "c": 0}))
    assert main(["classify", "--spec", str(zero)]) == EXIT_INPUT


@pytest.mark.parametrize(
    "b, error",
    [
        ([0], None),
        ([{"re": 0, "im": 0}], None),
        ([{"re": 0, "im": 1}], "b must be real"),
        ([{"re": [0], "im": 0}], "coefficient entry"),
        ([True], "coefficient entry"),
        ([{"re": "1"}], "coefficient entry"),
        ([{"re": " 2 "}], "coefficient entry"),
        ([{"real": 1}], "coefficient entry"),
    ],
    ids=["plain", "re-im", "complex", "non-numeric", "bool", "string-re", "padded-string-re", "unknown-key"],
)
def test_classify_b_entries(b, error, capsys):
    _assert_classifies(json.dumps({"l": 1, "A": [[{"re": 1, "im": 0}]], "b": b, "c": 0}), error, capsys)


@pytest.mark.parametrize(
    "c, error",
    [
        (0, None),
        ({"re": 0, "im": 0}, None),
        ({"re": 0, "im": 1}, "c must be real"),
        ({"re": [0], "im": 0}, "coefficient entry"),
        (False, "coefficient entry"),
    ],
    ids=["plain", "re-im", "complex", "non-numeric", "bool"],
)
def test_classify_c_entries(c, error, capsys):
    _assert_classifies(json.dumps({"l": 1, "A": [[{"re": 1, "im": 0}]], "b": [0], "c": c}), error, capsys)


@pytest.mark.parametrize("command", ["classify", "analyze"])
@pytest.mark.parametrize(
    "spec",
    [
        '{"l":1,"A":[[1]],"b":[1e200],"c":0}',
        '{"l":1,"A":[[1e-100]],"b":[1e100],"c":0}',
        '{"l":2,"A":[[0,1e200],[0,0]],"b":[0,0],"c":0}',
        '{"l":2,"A":[[0,1e308],[1e308,0]],"b":[0,0],"c":0}',
        '{"l":true,"A":[[true]],"b":[false],"c":false}',
        '{"l":true,"A":[[1]],"b":[0],"c":0}',
        '{"l":2,"A":[[{"real":1},{"re":1}],[{"re":1},{"re":0}]],"b":[0,0],"c":0}',
    ],
    ids=["large-b", "small-alpha", "huge-non-hermitian-A", "overflowing-A", "bool-spec", "bool-l", "unknown-key-A"],
)
def test_classification_overflow_is_input_error(command, spec, tmp_path, capsys):
    # ||b||^2 / |alpha| overflows a double, so beta = alpha xi^2 - c does too;
    # so do ||A|| and ||A - A*|| of the huge A, and A + A* of the overflowing one.
    # Booleans and unknown entry keys are not numbers, so those specs are input errors too.
    out = ["--out", str(tmp_path / "o")] if command == "analyze" else []
    assert main([command, "--spec", spec, *out]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_analyze_overflowing_scale_is_input_error(tmp_path, capsys):
    # ||b|| overflows, so the continuation would start at eta = inf and never come down
    spec = '{"l":2,"A":[[-2,1],[1,2]],"b":[1e160,0],"c":0}'
    assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, spec, code, kind",
    [
        (["classify"], '{"l":2,"A":[[0,1e308],[1e308,0]],"b":[0,0],"c":0}', EXIT_INPUT, None),
        (["analyze", "--n-grid", "64"], '{"l":1,"A":[[1e-200]],"b":[0],"c":0}', EXIT_INFRA, None),
        (["classify"], '{"l":1,"A":[[1]],"b":[1e200],"c":0}', EXIT_INPUT, None),
        (["analyze", "--n-grid", "64"], '{"l":1,"A":[[1]],"b":[1e200],"c":0}', EXIT_INPUT, None),
        (["classify"], '{"l":1,"A":[[1e-100]],"b":[1e100],"c":0}', EXIT_INPUT, None),
        (["analyze", "--n-grid", "64"], '{"l":1,"A":[[1e-100]],"b":[1e100],"c":0}', EXIT_INPUT, None),
        (["analyze", "--n-grid", "64"], '{"l":1,"A":[[1e200]],"b":[0],"c":0}', EXIT_INFRA, None),
        # ||b||^2 overflows, and b is orthogonal to v all the same
        (["classify"], '{"l":2,"A":[[1e300,0],[0,0]],"b":[0,1e160],"c":0}', EXIT_OK, "NonReducible"),
        # ||b||^2 overflows, and q = alpha (X + 5e146)^2 - 2.5e306 is a shifted square all the same
        (["classify"], '{"l":1,"A":[[1e13]],"b":[1e160],"c":0}', EXIT_OK, "ShiftedReducible"),
    ],
    ids=[
        "overflowing-A",
        "tiny-A",
        "large-b-classify",
        "large-b-analyze",
        "small-alpha-classify",
        "small-alpha-analyze",
        "huge-A",
        "b-off-the-span",
        "b-overflows-shifted-square",
    ],
)
def test_handled_overflow_warns_nothing(command, spec, code, kind, tmp_path, capsys):
    # the overflow is turned into an exit code, so numpy has nothing to warn about
    out = ["--out", str(tmp_path / "o")] if command[0] == "analyze" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--spec", spec, *out]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    if kind is not None:
        assert json.loads(captured.out)["kind"] == kind


_numbers = st.one_of(
    st.floats(1e-320, 1e308), st.floats(-1e308, -1e-320), st.integers(-3, 3), st.integers(-(10**400), 10**400)
)
_parts = _numbers | st.none() | st.text(max_size=3) | st.lists(_numbers, max_size=1)
_entries = _parts | st.booleans() | st.fixed_dictionaries({}, optional={"re": _parts, "im": _parts})
_wild_specs = st.fixed_dictionaries({}, optional={
    "l": st.integers(-1, 4) | st.floats(-9, 9) | st.text(max_size=2) | st.none(),
    "A": st.lists(st.lists(_entries, max_size=3), max_size=3) | _entries,
    "b": st.lists(_entries, max_size=3) | _entries,
    "c": _entries,
})


@st.composite
def _shaped_specs(draw):
    """Specs of the right shape with a real symmetric A, so most reach classification."""
    l = draw(st.integers(1, 3))
    upper = {(i, j): draw(_numbers) for i in range(l) for j in range(i, l)}
    A = [[upper[min(i, j), max(i, j)] for j in range(l)] for i in range(l)]
    return {"l": l, "A": A, "b": [draw(_numbers) for _ in range(l)], "c": draw(_numbers)}


_VERIFY_SMALL = ["--N", "16", "--trials", "2", "--n-grid", "64"]


@settings(derandomize=True, database=None, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([
        ["classify"],
        ["analyze", "--n-grid", "64"],
        ["verify", "--suite", "density", *_VERIFY_SMALL],
        ["verify", "--suite", "stability", *_VERIFY_SMALL],
    ]),
    st.one_of(_shaped_specs(), _wild_specs),
)
def test_classify_exit_code_contract(tmp_path, command, spec):
    out = [] if command[0] == "classify" else ["--out", str(tmp_path / "o")]
    assert main([*command, "--spec", json.dumps(spec), *out]) in (EXIT_OK, EXIT_INPUT, EXIT_INFRA, EXIT_CRITERIA)


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-6])
def test_near_real_direction_is_not_input_error(eps, tmp_path):
    # v = (1, i eps) is genuinely complex to the classification, so the edges must not call it real,
    # and s -> 1 as eps -> 0 keeps s xi = 2 eps^2-close to (X1 - 1)^2's xi = 1: both edges regular
    v = np.array([1.0, 1j * eps])
    v = v / np.linalg.norm(v)
    A = np.outer(v, v.conj())
    payload = {
        "l": 2,
        "A": [[{"re": z.real, "im": z.imag} for z in row] for row in A],
        "b": [float(x) for x in -2.0 * v.real],
        "c": 1.0,
    }
    prefix = str(tmp_path / "near")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--n-grid", "64", "--spec", json.dumps(payload), "--out", prefix])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == EXIT_OK
    edges = json.loads(Path(prefix + "_edges.json").read_text())
    assert edges["tau_plus"] == pytest.approx(9.0, abs=1e-9)  # the eps = 0 edges of (X1 - 1)^2
    assert edges["tau_minus"] == pytest.approx(0.0, abs=1e-9)


def test_analyze_squared_wigner(wsq_file, tmp_path, capsys):
    prefix = str(tmp_path / "wsq")
    assert main(["analyze", "--spec", wsq_file, "--out", prefix]) == EXIT_OK
    edges = json.loads(Path(prefix + "_edges.json").read_text())
    assert edges["tau_plus"] == pytest.approx(4.0, abs=1e-9)
    assert edges["tau_minus"] == pytest.approx(0.0, abs=1e-9)
    assert edges["left_exponent"] == pytest.approx(-0.5)
    assert edges["tau_star"] == pytest.approx(4.0, abs=1e-9)
    lines = Path(prefix + "_density.csv").read_text().splitlines()
    assert lines[0] == "E,rho"
    plot = Path(prefix + "_plot.gp").read_text()
    assert "wsq_density.csv" in plot
    # run store appended
    records = [json.loads(line) for line in Path(prefix + "_runs.jsonl").read_text().splitlines()]
    assert records[0]["command"] == "analyze"
    assert "timestamp" in records[0]


def test_analyze_anticommutator_tau_star(anti_file, tmp_path):
    prefix = str(tmp_path / "anti")
    assert main(["analyze", "--spec", anti_file, "--out", prefix]) == EXIT_OK
    edges = json.loads(Path(prefix + "_edges.json").read_text())
    assert edges["tau_star"] == pytest.approx(3.3301906, abs=1e-6)


def test_analyze_complex_threshold_exponent(complex_file, tmp_path):
    prefix = str(tmp_path / "cx")
    assert main(["analyze", "--spec", complex_file, "--out", prefix]) == EXIT_OK
    edges = json.loads(Path(prefix + "_edges.json").read_text())
    assert edges["left_exponent"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert edges["classification"]["kind"] == "ShiftedReducible"


def test_analyze_solver_failure_is_infra(wsq_file, tmp_path, monkeypatch, capsys):
    def broken(spec, n_grid):
        raise NoConvergenceError(1.0 + 1e-9j, 1.0)

    monkeypatch.setattr(cli_module, "_analysis", broken)
    code = main(["analyze", "--spec", wsq_file, "--out", str(tmp_path / "x")])
    assert code == EXIT_INFRA
    assert "1e-09" in capsys.readouterr().err or "z =" in capsys.readouterr().err


@pytest.mark.parametrize(
    "attr, value",
    [("ROOT_MAXITER", 1), ("_h_real", lambda x, spec: float("nan"))],
    ids=["iteration-cap", "nan-h"],
)
def test_analyze_root_step_failure_is_infra(attr, value, anti_file, tmp_path, monkeypatch, capsys):
    # the Brent step stops without a root: a valid spec exits 3, never 2 or with a traceback
    monkeypatch.setattr(edges_module, attr, value)
    code = main(["analyze", "--spec", anti_file, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_INFRA
    assert err.startswith("infrastructure error: no convergence")
    assert "Traceback" not in err


def test_verify_lemmas_pass_and_determinism(tmp_path, capsys):
    p1 = str(tmp_path / "a")
    p2 = str(tmp_path / "b")
    t0 = time.perf_counter()
    assert main(["verify", "--suite", "lemmas", "--seed", "7", "--out", p1]) == EXIT_OK
    assert time.perf_counter() - t0 < 10.0
    out = capsys.readouterr().out
    assert "PASS lemmas/quad_stability" in out
    assert "PASS lemmas/entrywise_real_part" in out
    assert main(["verify", "--suite", "lemmas", "--seed", "7", "--out", p2]) == EXIT_OK
    assert Path(p1 + "_report.json").read_bytes() == Path(p2 + "_report.json").read_bytes()


def test_verify_requires_spec(tmp_path):
    assert main(["verify", "--suite", "density", "--out", str(tmp_path / "x")]) == EXIT_INPUT


def test_verify_norm_needs_three_sizes(wsq_file, tmp_path):
    code = main(
        ["verify", "--suite", "norm", "--spec", wsq_file, "--N", "64,128", "--trials", "4",
         "--out", str(tmp_path / "n")]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("suite", ["density", "deloc", "rigidity"])
def test_verify_single_n_suites_reject_an_n_list(suite, wsq_file, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the spec was loaded before --N was checked")

    monkeypatch.setattr(cli_module, "load_spec", must_not_run)
    code = main(["verify", "--suite", suite, "--spec", wsq_file, "--N", "64,128", "--out", str(tmp_path / "n")])
    assert code == EXIT_INPUT
    assert "--N" in capsys.readouterr().err


def test_verify_rigidity_needs_three_eigenvalues(wsq_file, tmp_path, capsys):
    # at N = 2 the third eigenvalue from the top would be the top one again
    prefix = str(tmp_path / "r")
    argv = ["verify", "--suite", "rigidity", "--spec", wsq_file, "--trials", "2", "--seed", "1", "--out", prefix]
    assert main(argv + ["--N", "2"]) == EXIT_INPUT
    assert "--N" in capsys.readouterr().err
    assert not Path(prefix + "_report.json").exists()
    assert main(argv + ["--N", "3"]) in (EXIT_OK, EXIT_CRITERIA)
    assert json.loads(Path(prefix + "_report.json").read_text())["config"]["N"] == 3


@pytest.mark.parametrize("n_list", ["64,64,64", "1,64,128"])
def test_verify_rejects_bad_n_list(n_list, wsq_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "norm", "--spec", wsq_file, "--N", n_list, "--out", str(tmp_path / "n")])
    assert excinfo.value.code == EXIT_INPUT
    assert "--N" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, compute",
    [(["verify", "--suite", "lemmas"], "run_suite_lemmas"), (["analyze"], "_analysis")],
    ids=["verify", "analyze"],
)
def test_missing_output_directory_fails_before_compute(argv, compute, wsq_file, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{compute} ran before the output directory was checked")

    monkeypatch.setattr(cli_module, compute, must_not_run)
    code = main(argv + ["--spec", wsq_file, "--out", str(tmp_path / "nodir" / "x")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: output directory")


def test_verify_density_small(anti_file, tmp_path, capsys):
    prefix = str(tmp_path / "d")
    code = main(
        ["verify", "--suite", "density", "--spec", anti_file, "--N", "256", "--trials", "4",
         "--seed", "1", "--out", prefix]
    )
    assert code == EXIT_OK
    report = json.loads(Path(prefix + "_report.json").read_text())
    assert report["ks_distance"] <= 0.05
    assert report["pass_flags"] == {"ks_distance": True, "mass": True}


def test_verify_failure_exit_code(anti_file, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "KS_THRESHOLD", -1.0)
    prefix = str(tmp_path / "f")
    code = main(
        ["verify", "--suite", "density", "--spec", anti_file, "--N", "128", "--trials", "2",
         "--seed", "1", "--out", prefix]
    )
    assert code == EXIT_CRITERIA
    # the report is still written on failure
    report = json.loads(Path(prefix + "_report.json").read_text())
    assert report["pass_flags"]["ks_distance"] is False


def test_verify_stability_rejects_wigner_square(wsq_file, tmp_path):
    code = main(["verify", "--suite", "stability", "--spec", wsq_file, "--out", str(tmp_path / "s")])
    assert code == EXIT_INFRA


def _spec_payload(A, b, c):
    return {
        "l": len(b),
        "A": [[{"re": z.real, "im": z.imag} for z in row] for row in np.asarray(A, dtype=complex)],
        "b": [float(x) for x in b],
        "c": float(c),
    }


_V3 = np.array([1.0, 0.5 + 0.5j, -0.3j]) / np.linalg.norm([1.0, 0.5 + 0.5j, -0.3j])
_U3, _W3 = np.array([1.0, 0.4, -0.2]), np.array([0.3, -1.0, 0.5])


@pytest.mark.parametrize("payload", [
    {"l": 2, "A": [[0.2, 0.4], [0.4, 0.8]], "b": [-0.6, -1.2], "c": 0.5},
    _spec_payload(np.outer(_V3, _V3.conj()), [0.4, -0.7, 0.2], 0.1),
    _spec_payload(np.outer(_V3, _V3.conj()), -0.6 * _V3.real, 0.09),  # (v*X - 0.3)(v*X - 0.3)*
    _spec_payload(np.outer(_U3, _U3) - 0.5 * np.outer(_W3, _W3), [0.5, 0.2, -0.4], 0.2),
], ids=["rank-one-real-l2", "rank-one-complex-l3", "reducible-complex-l3", "rank-two-l3"])
def test_verify_stability_singular_a(payload, tmp_path):
    # a singular A has no K0 = diag(c, -A^{-1}), yet its Dyson residual and beta slopes are checked in full
    prefix = str(tmp_path / "sa")
    code = main(["verify", "--suite", "stability", "--spec", json.dumps(payload), "--seed", "1", "--out", prefix])
    assert code == EXIT_OK
    report = json.loads(Path(prefix + "_report.json").read_text())
    assert report["values"]["max_de_residual"] <= 1e-9
    assert report["values"]["beta_slopes"]
    for slope in report["values"]["beta_slopes"].values():
        assert cli_module.STABILITY_SLOPE_RANGE[0] <= slope <= cli_module.STABILITY_SLOPE_RANGE[1]


def test_verify_stability_anticommutator(anti_file, tmp_path):
    prefix = str(tmp_path / "st")
    code = main(["verify", "--suite", "stability", "--spec", anti_file, "--seed", "3", "--out", prefix])
    assert code == EXIT_OK
    report = json.loads(Path(prefix + "_report.json").read_text())
    assert report["values"]["max_de_residual"] <= 1e-9
    assert set(report["values"]["beta_slopes"]) == {"left", "right"}
    for slope in report["values"]["beta_slopes"].values():
        assert 0.45 <= slope <= 0.55


def test_verify_thresholds():
    # the acceptance criteria judge through these, so a loosened bound must fail here
    c = cli_module
    assert (c.KS_THRESHOLD, c.DE_RESIDUAL_THRESHOLD, c.TRIAL_PASS_FRACTION) == (0.05, 1e-9, 0.9)
    assert (c.STABILITY_SLOPE_RANGE, c.NORM_SLOPE_RANGE) == ((0.45, 0.55), (-0.85, -0.50))


def test_compare_ks_quantile_construction(wigner_square_spec):
    curve = compute_density(wigner_square_spec, compute_edges(wigner_square_spec), 512)
    sample = quantiles(curve, 1000)
    assert compare_ks(sample, curve) <= 1.0 / 1000 + 1e-6


def test_compare_ks_disjoint_support(wigner_square_spec):
    curve = compute_density(wigner_square_spec, compute_edges(wigner_square_spec), 512)
    width = curve.edge_meta.tau_plus - curve.edge_meta.tau_minus
    sample = quantiles(curve, 100) + 2.0 * width
    assert compare_ks(sample, curve) == pytest.approx(1.0, abs=1e-2)


def test_compare_ks_duplication_invariance(wigner_square_spec):
    curve = compute_density(wigner_square_spec, compute_edges(wigner_square_spec), 512)
    sample = quantiles(curve, 50)
    doubled = np.concatenate([sample, sample])
    assert compare_ks(sample, curve) == pytest.approx(compare_ks(doubled, curve), abs=1e-12)


@pytest.mark.parametrize("suite", ["density", "rigidity"])
def test_verify_density_mass_deficit_fails_the_criterion(suite, anti_file, tmp_path, monkeypatch):
    # a curve whose mass misses 1 is a failed mass criterion with a written report,
    # not an infrastructure error
    compute = cli_module.compute_density
    monkeypatch.setattr(cli_module, "compute_density", lambda *args: replace(compute(*args), mass=0.5))
    prefix = str(tmp_path / "m")
    code = main(
        ["verify", "--suite", suite, "--spec", anti_file, "--N", "128", "--trials", "2",
         "--seed", "1", "--out", prefix]
    )
    assert code == EXIT_CRITERIA
    report = json.loads(Path(prefix + "_report.json").read_text())
    assert report["pass_flags"]["mass"] is False
    assert report["values"]["mass"] == 0.5
    assert report["thresholds"]["mass_deviation"] == 1e-3


def test_verify_density_fits_each_edge_on_its_own(tmp_path):
    # -(X - 2)^2: the regular left edge has too few points in the fit window, and
    # that must not cost the singular right edge its exponent
    spec = json.dumps({"l": 1, "A": [[-1]], "b": [4], "c": -4})
    main(["analyze", "--spec", spec, "--out", str(tmp_path / "a"), "--n-grid", "512"])
    edges = json.loads((tmp_path / "a_edges.json").read_text())
    code = main(
        ["verify", "--suite", "density", "--spec", spec, "--N", "128", "--trials", "2", "--seed", "1",
         "--out", str(tmp_path / "d")]
    )
    assert code in (EXIT_OK, EXIT_CRITERIA)
    report = json.loads((tmp_path / "d_report.json").read_text())
    assert edges["fitted_exponent_left"] is None and report["edge_exponent_left"] is None
    assert report["edge_exponent_right"] == edges["fitted_exponent_right"]
    assert report["edge_exponent_right"] == pytest.approx(-0.25, abs=0.05)


def test_run_store_accumulates(anti_file, tmp_path):
    prefix = str(tmp_path / "acc")
    reports = []
    for _ in range(2):
        assert main(["verify", "--suite", "lemmas", "--out", prefix]) == EXIT_OK
        reports.append((tmp_path / "acc_report.json").read_bytes())
    assert reports[0] == reports[1]  # timings and versions go to the run store only
    records = [json.loads(line) for line in Path(prefix + "_runs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    record = records[-1]
    assert record["elapsed_s"] > 0.0
    assert record["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quadspec": quadspec.__version__,
    }


def test_spec_hash_in_report_stable_under_reordering(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"l": 1, "A": [[{"re": 1, "im": 0}]], "b": [0], "c": 1}')
    b.write_text('{"c": 1, "b": [0], "A": [[{"im": 0, "re": 1}]], "l": 1}')
    assert spec_digest(load_spec(a)) == spec_digest(load_spec(b))


INFRASTRUCTURE_ERRORS = {
    "simulation": SimulationError([(1, RuntimeError("boom"))]),
    "asymmetry": AsymmetryBlowupError("non-Hermitian input"),
    "classification": InconsistentClassificationError("scan disagrees"),
    "no-convergence": NoConvergenceError(1.0 + 1e-9j, 1.0),
    "wigner-square": WignerSquareUnsupportedError("shifted Wigner square"),
}


@pytest.mark.parametrize(
    "attr, error",
    [
        ("simulate_run", "simulation"),
        ("simulate_run", "asymmetry"),
        ("compute_edges", "classification"),
        ("compute_edges", "no-convergence"),
        ("simulate_run", "wigner-square"),
    ],
)
def test_verify_simulation_errors_are_infra(attr, error, wsq_file, tmp_path, monkeypatch, capsys):
    exc = INFRASTRUCTURE_ERRORS[error]

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_module, attr, broken)
    code = main(
        ["verify", "--suite", "norm", "--spec", wsq_file, "--N", "16,32,64", "--trials", "2",
         "--out", str(tmp_path / "e")]
    )
    assert code == EXIT_INFRA
    assert capsys.readouterr().err.startswith("infrastructure error:")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_infrastructure_error_exits_3(monkeypatch, tmp_path, capsys):
    # the exit-code policy is the class hierarchy: an InfrastructureError is never an input error
    assert set(_subclasses(InfrastructureError)) == {type(exc) for exc in INFRASTRUCTURE_ERRORS.values()}
    assert len(INFRASTRUCTURE_ERRORS) == 5
    for exc in INFRASTRUCTURE_ERRORS.values():
        assert not isinstance(exc, ValueError), exc

        def broken(seed, exc=exc):
            raise exc

        monkeypatch.setattr(cli_module, "run_suite_lemmas", broken)
        assert main(["verify", "--suite", "lemmas", "--out", str(tmp_path / "i")]) == EXIT_INFRA
        assert capsys.readouterr().err.startswith("infrastructure error:")


@pytest.mark.parametrize("value", ["-0.1", "0", "nan", "inf", "x"])
def test_verify_rejects_bad_eta_before_compute(value, wsq_file, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("compute_edges ran before --eta was checked")

    monkeypatch.setattr(cli_module, "compute_edges", must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "deloc", "--spec", wsq_file, f"--eta={value}", "--out", str(tmp_path / "e")])
    assert excinfo.value.code == EXIT_INPUT
    assert "--eta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value",
    [("--threads", "0"), ("--threads", "-2"), ("--trials", "0"), ("--seed", "-1"), ("--n-grid", "63"), ("--n-grid", "3")],
    ids=["0", "-2", "trials-0", "seed-negative", "n-grid-63", "n-grid-3"],
)
def test_verify_rejects_threads_below_one(option, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "lemmas", option, value, "--out", str(tmp_path / "t")])
    assert excinfo.value.code == EXIT_INPUT
    assert option in capsys.readouterr().err


def test_analyze_rejects_small_n_grid_before_compute(wsq_file, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("classification ran before --n-grid was checked")

    monkeypatch.setattr(cli_module, "classify_polynomial", must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--spec", wsq_file, "--n-grid", "10", "--out", str(tmp_path / "g")])
    assert excinfo.value.code == EXIT_INPUT
    assert "--n-grid" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [["density"], ["deloc", "--dist", "rademacher"]], ids=["density", "deloc"])
def test_verify_report_independent_of_threads(suite, anti_file, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one BLAS thread per call, so --threads 2 runs two trials at once
    reports = []
    for threads in (1, 2):
        prefix = str(tmp_path / f"t{threads}")
        code = main(
            ["verify", "--suite", *suite, "--spec", anti_file, "--N", "512", "--trials", "2",
             "--seed", "3", "--threads", str(threads), "--out", prefix]
        )
        assert code in (EXIT_OK, EXIT_CRITERIA)
        reports.append(Path(prefix + "_report.json").read_bytes())
        record = json.loads(Path(prefix + "_runs.jsonl").read_text())
        assert record["threads"] == threads
        assert record["trial_workers"] == trial_workers(threads, 2)
        assert "threads" not in json.loads(reports[-1])["config"]
    assert reports[0] == reports[1]
