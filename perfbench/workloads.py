"""The benchmark's workloads and the output checks that run with them.

``norm_sweep``
    ``verify --suite norm`` on X^2 (l = 1) and on the anticommutator
    X1 X2 + X2 X1 (l = 2), complex Gaussian entries, N = 256, 512, 1024,
    ``--threads`` = min(2, nproc).  It is the norm-rate acceptance criterion
    at desk size: nearly all of its time is sampling, assembly and
    ``eigvalsh`` in ``sim``, with l = 1 beside l = 2, so the l = 1,
    tridiagonal-model, assembly, sampling and trial-parallel levers all show.
``edge_probe``
    The anticommutator alone at N = 1024 with ``--threads 1``: ``deloc`` with
    Rademacher entries, ``rigidity`` with real Gaussian entries and
    ``density`` (KS distance) with complex Gaussian entries.  ``eigh`` with
    eigenvectors dominates its spectrum time, and it takes no l = 1 or
    complex-Gaussian-only shortcut, so it should not move when one of those
    lands.  It is also the plain single-threaded baseline.
``analytic_corpus``
    A seeded corpus of valid specs (see ``corpus.py``) through
    ``classify_polynomial`` -> ``compute_edges`` -> ``compute_density(n_grid=512)``
    -> ``quantiles(., 1024)``, plus three ``stability_spectrum`` points and one
    ``solve_m_delta`` point on the specs that meet the stability
    preconditions.  No sampling, so an analytic gain shows here and not on
    the two simulation workloads.

An op is one Monte Carlo trial on the suite workloads and one spec on the
corpus.  An op fails on an exception, a nonzero exit code or a failed pass
flag; every failure is counted and printed.  A failed output check (an oracle,
a report that differs between repetitions, an exit code other than 0 or 4, an
exception that is not one of quadspec's own) also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import quadspec.cli
import quadspec.density
import quadspec.edges
import quadspec.mde
import quadspec.model

from corpus import build_corpus
from tracing import SUITE_SPAN


def _entry(x: float) -> dict:
    return {"re": float(x), "im": 0.0}


# b is written as plain reals: {re, im} objects for b are not accepted by load_spec.
X2 = {"l": 1, "A": [[_entry(1.0)]], "b": [0.0], "c": 0.0}
ANTICOMMUTATOR = {"l": 2, "A": [[_entry(0.0), _entry(1.0)], [_entry(1.0), _entry(0.0)]], "b": [0.0, 0.0], "c": 0.0}
SPECS = {"x2": X2, "anticommutator": ANTICOMMUTATOR}

#: Closed-form tau_+ of X^2 and the quartic-oracle tau_+ of the anticommutator.
ORACLE_TAU_PLUS = {"x2": 4.0, "anticommutator": 3.3301906767855614}
ORACLE_ATOL = 1e-9

EXIT_OK = 0
EXIT_CRITERIA = 4

N_GRID = 512
N_QUANTILES = 1024
DE_RESIDUAL_THRESHOLD = 1e-9


@dataclass
class PassResult:
    """What one pass over a workload did."""

    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)  # reason -> failed ops
    problems: list = field(default_factory=list)  # failed output checks
    op_latencies: list = field(default_factory=list)
    mass_err_max: float | None = None

    def fail(self, reason: str, ops: int, problem: bool = False) -> None:
        self.failed += ops
        self.failures[reason] += ops
        if problem:
            self.problems.append(reason)


def _span(tracer, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def _is_own_error(exc: BaseException) -> bool:
    return type(exc).__module__.split(".")[0] == "quadspec"


def check_oracles() -> list[str]:
    """tau_+ of the two fixed specs against their known values; returns the failures."""
    problems = []
    for key, expected in ORACLE_TAU_PLUS.items():
        spec = quadspec.model.load_spec(SPECS[key])
        got = quadspec.edges.compute_edges(spec).tau_plus
        if not abs(got - expected) <= ORACLE_ATOL:
            problems.append(f"oracle {key}: tau_plus {got!r} != {expected!r}")
    return problems


def call_cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """Run ``quadspec.cli.main`` in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _span(tracer, SUITE_SPAN):
        try:
            code = quadspec.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue() + err.getvalue()


@dataclass(frozen=True)
class Invocation:
    key: str
    suite: str
    spec: str
    dist: str
    n_list: tuple[int, ...]
    trials: int

    @property
    def ops(self) -> int:
        return self.trials * len(self.n_list)

    def argv(self, spec_dir: Path, out_prefix: Path, seed: int, threads: int) -> list[str]:
        return [
            "verify", "--suite", self.suite,
            "--spec", str(spec_dir / f"{self.spec}.json"),
            "--N", ",".join(str(n) for n in self.n_list),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--threads", str(threads),
            "--dist", self.dist,
            "--out", str(out_prefix),
        ]


class SuiteWorkload:
    """CLI verification suites; an op is one trial."""

    def __init__(self, invocations, threads: int, seed: int, outdir: Path):
        self.invocations = tuple(invocations)
        self.threads = threads
        self.seed = seed
        self.outdir = outdir
        self.spec_dir = outdir / "specs"
        self.setup_problems: list[str] = []
        self._reports: dict[str, bytes] = {}

    def setup(self) -> None:
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        for key in {inv.spec for inv in self.invocations}:
            (self.spec_dir / f"{key}.json").write_text(json.dumps(SPECS[key]))
        self.setup_problems = check_oracles()
        self._reports = {}
        for inv in self.invocations:  # warm-up at toy size, result unused
            small = tuple(range(48, 48 + 8 * len(inv.n_list), 8))
            call_cli(Invocation(inv.key, inv.suite, inv.spec, inv.dist, small, 1).argv(
                self.spec_dir, self.outdir / "warmup", self.seed, self.threads))

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult()
        start = time.perf_counter()
        for inv in self.invocations:
            prefix = self.outdir / f"p{index}-{inv.key}"
            report_path = Path(f"{prefix}_report.json")
            with contextlib.suppress(FileNotFoundError):
                report_path.unlink()
            code, output = call_cli(inv.argv(self.spec_dir, prefix, self.seed, self.threads), tracer)
            result.ops += inv.ops
            if code not in (EXIT_OK, EXIT_CRITERIA):
                last = output.strip().splitlines()[-1:] or [""]
                result.fail(f"{inv.key}: exit {code}: {last[0]}", inv.ops, problem=True)
                continue
            report = report_path.read_bytes()
            flags = json.loads(report)["pass_flags"]
            failing = sorted(name for name, ok in flags.items() if not ok)
            if failing:
                result.fail(f"{inv.key}: failed pass flag {','.join(failing)}", inv.ops,
                            problem=code != EXIT_CRITERIA)
            elif code != EXIT_OK:
                result.fail(f"{inv.key}: exit {code} with every pass flag set", inv.ops, problem=True)
            reference = self._reports.setdefault(inv.key, report)
            if report != reference:
                result.fail(f"{inv.key}: report differs from the first repetition", inv.ops, problem=True)
        result.wall_s = time.perf_counter() - start
        return result


def _stability_applies(spec, classification) -> bool:
    """The stability preconditions: invertible A and not a shifted Wigner square."""
    invertible = np.min(np.abs(spec.eig_a)) >= 1e-10 * spec.norm_a
    return invertible and classification.kind != "WignerSquare"


def analyze(spec, record: dict) -> list[str]:
    """One corpus op.  Fills ``record`` as it goes and returns failed criteria.

    ``record["mass_err"]`` is set before ``quantiles`` can raise, so a
    mass-deficit spec still contributes its |mass - 1|.
    """
    classification = quadspec.model.classify_polynomial(spec)
    edges = quadspec.edges.compute_edges(spec, classification)
    curve = quadspec.density.compute_density(spec, edges, n_grid=N_GRID)
    record["mass_err"] = abs(curve.mass - 1.0)
    gamma = quadspec.density.quantiles(curve, N_QUANTILES)
    if not (np.all(np.isfinite(gamma)) and np.all(np.diff(gamma) >= 0.0)):
        record["problem"] = "quantiles are not finite and nondecreasing"
    signature = [edges.tau_minus, edges.tau_plus, curve.mass, float(np.sum(gamma))]
    failed = []
    if _stability_applies(spec, classification):
        lo, width = edges.tau_minus, edges.tau_plus - edges.tau_minus
        for frac in (0.25, 0.5, 0.75):
            report = quadspec.mde.stability_spectrum(lo + frac * width + 1e-2j, 0.0, spec, classification)
            signature.append(report.beta)
        solution = quadspec.mde.solve_m_delta(lo + 0.5 * width + 0.1j, 0.5, spec)
        signature.append(solution.m_delta)
        if not solution.de_residual <= DE_RESIDUAL_THRESHOLD:
            failed.append("de_residual")
    record["signature"] = tuple(signature)
    return failed


class CorpusWorkload:
    """Analytic pipeline over the seeded corpus; an op is one spec."""

    threads = 1

    def __init__(self, seed: int, outdir: Path, scale: float = 1.0):
        self.seed = seed
        self.outdir = outdir
        self.scale = scale
        self.setup_problems: list[str] = []
        self.corpus = []
        self.specs = []
        self._signatures: dict[str, tuple] = {}

    def setup(self) -> None:
        self.corpus = build_corpus(self.seed, self.scale)
        self.specs = [quadspec.model.load_spec(item.data) for item in self.corpus]
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / "corpus.json").write_text(
            json.dumps([{"name": c.name, "spec": c.data} for c in self.corpus], indent=1))
        self.setup_problems = check_oracles()
        self._signatures = {}
        analyze(quadspec.model.load_spec(X2), {})  # warm-up

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult(mass_err_max=0.0)
        start = time.perf_counter()
        for item, spec in zip(self.corpus, self.specs):
            record: dict = {}
            t0 = time.perf_counter()
            try:
                with _span(tracer, "bench.op", spec=item.name):
                    failed = analyze(spec, record)
            except Exception as exc:  # one op's failure must not stop the pass
                failed = [type(exc).__name__]
                if not _is_own_error(exc):
                    result.problems.append(f"{item.name}: {type(exc).__name__}: {exc}")
            result.op_latencies.append(time.perf_counter() - t0)
            result.ops += 1
            if "mass_err" in record:
                result.mass_err_max = max(result.mass_err_max, record["mass_err"])
            if "problem" in record:
                failed.append("output check")
                result.problems.append(f"{item.name}: {record['problem']}")
            if failed:
                result.fail(f"{item.family}: {','.join(failed)}", 1)
            if "signature" in record:
                reference = self._signatures.setdefault(item.name, record["signature"])
                if record["signature"] != reference:
                    result.fail(f"{item.family}: result differs from the first repetition", 1, problem=True)
        result.wall_s = time.perf_counter() - start
        return result


def norm_sweep(seed: int, outdir: Path, n_list=(256, 512, 1024), trials: int = 6) -> SuiteWorkload:
    gc = "gaussian-complex"
    invocations = [
        Invocation("norm-x2", "norm", "x2", gc, tuple(n_list), trials),
        Invocation("norm-anticommutator", "norm", "anticommutator", gc, tuple(n_list), trials),
    ]
    threads = min(2, len(os.sched_getaffinity(0)))
    return SuiteWorkload(invocations, threads, seed, outdir)


def edge_probe(seed: int, outdir: Path, n: int = 1024, trials=(3, 2, 2)) -> SuiteWorkload:
    invocations = [
        Invocation("deloc", "deloc", "anticommutator", "rademacher", (n,), trials[0]),
        Invocation("rigidity", "rigidity", "anticommutator", "gaussian-real", (n,), trials[1]),
        Invocation("density", "density", "anticommutator", "gaussian-complex", (n,), trials[2]),
    ]
    return SuiteWorkload(invocations, 1, seed, outdir)


WORKLOADS = {"norm_sweep": norm_sweep, "edge_probe": edge_probe, "analytic_corpus": CorpusWorkload}
