"""Command-line surface: classify / analyze / verify with JSON reports.

Exit-code contract: 0 success (all criteria pass), 2 input or validation
error (a ``ValueError``), 3 infrastructure error (an ``InfrastructureError``:
solver failure, failed trial, unusable spec for a suite), 4 verification suite
ran but a criterion failed.  Reports contain no timestamps, so identical
commands with identical seeds produce byte-identical files; the append-only
JSON-lines run store carries the timestamped records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .density import (
    MASS_TOLERANCE, MIN_N_GRID, DensityCurve, compute_density, fit_edge_exponent, quantiles, write_density_csv
)
from .edges import compute_edges
from .lemmas import entrywise_real_part_violations, quad_stability_violations
from .mde import BETA_KAPPAS, WignerSquareUnsupportedError, beta_slopes, solve_m_delta
from .model import InfrastructureError, SpecError, classify_polynomial, load_spec, spec_hash_payload
from .scalar import solve_m
from .sim import (
    DISTRIBUTIONS,
    GAUSSIAN_COMPLEX,
    EnsembleConfig,
    SimulationResult,
    resolvent_trace,
    simulate_run,
    trial_workers,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFRA = 3
EXIT_CRITERIA = 4

SUITES = ("density", "norm", "deloc", "rigidity", "stability", "lemmas")
SIMULATION_SUITES = ("density", "norm", "deloc", "rigidity")

KS_THRESHOLD = 0.05
NORM_SLOPE_RANGE = (-0.85, -0.50)
STABILITY_SLOPE_RANGE = (0.45, 0.55)
DE_RESIDUAL_THRESHOLD = 1e-9
DE_RESIDUAL_POINTS = 100  # random (z, delta) points of the stability suite's residual check
TRIAL_PASS_FRACTION = 0.9
RIGIDITY_TOP = 3  # the rigidity suite judges this many top eigenvalues of each trial
QUAD_STAB_SAMPLES = 100_000
HAT_A_SAMPLES = 1_000


@dataclass
class ComparisonReport:
    """Comparison between analytic predictions and simulation for one suite."""

    suite: str
    spec_hash: str | None
    seed: int
    config: dict
    ks_distance: float | None = None
    norm_errors: list | None = None
    norm_scaling_slope: float | None = None
    edge_exponent_left: float | None = None
    edge_exponent_right: float | None = None
    values: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    pass_flags: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.pass_flags.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def spec_digest(spec) -> str:
    return hashlib.sha256(spec_hash_payload(spec).encode()).hexdigest()


def compare_ks(empirical, curve: DensityCurve) -> float:
    """Kolmogorov distance between an empirical sample and the curve's CDF."""
    x = np.sort(np.asarray(empirical, dtype=float))
    if len(x) == 0:
        raise ValueError("empirical sample is empty")
    n = len(x)
    F = curve.cdf_at(x) / curve.mass
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - F), np.max(F - lower)))


def _pass_count_needed(trials: int) -> int:
    return int(np.ceil(TRIAL_PASS_FRACTION * trials))


def _analysis(spec, n_grid: int):
    classification = classify_polynomial(spec)
    edges = compute_edges(spec, classification)
    curve = compute_density(spec, edges, n_grid)
    return classification, edges, curve


def run_suite_lemmas(seed: int) -> ComparisonReport:
    report = ComparisonReport(suite="lemmas", spec_hash=None, seed=seed, config={})
    v_quad = quad_stability_violations(QUAD_STAB_SAMPLES, seed=seed)
    v_hat = entrywise_real_part_violations(HAT_A_SAMPLES, seed=seed)
    report.values = {
        "quad_stability_samples": QUAD_STAB_SAMPLES,
        "quad_stability_violations": v_quad,
        "entrywise_real_part_samples": HAT_A_SAMPLES,
        "entrywise_real_part_violations": v_hat,
    }
    report.thresholds = {"violations": 0}
    report.pass_flags = {"quad_stability": v_quad == 0, "entrywise_real_part": v_hat == 0}
    return report


def _run_report(suite: str, spec, result: SimulationResult, **config) -> ComparisonReport:
    """Report of a suite judged on one run; N, trials, dist and seed come from the run."""
    cfg = result.config
    config = {"N": cfg.N, "trials": cfg.trials, "dist": cfg.dist, **config}
    return ComparisonReport(suite=suite, spec_hash=spec_digest(spec), seed=cfg.seed, config=config)


def _judge_mass(report: ComparisonReport, curve: DensityCurve) -> None:
    """The mass criterion of every suite judged on a density curve: |mass - 1| <= MASS_TOLERANCE."""
    report.values["mass"] = curve.mass
    report.thresholds["mass_deviation"] = MASS_TOLERANCE
    report.pass_flags["mass"] = abs(curve.mass - 1.0) <= MASS_TOLERANCE


def judge_density(spec, curve: DensityCurve, result: SimulationResult, n_grid: int) -> ComparisonReport:
    """KS distance of the pooled spectrum to the curve, the curve's mass and its edge exponents."""
    report = _run_report("density", spec, result, n_grid=n_grid)
    ks = report.ks_distance = compare_ks(np.concatenate(result.eigenvalues), curve)
    report.edge_exponent_left = fit_edge_exponent(curve, "left")
    report.edge_exponent_right = fit_edge_exponent(curve, "right")
    report.values = {"tau_star": curve.edge_meta.tau_star}
    report.thresholds = {"ks_distance": KS_THRESHOLD}
    report.pass_flags = {"ks_distance": ks <= KS_THRESHOLD}
    _judge_mass(report, curve)
    return report


def run_suite_norm(spec, n_list, trials, seed, dist, threads) -> ComparisonReport:
    if len(n_list) < 3:
        raise ValueError("the norm suite needs at least 3 matrix dimensions")
    edges = compute_edges(spec)
    tau_star = edges.tau_star
    medians = []
    for n in n_list:
        cfg = EnsembleConfig(N=n, dist=dist, seed=seed + n, trials=trials)
        result = simulate_run(spec, cfg, threads=threads)
        medians.append(float(np.median(np.abs(result.norms - tau_star))))
    slope = float(np.polyfit(np.log(n_list), np.log(medians), 1)[0])
    report = ComparisonReport(
        suite="norm",
        spec_hash=spec_digest(spec),
        seed=seed,
        config={"N": list(n_list), "trials": trials, "dist": dist},
        norm_errors=[[int(n), m] for n, m in zip(n_list, medians)],
        norm_scaling_slope=slope,
    )
    report.values = {"tau_star": tau_star}
    report.thresholds = {"norm_scaling_slope": list(NORM_SLOPE_RANGE)}
    report.pass_flags = {"norm_scaling_slope": NORM_SLOPE_RANGE[0] <= slope <= NORM_SLOPE_RANGE[1]}
    return report


def judge_deloc(spec, result: SimulationResult, eta: float | None = None) -> ComparisonReport:
    """Trace local law at z = edge target + i eta (eta defaults to N^(-1/2)) and
    delocalization near the edge target."""
    n, trials = result.config.N, result.config.trials
    edge = result.edge_target
    eta = eta if eta is not None else n**-0.5
    z = edge + 1j * eta
    m = solve_m(z, spec).m
    ll_bound = 10.0 * n**0.05 / (n * eta)
    deloc_bound = 10.0 * np.log(n) / n
    ll_pass = 0
    deloc_pass = 0
    for eigs, stats in zip(result.eigenvalues, result.edge_vectors):
        if abs(resolvent_trace(eigs, z) - m) <= ll_bound:
            ll_pass += 1
        near = [s for s in stats if abs(s.eigenvalue - edge) <= 0.1]
        if all(s.max_component_sq <= deloc_bound for s in near):
            deloc_pass += 1
    needed = _pass_count_needed(trials)
    report = _run_report("deloc", spec, result, eta=eta)
    report.values = {
        "trace_local_law_passes": ll_pass,
        "delocalization_passes": deloc_pass,
        "trials": trials,
        "trace_local_law_bound": ll_bound,
        "delocalization_bound": deloc_bound,
    }
    report.thresholds = {"passes_needed": needed}
    report.pass_flags = {
        "trace_local_law": ll_pass >= needed,
        "delocalization": deloc_pass >= needed,
    }
    return report


def judge_rigidity(spec, curve: DensityCurve, result: SimulationResult, n_grid: int) -> ComparisonReport:
    """Top RIGIDITY_TOP eigenvalues of each trial within 10 N^(-2/3 + 0.1) of their classical locations; the curve's mass."""
    n, trials = result.config.N, result.config.trials
    gamma = quantiles(curve, n)
    bound = 10.0 * n ** (-2.0 / 3.0 + 0.1)
    passes = 0
    worst = 0.0
    for eigs in result.eigenvalues:
        deviations = [abs(eigs[n - 1 - k] - gamma[n - 1 - k]) for k in range(RIGIDITY_TOP)]
        worst = max(worst, *deviations)
        if max(deviations) <= bound:
            passes += 1
    needed = _pass_count_needed(trials)
    report = _run_report("rigidity", spec, result, n_grid=n_grid)
    report.values = {"passes": passes, "trials": trials, "bound": bound, "worst_deviation": worst}
    report.thresholds = {"passes_needed": needed}
    report.pass_flags = {"rigidity": passes >= needed}
    _judge_mass(report, curve)
    return report


def run_suite_stability(spec, seed) -> ComparisonReport:
    classification = classify_polynomial(spec)
    if classification.kind == "WignerSquare":
        raise WignerSquareUnsupportedError("the stability suite excludes shifted Wigner squares")
    edges = compute_edges(spec, classification)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(77,)))
    max_residual = 0.0
    for _ in range(DE_RESIDUAL_POINTS):
        z = complex(
            rng.uniform(edges.tau_minus - 1.0, edges.tau_plus + 1.0),
            10.0 ** rng.uniform(-3.0, 0.5),
        )
        delta = float(rng.uniform(0.0, 1.0))
        max_residual = max(max_residual, solve_m_delta(z, delta, spec).de_residual)
    slopes = beta_slopes(spec, edges, classification)

    report = ComparisonReport(
        suite="stability",
        spec_hash=spec_digest(spec),
        seed=seed,
        config={"residual_points": DE_RESIDUAL_POINTS, "kappas": list(BETA_KAPPAS)},
    )
    report.values = {"max_de_residual": max_residual, "beta_slopes": slopes}
    report.thresholds = {
        "max_de_residual": DE_RESIDUAL_THRESHOLD,
        "beta_slope": list(STABILITY_SLOPE_RANGE),
    }
    report.pass_flags = {"de_residual": max_residual <= DE_RESIDUAL_THRESHOLD}
    for side, slope in slopes.items():
        report.pass_flags[f"beta_slope_{side}"] = (
            STABILITY_SLOPE_RANGE[0] <= slope <= STABILITY_SLOPE_RANGE[1]
        )
    return report


def _append_run_record(
    store_path: str, command: str, spec_hash: str | None, config: dict, summary: dict, started: float, **extra
):
    """Append one record to the run store; ``started`` is the command's perf_counter start."""
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": time.perf_counter() - started,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "quadspec": __version__,
        },
        "spec_hash": spec_hash,
        "command": command,
        "config": config,
        "summary": summary,
        **extra,
    }
    with open(store_path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad N list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty N list")
    if min(values) < 2:
        raise argparse.ArgumentTypeError(f"every N must be at least 2, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"N values must be distinct, got {text!r}")
    return values


def _check_out_prefix(prefix: str) -> None:
    """Reject an output prefix whose directory does not exist, before any compute."""
    directory = os.path.dirname(prefix) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadspec",
        description="Spectral analysis and Monte Carlo verification for quadratic polynomials of Wigner matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="print the reducibility classification as JSON")
    p_classify.add_argument("--spec", required=True, help="polynomial JSON file, or the JSON itself")

    p_analyze = sub.add_parser("analyze", help="edges JSON, density CSV and plot script")
    p_analyze.add_argument("--spec", required=True)
    p_analyze.add_argument("--out", required=True, help="output prefix")
    p_analyze.add_argument("--n-grid", type=partial(_int_at_least, MIN_N_GRID), default=512)

    p_verify = sub.add_parser("verify", help="run a verification suite and write its report")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--spec", help="polynomial JSON (not needed for the lemmas suite)")
    p_verify.add_argument("--out", default="quadspec", help="output prefix")
    p_verify.add_argument("--N", type=_parse_n_list, default=[1024], help="comma-separated dimensions")
    p_verify.add_argument("--trials", type=partial(_int_at_least, 1), default=20)
    p_verify.add_argument("--seed", type=partial(_int_at_least, 0), default=0)
    p_verify.add_argument("--threads", type=partial(_int_at_least, 1), default=1, help="cap on concurrent trials")
    p_verify.add_argument("--eta", type=_positive_float, default=None)
    p_verify.add_argument("--dist", choices=DISTRIBUTIONS, default=GAUSSIAN_COMPLEX)
    p_verify.add_argument("--n-grid", type=partial(_int_at_least, MIN_N_GRID), default=512)
    return parser


def cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    classification = classify_polynomial(spec)
    sys.stdout.write(json.dumps(classification.to_json_dict(), sort_keys=True, default=_json_default) + "\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    _check_out_prefix(args.out)
    spec = load_spec(args.spec)
    classification, edges, curve = _analysis(spec, args.n_grid)
    edges_payload = asdict(edges) | {"mass": curve.mass, "classification": classification.to_json_dict()}
    for side in ("left", "right"):
        edges_payload[f"fitted_exponent_{side}"] = fit_edge_exponent(curve, side)
    edges_path = f"{args.out}_edges.json"
    csv_path = f"{args.out}_density.csv"
    plot_path = f"{args.out}_plot.gp"
    with open(edges_path, "w") as fh:
        fh.write(json.dumps(edges_payload, sort_keys=True, indent=2, default=_json_default) + "\n")
    write_density_csv(curve, csv_path)
    with open(plot_path, "w") as fh:
        fh.write(
            "\n".join(
                [
                    "set datafile separator ','",
                    "set xlabel 'E'",
                    "set ylabel 'rho(E)'",
                    "set key off",
                    f"plot '{os.path.basename(csv_path)}' using 1:2 every ::1 with lines lw 2",
                    "",
                ]
            )
        )
    _append_run_record(
        f"{args.out}_runs.jsonl",
        command="analyze",
        spec_hash=spec_digest(spec),
        config={"n_grid": args.n_grid},
        summary={"tau_plus": edges.tau_plus, "tau_minus": edges.tau_minus, "mass": curve.mass},
        started=started,
    )
    sys.stdout.write(f"wrote {edges_path}, {csv_path}, {plot_path}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    _check_out_prefix(args.out)
    suite = args.suite
    if suite in ("density", "deloc", "rigidity") and len(args.N) > 1:
        raise ValueError(f"the {suite} suite takes a single --N, got {args.N}")
    if suite == "rigidity" and args.N[0] < RIGIDITY_TOP:
        raise ValueError(f"the rigidity suite judges the top {RIGIDITY_TOP} eigenvalues: --N must be at least that")
    spec = None
    if suite != "lemmas":
        if not args.spec:
            raise SpecError(f"the {suite} suite requires --spec")
        spec = load_spec(args.spec)

    if suite == "lemmas":
        report = run_suite_lemmas(args.seed)
    elif suite == "norm":
        report = run_suite_norm(spec, args.N, args.trials, args.seed, args.dist, args.threads)
    elif suite == "stability":
        report = run_suite_stability(spec, args.seed)
    else:
        cfg = EnsembleConfig(N=args.N[0], dist=args.dist, seed=args.seed, trials=args.trials)
        if suite == "deloc":
            result = simulate_run(spec, cfg, edge_target=compute_edges(spec).tau_plus, threads=args.threads)
            report = judge_deloc(spec, result, args.eta)
        else:
            _, _, curve = _analysis(spec, args.n_grid)
            result = simulate_run(spec, cfg, threads=args.threads)
            judge = judge_density if suite == "density" else judge_rigidity
            report = judge(spec, curve, result, args.n_grid)

    report_path = f"{args.out}_report.json"
    with open(report_path, "w") as fh:
        fh.write(report.to_json())
    for name, flag in sorted(report.pass_flags.items()):
        sys.stdout.write(f"{'PASS' if flag else 'FAIL'} {suite}/{name}\n")
    sys.stdout.write(f"report: {report_path}\n")
    _append_run_record(
        f"{args.out}_runs.jsonl",
        command=f"verify --suite {suite}",
        spec_hash=report.spec_hash,
        config=report.config | {"seed": args.seed},
        summary={"pass_flags": report.pass_flags},
        started=started,
        threads=args.threads,
        trial_workers=trial_workers(args.threads, args.trials) if suite in SIMULATION_SUITES else None,
    )
    return EXIT_OK if report.passed else EXIT_CRITERIA


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_verify(args)
    except InfrastructureError as exc:
        sys.stderr.write(f"infrastructure error: {exc}\n")
        return EXIT_INFRA
    except (SpecError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
