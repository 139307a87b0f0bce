"""In-memory spans around calls into quadspec's layers, and the per-layer metrics.

The program itself carries no timers.  For a traced pass the benchmark replaces
each probed public function by a wrapper that records a span, in every
quadspec module that looks the name up (``quadspec.density.solve_branch`` as
well as ``quadspec.scalar.solve_branch``), and restores the originals after
the pass.  Spans are kept in memory and written out when the benchmark ends.

A span opened on a thread with no open span of its own (a trial worker of the
simulation thread pool) takes as parent the innermost open span of the thread
that created the tracer, which is the ``sim.simulate_run`` span waiting on the
pool.  Self time is a span's duration minus the union of its children's
intervals, so overlapping children on two worker threads are not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run`` labels every span opened until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs):
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1].id
            else:
                owner_stack = self._stacks.get(self._owner)
                parent = owner_stack[-1].id if owner_stack else None
            span = Span(next(self._ids), parent, name, self.run, thread, time.perf_counter(), attrs=dict(attrs))
            stack.append(span)
            self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            with self._lock:
                stack.pop()

    def wrap(self, fn, name, record=None):
        """``fn`` inside a span; ``name`` may be a function of the call's arguments.

        ``record(span, result, args, kwargs)`` stores counts on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name) as span:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(span, result, args, kwargs)
                return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its direct children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.duration - covered_length(clipped)
    return out


# -- probes ---------------------------------------------------------------


def _record_sample(span, result, args, kwargs):
    n = int(result.shape[0])
    span.attrs.update(matrices=1, bytes=16 * n * n)  # complex128 entries, computed


def _record_assemble(span, result, args, kwargs):
    n, l = int(result.shape[0]), int(args[0].l)
    # l complex N x N products at 8 real flops per multiply-add, plus the
    # l^2 N^2 multiply-adds of mixing the matrices by A; computed, not counted.
    span.attrs.update(flops=8 * l * n**3 + 8 * l * l * n * n)


def _record_solve_branch(span, result, args, kwargs):
    m, residual, iterations = result
    span.attrs.update(
        points=int(m.size),
        newton_iters=int(iterations),
        resid_max=float(residual.max()),
    )


def _record_density(span, result, args, kwargs):
    span.attrs.update(grid_points=int(len(result.energies)))


def _record_m_delta(span, result, args, kwargs):
    if math.isfinite(result.de_residual):
        span.attrs.update(de_residual=float(result.de_residual))


def _spectrum_name(args, kwargs):
    vectors = kwargs.get("vectors", args[1] if len(args) > 1 else False)
    return "sim.spectrum_vectors" if vectors else "sim.spectrum"


# (defining module, function, span name, recorder)
PROBES = (
    ("quadspec.model", "classify_polynomial", "model.classify", None),
    ("quadspec.scalar", "solve_branch", "scalar.solve_branch", _record_solve_branch),
    ("quadspec.edges", "compute_edges", "edges.compute_edges", None),
    ("quadspec.density", "compute_density", "density.compute_density", _record_density),
    ("quadspec.density", "quantiles", "density.quantiles", None),
    ("quadspec.mde", "solve_m_delta", "mde.solve_m_delta", _record_m_delta),
    ("quadspec.mde", "stability_spectrum", "mde.stability_spectrum", None),
    ("quadspec.sim", "simulate_run", "sim.simulate_run", None),
    ("quadspec.sim", "sample_wigner", "sim.sample_wigner", _record_sample),
    ("quadspec.sim", "assemble_polynomial", "sim.assemble_polynomial", _record_assemble),
    ("quadspec.sim", "spectrum", _spectrum_name, None),
    ("quadspec.sim", "resolvent_trace", "sim.resolvent_trace", None),
    ("quadspec.cli", "compare_ks", "cli.compare_ks", None),
)

#: Span the benchmark opens around each ``quadspec.cli.main`` call.
SUITE_SPAN = "cli.main"


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every probed function wherever a quadspec module looks it up; undo on exit."""
    patched = []
    modules = [m for name, m in list(sys.modules.items()) if name == "quadspec" or name.startswith("quadspec.")]
    try:
        for home, attr, name, record in PROBES:
            original = getattr(sys.modules[home], attr)
            wrapper = tracer.wrap(original, name, record)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# -- per-layer metrics ----------------------------------------------------

# name, unit, how it is computed from the spans of one pass.  "total" sums
# span durations (busy time, so two worker threads can exceed the wall
# clock), "self" sums self times, "count" counts spans, "sum"/"max" fold a
# recorded attribute.  Counts marked computed in the README come from sizes.
LAYER_METRICS = (
    ("sim.sample_wigner_s", "s", "total", "sim.sample_wigner", None),
    ("sim.assemble_polynomial_s", "s", "total", "sim.assemble_polynomial", None),
    ("sim.spectrum_s", "s", "total", "sim.spectrum", None),
    ("sim.spectrum_vectors_s", "s", "total", "sim.spectrum_vectors", None),
    ("sim.resolvent_trace_s", "s", "total", "sim.resolvent_trace", None),
    ("sim.simulate_run_self_s", "s", "self", "sim.simulate_run", None),
    ("sim.matrices_sampled", "count", "sum", "sim.sample_wigner", "matrices"),
    ("sim.bytes_sampled", "bytes", "sum", "sim.sample_wigner", "bytes"),
    ("sim.assemble_flops", "flop", "sum", "sim.assemble_polynomial", "flops"),
    ("scalar.solve_branch_s", "s", "total", "scalar.solve_branch", None),
    ("scalar.solve_branch_calls", "count", "count", "scalar.solve_branch", None),
    ("scalar.points", "count", "sum", "scalar.solve_branch", "points"),
    ("scalar.newton_iters", "count", "sum", "scalar.solve_branch", "newton_iters"),
    ("scalar.resid_max", "1", "max", "scalar.solve_branch", "resid_max"),
    ("edges.compute_edges_s", "s", "total", "edges.compute_edges", None),
    ("edges.calls", "count", "count", "edges.compute_edges", None),
    ("density.compute_density_s", "s", "total", "density.compute_density", None),
    ("density.grid_points", "count", "sum", "density.compute_density", "grid_points"),
    ("density.quantiles_s", "s", "total", "density.quantiles", None),
    ("mde.solve_m_delta_s", "s", "total", "mde.solve_m_delta", None),
    ("mde.stability_spectrum_s", "s", "total", "mde.stability_spectrum", None),
    ("mde.calls", "count", "count", ("mde.solve_m_delta", "mde.stability_spectrum"), None),
    ("mde.de_residual_max", "1", "max", "mde.solve_m_delta", "de_residual"),
    ("model.classify_s", "s", "total", "model.classify", None),
    ("cli.compare_ks_s", "s", "total", "cli.compare_ks", None),
    ("cli.suite_self_s", "s", "self", SUITE_SPAN, None),
)

#: Counts that must repeat exactly between traced runs of the same seed.
EXACT_COUNTS = (
    "sim.matrices_sampled",
    "sim.bytes_sampled",
    "sim.assemble_flops",
    "scalar.points",
    "scalar.newton_iters",
    "density.grid_points",
)


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = list(spans)
    selfs = self_times(spans)
    out = {}
    for metric, unit, how, names, attr in LAYER_METRICS:
        names = (names,) if isinstance(names, str) else names
        chosen = [s for s in spans if s.name in names]
        if how == "total":
            value = sum(s.duration for s in chosen)
        elif how == "self":
            value = sum(selfs[s.id] for s in chosen)
        elif how == "count":
            value = len(chosen)
        elif how == "sum":
            value = sum(s.attrs.get(attr, 0) for s in chosen)
        else:
            value = max((s.attrs[attr] for s in chosen if attr in s.attrs), default=0.0)
        out[metric] = (value, unit)
    return out
