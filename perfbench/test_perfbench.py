"""Self-tests of the benchmark: statistics, span arithmetic, corpus and exact counts.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
from corpus import FAMILIES, build_corpus  # noqa: E402
from quadspec import load_spec  # noqa: E402
from stats import percentile, samples_beyond, summarize  # noqa: E402
from tracing import EXACT_COUNTS, Span, Tracer, instrumented, layer_metrics, self_times  # noqa: E402
from workloads import CorpusWorkload, edge_probe, norm_sweep  # noqa: E402


def test_percentile_and_sample_counts():
    xs = list(range(1, 101))
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 100
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile([3.0], 90) == 3.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(7, 50) == 3
    s = summarize([4.0, 1.0, 3.0, 2.0])
    assert (s.n, s.median, s.q1, s.q3) == (4, 2.5, 1.75, 3.25)
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(id, parent, start, end, name="x"):
    return Span(id=id, parent=parent, name=name, run="r", thread=0, start=start, end=end)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),  # two children overlapping, as on two worker threads
        _span(3, 1, 2.0, 5.0),
        _span(4, 1, 8.0, 9.0),
        _span(5, 3, 2.5, 4.5),  # grandchild: covered by its parent, not by the root
        _span(6, 1, 9.5, 12.0),  # runs past the parent's end: only 0.5 s is covered
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert st[3] == pytest.approx(3.0 - 2.0)
    assert st[2] == pytest.approx(2.0)
    assert st[5] == pytest.approx(2.0)


def test_worker_thread_spans_keep_their_parent():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("pool") as pool:
            def work():
                with tracer.span("inner"):
                    pass

            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
    assert not worker.is_alive()
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert [s.parent for s in inner] == [pool.id]
    assert pool.parent == outer.id


def test_corpus_is_determined_by_the_seed():
    a, b, c = build_corpus(5), build_corpus(5), build_corpus(6)
    assert a == b
    assert [x.data for x in a] != [x.data for x in c]
    assert [x.name for x in a] == [x.name for x in c]
    assert len(a) == sum(f.count for f in FAMILIES)
    assert {x.family for x in a} == {f.name for f in FAMILIES}
    assert {x.data["l"] for x in a} == {1, 2, 3}
    for item in a:
        assert all(isinstance(v, float) for v in item.data["b"])
        load_spec(item.data)  # every drawn spec is valid input


def _traced_counts(workload):
    workload.setup()
    tracer = Tracer()
    with instrumented(tracer):
        workload.run_pass(0, tracer)
    metrics = layer_metrics(tracer.spans)
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, out: norm_sweep(seed, out, n_list=(32, 40, 48), trials=2),
        lambda seed, out: edge_probe(seed, out, n=48, trials=(1, 1, 1)),
        lambda seed, out: CorpusWorkload(seed, out, scale=0.1),
    ],
    ids=["norm_sweep", "edge_probe", "analytic_corpus"],
)
def test_exact_counts_repeat_between_traced_runs(make, tmp_path):
    first = _traced_counts(make(3, tmp_path / "a"))
    second = _traced_counts(make(3, tmp_path / "b"))
    assert first == second
    assert any(first.values())
