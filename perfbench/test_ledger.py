"""Tests of the ledger's span arithmetic and of the per-op output check.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random

import pytest

import ledger


def span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("op", 0, 100, -1),
        span("a", 10, 40, 0),
        span("b", 20, 30, 1),
        span("c", 50, 90, 0),
    ]
    out = ledger.summarize(spans)
    assert out["op"] == {"self": 30, "inclusive": 100, "count": 1}
    assert out["a"] == {"self": 20, "inclusive": 30, "count": 1}
    assert out["b"] == {"self": 10, "inclusive": 10, "count": 1}
    assert out["c"] == {"self": 40, "inclusive": 40, "count": 1}
    assert sum(entry["self"] for entry in out.values()) == 100


def test_reentrant_span_counted_once_inclusive():
    # x -> y -> x -> z: the inner x must not add to x's inclusive time,
    # but its self time still counts once.
    spans = [
        span("x", 0, 100, -1),
        span("y", 10, 80, 0),
        span("x", 20, 60, 1),
        span("z", 30, 40, 2),
    ]
    out = ledger.summarize(spans)
    assert out["x"] == {"self": 30 + 30, "inclusive": 100, "count": 2}
    assert out["y"] == {"self": 30, "inclusive": 70, "count": 1}
    assert out["z"] == {"self": 10, "inclusive": 10, "count": 1}
    assert sum(entry["self"] for entry in out.values()) == 100


def test_tracer_nests_in_call_order():
    ticks = iter(range(0, 1000, 10))
    tracer = ledger.Tracer(clock=lambda: next(ticks))
    root = tracer.open("op")  # 0
    first = tracer.open("a")  # 10
    tracer.close(first)  # 20
    second = tracer.open("a")  # 30
    inner = tracer.open("b")  # 40
    tracer.close(inner)  # 50
    tracer.close(second)  # 60
    tracer.close(root)  # 70
    spans = tracer.drain()
    assert [s[3] for s in spans] == [-1, 0, 0, 2]
    assert tracer.drain() == []
    out = ledger.summarize(spans)
    assert out["op"]["self"] == 70 - 10 - 30
    assert out["a"] == {"self": 10 + 20, "inclusive": 40, "count": 2}


def test_tracer_rejects_unbalanced_use():
    tracer = ledger.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    with pytest.raises(RuntimeError):
        tracer.drain()


def test_traced_wrapper_names_and_skips():
    tracer = ledger.Tracer()

    class Entry:
        name = "cse"

    def lower():
        return expand()

    expand = ledger.traced(tracer, lambda: "expanded", "engine.table.expand")
    lower = ledger.traced(tracer, lower, "engine.table.lower")
    run = ledger.traced(tracer, lambda entry: entry.name,
                        lambda entry: "compiler.passes." + entry.name)

    assert lower() == "expanded"  # eager expansion stays in lowering
    assert expand() == "expanded"  # a JIT expansion gets its own span
    assert run(Entry()) == "cse"
    names = [s[0] for s in tracer.drain()]
    assert names == ["engine.table.lower", "engine.table.expand",
                     "compiler.passes.cse"]


def test_span_closes_when_the_layer_raises():
    tracer = ledger.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        ledger.traced(tracer, fail, "layer")()
    (name, start, end, parent), = tracer.drain()
    assert name == "layer" and end >= start and parent == -1


def test_merge_adds_summaries():
    total = {}
    ledger.merge(total, {"a": {"self": 1, "inclusive": 2, "count": 1}})
    ledger.merge(total, {"a": {"self": 3, "inclusive": 4, "count": 2},
                         "b": {"self": 5, "inclusive": 5, "count": 1}})
    assert total == {"a": {"self": 4, "inclusive": 6, "count": 3},
                     "b": {"self": 5, "inclusive": 5, "count": 1}}


def _sample(pmf, n, seed):
    rng = random.Random(seed)
    values = rng.choices(list(pmf), weights=list(pmf.values()), k=n)
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    mean = sum(float(v) for v in values) / n
    return counts, {"samples": n, "mean": mean, "mean_bits": 3.0}


def test_check_accepts_the_right_distribution_and_rejects_a_wrong_one():
    check = pytest.importorskip("check")
    die = {side: 1 / 6 for side in range(1, 7)}
    counts, row = _sample(die, 20000, 1)
    assert check.check_op(counts, 60000, 20000, die, row) is None
    loaded = {**die, 6: 0.2, 1: 1 / 6 - 0.2 + 1 / 6}
    counts, row = _sample(loaded, 20000, 1)
    assert "outside the CP interval" in check.check_op(
        counts, 60000, 20000, die, row)
    counts, row = _sample(die, 20000, 1)
    assert "row mean" in check.check_op(
        counts, 60000, 20000, die, dict(row, mean=row["mean"] + 0.5))
    assert "outside the support" in check.check_op(
        {**counts, 7: 1}, 60000, 20001, die, dict(row, samples=20001))


def test_bins_group_large_supports_by_mass():
    check = pytest.importorskip("check")
    groups = check.bins({side: 1 / 300 for side in range(1, 301)})
    assert len(groups) == check.MAX_BINS
    assert sum(len(keys) for keys, _ in groups) == 300
    assert abs(sum(mass for _, mass in groups) - 1.0) < 1e-12


def test_host_speed_factors_use_the_median_of_nearby_chunks():
    hostspeed = pytest.importorskip("hostspeed")
    ref = hostspeed.REFERENCE_S
    # The host runs at reference speed, then twice as slow; one chunk
    # in the middle of each half is an outlier the median ignores.
    chunks = [ref] * 4 + [9 * ref] + [ref] * 4 + [2 * ref] * 11
    chunks[15] = ref / 10
    scale = hostspeed.factors(chunks, half_window=2)
    assert scale[:8] == [1.0] * 8
    assert scale[-6:] == [0.5] * 6
    assert hostspeed.factors([ref, 2 * ref], half_window=0) == [1.0, 0.5]


def test_cold_sweep_stream_is_finite_and_never_repeats_a_program():
    workloads = pytest.importorskip("workloads")
    rounds = list(workloads.make("cold-sweep", 7).rounds)
    programs = [op.program for ops in rounds for op in ops]
    assert len(rounds) == len(workloads.COLD_MENUS["laplace"])
    assert len(set(programs)) == len(programs)
    first = [op.program for op in next(workloads.make("cold-sweep", 7).rounds)]
    assert first == [op.program for op in rounds[0]]
