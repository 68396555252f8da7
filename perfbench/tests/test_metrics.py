"""Span arithmetic, percentiles and normalization behind the metrics."""

import json
import math
import multiprocessing
import pathlib

import pytest

from perfbench import metrics as m
from perfbench.tracing import WORKER_SPAN, Boundary, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _span(sid, parent, name, start, end, op=0, pid=1, attrs=None):
    return {"pid": pid, "id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "op": op, "attrs": attrs}


def _trace(spans, ops=None, chunks=None):
    return {
        "meta": {"untraced": {"reductions_per_s": 1.0, "latency_p50_s": 1.0}},
        "chunks": chunks or [{"index": 0, "start": 0.0, "factor": 1.0, "work_s": 10.0}],
        "ops": ops or [{"index": 0, "chunk": 0, "raw_s": 10.0, "reductions": 1, "ok": True}],
        "spans": spans,
        "counters": {},
    }


def test_self_time_subtracts_named_children_and_benchmark_spans():
    spans = [
        _span(1, None, m.VEC_RUN, 0.0, 10.0),
        _span(2, 1, m.VEC_STEP, 1.0, 4.0),
        _span(3, 2, m.KERNEL, 1.5, 3.5, attrs={"messages": 100}),
        _span(4, 1, m.VEC_STEP, 5.0, 7.0),
        _span(5, 1, "bench.reference", 8.0, 9.0),
    ]
    values = m.layer_metrics(_trace(spans))
    assert values["reduction.oracle_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert values["vectorized.step_s"] == pytest.approx(5.0)
    assert values["vectorized.draw_s"] == pytest.approx(5.0 - 2.0)
    assert values["backends.kernel_share"] == pytest.approx(0.2)
    assert values["backends.ns_per_node_round"] == pytest.approx(2e9 / 100)
    assert values["batched.rounds"] == 0


def test_nested_topology_builds_count_once_and_spans_are_normalized():
    spans = [
        _span(1, None, m.TOPOLOGY, 0.0, 4.0),
        _span(2, 1, m.TOPOLOGY, 1.0, 3.0),
    ]
    chunks = [{"index": 0, "start": 0.0, "factor": 0.5, "work_s": 10.0}]
    ops = [{"index": 0, "chunk": 0, "raw_s": 10.0, "reductions": 1, "ok": True}]
    assert m.layer_metrics(_trace(spans, ops, chunks))["topology.build_s"] == pytest.approx(2.0)


def test_a_span_across_chunks_is_normalized_piecewise():
    # dmgs crosses a reference loop: calls in chunk 0 (factor 1) and chunk 1 (factor 2).
    spans = [
        _span(1, None, m.DMGS, 0.0, 10.0),
        _span(2, 1, m.CALL, 1.0, 4.0),
        _span(3, 1, "bench.reference", 4.0, 5.0),
        _span(4, 1, m.CALL, 6.0, 9.0, op=1),
    ]
    chunks = [
        {"index": 0, "start": 0.0, "factor": 1.0, "work_s": 4.0},
        {"index": 1, "start": 5.0, "factor": 2.0, "work_s": 5.0},
    ]
    ops = [
        {"index": 0, "chunk": 0, "raw_s": 3.0, "reductions": 1, "ok": True},
        {"index": 1, "chunk": 1, "raw_s": 3.0, "reductions": 1, "ok": True},
    ]
    values = m.layer_metrics(_trace(spans, ops, chunks))
    # Uncovered: [0, 1) at factor 1, [5, 6) and [9, 10) at factor 2.
    assert values["linalg.dmgs_local_s"] == pytest.approx((1.0 + 2.0 + 2.0) / 2)


def test_worker_time_is_charged_to_its_operation():
    spans = [
        _span(1, None, m.SWEEP, 0.0, 3.0, op=0, attrs={"cells": 24}),
        _span(7, None, WORKER_SPAN, 0.5, 2.5, op=0, pid=2),
        _span(1, None, m.SWEEP, 3.0, 5.0, op=1, attrs={"cells": 24}),
        _span(8, None, WORKER_SPAN, 3.5, 4.5, op=1, pid=3),
    ]
    ops = [
        {"index": 0, "chunk": 0, "raw_s": 3.0, "reductions": 24, "ok": True},
        {"index": 1, "chunk": 0, "raw_s": 2.0, "reductions": 24, "ok": True},
    ]
    values = m.layer_metrics(_trace(spans, ops))
    assert values["campaigns.runner_s"] == pytest.approx(((3 - 2) + (2 - 1)) / 2)
    assert values["campaigns.cells"] == 48
    assert values["campaigns.groups"] == 2


def test_percentile_counts_failures_as_infinitely_slow():
    assert m.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert m.percentile([float(i) for i in range(11)], 90) == pytest.approx(9.0)
    assert math.isinf(m.percentile([1.0, 2.0, math.inf], 90))
    assert m.percentile([1.0, 2.0, 3.0, math.inf], 50) == 2.5


def test_summarize_normalizes_by_chunk_and_skips_failed_reductions():
    chunks = [{"index": 0, "factor": 0.5, "work_s": 4.0}, {"index": 1, "factor": 2.0, "work_s": 1.0}]
    ops = [
        {"index": 0, "chunk": 0, "raw_s": 2.0, "reductions": 3, "ok": True},
        {"index": 1, "chunk": 1, "raw_s": 0.5, "reductions": 3, "ok": True},
        {"index": 2, "chunk": 1, "raw_s": 0.5, "reductions": 0, "ok": False},
    ]
    out = m.summarize(chunks, ops)
    assert out["reductions_per_s"] == pytest.approx(6 / (2.0 + 2.0))
    assert out["raw_reductions_per_s"] == pytest.approx(6 / 5.0)
    assert out["latency_p50_s"] == pytest.approx(1.0)
    assert math.isinf(out["latency_p90_s"])


def traced_target(x):
    return x + 1


def _worker(q):
    q.put(traced_target(1))


def test_tracer_records_parents_and_merges_forked_worker_spans(tmp_path):
    tracer = Tracer(tmp_path / "spans")
    target = "perfbench.tests.test_metrics:traced_target"
    tracer.install([Boundary("test.outer", "perfbench.tests.test_metrics:_worker"),
                    Boundary("test.inner", target, lambda a, k, r: {"value": r})])
    try:
        assert traced_target(1) == 2
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_worker, args=(q,))
        proc.start()
        assert q.get(timeout=30) == 2
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        tracer.uninstall()
    assert traced_target.__name__ == "traced_target" and not hasattr(traced_target, "__wrapped__")
    spans = tracer.collect()
    parent_spans = [s for s in spans if s["pid"] == tracer.pid]
    worker_spans = [s for s in spans if s["pid"] != tracer.pid]
    assert [s["name"] for s in parent_spans] == ["test.inner"]
    assert parent_spans[0]["attrs"] == {"value": 2}
    names = {s["name"]: s for s in worker_spans}
    assert set(names) == {"test.inner", "test.outer", WORKER_SPAN}
    assert names["test.inner"]["parent"] == names["test.outer"]["id"]
    assert names["test.outer"]["parent"] == names[WORKER_SPAN]["id"]


def test_registry_and_metric_tables_match_benchmark_json():
    from perfbench.bench import E2E_UNITS
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == E2E_UNITS
    assert {p["name"]: p["unit"] for p in spec["per_layer"]} == {
        k: unit for k, (unit, _) in m.PER_LAYER.items()
    }
