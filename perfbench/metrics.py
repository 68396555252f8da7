"""End-to-end and per-layer metrics, computed from operations and spans.

A traced run writes one JSON-lines trace file holding everything the
per-layer numbers are computed from: the reference-loop chunks and their
normalization factors, every operation, every span (parent process and
forked workers) and the counters read from the program. Rebuild the
numbers of a finished run with::

    python3 -m perfbench.metrics .bench_build/perfbench/<trace file>.jsonl

Times are normalized seconds per operation of the workload, counts are
per traced run, and ratios name their base in :data:`PER_LAYER`.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from perfbench.tracing import WORKER_SPAN

# Span names, one per traced boundary (see workloads.py for the targets).
DMGS = "linalg.dmgs"
CALL = "linalg.all_reduce_sum"
REDUCTION = "reduction.run_reduction"
VEC_RUN = "vectorized.run"
VEC_STEP = "vectorized.step"
KERNEL = "backends.kernel"
BATCHED_BUILD = "batched.build"
BATCHED_RUN = "batched.run"
BATCHED_STEP = "batched.step"
SUBMIT = "service.submit"
EXECUTE = "service.execute_group"
SWEEP = "campaigns.run_campaign"
SCHEDULE = "faults.build_topology_schedule"
PROBE = "campaigns.probe"
TOPOLOGY = "topology.build"
ARRAYS = "topology.arrays"
CHECK_SPAN = "bench.check"

#: name -> (unit, definition). The order is the order of BENCHMARK.json.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "linalg.dmgs_local_s": ("s", "dmgs minus its all_reduce_sum calls"),
    "linalg.service_self_s": ("s", "all_reduce_sum minus its run_reduction"),
    "reduction.calls": ("count", "run_reduction calls"),
    "reduction.rounds": ("count", "gossip rounds over all run_reduction calls"),
    "reduction.capped": ("count", "reductions that stopped short of epsilon"),
    "reduction.useful_round_frac": ("ratio", "sum(best_round+1) / sum(rounds)"),
    "reduction.oracle_s": ("s", "single-run engine run minus its steps (stop rule)"),
    "reduction.build_s": ("s", "run_reduction minus the engine run"),
    "vectorized.step_s": ("s", "single-run engine step"),
    "vectorized.draw_s": ("s", "single-run step minus kernel (draw, slot lookup)"),
    "backends.kernel_s": ("s", "fused round kernels"),
    "backends.kernel_share": ("ratio", "kernel time / operation latency"),
    "backends.ns_per_node_round": ("ns", "kernel time / messages handled"),
    "batched.rounds": ("count", "BatchedEngine steps"),
    "batched.active_frac": ("ratio", "run-rounds / (steps x runs)"),
    "batched.build_s": ("s", "BatchedEngine construction"),
    "batched.assemble_s": ("s", "batched step minus kernel"),
    "batched.stop_s": ("s", "batched run minus steps and probe hooks"),
    "service.submit_s": ("s", "ReductionDaemon.submit"),
    "service.execute_s": ("s", "execute_group, timed in the worker"),
    "service.wait_s": ("s", "wave latency minus execute_group"),
    "service.batch_jobs": ("jobs", "jobs per executed group"),
    "service.groups": ("count", "executed groups"),
    "service.retries": ("count", "daemon registry: retried attempts"),
    "service.rejected": ("count", "daemon registry: refused submissions"),
    "service.failed": ("count", "daemon registry: failed jobs"),
    "campaigns.cells": ("count", "campaign cells executed"),
    "campaigns.groups": ("count", "batched groups, one worker process each"),
    "campaigns.build_s": ("s", "fault/topology-schedule construction"),
    "campaigns.probe_s": ("s", "BatchedErrorHistory/BatchedMassProbe on_round_end"),
    "campaigns.runner_s": ("s", "sweep minus worker-process time"),
    "dynamics.deltas": ("count", "scheduled topology deltas"),
    "topology.build_s": ("s", "topology construction"),
    "topology.arrays_s": ("s", "TopologyArrays.from_topology"),
    "trace.overhead_reductions_per_s": ("ratio", "traced / untraced reductions_per_s"),
    "trace.overhead_latency_p50_s": ("ratio", "traced / untraced latency_p50_s"),
}


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; any infinite sample in reach wins."""
    xs = sorted(values)
    if not xs:
        return math.inf
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(chunks: Sequence[Dict[str, Any]], ops: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """reductions_per_s and latency percentiles from chunk and op rows.

    A failed operation counts as infinitely slow; only completed
    reductions count toward throughput.
    """
    factor = {c["index"]: c["factor"] for c in chunks}
    work = sum(c["work_s"] * c["factor"] for c in chunks)
    raw_work = sum(c["work_s"] for c in chunks)
    done = sum(o["reductions"] for o in ops if o["ok"])
    lat = [o["raw_s"] * factor[o["chunk"]] if o["ok"] else math.inf for o in ops]
    raw_lat = [o["raw_s"] if o["ok"] else math.inf for o in ops]
    return {
        "reductions_per_s": done / work if work > 0 else 0.0,
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "samples": len(ops),
        "raw_work_s": raw_work,
        "raw_reductions_per_s": done / raw_work if raw_work > 0 else 0.0,
        "raw_latency_p50_s": percentile(raw_lat, 50),
        "raw_latency_p90_s": percentile(raw_lat, 90),
    }


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
class _Spans:
    """Index over merged spans with normalized durations.

    The normalization factor is a step function of time: a chunk's
    factor holds from the chunk's start to the next chunk's start (the
    reference loop that closes the chunk included), the first chunk's
    also before it and the last chunk's after it. A span's normalized
    duration is the integral of that function over the span, so a parent
    minus the children it covers is the integral over the time they
    leave, however many chunks the parent crosses.
    """

    def __init__(self, spans: Iterable[Dict[str, Any]], chunks: Sequence[Dict[str, Any]]) -> None:
        self.all = list(spans)
        self._starts = [c["start"] for c in chunks]
        self._factors = [c["factor"] for c in chunks]
        self.by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
        self.by_key: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self.children: Dict[Tuple[int, int], List[Dict[str, Any]]] = defaultdict(list)
        for s in self.all:
            self.by_name[s["name"]].append(s)
            self.by_key[(s["pid"], s["id"])] = s
            if s["parent"] is not None:
                self.children[(s["pid"], s["parent"])].append(s)

    def dur(self, s: Dict[str, Any]) -> float:
        t, end = s["start"], s["end"]
        i = max(bisect.bisect_right(self._starts, t) - 1, 0)
        total = 0.0
        while i + 1 < len(self._starts) and self._starts[i + 1] < end:
            total += (self._starts[i + 1] - t) * self._factors[i]
            t = self._starts[i + 1]
            i += 1
        return total + (end - t) * self._factors[i]

    def total(self, name: str) -> float:
        return sum(self.dur(s) for s in self.by_name[name])

    def minus(self, name: str, *children: str) -> float:
        """Sum of ``name`` spans minus their direct children named
        ``children`` and any benchmark-side child span (reference loop,
        checks)."""
        total = 0.0
        for s in self.by_name[name]:
            total += self.dur(s)
            for c in self.children[(s["pid"], s["id"])]:
                if c["name"] in children or c["name"].startswith("bench."):
                    total -= self.dur(c)
        return total

    def outermost(self, name: str) -> float:
        """Sum of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for s in self.by_name[name]:
            parent = self.by_key.get((s["pid"], s["parent"]))
            while parent is not None and parent["name"] != name:
                parent = self.by_key.get((parent["pid"], parent["parent"]))
            if parent is None:
                total += self.dur(s)
        return total

    def attr_sum(self, name: str, key: str) -> float:
        return sum((s["attrs"] or {}).get(key, 0) for s in self.by_name[name])

    def count(self, name: str) -> int:
        return len(self.by_name[name])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from a loaded trace.

    A layer that does not run on the workload reports 0.
    """
    chunks, ops = trace["chunks"], trace["ops"]
    factor = {c["index"]: c["factor"] for c in chunks}
    sp = _Spans(trace["spans"], chunks)
    n_ops = max(len(ops), 1)
    op_time = sum(o["raw_s"] * factor[o["chunk"]] for o in ops)
    counters = trace["counters"]

    execute_by_op: Dict[int, float] = defaultdict(float)
    for s in sp.by_name[EXECUTE]:
        execute_by_op[s["op"]] += sp.dur(s)
    workers_by_op: Dict[int, float] = defaultdict(float)
    for s in sp.by_name[WORKER_SPAN]:
        workers_by_op[s["op"]] += sp.dur(s)
    sweeps_by_op: Dict[int, float] = defaultdict(float)
    for s in sp.by_name[SWEEP]:
        sweeps_by_op[s["op"]] += sp.dur(s)
    wait = 0.0
    if sp.count(EXECUTE):
        wait = sum(o["raw_s"] * factor[o["chunk"]] - execute_by_op[o["index"]] for o in ops)

    batched_steps = 0
    batched_slots = 0
    for s in sp.by_name[BATCHED_RUN]:
        steps = sum(1 for c in sp.children[(s["pid"], s["id"])] if c["name"] == BATCHED_STEP)
        batched_steps += steps
        batched_slots += steps * (s["attrs"] or {}).get("n_runs", 0)

    rounds = sp.attr_sum(REDUCTION, "rounds")
    kernel = sp.total(KERNEL)
    untraced = trace["meta"].get("untraced", {})
    traced = summarize(chunks, ops)

    values = {
        "linalg.dmgs_local_s": sp.minus(DMGS, CALL) / n_ops,
        "linalg.service_self_s": sp.minus(CALL, REDUCTION) / n_ops,
        "reduction.calls": sp.count(REDUCTION),
        "reduction.rounds": rounds,
        "reduction.capped": sp.attr_sum(REDUCTION, "capped"),
        "reduction.useful_round_frac": _ratio(sp.attr_sum(REDUCTION, "useful_rounds"), rounds),
        "reduction.oracle_s": sp.minus(VEC_RUN, VEC_STEP) / n_ops,
        "reduction.build_s": sp.minus(REDUCTION, VEC_RUN) / n_ops,
        "vectorized.step_s": sp.total(VEC_STEP) / n_ops,
        "vectorized.draw_s": sp.minus(VEC_STEP, KERNEL) / n_ops,
        "backends.kernel_s": kernel / n_ops,
        "backends.kernel_share": _ratio(kernel, op_time),
        "backends.ns_per_node_round": _ratio(kernel * 1e9, sp.attr_sum(KERNEL, "messages")),
        "batched.rounds": sp.count(BATCHED_STEP),
        "batched.active_frac": _ratio(sp.attr_sum(BATCHED_RUN, "run_rounds"), batched_slots),
        "batched.build_s": sp.total(BATCHED_BUILD) / n_ops,
        "batched.assemble_s": sp.minus(BATCHED_STEP, KERNEL) / n_ops,
        "batched.stop_s": sp.minus(BATCHED_RUN, BATCHED_STEP, PROBE) / n_ops,
        "service.submit_s": sp.total(SUBMIT) / n_ops,
        "service.execute_s": sp.total(EXECUTE) / n_ops,
        "service.wait_s": wait / n_ops,
        "service.batch_jobs": _ratio(sp.attr_sum(EXECUTE, "jobs"), sp.count(EXECUTE)),
        "service.groups": sp.count(EXECUTE),
        "service.retries": counters.get("service.retries", 0),
        "service.rejected": counters.get("service.rejected", 0),
        "service.failed": counters.get("service.failed", 0),
        "campaigns.cells": sp.attr_sum(SWEEP, "cells"),
        "campaigns.groups": sp.count(WORKER_SPAN) if sp.count(SWEEP) else 0,
        "campaigns.build_s": sp.outermost(SCHEDULE) / n_ops,
        "campaigns.probe_s": sp.total(PROBE) / n_ops,
        "campaigns.runner_s": sum(
            sweeps_by_op[k] - workers_by_op[k] for k in sweeps_by_op
        ) / n_ops,
        "dynamics.deltas": sp.attr_sum(SCHEDULE, "deltas"),
        "topology.build_s": sp.outermost(TOPOLOGY) / n_ops,
        "topology.arrays_s": sp.total(ARRAYS) / n_ops,
        "trace.overhead_reductions_per_s": _ratio(
            traced["reductions_per_s"], untraced.get("reductions_per_s", 0.0)
        ),
        "trace.overhead_latency_p50_s": _ratio(
            traced["latency_p50_s"], untraced.get("latency_p50_s", 0.0)
        ),
    }
    missing = set(PER_LAYER) ^ set(values)
    if missing:
        raise KeyError(f"per-layer metrics out of sync: {sorted(missing)}")
    return values


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------
def write_trace(path, meta, chunks, ops, spans, counters) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "meta", **meta}) + "\n")
        for row in chunks:
            fh.write(json.dumps({"kind": "chunk", **row}) + "\n")
        for row in ops:
            fh.write(json.dumps({"kind": "op", **row}) + "\n")
        for row in spans:
            fh.write(json.dumps({"kind": "span", **row}) + "\n")
        for name, value in sorted(counters.items()):
            fh.write(json.dumps({"kind": "counter", "name": name, "value": value}) + "\n")


def load_trace(path) -> Dict[str, Any]:
    trace: Dict[str, Any] = {"meta": {}, "chunks": [], "ops": [], "spans": [], "counters": {}}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            kind = row.pop("kind")
            if kind == "meta":
                trace["meta"] = row
            elif kind == "counter":
                trace["counters"][row["name"]] = row["value"]
            else:
                trace[kind + "s"].append(row)
    return trace


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 -m perfbench.metrics TRACE.jsonl", file=sys.stderr)
        return 2
    trace = load_trace(argv[0])
    for name, value in layer_metrics(trace).items():
        print(f"{name:36s} {value:.6g} {PER_LAYER[name][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
