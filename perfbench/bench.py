"""Run one workload: set up, measure, check, trace, and print the result.

``--trace 0`` reports the end-to-end metrics: a timed closed loop of
``--seconds`` seconds (always whole cycles, at least the workload's
``min_cycles``), normalized against the reference loop, then the set-up
time as the median of :data:`SETUP_PROBES` fresh processes. ``--trace 1``
runs the same untraced loop, then a fixed number of traced cycles, and
reports the per-layer metrics plus the tracing overhead (traced over
untraced ``reductions_per_s`` and ``latency_p50_s``). Every run prints a
run record (environment, reference durations, raw seconds) before the
last line, which is the JSON result.
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing.resource_tracker
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from perfbench import gates
from perfbench.metrics import (
    CHECK_SPAN,
    PER_LAYER,
    layer_metrics,
    load_trace,
    summarize,
    write_trace,
)
from perfbench.reference import R_NOMINAL_S, Clock, reference_loop
from perfbench.tracing import REFERENCE_SPAN, Tracer
from perfbench.workloads import WORKLOADS

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "reductions_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


class Phase:
    """The operations of one measured phase and the clock they ran under."""

    def __init__(self, clock: Clock, tracer: Optional[Tracer] = None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.ops: List[Dict[str, Any]] = []

    def begin(self) -> float:
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        return time.perf_counter()

    def end(self, t0: float, *, ok: bool, reductions: int = 1, raw_s=None) -> None:
        self.ops.append(
            {
                "index": len(self.ops),
                "chunk": self.clock.current,
                "raw_s": time.perf_counter() - t0 if raw_s is None else raw_s,
                "reductions": reductions,
                "ok": bool(ok),
            }
        )

    @contextlib.contextmanager
    def check(self) -> Iterator[None]:
        """Benchmark-side checking: excluded from the work time."""
        with self.clock.excluded():
            t0 = time.perf_counter()
            yield
            if self.tracer is not None:
                self.tracer.add_span(CHECK_SPAN, t0, time.perf_counter())

    def chunk_rows(self) -> List[Dict[str, float]]:
        return [
            {
                "index": i,
                "start": c.start,
                "factor": c.factor,
                "work_s": c.work_s,
                "ref_before": c.ref_before,
                "ref_after": c.ref_after,
            }
            for i, c in enumerate(self.clock.chunks)
        ]


def run_phase(client, phase: Phase, *, seconds: float = 0.0, cycles: Optional[int] = None) -> int:
    """Closed loop over whole cycles; returns the number of cycles run."""
    phase.clock.start()
    phase.clock.between_operations()
    t_start = time.perf_counter()
    done = 0
    while True:
        if cycles is not None:
            if done >= cycles:
                break
        elif done >= client.min_cycles and time.perf_counter() - t_start >= seconds:
            break
        client.cycle(phase, done)
        done += 1
        phase.clock.between_operations()
    phase.clock.stop()
    return done


def setup_probes(script: pathlib.Path, workload: str, seed: int) -> Dict[str, List[float]]:
    """Time SETUP_PROBES fresh processes from start to 'ready'."""
    raw: List[float] = []
    normalized: List[float] = []
    refs = [reference_loop()]
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        refs.append(reference_loop())
        raw.append(t1 - t0)
        normalized.append((t1 - t0) * R_NOMINAL_S / (0.5 * (refs[-2] + refs[-1])))
    return {"raw_s": raw, "normalized_s": normalized, "references_s": refs}


def environment(affinity: List[int], cpu: int) -> Dict[str, Any]:
    from repro.campaigns import runner
    from repro.vectorized.backends import NUMBA_AVAILABLE, resolve_backend

    mp_context = getattr(runner, "_mp_context", None)  # the program's worker start method

    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend(None).name,
        "start_method": mp_context(None).get_start_method() if mp_context else "unknown",
        "numba": bool(NUMBA_AVAILABLE),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def stop_resource_tracker() -> None:
    """Wait for the process the program's shared-memory transport started.

    Daemon and campaign workers return results through shared memory,
    which starts multiprocessing's resource tracker in this process.
    """
    tracker = getattr(multiprocessing.resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _number(value: float) -> float:
    """Failed operations make a latency infinite; JSON needs a number."""
    return value if math.isfinite(value) else sys.float_info.max


def peak_rss_kb() -> int:
    """Largest peak RSS of any one process of the run so far.

    That is this process or one of the daemon or campaign workers it
    forked and waited for. A forked worker's RSS already holds the pages
    it shares with this process, so the two are not added.
    """
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(args, root: pathlib.Path, affinity: List[int], cpu: int, t_process: float) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    client = workload.factory(args.seed, out / f"work-{os.getpid()}")
    record: Dict[str, Any] = {
        "workload": workload.name,
        "operation": workload.operation,
        "seed": args.seed,
        "trace": args.trace,
    }
    try:
        client.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        record["setup_main_raw_s"] = time.perf_counter() - t_process
        phase = Phase(Clock())
        record["cycles"] = run_phase(client, phase, seconds=args.seconds)
        e2e = summarize(phase.chunk_rows(), phase.ops)
        peak_kb = peak_rss_kb()
        record["references_s"] = phase.clock.references
        record["chunks"] = [[c.work_s, c.ref_before, c.ref_after] for c in phase.clock.chunks]
        record["ops"] = [[o["chunk"], o["raw_s"], o["reductions"], o["ok"]] for o in phase.ops]
        layer: Dict[str, float] = {}
        if args.trace:
            layer, record["traced"] = traced_run(workload, client, out, args.seed, e2e)
        client.finish()
        record.update(client.record())
    finally:
        client.close()
        stop_resource_tracker()
    record["environment"] = environment(affinity, cpu)
    record["end_to_end"] = e2e

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        probes = setup_probes(root / "perfbench" / "run.py", workload.name, args.seed)
        record["setup_probes"] = probes
        values = {
            "setup_s": statistics.median(probes["normalized_s"]),
            "reductions_per_s": e2e["reductions_per_s"],
            "latency_p50_s": e2e["latency_p50_s"],
            "latency_p90_s": e2e["latency_p90_s"],
            "peak_rss_mb": peak_kb / 1024.0,
            "accuracy_digits": gates.digits(client.accuracy_error),
        }
        metrics = {k: {"value": _number(v), "unit": E2E_UNITS[k]} for k, v in values.items()}
    record.update(attempted=client.attempted, failed=client.failed, problems=client.problems)
    print(json.dumps({"run_record": record}, default=float))
    correct = not client.problems and client.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": client.attempted,
                "failed": client.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def traced_run(workload, client, out: pathlib.Path, seed: int, untraced: Dict[str, float]):
    """A fixed number of traced cycles; returns (per-layer metrics, record)."""
    spans_dir = out / f"spans-{os.getpid()}"
    tracer = Tracer(spans_dir)
    phase = Phase(Clock(on_reference=lambda t0, t1: tracer.add_span(REFERENCE_SPAN, t0, t1)), tracer)
    before = client.counters()
    tracer.install(workload.boundaries)
    try:
        cycles = run_phase(client, phase, cycles=client.trace_cycles)
    finally:
        tracer.uninstall()
    for name, value in client.counters().items():
        tracer.count(name, value - before.get(name, 0))
    spans = tracer.collect()
    shutil.rmtree(spans_dir, ignore_errors=True)
    path = out / f"trace-{workload.name}-seed{seed}.jsonl"
    meta = {
        "workload": workload.name,
        "seed": seed,
        "cycles": cycles,
        "untraced": {k: untraced[k] for k in ("reductions_per_s", "latency_p50_s")},
    }
    write_trace(path, meta, phase.chunk_rows(), phase.ops, spans, tracer.counters)
    layer = layer_metrics(load_trace(path))
    traced = summarize(phase.chunk_rows(), phase.ops)
    return layer, {
        "trace_file": str(path.relative_to(out.parent.parent)),
        "cycles": cycles,
        "spans": len(spans),
        "end_to_end": traced,
        "references_s": phase.clock.references,
    }
