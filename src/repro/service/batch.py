"""Group execution: many reduction jobs as one whole-array program.

The daemon's central move is multiplexing: R compatible jobs (same
algorithm, node count and value dimension) stack onto one
:class:`~repro.vectorized.batched.BatchedEngine` — run ``r``'s node
``i`` becomes global node ``r*n + i`` — and execute as a single NumPy
program. Correctness is inherited from the batched engine's parity
guarantee (disjoint-union graph + run-major message assembly keep every
run's state bit-for-bit identical to running it alone); what this module
adds is the single-run stop rule of :func:`repro.reduction._run_vector`,
applied to R runs at once:

- per-run accuracy oracle ``max|est - truth| / error_scale`` with the
  same max-then-divide order, a NaN maximum reading as inf;
- the one stop rule, whose only state is each run's best error and best
  round (:class:`_BestTrackers`, the R-run form of
  ``repro.reduction._BestTracker``): a run stops once converged, or
  stalled ``max(window, 1)`` rounds past its best; the frozen state is
  re-observed at ``rounds - 1``;
- per-run round caps via :attr:`BatchedRun.max_rounds`, so jobs with
  different budgets share a batch without over-running the short ones.

Because every floating-point operation happens in the same order on the
same values, a job's estimates out of a batch of 64 equal — bitwise —
the estimates of a serial :class:`ReductionService` call with the same
master seed. The demo and the daemon tests assert this with
``np.array_equal``, not ``allclose``.

Jobs that cannot take the vector path (non-vector-capable algorithm, or
``backend="object"``) execute one at a time through
:func:`repro.reduction.run_reduction` with exactly the arguments the
serial service would pass — identical by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.aggregates import initial_mass_pairs, true_aggregate
from repro.linalg.reduction_service import (
    finalize_sum_estimates,
    plan_sum_reduction,
)
from repro.reduction import default_round_cap, run_reduction
from repro.service.jobs import ExecRequest, ExecResult
from repro.vectorized.batched import BatchedEngine, BatchedRun


def execute_group(
    requests: Sequence[ExecRequest],
    *,
    kernel_backend: Optional[str] = None,
) -> List[ExecResult]:
    """Execute a group of jobs, batching the vector-capable ones.

    The group is partitioned by ``(algorithm, n, d)`` × engine path; each
    vector partition runs as one batched program, object-path jobs run
    individually. Results come back in submission order.
    """
    vector_parts: Dict[tuple, List[ExecRequest]] = {}
    results: Dict[str, ExecResult] = {}
    object_reqs: List[ExecRequest] = []
    for req in requests:
        if _uses_vector(req):
            n, d = req.data.shape
            vector_parts.setdefault((req.algorithm, n, d), []).append(req)
        else:
            object_reqs.append(req)
    for part in vector_parts.values():
        for res in _execute_vector_batch(part, kernel_backend=kernel_backend):
            results[res.job_id] = res
    for req in object_reqs:
        results[req.job_id] = _execute_object(req)
    return [results[req.job_id] for req in requests]


def _uses_vector(req: ExecRequest) -> bool:
    from repro.reduction import is_vector_capable

    if req.backend == "vector":
        return True
    return req.backend == "auto" and is_vector_capable(req.algorithm)


def _execute_object(req: ExecRequest) -> ExecResult:
    """One job through ``run_reduction`` — the serial service's code path."""
    payload, kind, error_scale = plan_sum_reduction(req.data, req.aggregate)
    n = req.topology.n
    cap = (
        req.max_rounds
        if req.max_rounds is not None
        else default_round_cap(n, req.epsilon)
    )
    result = run_reduction(
        req.topology,
        payload,
        kind=kind,
        algorithm=req.algorithm,
        epsilon=req.epsilon,
        max_rounds=cap,
        schedule_seed=req.schedule_seed,
        backend=req.backend,
        stall_rounds=req.stall_rounds,
        error_scale=error_scale,
    )
    estimates = finalize_sum_estimates(
        result.estimates,
        n=n,
        aggregate=req.aggregate,
        scalar_input=req.scalar_input,
    )
    return ExecResult(
        job_id=req.job_id,
        estimates=estimates,
        rounds=result.rounds,
        messages_sent=result.messages_sent,
        messages_delivered=result.messages_delivered,
        converged=result.converged,
        max_error=result.max_error,
        best_error=result.best_error,
        best_round=result.best_round,
        engine="object",
        batched_with=1,
    )


def _execute_vector_batch(
    requests: Sequence[ExecRequest],
    *,
    kernel_backend: Optional[str] = None,
) -> List[ExecResult]:
    """R jobs of one ``(algorithm, n, d)`` signature as one program."""
    n_runs = len(requests)
    n = requests[0].topology.n
    runs: List[BatchedRun] = []
    truth_rows: List[np.ndarray] = []
    scales = np.empty(n_runs)
    epsilons = np.empty(n_runs)
    caps = np.empty(n_runs, dtype=np.int64)
    scalar_inputs: List[bool] = []
    aggregates: List[str] = []
    for i, req in enumerate(requests):
        payload, kind, error_scale = plan_sum_reduction(
            req.data, req.aggregate
        )
        truth = true_aggregate(kind, list(payload))
        initial = initial_mass_pairs(kind, list(payload), root=0)
        # Exactly _run_vector's state construction, one run at a time.
        values = np.stack(
            [np.atleast_1d(np.asarray(p.value)) for p in initial]
        )
        weights = np.array([p.weight for p in initial])
        truth_rows.append(
            np.atleast_1d(np.asarray(truth, dtype=np.float64))
        )
        scale = float(error_scale)
        scales[i] = scale if scale > 0.0 else 1.0
        epsilons[i] = req.epsilon
        caps[i] = (
            req.max_rounds
            if req.max_rounds is not None
            else default_round_cap(n, req.epsilon)
        )
        scalar_inputs.append(req.scalar_input)
        aggregates.append(req.aggregate)
        runs.append(
            BatchedRun(
                topology=req.topology,
                values=values,
                weights=weights,
                # default_rng(int seed): the same stream a single
                # VectorizedEngine(topology, ..., seed=seed) would draw.
                rng=int(req.schedule_seed),
                max_rounds=int(caps[i]),
            )
        )

    engine = BatchedEngine(
        requests[0].algorithm, runs, backend=kernel_backend
    )
    # Each run's truth repeated over its nodes: the subtraction below
    # then runs over equal shapes instead of broadcasting.
    truth_full = np.repeat(np.stack(truth_rows)[:, None, :], n, axis=1)
    best = _BestTrackers([req.stall_rounds for req in requests])

    def run_errors() -> np.ndarray:
        est = engine.round_estimates().estimates  # (R, n, d), shared
        with np.errstate(invalid="ignore"):
            # Max over the run's (n, d) block first, then one divide by
            # the run scale — the same operation order as vec_error.
            diff = np.abs(est - truth_full).max(axis=(1, 2))
        return np.where(np.isnan(diff), np.inf, diff / scales)

    def stop(eng: BatchedEngine, round_index: int) -> np.ndarray:
        active = eng.last_round_active
        err = run_errors()
        stalled = best.observe(err, round_index, active)
        return active & (stalled | (err <= epsilons))

    engine.run(int(caps.max()), stop_when=stop, check_every=1)

    rounds = engine.run_rounds
    est_all = engine.estimates()
    final_error = run_errors()
    # _run_vector re-observes the frozen state at rounds - 1.
    best.observe(final_error, rounds - 1, np.ones(n_runs, dtype=bool))
    converged = final_error <= epsilons
    sent = engine.messages_sent
    delivered = engine.messages_delivered

    results: List[ExecResult] = []
    for i, req in enumerate(requests):
        estimates = est_all[i]
        if estimates.shape[1] == 1:
            estimates = estimates[:, 0]
        estimates = finalize_sum_estimates(
            estimates,
            n=n,
            aggregate=aggregates[i],
            scalar_input=scalar_inputs[i],
        )
        results.append(
            ExecResult(
                job_id=req.job_id,
                estimates=estimates,
                rounds=int(rounds[i]),
                messages_sent=int(sent[i]),
                messages_delivered=int(delivered[i]),
                converged=bool(converged[i]),
                max_error=float(final_error[i]),
                best_error=float(best.error[i]),
                best_round=int(best.round[i]),
                engine="batched",
                batched_with=n_runs,
            )
        )
    return results


class _BestTrackers:
    """R runs' :class:`repro.reduction._BestTracker`: each run's best error
    and best round, and the same stall rule (a None window never stalls)."""

    def __init__(self, windows: Sequence[Optional[int]]) -> None:
        self.error = np.full(len(windows), np.inf)
        self.round = np.full(len(windows), -1, dtype=np.int64)
        never = np.iinfo(np.int64).max
        self._gap = np.array(
            [never if w is None else max(int(w), 1) for w in windows]
        )

    def observe(
        self, error: np.ndarray, round_index, active: np.ndarray
    ) -> np.ndarray:
        """Record the active runs' errors at ``round_index`` (a scalar or
        one round per run); returns the stalled mask."""
        improved = active & (error < self.error)
        np.copyto(self.error, error, where=improved)
        np.copyto(self.round, round_index, where=improved)
        return active & (round_index - self.round >= self._gap)
