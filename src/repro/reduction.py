"""High-level one-call API for running a distributed reduction.

:func:`run_reduction` wires together a topology, an algorithm, a schedule,
optional fault injection and the error oracle, runs the gossip computation
to a target accuracy (or to its achievable plateau), and returns everything
an application or experiment needs. This is the entry point the examples
and the distributed QR build on.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from repro.algorithms.aggregates import (
    AggregateKind,
    initial_mass_pairs,
    true_aggregate,
)
from repro.algorithms.registry import ALGORITHMS, instantiate
from repro.algorithms.state import Value
from repro.exceptions import ConfigurationError
from repro.faults.base import MessageFault
from repro.faults.events import FaultPlan
from repro.metrics.history import ErrorHistory
from repro.simulation.engine import SynchronousEngine
from repro.simulation.schedule import Schedule, UniformGossipSchedule
from repro.topology.base import Topology
from repro.vectorized.parity import vector_engine_for

_VECTOR_CAPABLE = (
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
)


def is_vector_capable(algorithm: str) -> bool:
    """Whether ``backend="auto"`` may route this algorithm to the
    vectorized engine (given no schedule/fault/history overrides)."""
    return algorithm in _VECTOR_CAPABLE


def default_round_cap(n: int, epsilon: float = 1e-15) -> int:
    """A generous iteration budget: ``O(log^2 n + log 1/eps)`` rounds.

    The paper caps each reduction's iterations ("a maximal number of
    iterations per reduction was set"); the quadratic log term covers
    slower-mixing regular topologies (tori) at scale, while well-connected
    networks stop much earlier via the accuracy oracle.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    log_n = math.ceil(math.log2(max(n, 2)))
    log_eps = math.ceil(math.log10(1.0 / min(max(epsilon, 1e-300), 0.5)))
    return max(300, 12 * log_n * log_n + 10 * log_eps)


@dataclasses.dataclass
class ReductionResult:
    """Outcome of one distributed reduction."""

    estimates: np.ndarray  # (n,) or (n, d) per-node estimates
    truth: Value  # exact aggregate (oracle)
    max_error: float  # final max local relative error
    rounds: int  # rounds executed
    converged: bool  # reached the epsilon target
    messages_sent: int
    messages_delivered: int
    algorithm: str
    backend: str
    history: Optional[ErrorHistory] = None
    best_error: float = float("inf")  # lowest max-error touched during the run
    best_round: int = -1  # round at which best_error was first reached

    def estimate_of(self, node: int) -> Value:
        est = self.estimates[node]
        if np.ndim(est) == 0:
            return float(est)
        return np.asarray(est)


def run_reduction(
    topology: Topology,
    data: Sequence[Value],
    *,
    kind: AggregateKind = AggregateKind.AVERAGE,
    algorithm: str = "push_cancel_flow",
    epsilon: float = 1e-15,
    max_rounds: Optional[int] = None,
    schedule_seed: int = 0,
    schedule: Optional[Schedule] = None,
    message_fault: Optional[MessageFault] = None,
    fault_plan: Optional[FaultPlan] = None,
    record_history: bool = False,
    backend: str = "auto",
    stall_rounds: Optional[int] = None,
    root: int = 0,
    error_scale: Optional[float] = None,
) -> ReductionResult:
    """Run one all-to-all reduction of ``data`` over ``topology``.

    Parameters
    ----------
    kind:
        Which aggregate (:class:`AggregateKind`) the reduction computes.
    algorithm:
        One of :data:`repro.algorithms.ALGORITHMS`.
    epsilon:
        Target max local relative accuracy; the run stops once every node is
        within ``epsilon`` of the exact aggregate (oracle termination, as in
        the paper's experiments).
    max_rounds:
        Iteration cap; defaults to :func:`default_round_cap`.
    backend:
        ``"object"`` (reference engine), ``"vector"`` (NumPy engine), or
        ``"auto"`` — vectorized when the configuration allows it (no custom
        schedule, no fault plan, no per-message faults, vector-capable
        algorithm), object engine otherwise.
    stall_rounds:
        If set, additionally stop once the max error has not improved for
        this many consecutive rounds — measuring an algorithm's *achievable*
        accuracy plateau (the quantity plotted in Figs. 3/6) without a
        hand-tuned cap.
    root:
        The node carrying the unit weight for SUM/COUNT aggregates.
    error_scale:
        Optional custom normalization for the accuracy oracle: when given,
        errors are ``max |est - truth| / error_scale`` instead of relative
        to the truth's own magnitude. Callers whose true aggregate can be
        arbitrarily tiny compared to the data (e.g. near-orthogonal dot
        products in dmGS) pass the data scale here, making "epsilon
        accuracy" mean *epsilon relative to the problem scale* — otherwise
        the target would be unreachable in floating point.
    """
    if len(data) != topology.n:
        raise ConfigurationError(
            f"expected {topology.n} data items, got {len(data)}"
        )
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    cap = max_rounds if max_rounds is not None else default_round_cap(
        topology.n, epsilon
    )

    truth = true_aggregate(kind, list(data))
    initial = initial_mass_pairs(kind, list(data), root=root)

    use_vector = False
    if backend == "vector":
        use_vector = True
    elif backend == "auto":
        use_vector = (
            algorithm in _VECTOR_CAPABLE
            and schedule is None
            and message_fault is None
            and (fault_plan is None or fault_plan.is_empty())
            and not record_history
        )
    elif backend != "object":
        raise ConfigurationError(
            f"backend must be 'auto', 'object' or 'vector', got {backend!r}"
        )

    if use_vector:
        return _run_vector(
            topology,
            initial,
            truth,
            algorithm=algorithm,
            epsilon=epsilon,
            cap=cap,
            seed=schedule_seed,
            stall_rounds=stall_rounds,
            error_scale=error_scale,
        )
    return _run_object(
        topology,
        initial,
        truth,
        algorithm=algorithm,
        epsilon=epsilon,
        cap=cap,
        seed=schedule_seed,
        schedule=schedule,
        message_fault=message_fault,
        fault_plan=fault_plan,
        record_history=record_history,
        stall_rounds=stall_rounds,
        error_scale=error_scale,
    )


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def _run_object(
    topology: Topology,
    initial,
    truth,
    *,
    algorithm: str,
    epsilon: float,
    cap: int,
    seed: int,
    schedule: Optional[Schedule],
    message_fault: Optional[MessageFault],
    fault_plan: Optional[FaultPlan],
    record_history: bool,
    stall_rounds: Optional[int],
    error_scale: Optional[float] = None,
) -> ReductionResult:
    algs = instantiate(algorithm, topology, initial)
    sched = schedule or UniformGossipSchedule(topology.n, seed)
    history = ErrorHistory(truth) if record_history else None
    observers = [history] if history is not None else []
    engine = SynchronousEngine(
        topology,
        algs,
        sched,
        message_fault=message_fault,
        fault_plan=fault_plan,
        observers=observers,
    )

    last_event = fault_plan.last_event_round() if fault_plan else -1
    error_of = _make_error_fn(truth, error_scale)
    best = _BestTracker()
    # The stall window opens only once every planned failure is handled.
    stall = _BestTracker(stall_rounds, first_round=max(last_event, 0))

    def stop(eng: SynchronousEngine, round_index: int) -> bool:
        err = error_of(eng.estimates())
        best.observe(err, round_index)
        # Never stop before all planned permanent failures have been
        # handled — the experiments need the post-failure behaviour.
        if round_index < last_event:
            return False
        return stall.observe(err, round_index) or err <= epsilon

    rounds = engine.run(cap, stop_when=stop)
    estimates = np.stack(
        [np.atleast_1d(np.asarray(algs[i].estimate())) for i in engine.live_nodes()]
    )
    if estimates.shape[1] == 1:
        estimates = estimates[:, 0]
    final_error = error_of(engine.estimates())
    best.observe(final_error, rounds - 1)
    return ReductionResult(
        estimates=estimates,
        truth=truth,
        max_error=final_error,
        rounds=rounds,
        converged=final_error <= epsilon,
        messages_sent=engine.messages_sent,
        messages_delivered=engine.messages_delivered,
        algorithm=algorithm,
        backend="object",
        history=history,
        best_error=best.error,
        best_round=best.round,
    )


def _run_vector(
    topology: Topology,
    initial,
    truth,
    *,
    algorithm: str,
    epsilon: float,
    cap: int,
    seed: int,
    stall_rounds: Optional[int],
    error_scale: Optional[float] = None,
) -> ReductionResult:
    values = np.stack([np.atleast_1d(np.asarray(p.value)) for p in initial])
    weights = np.array([p.weight for p in initial])
    cls = vector_engine_for(algorithm)
    engine = cls(topology, values, weights, seed=seed)
    truth_vec, scale = _truth_and_scale(truth, error_scale)

    def vec_error() -> float:
        # Reads the engine's shared pair. Non-finite estimates give an
        # inf or NaN maximum and NaN reads as inf, so no finiteness pass.
        values, weights = engine.shared_estimate_pairs()
        diff = values / weights[:, None]
        diff -= truth_vec
        worst = float(np.abs(diff, out=diff).max())
        return math.inf if math.isnan(worst) else worst / scale

    best = _BestTracker(stall_rounds)

    def stop(eng, round_index: int) -> bool:
        err = vec_error()
        return best.observe(err, round_index) or err <= epsilon

    with np.errstate(divide="ignore", invalid="ignore"):
        rounds = engine.run(cap, stop_when=stop)
        estimates = engine.estimates()
        final_error = vec_error()
    if estimates.shape[1] == 1:
        estimates = estimates[:, 0]
    best.observe(final_error, rounds - 1)
    return ReductionResult(
        estimates=estimates,
        truth=truth,
        max_error=final_error,
        rounds=rounds,
        converged=final_error <= epsilon,
        messages_sent=engine.messages_sent,
        messages_delivered=engine.messages_delivered,
        algorithm=algorithm,
        backend="vector",
        history=None,
        best_error=best.error,
        best_round=best.round,
    )


class _BestTracker:
    """The stop rule's only state: the lowest max-error observed and the
    round it was first reached.

    Gossip error curves fluctuate (transient per-node perturbations heal
    over subsequent rounds), so the paper's "achievable accuracy" — the
    level at which an oracle-terminated run would stop — is the running
    minimum, not the value at an arbitrary final round. A run observed
    every round from ``first_round`` on has *stalled* when ``window``
    rounds (at least one) have passed since its best.
    """

    def __init__(self, window: Optional[int] = None, first_round: int = 0) -> None:
        self.error = math.inf
        self.round = first_round - 1
        self._gap = None if window is None else max(window, 1)

    def observe(self, error: float, round_index: int) -> bool:
        """Record one round's error; True when the run has stalled."""
        if error < self.error:
            self.error = error
            self.round = round_index
            return False
        return self._gap is not None and round_index - self.round >= self._gap


def _truth_and_scale(truth, error_scale: Optional[float]):
    """The truth as a float vector and the error normalization: an
    explicit ``error_scale``, else the truth's max-norm (1.0 when zero) —
    matching :func:`repro.algorithms.aggregates.relative_error`."""
    truth_vec = np.atleast_1d(np.asarray(truth, dtype=np.float64))
    if error_scale is not None:
        scale = float(error_scale)
    else:
        scale = float(np.max(np.abs(truth_vec)))
    return truth_vec, 1.0 if scale <= 0.0 else scale


def _make_error_fn(truth, error_scale: Optional[float]):
    """Max-norm error function over a list of per-node estimates."""
    truth_vec, scale = _truth_and_scale(truth, error_scale)

    def error_of(estimates) -> float:
        worst = 0.0
        for est in estimates:
            arr = np.atleast_1d(np.asarray(est, dtype=np.float64))
            if not np.all(np.isfinite(arr)):
                return float("inf")
            worst = max(worst, float(np.max(np.abs(arr - truth_vec))))
        return worst / scale

    return error_of
