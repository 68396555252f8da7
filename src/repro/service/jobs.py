"""Job model for the reduction daemon.

A *job* is one all-to-all sum reduction: the exact request a caller
would otherwise hand to :meth:`ReductionService.all_reduce_sum`, plus
the service-level envelope (tenant, deadline, retry budget). The specs
here are plain picklable dataclasses so whole groups travel to worker
processes through ``multiprocessing`` unchanged, and results return
on the worker's pipe with their float64 payloads bit-intact (pickle
round-trips IEEE doubles exactly).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.linalg.reduction_service import (
    AGGREGATE_MODES,
    derive_schedule_seed,
    normalize_partials,
)
from repro.reduction import is_vector_capable
from repro.topology.base import Topology

BACKENDS = ("auto", "object", "vector")


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclasses.dataclass
class JobSpec:
    """One reduction job, fully normalized at admission time.

    ``data`` is the ``(n, d)`` partials matrix produced by
    :func:`repro.linalg.reduction_service.normalize_partials` —
    validation happens *before* the job enters the queue, so a malformed
    submission is rejected synchronously instead of failing later inside
    a batch that other tenants' jobs share. The daemon drops it (``None``)
    once the job is terminal; a resubmission brings fresh partials.

    ``seed``/``call_index`` mirror :class:`ReductionService`'s schedule
    accounting: the reduction runs with
    ``derive_schedule_seed(seed, call_index)``, so a daemon job is
    schedule-identical to call ``call_index`` of a serial service
    constructed with master seed ``seed``.
    """

    tenant: str
    algorithm: str
    topology: Topology
    data: Optional[np.ndarray]
    scalar_input: bool
    epsilon: float = 1e-15
    aggregate: str = "average"
    seed: int = 0
    call_index: int = 0
    max_rounds: Optional[int] = None
    stall_rounds: Optional[int] = 60
    backend: str = "auto"
    #: Wall-clock budget in seconds from submission; None = unbounded.
    deadline_s: Optional[float] = None

    @classmethod
    def build(
        cls,
        *,
        tenant: str,
        algorithm: str,
        topology: Topology,
        partials,
        epsilon: float = 1e-15,
        aggregate: str = "average",
        seed: int = 0,
        call_index: int = 0,
        max_rounds: Optional[int] = None,
        stall_rounds: Optional[int] = 60,
        backend: str = "auto",
        deadline_s: Optional[float] = None,
    ) -> "JobSpec":
        """Validate raw submission arguments into a queueable spec."""
        from repro.algorithms import ALGORITHMS

        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        if aggregate not in AGGREGATE_MODES:
            raise ConfigurationError(
                f"aggregate must be 'average' or 'sum', got {aggregate!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        data, scalar_input = normalize_partials(partials, topology.n)
        return cls(
            tenant=str(tenant),
            algorithm=algorithm,
            topology=topology,
            data=data,
            scalar_input=scalar_input,
            epsilon=float(epsilon),
            aggregate=aggregate,
            seed=int(seed),
            call_index=int(call_index),
            max_rounds=max_rounds,
            stall_rounds=stall_rounds,
            backend=backend,
            deadline_s=deadline_s,
        )

    @property
    def schedule_seed(self) -> int:
        return derive_schedule_seed(self.seed, self.call_index)

    @property
    def uses_vector_engine(self) -> bool:
        """Replicates :func:`repro.reduction.run_reduction`'s routing for
        the daemon's configuration space (no schedules, faults or history
        recording ever reach a daemon job)."""
        if self.backend == "vector":
            return True
        return self.backend == "auto" and is_vector_capable(self.algorithm)

    def group_key(self) -> Tuple:
        """Jobs sharing a key may execute as one whole-array program.

        The vector path batches on ``(algorithm, n, d)`` — per-run
        topologies, epsilons, seeds and aggregates all vary freely inside
        a batch (the disjoint-union graph and per-run stop logic carry
        them). Object-path jobs execute alone.
        """
        n, d = self.data.shape
        if self.uses_vector_engine:
            return ("vec", self.algorithm, n, d)
        return ("obj", id(self))


@dataclasses.dataclass
class ExecRequest:
    """The worker-facing slice of a job: everything needed to execute it.

    ``crash_attempts`` is a test seam: a worker *subprocess* whose
    ``attempt`` is still within ``crash_attempts`` dies with ``os._exit``
    before executing — the daemon-lifecycle tests use it to kill a worker
    mid-group and assert the jobs are retried. In-process execution
    ignores it.
    """

    job_id: str
    algorithm: str
    topology: Topology
    data: np.ndarray
    scalar_input: bool
    aggregate: str
    epsilon: float
    schedule_seed: int
    max_rounds: Optional[int]
    stall_rounds: Optional[int]
    backend: str
    attempt: int = 1
    crash_attempts: int = 0


@dataclasses.dataclass
class ExecResult:
    """Per-job outcome of :func:`repro.service.batch.execute_group`."""

    job_id: str
    estimates: np.ndarray
    rounds: int
    messages_sent: int
    messages_delivered: int
    converged: bool
    max_error: float
    best_error: float
    best_round: int
    engine: str  # "batched" | "object"
    #: Number of jobs sharing the whole-array program (1 on the object path).
    batched_with: int = 1


@dataclasses.dataclass
class JobResult:
    """What a tenant gets back for one job (one epoch of it)."""

    job_id: str
    tenant: str
    epoch: int
    attempts: int
    estimates: np.ndarray
    rounds: int
    messages_sent: int
    messages_delivered: int
    converged: bool
    max_error: float
    engine: str
    batched_with: int
    latency_s: float


@dataclasses.dataclass
class JobSnapshot:
    """Introspection row served on the daemon's ``/jobs`` endpoint."""

    job_id: str
    tenant: str
    algorithm: str
    state: str
    epoch: int
    attempts: int
    error: Optional[str] = None
