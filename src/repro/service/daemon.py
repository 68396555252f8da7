"""The reduction daemon: admission, batching, sharding, epochs.

:class:`ReductionDaemon` is a long-lived in-process service. Tenants
submit independent reduction jobs; dispatcher threads gather compatible
queued jobs into groups (a short *linger* window lets concurrent
submissions coalesce), execute each group as one whole-array batched
program — in-process with ``workers=0``, or sharded across worker
subprocesses through the campaign runner's worker transport
(:mod:`repro.util.procs`) — and complete the jobs with per-node
results, retrying groups whose worker died and failing jobs past their
retry budget or deadline.

Mechanism map (DESIGN.md §6 has the long form):

- *admission control*: a bounded pending queue (``QueueFullError`` is
  backpressure, not failure) and a per-tenant in-flight quota
  (``QuotaExceededError``) keep one chatty tenant from starving the rest;
- *batching*: jobs multiplex by ``(algorithm, n, d)`` onto
  :class:`~repro.vectorized.batched.BatchedEngine` — the daemon's
  throughput move, inheriting the engine's bit-parity guarantee;
- *epochs*: :meth:`resubmit` is the paper's restarting mechanism
  generalized — a tenant whose inputs changed pushes updated partials
  and the daemon re-reduces from the live epoch, superseding any result
  of the stale one;
- *observability*: every transition lands in a
  :class:`~repro.telemetry.registry.MetricsRegistry` served live by the
  PR 9 telemetry server through :class:`repro.service.http.DaemonSource`.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.linalg.reduction_service import normalize_partials
from repro.service.jobs import (
    ExecRequest,
    ExecResult,
    JobResult,
    JobSnapshot,
    JobSpec,
    JobState,
)
from repro.telemetry.registry import MetricsRegistry
from repro.util import procs

#: Bucket ladder for the group-size histogram (jobs per program).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclasses.dataclass
class DaemonStats:
    """Point-in-time daemon counters (the ``/healthz`` payload core)."""

    queue_depth: int
    inflight: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    retries: int
    epoch_resubmissions: int
    workers: int
    closed: bool


class _Job:
    """Daemon-internal mutable job state; guarded by the daemon lock."""

    __slots__ = (
        "id",
        "spec",
        "state",
        "epoch",
        "running_epoch",
        "attempts",
        "deadline",
        "epoch_started",
        "result",
        "result_epoch",
        "error",
        "pending_data",
        "crash_attempts",
    )

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        *,
        now: float,
        crash_attempts: int = 0,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        self.epoch = 0
        self.running_epoch = -1
        self.attempts = 0
        self.deadline = (
            now + spec.deadline_s if spec.deadline_s is not None else None
        )
        self.epoch_started = now
        self.result: Optional[JobResult] = None
        self.result_epoch = -1
        self.error: Optional[str] = None
        self.pending_data: Optional[Tuple[np.ndarray, bool]] = None
        self.crash_attempts = crash_attempts


def _execute_in_worker(requests: List[ExecRequest]) -> List[ExecResult]:
    """Worker-process body for one job group.

    The ``crash_attempts`` test seam fires here and only here: an
    in-process daemon never hard-kills itself, but a subprocess dying
    mid-group is exactly the failure mode the retry path must absorb,
    so the lifecycle tests script it deterministically.
    """
    for req in requests:
        if req.crash_attempts and req.attempt <= req.crash_attempts:
            os._exit(42)
    from repro.service.batch import execute_group

    return execute_group(requests)


class ReductionDaemon:
    """Persistent multi-tenant aggregation daemon (see module docstring).

    ``workers=0`` executes groups inline on the dispatcher thread
    (deterministic, no subprocesses — the test/default mode);
    ``workers=W >= 1`` runs W dispatcher threads, each owning at most one
    worker subprocess at a time, so up to W groups execute concurrently,
    each returning its results pickled on a one-way pipe.

    Finished jobs are retained, not kept forever: a terminal job drops
    its input partials, and once its result has been returned by
    :meth:`result` it joins a retention list holding the newest
    ``max_pending`` such jobs. Older ones are evicted, and their ids then
    raise the unknown-job :class:`ServiceError`.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        max_pending: int = 256,
        tenant_quota: int = 64,
        retries: int = 1,
        max_batch: int = 64,
        linger_s: float = 0.01,
        start_method: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if tenant_quota < 1:
            raise ConfigurationError(
                f"tenant_quota must be >= 1, got {tenant_quota}"
            )
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self._workers = workers
        self._max_pending = max_pending
        self._tenant_quota = tenant_quota
        self._retries = retries
        self._max_batch = max_batch
        self._linger_s = max(0.0, float(linger_s))
        # Resolved here, so a bad start method fails the constructor and
        # not a dispatcher thread.
        self._ctx = procs.mp_context(start_method)

        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._m_submitted = reg.counter(
            "daemon_jobs_submitted_total", "Jobs admitted, by tenant"
        )
        self._m_completed = reg.counter(
            "daemon_jobs_completed_total", "Jobs completed, by tenant"
        )
        self._m_failed = reg.counter(
            "daemon_jobs_failed_total", "Jobs terminally failed, by reason"
        )
        self._m_rejected = reg.counter(
            "daemon_jobs_rejected_total", "Submissions refused, by reason"
        )
        self._m_retries = reg.counter(
            "daemon_job_retries_total", "Job attempts requeued after a group failure"
        )
        self._m_epochs = reg.counter(
            "daemon_epoch_resubmissions_total",
            "Live-epoch restarts (tenant resubmitted updated partials)",
        )
        self._m_groups = reg.counter(
            "daemon_groups_total", "Executed job groups, by engine path"
        )
        self._m_latency = reg.histogram(
            "daemon_job_latency_seconds",
            "Submission-to-result latency per job epoch",
        )
        self._m_batch = reg.histogram(
            "daemon_batch_jobs",
            "Jobs multiplexed per executed group",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._g_depth = reg.gauge(
            "daemon_queue_depth", "Jobs waiting for dispatch"
        )
        self._g_inflight = reg.gauge(
            "daemon_jobs_inflight", "Jobs queued or running"
        )
        self._g_depth.set(0.0)
        self._g_inflight.set(0.0)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}
        # Terminal jobs whose result was returned, oldest return first.
        self._returned: "collections.OrderedDict[str, None]" = (
            collections.OrderedDict()
        )
        self._pending: List[str] = []
        self._inflight: Dict[str, int] = {}
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "retries": 0,
            "epochs": 0,
        }
        self._closed = False

        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-svc-dispatch-{i}",
                daemon=True,
            )
            for i in range(max(1, workers))
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # Tenant API
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        tenant: str,
        algorithm: str,
        topology,
        partials,
        epsilon: float = 1e-15,
        aggregate: str = "average",
        seed: int = 0,
        call_index: int = 0,
        max_rounds: Optional[int] = None,
        stall_rounds: Optional[int] = 60,
        backend: str = "auto",
        deadline_s: Optional[float] = None,
        crash_attempts: int = 0,
    ) -> str:
        """Admit one reduction job; returns its id (for :meth:`result`).

        Raises :class:`QueueFullError` (backpressure) when the pending
        queue is at capacity, :class:`QuotaExceededError` when the tenant
        is at its in-flight quota, and :class:`ConfigurationError` for a
        malformed job — all synchronously, before anything is enqueued.
        ``crash_attempts`` is the worker-death test seam (see
        :func:`_execute_in_worker`).
        """
        try:
            spec = JobSpec.build(
                tenant=tenant,
                algorithm=algorithm,
                topology=topology,
                partials=partials,
                epsilon=epsilon,
                aggregate=aggregate,
                seed=seed,
                call_index=call_index,
                max_rounds=max_rounds,
                stall_rounds=stall_rounds,
                backend=backend,
                deadline_s=deadline_s,
            )
        except ConfigurationError:
            with self._cond:
                self._reject_locked("invalid")
            raise
        job_id = uuid.uuid4().hex[:12]
        with self._cond:
            if self._closed:
                self._reject_locked("closed")
                raise ServiceError("daemon is closed to new submissions")
            if len(self._pending) >= self._max_pending:
                self._reject_locked("queue_full")
                raise QueueFullError(
                    f"pending queue is full ({self._max_pending} jobs); "
                    "retry after draining in-flight work"
                )
            if self._inflight.get(spec.tenant, 0) >= self._tenant_quota:
                self._reject_locked("quota")
                raise QuotaExceededError(
                    f"tenant {spec.tenant!r} is at its in-flight quota "
                    f"({self._tenant_quota} jobs)"
                )
            job = _Job(
                job_id,
                spec,
                now=time.monotonic(),
                crash_attempts=crash_attempts,
            )
            self._jobs[job_id] = job
            self._pending.append(job_id)
            self._inflight[spec.tenant] = (
                self._inflight.get(spec.tenant, 0) + 1
            )
            self._counts["submitted"] += 1
            self._m_submitted.inc(tenant=spec.tenant)
            self._refresh_gauges_locked()
            self._cond.notify_all()
        return job_id

    def resubmit(self, job_id: str, partials) -> int:
        """Push updated partials for a job: the epoch-based restart.

        Returns the new epoch number. The daemon re-reduces from the live
        epoch: a queued job swaps its inputs in place, a running job's
        stale result is discarded on completion and the job re-queues
        with the new inputs, and a finished job is re-admitted (subject
        to the same queue/quota admission as a fresh submission).
        :meth:`result` only returns once the *latest* epoch has settled.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            data, scalar_input = normalize_partials(
                partials, job.spec.topology.n
            )
            if job.state in (JobState.DONE, JobState.FAILED):
                # Terminal jobs left the in-flight accounting; re-entry
                # goes back through admission control.
                if self._closed:
                    raise ServiceError("daemon is closed to new submissions")
                if len(self._pending) >= self._max_pending:
                    self._reject_locked("queue_full")
                    raise QueueFullError(
                        f"pending queue is full ({self._max_pending} jobs)"
                    )
                tenant = job.spec.tenant
                if self._inflight.get(tenant, 0) >= self._tenant_quota:
                    self._reject_locked("quota")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} is at its in-flight quota"
                    )
                self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
                self._returned.pop(job_id, None)
            now = time.monotonic()
            job.epoch += 1
            job.epoch_started = now
            if job.spec.deadline_s is not None:
                job.deadline = now + job.spec.deadline_s
            if job.state == JobState.RUNNING:
                job.pending_data = (data, scalar_input)
            else:
                job.spec.data = data
                job.spec.scalar_input = scalar_input
                job.attempts = 0
                job.error = None
                if job.state in (JobState.DONE, JobState.FAILED):
                    job.state = JobState.QUEUED
                    self._pending.append(job_id)
            self._counts["epochs"] += 1
            self._m_epochs.inc()
            self._refresh_gauges_locked()
            self._cond.notify_all()
            return job.epoch

    def result(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> JobResult:
        """Block until the job's *latest* epoch settles; return its result.

        Raises :class:`~repro.exceptions.JobFailedError` if that epoch
        failed terminally, :class:`TimeoutError` past ``timeout``.
        """
        from repro.exceptions import JobFailedError

        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServiceError(f"unknown job {job_id!r}")
                if (
                    job.state in (JobState.DONE, JobState.FAILED)
                    and job.result_epoch == job.epoch
                ):
                    self._retain_returned_locked(job_id)
                    if job.state == JobState.DONE:
                        assert job.result is not None
                        return job.result
                    raise JobFailedError(
                        f"job {job_id} failed: {job.error}"
                    )
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"no result for job {job_id} within {timeout}s"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait(0.5)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> DaemonStats:
        with self._lock:
            inflight = sum(self._inflight.values())
            return DaemonStats(
                queue_depth=len(self._pending),
                inflight=inflight,
                submitted=self._counts["submitted"],
                completed=self._counts["completed"],
                failed=self._counts["failed"],
                rejected=self._counts["rejected"],
                retries=self._counts["retries"],
                epoch_resubmissions=self._counts["epochs"],
                workers=self._workers,
                closed=self._closed,
            )

    def jobs(self) -> List[JobSnapshot]:
        with self._lock:
            return [
                JobSnapshot(
                    job_id=job.id,
                    tenant=job.spec.tenant,
                    algorithm=job.spec.algorithm,
                    state=job.state.value,
                    epoch=job.epoch,
                    attempts=job.attempts,
                    error=job.error,
                )
                for job in self._jobs.values()
            ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting jobs and shut the dispatchers down.

        ``drain=True`` (default) finishes everything already admitted
        first; ``drain=False`` fails still-queued jobs immediately
        (running groups complete either way — workers are never orphaned).
        """
        with self._cond:
            if self._closed and not self._threads:
                return
            self._closed = True
            if not drain:
                for job_id in list(self._pending):
                    self._fail_locked(
                        self._jobs[job_id], "daemon shutting down"
                    )
                self._pending.clear()
            self._refresh_gauges_locked()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            raise ServiceError(
                "dispatcher threads did not stop within the close timeout"
            )

    def __enter__(self) -> "ReductionDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _reject_locked(self, reason: str) -> None:
        self._counts["rejected"] += 1
        self._m_rejected.inc(reason=reason)

    def _refresh_gauges_locked(self) -> None:
        self._g_depth.set(float(len(self._pending)))
        self._g_inflight.set(float(sum(self._inflight.values())))

    def _retain_returned_locked(self, job_id: str) -> None:
        """Move a returned job to the newest end of the retention list and
        evict the oldest returned jobs beyond ``max_pending``."""
        self._returned.pop(job_id, None)
        self._returned[job_id] = None
        while len(self._returned) > self._max_pending:
            evicted, _ = self._returned.popitem(last=False)
            del self._jobs[evicted]

    def _fail_locked(self, job: _Job, error: str, reason: str = "error") -> None:
        job.state = JobState.FAILED
        job.error = error
        job.result_epoch = job.epoch
        job.spec.data = None  # terminal: resubmit brings fresh partials
        tenant = job.spec.tenant
        self._inflight[tenant] = max(0, self._inflight.get(tenant, 0) - 1)
        self._counts["failed"] += 1
        self._m_failed.inc(reason=reason)

    def _expire_queued_locked(self) -> None:
        now = time.monotonic()
        expired = [
            jid
            for jid in self._pending
            if self._jobs[jid].deadline is not None
            and now > self._jobs[jid].deadline
        ]
        for jid in expired:
            self._pending.remove(jid)
            self._fail_locked(
                self._jobs[jid], "deadline exceeded in queue", "deadline"
            )
        if expired:
            self._refresh_gauges_locked()
            self._cond.notify_all()

    def _gather(self) -> Optional[List[_Job]]:
        """Pull the next job group off the queue (None = shut down).

        The oldest pending job leads; jobs sharing its group key join, up
        to ``max_batch``. A sub-full vector group lingers briefly so a
        burst of concurrent submissions coalesces into one program —
        that window is the difference between "a daemon that happens to
        use the batched engine" and one that actually multiplexes.
        """
        with self._cond:
            while True:
                self._expire_queued_locked()
                if not self._pending:
                    if self._closed:
                        return None
                    self._cond.wait(0.2)
                    continue
                lead_id = self._pending[0]
                key = self._jobs[lead_id].spec.group_key()
                linger_until = time.monotonic() + self._linger_s
                while True:
                    batch = [
                        jid
                        for jid in self._pending
                        if self._jobs[jid].spec.group_key() == key
                    ][: self._max_batch]
                    if (
                        not batch
                        or len(batch) >= self._max_batch
                        or key[0] == "obj"
                        or self._closed
                    ):
                        break
                    remaining = linger_until - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                    self._expire_queued_locked()
                if not batch:
                    continue  # the lead was taken or expired; reselect
                group: List[_Job] = []
                for jid in batch:
                    self._pending.remove(jid)
                    job = self._jobs[jid]
                    job.state = JobState.RUNNING
                    job.running_epoch = job.epoch
                    job.attempts += 1
                    group.append(job)
                self._refresh_gauges_locked()
                return group

    def _dispatch_loop(self) -> None:
        while True:
            group = self._gather()
            if group is None:
                return
            requests = [
                ExecRequest(
                    job_id=job.id,
                    algorithm=job.spec.algorithm,
                    topology=job.spec.topology,
                    data=job.spec.data,
                    scalar_input=job.spec.scalar_input,
                    aggregate=job.spec.aggregate,
                    epsilon=job.spec.epsilon,
                    schedule_seed=job.spec.schedule_seed,
                    max_rounds=job.spec.max_rounds,
                    stall_rounds=job.spec.stall_rounds,
                    backend=job.spec.backend,
                    attempt=job.attempts,
                    crash_attempts=job.crash_attempts,
                )
                for job in group
            ]
            self._m_batch.observe(float(len(group)))
            self._m_groups.inc(
                path="vector"
                if group[0].spec.uses_vector_engine
                else "object"
            )
            if self._workers == 0:
                from repro.service.batch import execute_group

                outcome = procs.call(execute_group, requests)
            else:
                deadlines = [j.deadline for j in group if j.deadline is not None]
                outcome = procs.run(
                    self._ctx,
                    _execute_in_worker,
                    (requests,),
                    deadline=min(deadlines) if deadlines else None,
                )
            state, payload = outcome
            if state == "ok":
                self._complete(group, payload)  # type: ignore[arg-type]
            elif state == "timeout":
                self._settle_failure(group, "deadline exceeded while running")
            else:
                self._settle_failure(group, str(payload))

    def _requeue_new_epoch_locked(self, job: _Job) -> None:
        """A mid-run resubmission superseded this attempt's inputs."""
        data, scalar_input = job.pending_data  # type: ignore[misc]
        job.pending_data = None
        job.spec.data = data
        job.spec.scalar_input = scalar_input
        job.attempts = 0
        job.error = None
        job.state = JobState.QUEUED
        self._pending.append(job.id)

    def _complete(
        self, group: List[_Job], results: Sequence[ExecResult]
    ) -> None:
        by_id = {res.job_id: res for res in results}
        now = time.monotonic()
        with self._cond:
            for job in group:
                if job.epoch != job.running_epoch:
                    self._requeue_new_epoch_locked(job)
                    continue
                res = by_id.get(job.id)
                if res is None:  # pragma: no cover - executor contract
                    self._fail_locked(job, "executor returned no result")
                    continue
                latency = now - job.epoch_started
                job.result = JobResult(
                    job_id=job.id,
                    tenant=job.spec.tenant,
                    epoch=job.epoch,
                    attempts=job.attempts,
                    estimates=res.estimates,
                    rounds=res.rounds,
                    messages_sent=res.messages_sent,
                    messages_delivered=res.messages_delivered,
                    converged=res.converged,
                    max_error=res.max_error,
                    engine=res.engine,
                    batched_with=res.batched_with,
                    latency_s=latency,
                )
                job.state = JobState.DONE
                job.result_epoch = job.epoch
                job.error = None
                job.spec.data = None  # terminal: resubmit brings fresh partials
                tenant = job.spec.tenant
                self._inflight[tenant] = max(
                    0, self._inflight.get(tenant, 0) - 1
                )
                self._counts["completed"] += 1
                self._m_completed.inc(tenant=tenant)
                self._m_latency.observe(latency)
            self._refresh_gauges_locked()
            self._cond.notify_all()

    def _settle_failure(self, group: List[_Job], error: str) -> None:
        with self._cond:
            for job in group:
                if job.epoch != job.running_epoch:
                    self._requeue_new_epoch_locked(job)
                elif job.attempts <= self._retries:
                    self._counts["retries"] += 1
                    self._m_retries.inc()
                    job.state = JobState.QUEUED
                    # Front of the queue: a retried attempt keeps its
                    # place ahead of newer submissions.
                    self._pending.insert(0, job.id)
                else:
                    self._fail_locked(job, error)
            self._refresh_gauges_locked()
            self._cond.notify_all()
