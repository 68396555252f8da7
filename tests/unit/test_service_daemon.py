"""Unit tests for the reduction daemon (repro.service).

The load-bearing property is the same one the batched executor carries:
a job that rides through the daemon — batched with strangers, retried
after a worker death, resubmitted with fresh partials — must produce
estimates *bit-identical* to a serial :class:`ReductionService` call
with the same seed and call index. Admission control (quota, queue
backpressure), epoch semantics and lifecycle behavior layer on top.

Most tests run the daemon in-process (``workers=0``) and gate
``repro.service.batch.execute_group`` with a :class:`threading.Event`
to make queue occupancy deterministic; the dispatcher imports the
symbol from the module on every group, so a monkeypatched attribute
takes effect immediately.
"""

import glob
import os
import threading
import time

import numpy as np
import pytest

import repro.service.batch as batch_mod
from repro.exceptions import (
    ConfigurationError,
    JobFailedError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.linalg import ReductionService, RowDistributedMatrix, dmgs
from repro.service.client import DaemonClient
from repro.service.daemon import ReductionDaemon
from repro.topology import hypercube, ring


def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(
        np.uint64
    )


def _bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _serial(topology, partials, **kwargs):
    return ReductionService(topology, **kwargs).all_reduce_sum(partials)


class _Gate:
    """Monkeypatched execute_group that blocks until released."""

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        self.entered = threading.Event()
        real = batch_mod.execute_group

        def gated(requests, **kwargs):
            self.entered.set()
            if not self.release.wait(timeout=30):
                raise RuntimeError("gate never released")
            return real(requests, **kwargs)

        monkeypatch.setattr(batch_mod, "execute_group", gated)


class TestParity:
    def test_concurrent_tenants_bit_identical_to_serial(self):
        # 4 threads x 4 jobs each, all multiplexed through one daemon;
        # every result must match a serial service with the same seed.
        topo = hypercube(3)
        rng = np.random.default_rng(3)
        results = {}
        errors = []

        def tenant_worker(daemon, tenant_index):
            try:
                ids = []
                for j in range(4):
                    partials = [
                        rows[tenant_index * 4 + j][i] for i in range(topo.n)
                    ]
                    ids.append(
                        (
                            daemon.submit(
                                tenant=f"t{tenant_index}",
                                algorithm="push_sum",
                                topology=topo,
                                partials=partials,
                                epsilon=1e-12,
                                seed=tenant_index,
                                call_index=j,
                            ),
                            tenant_index,
                            j,
                        )
                    )
                for job_id, t, j in ids:
                    res = daemon.result(job_id, timeout=30)
                    results[(t, j)] = res
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        rows = rng.uniform(size=(16, topo.n))
        with ReductionDaemon(workers=0, linger_s=0.02) as daemon:
            threads = [
                threading.Thread(target=tenant_worker, args=(daemon, t))
                for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 16
        for (t, j), res in results.items():
            serial = ReductionService(
                topo, algorithm="push_sum", epsilon=1e-12, seed=t
            )
            for k in range(j + 1):
                expected = serial.all_reduce_sum(
                    [rows[t * 4 + k][i] for i in range(topo.n)]
                )
            assert _bit_identical(res.estimates, expected), (t, j)

    def test_queued_jobs_batch_into_one_group(self, monkeypatch):
        # Block the dispatcher on a first group, pile up compatible jobs,
        # release: the backlog must execute as one batched group.
        gate = _Gate(monkeypatch)
        topo = ring(8)
        rng = np.random.default_rng(7)
        data = rng.uniform(size=(8, topo.n))
        with ReductionDaemon(workers=0, linger_s=0.0) as daemon:
            ids = [
                daemon.submit(
                    tenant=f"t{j % 3}",
                    algorithm="push_flow",
                    topology=topo,
                    partials=[data[j][i] for i in range(topo.n)],
                    epsilon=1e-12,
                    seed=j,
                )
                for j in range(8)
            ]
            assert gate.entered.wait(timeout=10)
            gate.release.set()
            batched = []
            for j, job_id in enumerate(ids):
                res = daemon.result(job_id, timeout=30)
                batched.append(res.batched_with)
                expected = _serial(
                    topo,
                    [data[j][i] for i in range(topo.n)],
                    algorithm="push_flow",
                    epsilon=1e-12,
                    seed=j,
                )
                assert _bit_identical(res.estimates, expected)
        # The gated first group is small; everything queued behind it
        # must have coalesced.
        assert max(batched) >= 2

    def test_object_path_algorithm_matches_serial(self):
        # push_flow_incremental has no vectorized engine: the daemon
        # must route it down the object path and still match serial.
        topo = ring(6)
        partials = [float(i) for i in range(topo.n)]
        with ReductionDaemon(workers=0) as daemon:
            job_id = daemon.submit(
                tenant="obj",
                algorithm="push_flow_incremental",
                topology=topo,
                partials=partials,
                epsilon=1e-10,
                seed=5,
            )
            res = daemon.result(job_id, timeout=30)
        expected = _serial(
            topo,
            partials,
            algorithm="push_flow_incremental",
            epsilon=1e-10,
            seed=5,
        )
        assert res.engine == "object"
        assert _bit_identical(res.estimates, expected)


class TestAdmissionControl:
    def test_tenant_quota_rejected(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        partials = [1.0, 2.0, 3.0, 4.0]
        daemon = ReductionDaemon(workers=0, tenant_quota=2, linger_s=0.0)
        try:
            ids = [
                daemon.submit(
                    tenant="greedy",
                    algorithm="push_sum",
                    topology=topo,
                    partials=partials,
                    epsilon=1e-9,
                    call_index=j,
                )
                for j in range(2)
            ]
            with pytest.raises(QuotaExceededError):
                daemon.submit(
                    tenant="greedy",
                    algorithm="push_sum",
                    topology=topo,
                    partials=partials,
                    epsilon=1e-9,
                    call_index=2,
                )
            # Another tenant is unaffected by the greedy one's quota.
            other = daemon.submit(
                tenant="polite",
                algorithm="push_sum",
                topology=topo,
                partials=partials,
                epsilon=1e-9,
            )
            gate.release.set()
            for job_id in ids + [other]:
                daemon.result(job_id, timeout=30)
            stats = daemon.stats()
            assert stats.rejected == 1
            assert stats.completed == 3
        finally:
            gate.release.set()
            daemon.close()

    def test_queue_full_backpressure(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        partials = [1.0, 1.0, 1.0, 1.0]
        daemon = ReductionDaemon(
            workers=0, max_pending=2, tenant_quota=64, linger_s=0.0
        )
        try:
            blocker = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=partials,
                epsilon=1e-9,
            )
            # Wait until the dispatcher has pulled the blocker out of the
            # queue and is stuck in the gate, then fill the queue.
            assert gate.entered.wait(timeout=10)
            queued = [
                daemon.submit(
                    tenant="a",
                    algorithm="push_sum",
                    topology=topo,
                    partials=partials,
                    epsilon=1e-9,
                    call_index=j + 1,
                )
                for j in range(2)
            ]
            with pytest.raises(QueueFullError):
                daemon.submit(
                    tenant="a",
                    algorithm="push_sum",
                    topology=topo,
                    partials=partials,
                    epsilon=1e-9,
                    call_index=3,
                )
            gate.release.set()
            for job_id in [blocker] + queued:
                daemon.result(job_id, timeout=30)
            assert daemon.stats().rejected == 1
        finally:
            gate.release.set()
            daemon.close()

    def test_invalid_job_rejected_synchronously(self):
        topo = ring(4)
        with ReductionDaemon(workers=0) as daemon:
            with pytest.raises(ConfigurationError):
                daemon.submit(
                    tenant="bad",
                    algorithm="push_sum",
                    topology=topo,
                    partials=[1.0, 2.0],  # wrong count
                    epsilon=1e-9,
                )
            with pytest.raises(ConfigurationError):
                daemon.submit(
                    tenant="bad",
                    algorithm="no_such_algorithm",
                    topology=topo,
                    partials=[1.0, 2.0, 3.0, 4.0],
                )
            assert daemon.stats().rejected == 2


class TestWorkerDeath:
    def test_worker_crash_is_retried_and_daemon_stays_healthy(self):
        topo = ring(4)
        partials = [2.0, 4.0, 6.0, 8.0]
        with ReductionDaemon(workers=1, retries=1, linger_s=0.0) as daemon:
            job_id = daemon.submit(
                tenant="crashy",
                algorithm="push_sum",
                topology=topo,
                partials=partials,
                epsilon=1e-9,
                seed=11,
                crash_attempts=1,  # first attempt dies via os._exit(42)
            )
            res = daemon.result(job_id, timeout=60)
            assert res.attempts == 2
            stats = daemon.stats()
            assert stats.retries >= 1
            assert stats.failed == 0
            # The daemon survived the death: a follow-up job completes.
            follow = daemon.submit(
                tenant="crashy",
                algorithm="push_sum",
                topology=topo,
                partials=partials,
                epsilon=1e-9,
                seed=11,
                call_index=1,
            )
            daemon.result(follow, timeout=60)
        expected = _serial(
            topo, partials, algorithm="push_sum", epsilon=1e-9, seed=11
        )
        assert _bit_identical(res.estimates, expected)
        # The crashed attempt's shared-memory segment must not leak.
        leaked = glob.glob(f"/dev/shm/repro-svc-{os.getpid()}-*")
        assert leaked == []

    def test_crash_past_retry_budget_fails_the_job(self):
        topo = ring(4)
        with ReductionDaemon(workers=1, retries=1, linger_s=0.0) as daemon:
            job_id = daemon.submit(
                tenant="doomed",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0, 1.0, 1.0, 1.0],
                epsilon=1e-9,
                crash_attempts=5,  # outlives the retry budget
            )
            with pytest.raises(JobFailedError, match="crashed"):
                daemon.result(job_id, timeout=60)
            assert daemon.stats().failed == 1

    def test_running_group_past_its_deadline_is_terminated(self, monkeypatch):
        # The dispatcher blocks on the worker's pipe and sentinel, bounded
        # by the group deadline: a worker still running at the deadline is
        # killed promptly and its segment unlinked.
        monkeypatch.setattr(
            batch_mod, "execute_group", lambda *a, **k: time.sleep(60)
        )
        with ReductionDaemon(
            workers=1, retries=0, linger_s=0.0, start_method="fork"
        ) as daemon:
            job_id = daemon.submit(
                tenant="slow",
                algorithm="push_sum",
                topology=ring(4),
                partials=[1.0, 2.0, 3.0, 4.0],
                epsilon=1e-9,
                deadline_s=0.5,
            )
            t0 = time.monotonic()
            with pytest.raises(JobFailedError, match="deadline exceeded while running"):
                daemon.result(job_id, timeout=30)
            assert time.monotonic() - t0 < 10
        assert glob.glob(f"/dev/shm/repro-svc-{os.getpid()}-*") == []


class TestFinishedJobRetention:
    def _wave(self, daemon, topo, wave, size):
        ids = [
            daemon.submit(
                tenant=f"t{k}",
                algorithm="push_sum",
                topology=topo,
                partials=[float(wave), 1.0, 2.0, float(k)],
                epsilon=1e-9,
                seed=k,
                call_index=wave,
            )
            for k in range(size)
        ]
        return ids, [daemon.result(job_id, timeout=30) for job_id in ids]

    def test_returned_jobs_are_evicted_beyond_max_pending(self):
        topo = ring(4)
        with ReductionDaemon(workers=0, max_pending=8, linger_s=0.0) as daemon:
            first, _ = self._wave(daemon, topo, 0, 4)
            for wave in range(1, 100):
                ids, _ = self._wave(daemon, topo, wave, 4)
                assert len(daemon.jobs()) <= 8
            # The newest returned jobs stay readable; the oldest are gone.
            assert daemon.result(ids[-1], timeout=1).estimates is not None
            with pytest.raises(ServiceError, match="unknown job"):
                daemon.result(first[0], timeout=1)
            with pytest.raises(ServiceError, match="unknown job"):
                daemon.resubmit(first[0], [1.0, 1.0, 1.0, 1.0])
            assert daemon.stats().completed == 400

    def test_terminal_job_drops_partials_until_resubmitted(self):
        topo = ring(4)
        with ReductionDaemon(workers=0) as daemon:
            job_id = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0, 2.0, 3.0, 4.0],
                epsilon=1e-9,
            )
            daemon.result(job_id, timeout=30)
            assert daemon._jobs[job_id].spec.data is None
            daemon.resubmit(job_id, [4.0, 3.0, 2.0, 1.0])
            daemon.result(job_id, timeout=30)
            assert daemon._jobs[job_id].spec.data is None

    def test_unreturned_results_are_kept(self):
        topo = ring(4)
        with ReductionDaemon(workers=0, max_pending=2) as daemon:
            kept, _ = self._wave(daemon, topo, 0, 1)
            unread = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0, 2.0, 3.0, 4.0],
                epsilon=1e-9,
                call_index=1,
            )
            while daemon.stats().completed < 2:
                time.sleep(0.01)
            for wave in range(1, 5):
                self._wave(daemon, topo, wave, 2)
            # Never returned, so never evicted, however many waves pass.
            assert daemon.result(unread, timeout=1).epoch == 0
            with pytest.raises(ServiceError, match="unknown job"):
                daemon.result(kept[0], timeout=1)


class TestEpochResubmission:
    def test_queued_job_swaps_inputs_in_place(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        stale = [1.0, 2.0, 3.0, 4.0]
        fresh = [10.0, 20.0, 30.0, 40.0]
        daemon = ReductionDaemon(workers=0, linger_s=0.0)
        try:
            blocker = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[0.5] * 4,
                epsilon=1e-9,
            )
            assert gate.entered.wait(timeout=10)
            job_id = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=stale,
                epsilon=1e-9,
                seed=3,
                call_index=1,
            )
            epoch = daemon.resubmit(job_id, fresh)
            assert epoch == 1
            gate.release.set()
            res = daemon.result(job_id, timeout=30)
            daemon.result(blocker, timeout=30)
        finally:
            gate.release.set()
            daemon.close()
        # The reduction ran on the fresh partials with the *same*
        # schedule seed (seed 3, call index 1).
        serial = ReductionService(
            topo, algorithm="push_sum", epsilon=1e-9, seed=3
        )
        serial.all_reduce_sum([0.0] * 4)  # burn call index 0
        expected = serial.all_reduce_sum(fresh)
        assert _bit_identical(res.estimates, expected)
        assert daemon.stats().epoch_resubmissions == 1

    def test_running_job_discards_stale_result_and_reruns(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        stale = [1.0, 2.0, 3.0, 4.0]
        fresh = [-4.0, -3.0, -2.0, -1.0]
        daemon = ReductionDaemon(workers=0, linger_s=0.0)
        try:
            job_id = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=stale,
                epsilon=1e-9,
                seed=8,
            )
            assert gate.entered.wait(timeout=10)  # attempt 1 is in flight
            epoch = daemon.resubmit(job_id, fresh)
            assert epoch == 1
            gate.release.set()
            res = daemon.result(job_id, timeout=30)
        finally:
            gate.release.set()
            daemon.close()
        expected = _serial(
            topo, fresh, algorithm="push_sum", epsilon=1e-9, seed=8
        )
        assert _bit_identical(res.estimates, expected)

    def test_done_job_readmits_and_converges_to_updated_sum(self):
        topo = ring(4)
        with ReductionDaemon(workers=0) as daemon:
            job_id = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0, 2.0, 3.0, 4.0],
                epsilon=1e-12,
                seed=2,
            )
            first = daemon.result(job_id, timeout=30)
            fresh = [8.0, 6.0, 4.0, 2.0]
            epoch = daemon.resubmit(job_id, fresh)
            assert epoch == 1
            second = daemon.result(job_id, timeout=30)
            expected = _serial(
                topo, fresh, algorithm="push_sum", epsilon=1e-12, seed=2
            )
            assert _bit_identical(second.estimates, expected)
            assert not _bit_identical(first.estimates, second.estimates)

    def test_resubmit_unknown_job_rejected(self):
        with ReductionDaemon(workers=0) as daemon:
            with pytest.raises(ServiceError):
                daemon.resubmit("nope", [1.0, 2.0])


class TestLifecycle:
    def test_close_without_drain_fails_queued_jobs(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        daemon = ReductionDaemon(workers=0, linger_s=0.0)
        blocker = daemon.submit(
            tenant="a",
            algorithm="push_sum",
            topology=topo,
            partials=[1.0] * 4,
            epsilon=1e-9,
        )
        assert gate.entered.wait(timeout=10)
        queued = daemon.submit(
            tenant="a",
            algorithm="push_sum",
            topology=topo,
            partials=[2.0] * 4,
            epsilon=1e-9,
            call_index=1,
        )
        gate.release.set()
        daemon.close(drain=False)
        daemon.result(blocker, timeout=5)  # in-flight work still lands
        with pytest.raises(JobFailedError, match="shutting down"):
            daemon.result(queued, timeout=5)
        with pytest.raises(ServiceError):
            daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0] * 4,
                epsilon=1e-9,
            )

    def test_queue_deadline_expires_waiting_job(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        daemon = ReductionDaemon(workers=0, linger_s=0.0)
        try:
            blocker = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0] * 4,
                epsilon=1e-9,
            )
            assert gate.entered.wait(timeout=10)
            doomed = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[2.0] * 4,
                epsilon=1e-9,
                call_index=1,
                deadline_s=0.05,
            )
            time.sleep(0.1)
            gate.release.set()
            daemon.result(blocker, timeout=30)
            with pytest.raises(JobFailedError, match="deadline"):
                daemon.result(doomed, timeout=30)
        finally:
            gate.release.set()
            daemon.close()

    def test_result_timeout_raises(self, monkeypatch):
        gate = _Gate(monkeypatch)
        topo = ring(4)
        daemon = ReductionDaemon(workers=0, linger_s=0.0)
        try:
            job_id = daemon.submit(
                tenant="a",
                algorithm="push_sum",
                topology=topo,
                partials=[1.0] * 4,
                epsilon=1e-9,
            )
            with pytest.raises(TimeoutError):
                daemon.result(job_id, timeout=0.05)
        finally:
            gate.release.set()
            daemon.close()


class TestDaemonClient:
    def test_dmgs_through_daemon_matches_in_process_service(self):
        # The acceptance bar: swapping the client in for the service must
        # not change a single bit of the factorization.
        topo = hypercube(3)
        rng = np.random.default_rng(17)
        v = RowDistributedMatrix(
            [rng.uniform(size=(3, 4)) for _ in range(topo.n)]
        )
        serial_service = ReductionService(
            topo, algorithm="push_cancel_flow", epsilon=1e-12, seed=21
        )
        reference = dmgs(v, serial_service)
        with ReductionDaemon(workers=0, linger_s=0.0) as daemon:
            client = DaemonClient(
                daemon,
                topo,
                tenant="qr",
                algorithm="push_cancel_flow",
                epsilon=1e-12,
                seed=21,
            )
            result = dmgs(v, client)
        for node in range(topo.n):
            assert _bit_identical(
                result.q.block(node), reference.q.block(node)
            )
            assert _bit_identical(
                result.r_blocks[node], reference.r_blocks[node]
            )
        assert client.stats.calls == serial_service.stats.calls
        assert client.stats.total_rounds == serial_service.stats.total_rounds

    def test_client_failure_accounting_preserves_seed_stream(self):
        topo = ring(4)
        with ReductionDaemon(workers=0, linger_s=0.0) as daemon:
            client = DaemonClient(
                daemon,
                topo,
                tenant="flaky",
                algorithm="push_sum",
                epsilon=1e-9,
                seed=4,
            )
            with pytest.raises(ConfigurationError):
                client.all_reduce_sum([1.0, 2.0])  # wrong partial count
            assert client.stats.failed_calls == 1
            assert client.stats.calls == 0
            got = client.all_reduce_sum([1.0, 2.0, 3.0, 4.0])
        expected = _serial(
            topo,
            [1.0, 2.0, 3.0, 4.0],
            algorithm="push_sum",
            epsilon=1e-9,
            seed=4,
        )
        assert _bit_identical(got, expected)
