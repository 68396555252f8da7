"""Worker-process plumbing for the reduction daemon.

Mirrors the campaign runner's group machinery
(:mod:`repro.campaigns.runner`): the parent owns a shared-memory
segment per in-flight group (PID-prefixed ``repro-svc-*`` names, so
leaks are attributable and the smoke tests can scan for them), the
worker attaches without taking ownership, writes the pickled results
and signals the payload size on a one-way pipe. Oversized payloads
fall back to shipping inline through the pipe. The parent unlinks the
segment in *every* outcome path — success, worker error, crash, timeout
and retry — so no segment outlives its attempt.

Results travel as pickle, not JSON: a job's estimates must survive the
hop bit-for-bit, and pickle round-trips float64 arrays exactly without
leaning on repr shortest-round-trip subtleties.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional

from repro.service.jobs import ExecRequest

#: Per-job capacity estimate for a group's pickled results. A result is
#: dominated by its (n, d) float64 estimates; 64 KB per job covers
#: n*d up to ~8000 cells with headroom, and larger payloads fall back
#: to the queue.
SHM_BYTES_PER_JOB = 65536
SHM_MIN_BYTES = 65536


def shm_name(seq: int) -> str:
    return f"repro-svc-{os.getpid()}-{seq}"


def attach_shm(name: str):
    """Child-side attach to the parent-owned result segment.

    Ownership stays with the parent (see ``_attach_shm`` in the campaign
    runner for the full resource-tracker story): on Python 3.13+ the
    child attaches with ``track=False``; earlier versions register with
    the tracker, which the parent's unlink balances.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        return shared_memory.SharedMemory(name=name)


def group_worker_entry(
    requests: List[ExecRequest],
    shm_segment_name: str,
    result_conn,
    kernel_backend: Optional[str] = None,
) -> None:
    """Subprocess body for one job group; the outcome goes to ``result_conn``.

    The ``crash_attempts`` test seam fires here and only here: an
    in-process daemon never hard-kills itself, but a subprocess dying
    mid-group is exactly the failure mode the retry path must absorb,
    so the lifecycle tests script it deterministically.
    """
    for req in requests:
        if req.crash_attempts and req.attempt <= req.crash_attempts:
            os._exit(42)
    try:
        from repro.service.batch import execute_group

        results = execute_group(requests, kernel_backend=kernel_backend)
        payload = pickle.dumps(results)
        shm = attach_shm(shm_segment_name)
        try:
            if len(payload) <= shm.size:
                shm.buf[: len(payload)] = payload
                result_conn.send(("shm", len(payload)))
            else:
                result_conn.send(("inline", results))
        finally:
            shm.close()
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        result_conn.send(("error", f"{type(exc).__name__}: {exc}"))
