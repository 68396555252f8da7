"""``python -m repro.experiments serve-reductions``: run the daemon.

Two modes:

- plain serving: start a :class:`ReductionDaemon` plus the telemetry
  HTTP plane and stay up until interrupted (an in-process client in the
  same interpreter submits jobs; the HTTP plane is observability);
- ``--demo``: additionally push a mixed-tenant job stream through the
  daemon from N concurrent tenant threads, then *prove* the service
  contract — every job's per-node estimates are compared bit-for-bit
  (``np.array_equal``, not allclose) against a serial
  :class:`ReductionService` call with the same master seed, the
  ``/healthz`` / ``/jobs`` / ``/metrics`` endpoints are scraped and
  strictly parsed, an epoch resubmission is verified to re-reduce the
  updated partials, and shutdown is checked to leak no worker
  processes. The CI ``service-smoke`` job runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import QueueFullError
from repro.service.daemon import ReductionDaemon
from repro.service.http import DaemonSource
from repro.service.jobs import JobResult
from repro.telemetry.server import MetricsServer

#: The demo's tenant workload mix: vector-capable algorithms cycle so
#: several batched groups form, topology families vary per tenant.
DEMO_ALGORITHMS = (
    "push_cancel_flow",
    "push_flow",
    "push_sum",
    "push_cancel_flow_hardened",
)
DEMO_N = 32


def _demo_topology(tenant_index: int):
    from repro.topology import complete, hypercube_for_nodes, ring, star

    families = (
        lambda: hypercube_for_nodes(DEMO_N),
        lambda: ring(DEMO_N),
        lambda: complete(DEMO_N),
        lambda: star(DEMO_N),
    )
    return families[tenant_index % len(families)]()


def _check(ok: bool, *message: object) -> None:
    """Raise ``AssertionError(*message)`` unless ``ok``.

    The demo's self-checks are its verdict, so unlike ``assert``
    statements they must also run under ``python -O``.
    """
    if not ok:
        raise AssertionError(*message)


def _bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise float64 equality — stricter than ``np.array_equal``.

    Non-converging runs legitimately carry inf/NaN estimates (the
    paper's flow blow-up on bottleneck topologies); ``array_equal``
    would call two byte-identical NaN arrays unequal, so parity is
    judged on the raw bit patterns.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _http_get(url: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def _tenant_worker(
    daemon: ReductionDaemon,
    tenant_index: int,
    n_jobs: int,
    out: List[Tuple[str, Dict[str, object], JobResult]],
    errors: List[BaseException],
) -> None:
    """Submit this tenant's jobs (async), then gather every result."""
    try:
        rng = np.random.default_rng(1000 + tenant_index)
        topology = _demo_topology(tenant_index)
        tenant = f"tenant-{tenant_index}"
        submitted: List[Tuple[str, Dict[str, object]]] = []
        for j in range(n_jobs):
            algorithm = DEMO_ALGORITHMS[j % len(DEMO_ALGORITHMS)]
            # A third of the jobs reduce 3-vectors (dmGS-style dot-product
            # blocks); the rest are scalar sums.
            if j % 3 == 0:
                partials = [rng.standard_normal(3) for _ in range(DEMO_N)]
            else:
                partials = [float(v) for v in rng.standard_normal(DEMO_N)]
            spec = {
                "tenant": tenant,
                "algorithm": algorithm,
                "topology": topology,
                "partials": partials,
                "epsilon": 1e-13,
                "aggregate": "sum" if j % 5 == 0 else "average",
                "seed": tenant_index * 10_000 + j,
            }
            while True:
                try:
                    job_id = daemon.submit(**spec)
                    break
                except QueueFullError:
                    time.sleep(0.01)  # backpressure: drain, then retry
            submitted.append((job_id, spec))
        for job_id, spec in submitted:
            out.append((job_id, spec, daemon.result(job_id, timeout=300.0)))
    except BaseException as exc:  # noqa: BLE001 - surfaced by the main thread
        errors.append(exc)


def _verify_parity(done: List[Tuple[str, Dict[str, object], JobResult]]) -> int:
    """Replay every job on a serial ReductionService; demand bit equality."""
    from repro.linalg.reduction_service import ReductionService

    max_batched = 0
    for job_id, spec, result in done:
        max_batched = max(max_batched, result.batched_with)
        service = ReductionService(
            spec["topology"],
            algorithm=spec["algorithm"],  # type: ignore[arg-type]
            epsilon=spec["epsilon"],  # type: ignore[arg-type]
            seed=spec["seed"],  # type: ignore[arg-type]
            aggregate=spec["aggregate"],  # type: ignore[arg-type]
        )
        serial = service.all_reduce_sum(spec["partials"])  # type: ignore[arg-type]
        if not _bit_identical(serial, result.estimates):
            raise AssertionError(
                f"job {job_id} ({spec['algorithm']}, batched_with="
                f"{result.batched_with}) is not bit-identical to the "
                "serial ReductionService call"
            )
    return max_batched


def _verify_epoch_restart(
    daemon: ReductionDaemon, done: List[Tuple[str, Dict[str, object], JobResult]]
) -> None:
    """Resubmit one finished job with new partials; the re-reduction must
    match a serial service run on the updated inputs. The job is the one
    returned last, which the daemon's finished-job retention still holds."""
    from repro.linalg.reduction_service import ReductionService

    job_id, spec, _ = done[-1]
    rng = np.random.default_rng(99)
    topology = spec["topology"]
    updated = [float(v) for v in rng.standard_normal(topology.n)]  # type: ignore[attr-defined]
    epoch = daemon.resubmit(job_id, updated)
    result = daemon.result(job_id, timeout=60.0)
    _check(result.epoch == epoch, (result.epoch, epoch))
    service = ReductionService(
        topology,  # type: ignore[arg-type]
        algorithm=spec["algorithm"],  # type: ignore[arg-type]
        epsilon=spec["epsilon"],  # type: ignore[arg-type]
        seed=spec["seed"],  # type: ignore[arg-type]
        aggregate=spec["aggregate"],  # type: ignore[arg-type]
    )
    serial = service.all_reduce_sum(updated)
    if not _bit_identical(serial, result.estimates):
        raise AssertionError(
            "epoch resubmission did not reproduce the serial reduction "
            "of the updated partials"
        )


def _verify_http(url: str, expected_jobs: int) -> None:
    """Scrape and strictly validate the live observability plane."""
    from repro.telemetry import parse_prometheus_text

    health = json.loads(_http_get(url + "/healthz"))
    _check(health["status"] == "ok", health)
    _check(health["queue_depth"] == 0, health)
    _check(health["jobs_completed"] >= expected_jobs, health)

    jobs = json.loads(_http_get(url + "/jobs"))["jobs"]
    _check(len(jobs) == expected_jobs, (len(jobs), expected_jobs))
    _check(all(j["state"] == "done" for j in jobs), jobs)

    samples = parse_prometheus_text(_http_get(url + "/metrics"))
    by_name: Dict[str, float] = {}
    for name, _labels, value in samples:
        by_name[name] = by_name.get(name, 0.0) + value
    # Latency histogram must be live: one observation per completed epoch.
    count = by_name.get("daemon_job_latency_seconds_count", 0.0)
    _check(
        count >= expected_jobs,
        f"daemon_job_latency_seconds_count={count}, "
        f"expected >= {expected_jobs}",
    )
    _check(by_name.get("daemon_jobs_submitted_total", 0.0) >= expected_jobs)
    _check(by_name.get("daemon_batch_jobs_count", 0.0) >= 1)
    # The campaign-only endpoints must 404 on a daemon source.
    try:
        _http_get(url + "/progress")
    except urllib.error.HTTPError as exc:
        _check(exc.code == 404, exc.code)
    else:
        raise AssertionError("/progress should 404 on a daemon source")


def _verify_clean_shutdown() -> None:
    import multiprocessing

    children = multiprocessing.active_children()
    _check(not children, f"leaked worker processes: {children}")


def _run_demo(
    daemon: ReductionDaemon,
    url: str,
    *,
    jobs: int,
    tenants: int,
    max_pending: int,
    say,
) -> None:
    per_tenant = (jobs + tenants - 1) // tenants
    total = per_tenant * tenants
    say(
        f"demo: {total} jobs from {tenants} concurrent tenants "
        f"({per_tenant} each, n={DEMO_N})"
    )
    done: List[Tuple[str, Dict[str, object], JobResult]] = []
    errors: List[BaseException] = []
    threads = [
        threading.Thread(
            target=_tenant_worker,
            args=(daemon, t, per_tenant, done, errors),
            name=f"demo-tenant-{t}",
        )
        for t in range(tenants)
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    say(f"all {len(done)} jobs completed in {time.monotonic() - t0:.2f}s")

    max_batched = _verify_parity(done)
    _check(
        max_batched > 1,
        "no job was multiplexed into a batched group — the demo stream "
        "should coalesce",
    )
    say(
        f"parity: every job bit-identical to its serial ReductionService "
        f"replay (largest batch: {max_batched} jobs)"
    )
    _verify_epoch_restart(daemon, done)
    say("epoch restart: resubmitted partials re-reduced correctly")
    _verify_http(url, min(len(done), max_pending))
    say("http: /healthz, /jobs and strictly-parsed /metrics all check out")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve-reductions",
        description=(
            "Run the persistent multi-tenant reduction daemon with its "
            "live telemetry endpoints (/metrics /healthz /jobs)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="port to bind (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for group execution (0 = in-process)",
    )
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument("--tenant-quota", type=int, default=64)
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--linger",
        type=float,
        default=0.01,
        help="seconds a sub-full batch waits for more compatible jobs",
    )
    parser.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: fork on Linux)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="push a mixed-tenant job stream and verify the service "
        "contract (bit-parity, epochs, endpoints, clean shutdown)",
    )
    parser.add_argument("--demo-jobs", type=int, default=64)
    parser.add_argument("--demo-tenants", type=int, default=4)
    parser.add_argument(
        "--stay-up",
        action="store_true",
        help="keep serving after the demo instead of exiting",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    def say(msg: str) -> None:
        if not args.quiet:
            print(msg, flush=True)

    daemon = ReductionDaemon(
        workers=args.workers,
        max_pending=args.max_pending,
        tenant_quota=args.tenant_quota,
        retries=args.retries,
        max_batch=args.max_batch,
        linger_s=args.linger,
        start_method=args.start_method,
    )
    server = MetricsServer(
        DaemonSource(daemon), host=args.host, port=args.port
    )
    server.start()
    say(f"reduction daemon serving at {server.url}")
    say("endpoints: /metrics /healthz /jobs")
    try:
        if args.demo:
            _run_demo(
                daemon,
                server.url,
                jobs=args.demo_jobs,
                tenants=args.demo_tenants,
                max_pending=args.max_pending,
                say=say,
            )
        if not args.demo or args.stay_up:
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
    finally:
        server.close()
        daemon.close()
    if args.demo:
        _verify_clean_shutdown()
        say("shutdown: no leaked workers")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
