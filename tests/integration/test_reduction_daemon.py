"""End-to-end reduction service: daemon + HTTP plane + demo CLI.

Exercises the full serve-reductions stack the way CI's service-smoke
job does, but at a smaller scale: a live daemon behind a
:class:`MetricsServer`, scraped over real HTTP while mixed-tenant jobs
flow; then the packaged ``--demo`` self-check (concurrent tenants,
bit-parity verification against the serial service, epoch restart,
strict /metrics parse, clean shutdown) through the public CLI.
"""

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap
import urllib.error
import urllib.request

import repro

from repro.experiments.cli import main as experiments_main
from repro.service.cli import main as service_main
from repro.service.daemon import ReductionDaemon
from repro.service.http import DaemonSource
from repro.telemetry import parse_prometheus_text
from repro.telemetry.server import MetricsServer
from repro.topology import ring


def get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read()


class TestDaemonHTTPPlane:
    def test_endpoints_reflect_live_jobs(self):
        topo = ring(8)
        with ReductionDaemon(workers=0, linger_s=0.0) as daemon:
            with MetricsServer(DaemonSource(daemon)) as server:
                ids = [
                    daemon.submit(
                        tenant=f"t{j % 2}",
                        algorithm="push_sum",
                        topology=topo,
                        partials=[float(i + j) for i in range(topo.n)],
                        epsilon=1e-10,
                        seed=j,
                    )
                    for j in range(4)
                ]
                for job_id in ids:
                    daemon.result(job_id, timeout=30)

                status, body = get(server.url + "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["service"] == "reduction-daemon"
                assert health["jobs_completed"] == 4
                assert health["queue_depth"] == 0

                status, body = get(server.url + "/jobs")
                jobs = json.loads(body)["jobs"]
                assert len(jobs) == 4
                assert all(j["state"] == "done" for j in jobs)
                assert {j["tenant"] for j in jobs} == {"t0", "t1"}

                status, body = get(server.url + "/metrics")
                assert status == 200
                samples = parse_prometheus_text(body.decode())
                by_name = {}
                for name, labels, value in samples:
                    by_name.setdefault(name, []).append((labels, value))
                assert (
                    sum(
                        v
                        for _l, v in by_name["daemon_jobs_submitted_total"]
                    )
                    == 4.0
                )
                assert (
                    sum(
                        v
                        for _l, v in by_name[
                            "daemon_job_latency_seconds_count"
                        ]
                    )
                    == 4.0
                )
                assert "daemon_batch_jobs_bucket" in by_name

                # Campaign-only endpoints don't exist on this source.
                try:
                    urllib.request.urlopen(
                        server.url + "/progress", timeout=10
                    )
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404
                else:  # pragma: no cover - would mean a dispatch bug
                    raise AssertionError("/progress should 404")


class TestServeReductionsCLI:
    def test_demo_self_check_passes(self, capsys):
        # The packaged acceptance demo at reduced scale: concurrent
        # tenants, parity vs the serial service, epoch restart, strict
        # metrics parse and clean shutdown — exit 0 means all passed.
        rc = experiments_main(
            [
                "serve-reductions",
                "--demo",
                "--demo-jobs",
                "12",
                "--demo-tenants",
                "3",
                "--workers",
                "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity" in out
        assert "no leaked" in out
        assert multiprocessing.active_children() == []

    def test_demo_with_worker_processes(self, capsys):
        rc = service_main(
            [
                "--demo",
                "--demo-jobs",
                "8",
                "--demo-tenants",
                "2",
                "--workers",
                "1",
                "--quiet",
            ]
        )
        assert rc == 0
        assert multiprocessing.active_children() == []

    def test_self_checks_survive_python_O(self):
        # The demo's verdict must not depend on the optimization level:
        # under python -O a live child still fails the shutdown check.
        script = textwrap.dedent(
            """
            import multiprocessing, time
            from repro.service.cli import _verify_clean_shutdown

            child = multiprocessing.get_context("fork").Process(
                target=time.sleep, args=(60,)
            )
            child.start()
            try:
                _verify_clean_shutdown()
            except AssertionError as exc:
                print(exc)
                raise SystemExit(3)
            finally:
                child.terminate()
                child.join()
            """
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 3, (proc.returncode, proc.stdout, proc.stderr)
        assert "leaked worker processes" in proc.stdout
