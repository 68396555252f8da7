"""Campaign runner: retries, checkpoint/resume, parallel workers, timeouts."""

import glob
import json
import os

import pytest

from repro.campaigns import CampaignSpec, load_results, run_campaign
from repro.campaigns.runner import _mp_context, execute_cell
from repro.exceptions import ConfigurationError


def leaked_group_segments():
    """Shared-memory segments of this process's batched groups, if any."""
    return glob.glob(f"/dev/shm/repro-grp-{os.getpid()}-*")


def tiny_spec(**overrides):
    raw = {
        "name": "tiny",
        "algorithms": ["push_flow"],
        "topologies": [{"family": "hypercube", "n": 8}],
        "faults": [{"kind": "none"}],
        "seeds": [0, 1],
        "rounds": 30,
        "epsilon": 1e-3,
    }
    raw.update(overrides)
    return CampaignSpec.from_dict(raw)


class TestExecuteCell:
    def test_failure_free_cell_converges(self):
        cell = tiny_spec(rounds=80, epsilon=1e-6).expand()[0]
        record = execute_cell(cell)
        assert record["status"] == "ok"
        assert record["converged"] is True
        assert record["rounds_to_tolerance"] is not None
        assert record["event_round"] is None
        assert record["recovery_rounds"] is None

    def test_link_failure_cell_reports_recovery(self):
        cell = tiny_spec(
            faults=[{"kind": "link_failure", "round": 20}],
            rounds=120,
            epsilon=1e-6,
        ).expand()[0]
        record = execute_cell(cell)
        assert record["event_round"] == 20
        assert record["recovery_rounds"] is not None
        assert record["recovered"] in (True, False)


class TestSerialRetries:
    def test_flaky_executor_retried_and_accounted(self, tmp_path):
        spec = tiny_spec(seeds=[0])
        calls = {"n": 0}

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            record = execute_cell(cell)
            return record

        run = run_campaign(spec, tmp_path, retries=2, executor=flaky)
        assert (run.ok, run.failed, run.retries_used) == (1, 0, 1)
        (record,) = load_results(tmp_path).values()
        assert record["status"] == "ok"
        assert record["attempts"] == 2

    def test_exhausted_retries_record_failure(self, tmp_path):
        spec = tiny_spec(seeds=[0])

        def always_fails(cell):
            raise RuntimeError("broken executor")

        run = run_campaign(spec, tmp_path, retries=1, executor=always_fails)
        assert (run.ok, run.failed, run.retries_used) == (0, 1, 1)
        (record,) = load_results(tmp_path).values()
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert "broken executor" in record["error"]

    def test_zero_retries_means_single_attempt(self, tmp_path):
        spec = tiny_spec(seeds=[0])
        calls = {"n": 0}

        def always_fails(cell):
            calls["n"] += 1
            raise RuntimeError("nope")

        run = run_campaign(spec, tmp_path, retries=0, executor=always_fails)
        assert calls["n"] == 1
        assert run.retries_used == 0


class TestCheckpointResume:
    def test_resume_skips_recorded_cells(self, tmp_path):
        spec = tiny_spec()
        executed = []

        def tracking(cell):
            executed.append(cell["cell_id"])
            return execute_cell(cell)

        first = run_campaign(spec, tmp_path, executor=tracking)
        assert (first.executed, first.skipped) == (2, 0)

        second = run_campaign(spec, tmp_path, executor=tracking)
        assert (second.executed, second.skipped) == (0, 2)
        assert len(executed) == 2  # nothing re-ran

    def test_resume_after_partial_results(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path)
        results = tmp_path / "results.jsonl"
        lines = results.read_text().splitlines()
        results.write_text(lines[0] + "\n")  # drop the second cell's record

        rerun = run_campaign(spec, tmp_path)
        assert (rerun.skipped, rerun.executed) == (1, 1)
        assert len(load_results(tmp_path)) == 2

    def test_truncated_trailing_line_is_rerun(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path)
        results = tmp_path / "results.jsonl"
        lines = results.read_text().splitlines()
        results.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        rerun = run_campaign(spec, tmp_path)
        assert (rerun.skipped, rerun.executed) == (1, 1)

    def test_fresh_run_discards_results(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path)
        rerun = run_campaign(spec, tmp_path, resume=False)
        assert (rerun.skipped, rerun.executed) == (0, 2)

    def test_mismatched_campaign_dir_rejected(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path)
        other = tiny_spec(name="other")
        with pytest.raises(ConfigurationError, match="different campaign"):
            run_campaign(other, tmp_path)

    def test_campaign_json_written(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path)
        on_disk = json.loads((tmp_path / "campaign.json").read_text())
        assert on_disk == spec.to_dict()

    def _record_backend(self, out_dir, backend):
        """Rewrite a campaign dir's spec as a run that still recorded the
        removed kernel-backend key would have left it."""
        path = out_dir / "campaign.json"
        spec = json.loads(path.read_text())
        path.write_text(json.dumps({**spec, "backend": backend}))

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_resume_ignores_recorded_numpy_backend(self, tmp_path, backend):
        spec = tiny_spec(engine="batched")
        run_campaign(spec, tmp_path)
        self._record_backend(tmp_path, backend)
        rerun = run_campaign(spec, tmp_path)
        assert (rerun.skipped, rerun.executed) == (2, 0)

    def test_resume_refuses_removed_backend(self, tmp_path):
        # Jitted kernels match numpy only within tolerance: their cells
        # must not mix with numpy cells in one results file.
        spec = tiny_spec(engine="batched")
        run_campaign(spec, tmp_path)
        self._record_backend(tmp_path, "numba")
        with pytest.raises(ConfigurationError, match="removed 'numba' kernel backend"):
            run_campaign(spec, tmp_path)


class TestValidation:
    def test_bad_worker_retry_timeout_values(self, tmp_path):
        spec = tiny_spec()
        with pytest.raises(ConfigurationError, match="workers"):
            run_campaign(spec, tmp_path, workers=-1)
        with pytest.raises(ConfigurationError, match="retries"):
            run_campaign(spec, tmp_path, retries=-1)
        with pytest.raises(ConfigurationError, match="timeout"):
            run_campaign(spec, tmp_path, workers=1, timeout=0)


class TestParallel:
    def test_two_workers_complete_the_grid(self, tmp_path):
        spec = tiny_spec()
        run = run_campaign(spec, tmp_path, workers=2, timeout=120)
        assert (run.ok, run.failed) == (2, 0)
        records = load_results(tmp_path)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records.values())

    def test_timeout_terminates_and_records_failure(self, tmp_path):
        # A cell that cannot finish inside the deadline: huge round budget.
        spec = tiny_spec(seeds=[0], rounds=5_000_000, epsilon=1e-15)
        run = run_campaign(spec, tmp_path, workers=1, timeout=0.5, retries=0)
        assert (run.ok, run.failed) == (0, 1)
        (record,) = load_results(tmp_path).values()
        assert record["status"] == "failed"
        assert "timeout" in record["error"]


class TestStartMethod:
    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ConfigurationError, match="start method"):
            _mp_context("threads")

    def test_default_is_explicit_per_platform(self):
        import sys

        ctx = _mp_context()
        expected = "fork" if sys.platform.startswith("linux") else "spawn"
        assert ctx.get_start_method() == expected

    def test_spawn_context_resolves(self):
        assert _mp_context("spawn").get_start_method() == "spawn"

    def test_parallel_run_under_spawn(self, tmp_path):
        # spawn re-imports worker modules instead of inheriting the parent
        # image (the macOS/Windows default), so it catches any reliance on
        # fork-inherited state.
        spec = tiny_spec()
        run = run_campaign(
            spec, tmp_path, workers=2, timeout=120, start_method="spawn"
        )
        assert (run.ok, run.failed) == (2, 0)
        assert all(
            r["status"] == "ok" for r in load_results(tmp_path).values()
        )


class TestParallelBatchedGroups:
    def batched_spec(self, **overrides):
        raw = {
            "name": "tiny-batched",
            "engine": "batched",
            "algorithms": ["push_flow", "push_cancel_flow"],
            "topologies": [{"family": "hypercube", "n": 8}],
            "faults": [{"kind": "none"}, {"kind": "message_loss", "rate": 0.1}],
            "seeds": [0, 1],
            "rounds": 40,
            "epsilon": 1e-6,
        }
        raw.update(overrides)
        return CampaignSpec.from_dict(raw)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parallel_groups_match_serial_batched(
        self, tmp_path, start_method
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = run_campaign(self.batched_spec(), serial_dir)
        parallel = run_campaign(
            self.batched_spec(),
            parallel_dir,
            workers=2,
            timeout=120,
            start_method=start_method,
        )
        assert (serial.ok, parallel.ok) == (8, 8)
        varying = {"wall_s", "kernel_seconds", "recorded_at"}
        serial_records = load_results(serial_dir)
        for cell_id, record in load_results(parallel_dir).items():
            ref = serial_records[cell_id]
            for key in ref:
                if key not in varying:
                    assert ref[key] == record[key], (cell_id, key)
        assert leaked_group_segments() == []

    def test_group_timeout_records_failures_and_releases_shm(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing
        import time

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("stalled-worker injection relies on fork inheritance")
        from repro.campaigns import runner as runner_mod

        # Fork-started workers inherit the patched module, so every
        # attempt stalls past its deadline and must be terminated.
        monkeypatch.setattr(
            runner_mod,
            "_execute_cells_batched",
            lambda cells: time.sleep(60),
        )
        spec = self.batched_spec(
            algorithms=["push_flow"], seeds=[0], faults=[{"kind": "none"}]
        )
        run = run_campaign(
            spec,
            tmp_path,
            workers=1,
            timeout=0.3,
            retries=1,
            start_method="fork",
        )
        assert (run.ok, run.failed, run.retries_used) == (0, 1, 1)
        for record in load_results(tmp_path).values():
            assert record["status"] == "failed"
            assert "timeout" in record["error"]
            assert record["attempts"] == 2
        # Every attempt's shared-memory segment must be unlinked, on the
        # timeout path and on the retry path alike.
        assert leaked_group_segments() == []

    def test_worker_crash_is_retried_then_recorded(self, tmp_path, monkeypatch):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection relies on fork inheritance")
        from repro.campaigns import runner as runner_mod

        # Fork-started workers inherit the patch: every attempt dies hard
        # before it can report, as a killed or segfaulting worker would.
        monkeypatch.setattr(
            runner_mod, "_execute_cells_batched", lambda cells: os._exit(3)
        )
        spec = self.batched_spec(
            algorithms=["push_flow"], seeds=[0], faults=[{"kind": "none"}]
        )
        run = run_campaign(
            spec,
            tmp_path,
            workers=1,
            timeout=60,
            retries=1,
            start_method="fork",
        )
        assert (run.ok, run.failed, run.retries_used) == (0, 1, 1)
        (record,) = load_results(tmp_path).values()
        assert record["status"] == "failed"
        assert record["error"] == "worker crashed (exit code 3)"
        assert record["attempts"] == 2
        assert leaked_group_segments() == []

    def test_worker_error_is_retried_then_recorded(self):
        # An in-worker failure (not a crash): an algorithm with no batched
        # implementation makes _execute_cells_batched raise in the worker,
        # which ships the error home instead of dying silently.
        spec = self.batched_spec(
            algorithms=["push_flow"], seeds=[0], faults=[{"kind": "none"}]
        )
        cells = [
            {**c, "algorithm": "push_flow_incremental"} for c in spec.expand()
        ]
        from repro.campaigns import runner as runner_mod

        records = []
        stats = runner_mod._run_cells(
            cells,
            workers=1,
            timeout=30,
            retries=1,
            on_record=records.append,
        )
        assert stats["failed"] == len(cells)
        assert stats["retries_used"] == 1
        assert all(r["status"] == "failed" for r in records)
        assert all(r["error"] for r in records)
        assert leaked_group_segments() == []


class TestBatchedGroupTopologies:
    @pytest.mark.parametrize(
        "topology,builds",
        [
            ({"family": "hypercube", "n": 8}, 1),
            # Random families depend on the cell seed: one build per seed.
            ({"family": "erdos_renyi", "n": 8, "p": 0.6}, 2),
        ],
    )
    def test_each_distinct_topology_built_once_per_group(
        self, monkeypatch, topology, builds
    ):
        from repro.campaigns import runner as runner_mod

        real = runner_mod.topology_registry.build
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        spec = tiny_spec(
            engine="batched",
            topologies=[topology],
            faults=[{"kind": "none"}, {"kind": "message_loss", "rate": 0.1}],
        )
        monkeypatch.setattr(runner_mod.topology_registry, "build", counting)
        records = runner_mod._execute_cells_batched(spec.expand())
        assert [r["status"] for r in records] == ["ok"] * 4
        assert len(calls) == builds


class TestObservabilityFields:
    def test_cell_record_carries_alert_accounting(self):
        cell = tiny_spec(rounds=40).expand()[0]
        record = execute_cell(cell)
        assert record["alerts_total"] == 0
        assert record["alerts"] == {}
        assert record["flight_dumps"] == []

    def test_link_failure_cell_records_flight_dump(self, tmp_path):
        cell = tiny_spec(
            faults=[{"kind": "link_failure", "round": 20}], rounds=60
        ).expand()[0]
        cell["flight_dir"] = str(tmp_path / "flight")
        record = execute_cell(cell)
        assert record["status"] == "ok"
        assert len(record["flight_dumps"]) == 1
        dump = record["flight_dumps"][0]
        assert "flight_link_failure_r20" in dump
        assert json.loads(open(dump).read())["reason"] == "link_failure"

    def test_run_campaign_results_include_dump_paths(self, tmp_path):
        spec = tiny_spec(
            faults=[{"kind": "link_failure", "round": 20}],
            seeds=[0],
            rounds=60,
        )
        run_campaign(spec, tmp_path)
        (record,) = load_results(tmp_path).values()
        assert record["flight_dumps"]
        for dump in record["flight_dumps"]:
            assert json.loads(open(dump).read())["reason"] == "link_failure"
        # Dumps live under the campaign's own flight/<cell> directory.
        assert str(tmp_path / "flight") in record["flight_dumps"][0]

    def test_sample_rate_cell_still_detects(self, tmp_path):
        # A thinned sampler must not break cell execution or accounting.
        cell = tiny_spec(
            faults=[{"kind": "link_failure", "round": 20}],
            rounds=60,
            telemetry_sample_rate=0.25,
        ).expand()[0]
        record = execute_cell(cell)
        assert record["status"] == "ok"
        assert "alerts_total" in record


class TestTimestampsAndMetrics:
    def test_records_are_stamped_at_append_time(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path)
        records = load_results(tmp_path)
        stamps = [r["recorded_at"] for r in records.values()]
        assert all(isinstance(s, float) and s > 0 for s in stamps)
        # Appends happen in execution order, so stamps are monotone.
        ordered = [
            json.loads(line)["recorded_at"]
            for line in (tmp_path / "results.jsonl").read_text().splitlines()
        ]
        assert ordered == sorted(ordered)

    def test_metrics_every_exports_in_flight(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path, metrics_every=1)
        metrics_dir = tmp_path / "metrics"
        for suffix in ("jsonl", "csv", "prom"):
            assert (metrics_dir / f"metrics.{suffix}").stat().st_size > 0
        prom = (metrics_dir / "metrics.prom").read_text()
        assert 'campaign="tiny"' in prom
        assert "campaign_cells" in prom

    def test_metrics_disabled_by_default(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path)
        assert not (tmp_path / "metrics").exists()

    def test_negative_metrics_every_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign(tiny_spec(), tmp_path, metrics_every=-1)


class TestMetricsAggregation:
    """Worker registries ride the result channel; merged == serial, exactly.

    The live /metrics plane is only trustworthy if parallel execution
    reports the same counters a serial run would — counters from
    disjoint processes sum exactly (DESIGN.md §5f), so equality here is
    ``==``, never approx.
    """

    ENGINE_COUNTERS = (
        "engine_rounds_total",
        "engine_messages_sent_total",
        "engine_messages_delivered_total",
    )

    def counters(self, run, engine, backend):
        labels = {
            "algorithm": "push_flow",
            "engine": engine,
            "backend": backend,
        }
        return {
            name: run.metrics.counter(name).value(**labels)
            for name in self.ENGINE_COUNTERS
        }

    def test_per_cell_workers_match_serial(self, tmp_path):
        spec = tiny_spec(rounds=40)
        serial = run_campaign(spec, tmp_path / "serial")
        parallel = run_campaign(
            spec, tmp_path / "parallel", workers=2, timeout=120
        )
        assert (serial.ok, parallel.ok) == (2, 2)
        expected = self.counters(serial, "object", "none")
        assert expected["engine_rounds_total"] > 0
        assert expected["engine_messages_sent_total"] > 0
        assert self.counters(parallel, "object", "none") == expected

    def test_batched_group_workers_match_serial(self, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "name": "tiny-batched",
                "engine": "batched",
                "algorithms": ["push_flow"],
                "faults": [{"kind": "none"}, {"kind": "message_loss", "rate": 0.1}],
                "topologies": [{"family": "hypercube", "n": 8}],
                "seeds": [0, 1],
                "rounds": 40,
                "epsilon": 1e-6,
            }
        )
        serial = run_campaign(spec, tmp_path / "serial")
        parallel = run_campaign(
            spec, tmp_path / "parallel", workers=2, timeout=120
        )
        assert (serial.ok, parallel.ok) == (4, 4)
        expected = self.counters(serial, "batched", "numpy")
        assert expected["engine_rounds_total"] > 0
        assert self.counters(parallel, "batched", "numpy") == expected
        assert leaked_group_segments() == []

    def test_snapshots_never_reach_results_jsonl(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path, workers=2, timeout=120)
        for line in (tmp_path / "results.jsonl").read_text().splitlines():
            assert "_metrics_snapshot" not in json.loads(line)

    def test_batched_records_carry_kernel_seconds(self, tmp_path):
        spec = tiny_spec(name="tiny-b", engine="batched", epsilon=1e-6)
        run_campaign(spec, tmp_path)
        for record in load_results(tmp_path).values():
            assert record["kernel_seconds"] > 0
        hist = [
            m
            for m in run_campaign(
                spec, tmp_path, resume=False
            ).metrics.snapshot()["metrics"]
            if m["name"] == "repro_kernel_seconds"
        ]
        (kernel,) = hist
        assert kernel["kind"] == "histogram"
        labels = kernel["samples"][0]["labels"]
        assert labels["algorithm"] == "push_flow"
        assert labels["backend"] == "numpy"
        assert labels["phase"] == "kernel"

    def test_object_records_have_null_kernel_seconds(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path)
        assert all(
            r["kernel_seconds"] is None
            for r in load_results(tmp_path).values()
        )

    def test_export_failures_counted_not_swallowed(self, tmp_path, monkeypatch):
        import repro.analysis.campaigns.export as export_mod

        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(export_mod, "export_records_metrics", boom)
        run = run_campaign(tiny_spec(), tmp_path, metrics_every=1)
        assert run.ok == 2
        errors = run.metrics.counter("campaign_export_errors_total")
        # One failure per recorded cell plus the end-of-sweep export.
        assert errors.value(campaign="tiny") == 3.0
