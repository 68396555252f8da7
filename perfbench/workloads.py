"""The workload registry: name -> (factory, operation, why, traced boundaries).

Each workload is a closed loop with one client thread. Its client builds
everything in :meth:`setup` (including one warm-up operation of each
kind), then runs :meth:`cycle` repeatedly; a cycle is the smallest unit
whose operation mix is fixed, so a run that stops between cycles never
shifts the mix. Clients report every operation to the phase, check their
outputs with :mod:`perfbench.gates`, and count attempted and failed
reductions. Add a workload with one ``@register_workload`` entry.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import pathlib
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import gates
from perfbench import metrics as m
from perfbench.tracing import Boundary


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operation: str
    factory: Callable[[int, pathlib.Path], "Client"]
    boundaries: Tuple[Boundary, ...]


WORKLOADS: Dict[str, Workload] = {}


def register_workload(name: str, *, why: str, operation: str, boundaries):
    def wrap(factory):
        if name in WORKLOADS:
            raise ValueError(f"workload {name!r} registered twice")
        WORKLOADS[name] = Workload(name, why, operation, factory, tuple(boundaries))
        return factory

    return wrap


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ----------------------------------------------------------------------
# Traced boundaries, grouped by layer
# ----------------------------------------------------------------------
def _messages(args, kwargs, result):
    return {"messages": len(args[-1])}  # every kernel's last argument is `delivered`


def _reduction(args, kwargs, result):
    return {
        "rounds": result.rounds,
        "capped": int(not result.converged),
        "useful_rounds": result.best_round + 1,
    }


def _batched_run(args, kwargs, result):
    return {"run_rounds": int(np.sum(result)), "n_runs": len(result)}


_NUMPY = "repro.vectorized.backends.numpy_backend:NumpyKernels."
KERNELS = tuple(
    Boundary(m.KERNEL, _NUMPY + k, _messages)
    for k in ("push_sum_round", "push_flow_round", "pcf_round", "pcf_hardened_round")
)
TOPOLOGY = (
    Boundary(m.TOPOLOGY, "repro.topology.standard:hypercube"),
    Boundary(m.TOPOLOGY, "repro.topology.registry:build"),
    Boundary(m.ARRAYS, "repro.vectorized.topology_arrays:TopologyArrays.from_topology"),
)
SINGLE_RUN = (
    Boundary(m.DMGS, "repro.linalg.gram_schmidt:dmgs"),
    Boundary(m.CALL, "repro.linalg.reduction_service:ReductionService.all_reduce_sum"),
    Boundary(m.REDUCTION, "repro.reduction:run_reduction", _reduction),
    Boundary(m.VEC_RUN, "repro.vectorized.base:VectorizedEngine.run"),
    Boundary(m.VEC_STEP, "repro.vectorized.base:VectorizedEngine.step"),
)
BATCHED = (
    Boundary(m.BATCHED_BUILD, "repro.vectorized.batched:BatchedEngine.__init__"),
    Boundary(m.BATCHED_RUN, "repro.vectorized.batched:BatchedEngine.run", _batched_run),
    Boundary(m.BATCHED_STEP, "repro.vectorized.batched:BatchedEngine.step"),
)
SERVICE = (
    Boundary(m.SUBMIT, "repro.service.daemon:ReductionDaemon.submit"),
    Boundary(
        m.EXECUTE, "repro.service.batch:execute_group", lambda a, k, r: {"jobs": len(a[0])}
    ),
)
CAMPAIGN = (
    Boundary(m.SWEEP, "repro.campaigns.runner:run_campaign", lambda a, k, r: {"cells": r.executed}),
    Boundary(
        m.SCHEDULE,
        "repro.faults.specs:build_topology_schedule",
        lambda a, k, r: {"deltas": len(r) if r is not None else 0},
    ),
    Boundary(m.PROBE, "repro.vectorized.batched:BatchedErrorHistory.on_round_end"),
    Boundary(m.PROBE, "repro.vectorized.batched:BatchedMassProbe.on_round_end"),
)


class Client:
    """What the benchmark needs from a workload client."""

    #: Cycles every untraced run completes, so accuracy_digits always
    #: covers the same operations for a given seed.
    min_cycles = 1
    #: Cycles of the traced run: a fixed count, so its counts repeat.
    trace_cycles = 1

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.accuracy_error = 0.0

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, phase, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks that replay results (outside any timing)."""

    def record(self) -> Dict[str, object]:
        return {}

    def counters(self) -> Dict[str, float]:
        """Program counters read around the traced phase."""
        return {}

    def close(self) -> None:
        """Release processes, threads and files."""


# ----------------------------------------------------------------------
# qr-service
# ----------------------------------------------------------------------
QR_N_DIM = 6  # hypercube(6): 64 nodes, one row of V each
QR_COLS = 16
QR_EPSILON = 1e-15
QR_ALGORITHMS = ("push_cancel_flow", "push_flow")


class _TimedService:
    """Hands dmgs a service whose every all_reduce_sum is one operation."""

    def __init__(self, service, phase, client: "QRService") -> None:
        self._service = service
        self._phase = phase
        self._client = client
        self.topology = service.topology
        self.stats = service.stats

    def all_reduce_sum(self, partials):
        client = self._client
        n = self.topology.n
        d = len(np.atleast_1d(partials[0]))
        self._phase.clock.between_operations()
        client.attempted += 1
        t0 = self._phase.begin()
        try:
            estimates = self._service.all_reduce_sum(partials)
        except Exception as exc:
            self._phase.end(t0, ok=False)
            client.fail(f"all_reduce_sum raised {type(exc).__name__}: {exc}")
            raise
        t1 = time.perf_counter()
        with self._phase.check():
            problem = gates.check_estimates(estimates, (n, d))
        if problem:
            client.fail(f"all_reduce_sum: {problem}")
        self._phase.end(t0, ok=problem is None, raw_s=t1 - t0)
        return estimates


@register_workload(
    "qr-service",
    why="Fig. 8 path: dmGS(PCF)/dmGS(PF) of 64x16 V on hypercube(6) through ReductionService; single-run engine and stop rule, no batching",
    operation="one all_reduce_sum call (31 per factorization)",
    boundaries=SINGLE_RUN + KERNELS + TOPOLOGY,
)
class QRService(Client):
    min_cycles = 2
    trace_cycles = 1

    def setup(self) -> None:
        from repro.linalg import gram_schmidt
        from repro.linalg.distributed import RowDistributedMatrix
        from repro.linalg.reduction_service import ReductionService
        from repro.topology import standard

        self._dmgs_module = gram_schmidt
        self._matrix = RowDistributedMatrix
        self._service = ReductionService
        self.topology = standard.hypercube(QR_N_DIM)
        n = self.topology.n
        warm = np.random.default_rng([self.seed, 999]).standard_normal(n)
        for algorithm in QR_ALGORITHMS:
            service = self._make_service(algorithm, _seed(self.seed, 999))
            service.all_reduce_sum([np.array([x * x]) for x in warm])
        self._worst = {a: 0.0 for a in QR_ALGORITHMS}

    def _make_service(self, algorithm: str, seed: int):
        return self._service(self.topology, algorithm=algorithm, epsilon=QR_EPSILON, seed=seed)

    def cycle(self, phase, index: int) -> None:
        n = self.topology.n
        v = np.random.default_rng([self.seed, index]).standard_normal((n, QR_COLS))
        # PF and PCF share V and the master seed, the paper's pairing.
        seed = _seed(self.seed, index)
        for algorithm in QR_ALGORITHMS:
            timed = _TimedService(self._make_service(algorithm, seed), phase, self)
            try:
                result = self._dmgs_module.dmgs(self._matrix.from_matrix(v, n), timed)
            except Exception as exc:  # counted by the call that raised, if any
                self.fail(f"dmGS({algorithm}) raised {type(exc).__name__}: {exc}", count=0)
                continue
            with phase.check():
                q = result.q.gather()
                err = gates.worst_factorization_error(v, q, result.r_blocks)
                problem = gates.check_factorization(algorithm, err)
            if problem:
                self.fail(problem, count=0)  # a wrong R, not a failed call
            if index < self.min_cycles:
                self._worst[algorithm] = max(self._worst[algorithm], err)
        self.accuracy_error = self._worst["push_cancel_flow"]

    def record(self) -> Dict[str, object]:
        return {"worst_factorization_error": self._worst}


# ----------------------------------------------------------------------
# daemon-tenants
# ----------------------------------------------------------------------
TENANTS = 16
JOB_DIM = 4
PARITY_TENANTS = (0, 5, 10, 15)
PARITY_WAVES = 4
RESULT_TIMEOUT_S = 60.0


@register_workload(
    "daemon-tenants",
    why="multi-tenant path: 16 tenants keep one (64,4) PCF job each in flight through ReductionDaemon(workers=1); batching, linger, fork transport",
    operation="one wave of 16 jobs, submit to last result",
    boundaries=SERVICE + BATCHED + KERNELS + TOPOLOGY,
)
class DaemonTenants(Client):
    min_cycles = 8
    trace_cycles = 12

    def setup(self) -> None:
        from repro import exceptions
        from repro.linalg.reduction_service import ReductionService
        from repro.service import ReductionDaemon
        from repro.topology import standard

        self._exc = exceptions
        self._service = ReductionService
        self.topology = standard.hypercube(QR_N_DIM)
        self.daemon = ReductionDaemon(workers=1)
        self._tenant_seeds = [_seed(self.seed, t) for t in range(TENANTS)]
        self._kept: Dict[Tuple[int, int], np.ndarray] = {}
        self.wave_groups: List[str] = []
        self._wave(None, -1)  # warm-up: fork, imports in the worker, one group

    def _partials(self, tenant: int, wave: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, tenant, wave + 1])
        return rng.standard_normal((self.topology.n, JOB_DIM))

    def cycle(self, phase, index: int) -> None:
        self._wave(phase, index)

    def _wave(self, phase, wave: int) -> None:
        exc = self._exc
        partials = [self._partials(t, wave) for t in range(TENANTS)]
        call_index = max(wave, 0)
        timed = int(phase is not None)  # the warm-up wave counts no operations
        t0 = phase.begin() if phase else time.perf_counter()
        submitted: List[Tuple[int, Optional[str], float]] = []
        for t in range(TENANTS):
            ts = time.perf_counter()
            try:
                job = self.daemon.submit(
                    tenant=f"tenant-{t}",
                    algorithm="push_cancel_flow",
                    topology=self.topology,
                    partials=partials[t],
                    seed=self._tenant_seeds[t],
                    call_index=call_index,
                )
            except (exc.QueueFullError, exc.QuotaExceededError, exc.ServiceError) as e:
                job = None
                self.fail(f"wave {wave} tenant {t}: submit refused: {e}", count=timed)
            submitted.append((t, job, ts))
        latencies: List[float] = []
        results = []
        for t, job, ts in submitted:
            if job is None:
                latencies.append(math.inf)
                continue
            try:
                res = self.daemon.result(job, timeout=RESULT_TIMEOUT_S)
            except (exc.JobFailedError, TimeoutError) as e:
                latencies.append(math.inf)
                self.fail(f"wave {wave} tenant {t}: {type(e).__name__}: {e}", count=timed)
                continue
            latencies.append(time.perf_counter() - ts)
            results.append((t, res))
        if phase is None:
            return
        self.attempted += TENANTS
        ok = len(results) == TENANTS
        phase.end(t0, ok=ok, reductions=len(results), raw_s=max(latencies))
        with phase.check():
            self._check_wave(wave, partials, results)

    def _check_wave(self, wave, partials, results) -> None:
        sizes = collections.Counter(res.batched_with for _, res in results)
        self.wave_groups.append(
            "+".join(str(s) for s in sorted(sizes, reverse=True) for _ in range(sizes[s] // s))
        )
        for t, res in results:
            problem = gates.check_estimates(res.estimates, partials[t].shape)
            if problem:
                self.fail(f"wave {wave} tenant {t}: {problem}")
                continue
            if wave < self.min_cycles:
                err = gates.sum_error(res.estimates, partials[t])
                self.accuracy_error = max(self.accuracy_error, err)
            if t in PARITY_TENANTS and wave < PARITY_WAVES:
                self._kept[(t, wave)] = res.estimates

    def finish(self) -> None:
        """Replay the sampled jobs through a serial ReductionService."""
        for t in PARITY_TENANTS:
            service = self._service(
                self.topology, algorithm="push_cancel_flow", seed=self._tenant_seeds[t]
            )
            for wave in range(PARITY_WAVES):  # call_index == wave
                serial = service.all_reduce_sum(self._partials(t, wave))
                kept = self._kept.get((t, wave))
                if kept is None:
                    continue
                problem = gates.check_parity(kept, serial)
                if problem:
                    self.fail(f"wave {wave} tenant {t}: {problem}")

    def record(self) -> Dict[str, object]:
        stats = self.daemon.stats()
        return {
            "wave_groups": self.wave_groups,
            "split_waves": sum(1 for g in self.wave_groups if "+" in g),
            "daemon": dataclasses.asdict(stats),
        }

    def counters(self) -> Dict[str, float]:
        stats = self.daemon.stats()
        return {
            "service.retries": stats.retries,
            "service.rejected": stats.rejected,
            "service.failed": stats.failed,
        }

    def close(self) -> None:
        if hasattr(self, "daemon"):
            self.daemon.close()


# ----------------------------------------------------------------------
# churn-campaign
# ----------------------------------------------------------------------
CHURN_N = 256
#: The builtin's 160-round horizon was sized for n = 32. At n = 256,
#: 1.3% of fault-free PCF cells need 161-172 rounds to reach 1e-6
#: (300 seeds measured), which would fail the convergence gate.
CHURN_ROUNDS = 200


@register_workload(
    "churn-campaign",
    why="churn-grid builtin at hypercube n=256 via run_campaign(workers=1): batched engine under topology deltas, probes every round, per-cell builds",
    operation="one sweep of 24 cells into a fresh directory",
    boundaries=CAMPAIGN + BATCHED + KERNELS + TOPOLOGY,
)
class ChurnCampaign(Client):
    min_cycles = 4
    trace_cycles = 8

    def setup(self) -> None:
        from repro.campaigns import runner
        from repro.campaigns.builtin import BUILTIN_SPECS
        from repro.campaigns.spec import CampaignSpec

        self._runner = runner
        self._spec = CampaignSpec
        self._grid = BUILTIN_SPECS["churn-grid"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._sweep(None, -1)

    def cycle(self, phase, index: int) -> None:
        self._sweep(phase, index)

    def _sweep(self, phase, index: int) -> None:
        first = self.seed * 100_000 + 2 * (index + 1)
        raw = dict(
            self._grid,
            name=f"churn-bench-{index + 1}",
            topologies=[{"family": "hypercube", "n": CHURN_N}],
            seeds=[first, first + 1],
            rounds=CHURN_ROUNDS,
            engine="batched",
        )
        out = self.workdir / f"sweep-{index + 1}"
        t0 = phase.begin() if phase else time.perf_counter()
        spec = self._spec.from_dict(raw)
        try:
            run = self._runner.run_campaign(spec, out, workers=1)
        except Exception as exc:
            run = None
            problem = f"sweep {index} raised {type(exc).__name__}: {exc}"
        cells = spec.n_cells
        if run is None:
            self.fail(problem, count=cells if phase else 0)
        if phase is None:
            shutil.rmtree(out, ignore_errors=True)
            return
        self.attempted += cells
        if run is None:
            phase.end(t0, ok=False, reductions=0)
            return
        phase.end(t0, ok=run.ok == cells, reductions=run.ok)
        with phase.check():
            records = self._runner.load_results(out)
            cell_ids = [c["cell_id"] for c in spec.expand()]
            self.failed += sum(1 for c in cell_ids if records.get(c, {}).get("status") != "ok")
            for problem in gates.check_sweep(records, cell_ids):
                self.fail(problem, count=0)
            if index < self.min_cycles:
                for r in records.values():
                    if r.get("fault") == "none" and r.get("algorithm") == "push_cancel_flow":
                        err = r.get("final_error")
                        err = math.inf if err is None else float(err)
                        self.accuracy_error = max(self.accuracy_error, err)
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
