"""Campaign execution: parallel cell runs with retries and checkpointing.

:func:`execute_cell` runs one (algorithm, topology, fault, seed) cell of an
expanded campaign grid and returns a plain-dict outcome record;
:func:`run_campaign` sweeps a whole :class:`~repro.campaigns.spec.CampaignSpec`,
either in-process (``workers=0``) or across ``multiprocessing`` workers with
per-run timeouts and bounded retries, appending every terminal record to
``results.jsonl`` as it lands — so a killed or partially completed campaign
resumes by simply re-invoking it: recorded cells are skipped.

Outcome metrics per cell (see DESIGN.md for the paper mapping):

- ``converged`` / ``rounds_to_tolerance`` / ``final_error`` / ``best_error``
  — oracle-relative accuracy, as in the paper's experiments;
- ``recovery_rounds`` / ``recovered`` / ``jump_factor`` / ``restart_fraction``
  — the Figs. 4/7 fallback analysis around the earliest permanent-failure
  handling event (``recovery_rounds`` is censored at the remaining round
  budget when the run never regains its pre-event accuracy — PF's typical
  fate, versus PCF's near-zero recovery cost);
- ``mass_drift_floor`` / ``mass_drift_final`` / ``mass_drift_worst`` —
  global mass-conservation drift from
  :class:`~repro.telemetry.probes.MassConservationProbe`; the *floor*
  (minimum over the run's tail) is the persistent-loss signal, since
  crossing-induced drift spikes self-heal;
- ``alerts`` / ``alerts_total`` — per-detector counts from the
  :mod:`repro.tracing.anomaly` detectors that ride along with every cell;
- ``flight_dumps`` — black-box files the cell's
  :class:`~repro.tracing.flight.FlightRecorder` wrote (link-failure
  handling, non-finite estimates, sustained mass drain, or the exception
  that failed the cell); failure records list whatever dumps reached the
  cell's flight directory before the attempt died.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.aggregates import (
    AggregateKind,
    initial_mass_pairs,
    true_aggregate,
)
from repro.algorithms.registry import instantiate
from repro.exceptions import ConfigurationError
from repro.experiments.workloads import bus_case_study_data, uniform_data
from repro.faults.events import LinkFailure
from repro.faults.specs import (
    DYNAMIC_FAULT_KINDS,
    build_faults,
    build_topology_schedule,
    validate_fault_spec,
)
from repro.metrics.convergence import fallback_report
from repro.metrics.history import ErrorHistory
from repro.campaigns.spec import _VECTOR_FAULT_KINDS, CampaignSpec
from repro.simulation.engine import SynchronousEngine
from repro.simulation.schedule import UniformGossipSchedule
from repro.telemetry.probes import MassConservationProbe
from repro.telemetry.registry import MetricsRegistry
from repro.topology import registry as topology_registry

_MASS_TOLERANCE = 1e-6


def _cell_seed_streams(seed: int):
    """Independent child streams for one cell's random components.

    The cell seed used to feed topology build, data generation, fault RNG
    and (offset by a constant) the gossip schedule directly, which starts
    several of those streams from correlated state. SeedSequence spawning
    gives statistically independent children while keeping cell ids — and
    the paper's paired-comparison property (same seed ⇒ same topology,
    data and fault timeline across algorithms) — intact.

    Returns ``(topology, data, fault, schedule)`` SeedSequence children.
    """
    return np.random.SeedSequence(seed).spawn(4)


def _stream_seed(stream: np.random.SeedSequence) -> int:
    """A plain integer seed drawn from a SeedSequence child."""
    return int(stream.generate_state(1)[0])


def _json_float(value: Optional[float]) -> object:
    """JSONL-safe float: non-finite values become tagged strings."""
    if value is None:
        return None
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def as_float(value: object) -> float:
    """Inverse of :func:`_json_float` (for report aggregation)."""
    if value is None:
        return float("nan")
    if value == "nan":
        return float("nan")
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return float(value)  # type: ignore[arg-type]


def _count_cell_metrics(
    registry: MetricsRegistry,
    *,
    algorithm: str,
    engine: str,
    backend: str,
    rounds: int,
    sent: int,
    delivered: int,
    mass_violations: int,
) -> None:
    """Fold one finished cell's engine totals into a per-attempt registry.

    These counters ride home to the parent as a ``RegistrySnapshot``
    (attached to the record, popped before the record is persisted), so
    the authoritative aggregate is identical whether cells ran serially,
    via per-cell workers, or as multiprocess batched groups.
    """
    labels = {"algorithm": algorithm, "engine": engine, "backend": backend}
    registry.counter(
        "engine_rounds_total", "Gossip rounds executed by campaign cells"
    ).inc(float(rounds), **labels)
    registry.counter(
        "engine_messages_sent_total", "Messages sent by campaign cells"
    ).inc(float(sent), **labels)
    registry.counter(
        "engine_messages_delivered_total",
        "Messages delivered by campaign cells",
    ).inc(float(delivered), **labels)
    if mass_violations:
        registry.counter(
            "engine_mass_violations_total",
            "Mass-conservation violations observed by the probes",
        ).inc(float(mass_violations), **labels)


def _make_data(kind: str, n: int, seed: int) -> np.ndarray:
    if kind == "uniform":
        return uniform_data(n, seed=seed)
    if kind == "spike":
        return bus_case_study_data(n)
    if kind == "log_uniform":
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(-3, 3, size=n)
    raise ConfigurationError(f"unknown data kind {kind!r}")


def execute_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """Run one campaign cell to completion and measure its outcome.

    Cells carrying ``engine: vectorized`` or ``engine: batched`` run on
    the whole-array engines as a batch of one (so per-cell execution —
    e.g. under multiprocessing workers — produces records bit-identical
    to grouped batched execution); everything else takes the per-message
    object engine below.
    """
    if str(cell.get("engine", "object")) != "object":
        return _execute_cells_batched([cell])[0]
    t0 = time.perf_counter()
    topo_spec: Dict[str, object] = dict(cell["topology"])  # type: ignore[arg-type]
    family = str(topo_spec.pop("family"))
    n = int(topo_spec.pop("n"))  # type: ignore[arg-type]
    seed = int(cell["seed"])  # type: ignore[arg-type]
    rounds = int(cell["rounds"])  # type: ignore[arg-type]
    epsilon = float(cell["epsilon"])  # type: ignore[arg-type]

    topo_stream, data_stream, fault_stream, sched_stream = _cell_seed_streams(
        seed
    )
    topology = topology_registry.build(
        family, n, seed=_stream_seed(topo_stream), **topo_spec
    )
    data = _make_data(str(cell["data"]), n, _stream_seed(data_stream))
    kind = AggregateKind(str(cell["aggregate"]))
    truth = true_aggregate(kind, list(data))
    initial = initial_mass_pairs(kind, list(data))
    algorithms = instantiate(str(cell["algorithm"]), topology, initial)

    built = build_faults(
        cell["fault"],  # type: ignore[arg-type]
        seed=_stream_seed(fault_stream),
        topology=topology,
        horizon=rounds,
    )
    history = ErrorHistory(truth)
    mass_probe = MassConservationProbe(tolerance=_MASS_TOLERANCE)

    # Per-cell observability: anomaly detectors always ride along (they
    # sample, so they are cheap); the flight recorder joins when the
    # campaign provides a per-cell dump directory. Both honour the spec's
    # telemetry_sample_rate (None -> the cheap default stride).
    from repro.telemetry.sampling import RoundSampler
    from repro.tracing.anomaly import default_detectors
    from repro.tracing.flight import FlightRecorder

    sample_rate = cell.get("telemetry_sample_rate")
    sampler = (
        RoundSampler(rate=float(sample_rate))  # type: ignore[arg-type]
        if sample_rate is not None
        else None
    )
    # Per-cell registry: detector alert counters land here and the engine
    # totals are folded in below; the whole thing ships home with the
    # record as a snapshot so multiprocess runs aggregate losslessly.
    registry = MetricsRegistry()
    detectors = default_detectors(sampler=sampler, registry=registry)
    flight_dir = cell.get("flight_dir")
    flight = (
        FlightRecorder(str(flight_dir)) if flight_dir is not None else None
    )
    extra_observers: List[object] = list(detectors)
    if flight is not None:
        extra_observers.append(flight)

    engine = SynchronousEngine(
        topology,
        algorithms,
        UniformGossipSchedule(topology.n, _stream_seed(sched_stream)),
        message_fault=built.message_fault,
        fault_plan=built.fault_plan,
        topology_schedule=built.topology_schedule,
        observers=[history, mass_probe, *extra_observers] + built.observers,
    )
    if flight is not None:
        with flight.watch(engine):
            engine.run(rounds)
    else:
        engine.run(rounds)

    errors = history.max_errors
    final_error = history.final_max_error()
    converged = math.isfinite(final_error) and final_error <= epsilon
    finite_errors = [e for e in errors if math.isfinite(e)]
    best_error = min(finite_errors) if finite_errors else float("inf")

    recovery: Dict[str, object] = {
        "event_round": built.event_round,
        "recovery_rounds": None,
        "recovered": None,
        "jump_factor": None,
        "restart_fraction": None,
    }
    if built.event_round is not None and built.event_round < len(errors):
        report = fallback_report(errors, built.event_round)
        recovered = report.recovery_rounds is not None
        recovery.update(
            {
                # Censor never-recovered runs at the remaining round budget
                # so means stay comparable across algorithms.
                "recovery_rounds": report.recovery_rounds
                if recovered
                else len(errors) - built.event_round,
                "recovered": recovered,
                "jump_factor": _json_float(report.jump_factor),
                "restart_fraction": _json_float(report.restart_fraction),
            }
        )

    # Crossing overwrites make the instantaneous drift noisy (they
    # self-heal; see MassConservationProbe docs), so the fault signal is
    # the drift *floor* over the run's tail: healthy flow algorithms touch
    # ~0 repeatedly, genuine mass loss (push-sum under loss, PCF deadlock
    # drain) never returns there.
    mass_records = mass_probe.records
    tail_start = max(0, engine.round - max(engine.round // 4, 1))
    tail_drifts = [
        float(r["drift"])  # type: ignore[arg-type]
        for r in mass_records
        if int(r["round"]) >= tail_start  # type: ignore[arg-type]
    ]
    return {
        "cell_id": cell["cell_id"],
        "status": "ok",
        "algorithm": cell["algorithm"],
        "topology": cell["topology_label"],
        "fault": cell["fault"]["name"],  # type: ignore[index]
        "seed": seed,
        "engine": "object",
        "backend": None,
        "n": n,
        "rounds": engine.round,
        "epsilon": epsilon,
        "converged": converged,
        "rounds_to_tolerance": history.first_round_below(epsilon),
        "final_error": _json_float(final_error),
        "best_error": _json_float(best_error),
        "dynamics": built.dynamics_meta,
        **recovery,
        "mass_drift_final": _json_float(
            float(mass_records[-1]["drift"]) if mass_records else None  # type: ignore[arg-type]
        ),
        "mass_drift_floor": _json_float(
            min(tail_drifts) if tail_drifts else None
        ),
        "mass_drift_worst": _json_float(mass_probe.worst_drift()),
        "mass_violations": len(mass_probe.violations),
        "alerts_total": sum(len(d.alerts) for d in detectors),
        "alerts": {d.name: len(d.alerts) for d in detectors if d.alerts},
        "flight_dumps": (
            [str(p) for p in flight.dump_paths] if flight is not None else []
        ),
        "messages_sent": engine.messages_sent,
        "messages_delivered": engine.messages_delivered,
        "wall_s": round(time.perf_counter() - t0, 4),
        # No fused kernel on the per-message object engine.
        "kernel_seconds": None,
        "error": None,
        "_metrics_snapshot": _cell_snapshot(
            registry,
            algorithm=str(cell["algorithm"]),
            engine="object",
            backend="none",
            rounds=engine.round,
            sent=engine.messages_sent,
            delivered=engine.messages_delivered,
            mass_violations=len(mass_probe.violations),
        ),
    }


def _cell_snapshot(
    registry: MetricsRegistry,
    **totals,
) -> Dict[str, object]:
    """Engine totals + whatever the detectors counted, as a wire snapshot."""
    _count_cell_metrics(registry, **totals)
    return registry.snapshot()


def _vector_fault_params(spec: Dict[str, object]):
    """Map a fault spec onto the batched engine's fault surface.

    Supported kinds: ``none``, ``message_loss`` (composed rates combine
    into one i.i.d. loss probability) and ``link_failure``. Everything
    else needs the per-message object engine — the spec validator rejects
    such grids up front; this guard catches hand-built cells.
    """
    normalized = validate_fault_spec(spec)
    parts = normalized.get("compose") or [normalized]
    keep = 1.0
    links: List[LinkFailure] = []
    for part in parts:  # type: ignore[union-attr]
        kind = str(part["kind"])  # type: ignore[index]
        if kind == "none" or kind in DYNAMIC_FAULT_KINDS:
            # Dynamic kinds map onto the engine's topology-delta support
            # (built separately via build_topology_schedule).
            continue
        if kind == "message_loss":
            keep *= 1.0 - float(part["rate"])  # type: ignore[index]
        elif kind == "link_failure":
            u, v = part["edge"]  # type: ignore[index]
            links.append(
                LinkFailure(
                    round=int(part["round"]),  # type: ignore[index]
                    u=int(u),
                    v=int(v),
                    detection_delay=int(part.get("detection_delay", 0)),  # type: ignore[union-attr]
                )
            )
        else:
            raise ConfigurationError(
                f"fault kind {kind!r} is not supported on the vectorized/"
                f"batched engines; supported kinds: "
                f"{sorted(_VECTOR_FAULT_KINDS)}"
            )
    return 1.0 - keep, links


def _execute_cells_batched(
    cells: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Run same-signature cells as one batched whole-array program.

    Every cell becomes one run of a
    :class:`repro.vectorized.batched.BatchedEngine`; per-cell seed streams
    are derived exactly as in :func:`execute_cell` (same SeedSequence
    children), so topology and data match the object-engine path for the
    same seed. Converged fault-free runs retire early; cells with message
    loss or pending link failures run their full round budget, since
    their recovery/drift series must cover the horizon. Returned records
    are schema-identical to the object-engine records (observability
    fields are present but empty: the anomaly detectors and the flight
    recorder are per-message object-engine instruments).
    """
    from repro.vectorized.batched import (
        BatchedEngine,
        BatchedErrorHistory,
        BatchedMassProbe,
        BatchedRun,
    )

    t0 = time.perf_counter()
    first = cells[0]
    algorithm = str(first["algorithm"])
    rounds = int(first["rounds"])  # type: ignore[arg-type]
    epsilon = float(first["epsilon"])  # type: ignore[arg-type]
    kind = AggregateKind(str(first["aggregate"]))
    data_kind = str(first["data"])
    engine_kind = str(first.get("engine", "vectorized"))
    backend = first.get("backend")

    runs: List[BatchedRun] = []
    truths: List[float] = []
    event_rounds: List[Optional[int]] = []
    retire_ok: List[bool] = []
    sizes: List[int] = []
    schedules: List[object] = []
    # Each distinct topology is built once per group: a group's cells share
    # their topology spec, and only random families depend on the seed.
    topologies: Dict[Tuple[str, Optional[int]], object] = {}
    for cell in cells:
        topo_spec: Dict[str, object] = dict(cell["topology"])  # type: ignore[arg-type]
        family = str(topo_spec.pop("family"))
        n = int(topo_spec.pop("n"))  # type: ignore[arg-type]
        seed = int(cell["seed"])  # type: ignore[arg-type]
        topo_stream, data_stream, fault_stream, sched_stream = (
            _cell_seed_streams(seed)
        )
        topo_seed = _stream_seed(topo_stream)
        seeded = family.lower() in topology_registry.RANDOM_FAMILIES
        key = (
            json.dumps(cell["topology"], sort_keys=True),
            topo_seed if seeded else None,
        )
        topology = topologies.get(key)
        if topology is None:
            topology = topologies[key] = topology_registry.build(
                family, n, seed=topo_seed, **topo_spec
            )
        data = _make_data(data_kind, n, _stream_seed(data_stream))
        truths.append(float(true_aggregate(kind, list(data))))
        initial = initial_mass_pairs(kind, list(data))
        loss, links = _vector_fault_params(cell["fault"])  # type: ignore[arg-type]
        # Same fault-stream seed as the object path, so a dynamic cell
        # builds the identical topology schedule on either engine.
        schedule = build_topology_schedule(
            cell["fault"],  # type: ignore[arg-type]
            topology=topology,
            seed=_stream_seed(fault_stream),
            horizon=rounds,
        )
        schedules.append(schedule)
        handle_rounds = [lf.handle_round for lf in links]
        if handle_rounds:
            event_rounds.append(min(handle_rounds))
        elif schedule is not None:
            event_rounds.append(schedule.last_round)
        else:
            event_rounds.append(None)
        retire_ok.append(loss == 0.0 and not links and schedule is None)
        sizes.append(n)
        runs.append(
            BatchedRun(
                topology=topology,
                values=np.array([float(p.value) for p in initial]),
                weights=np.array([float(p.weight) for p in initial]),
                rng=np.random.default_rng(sched_stream),
                loss_probability=loss,
                link_failures=tuple(links),
                topology_schedule=schedule,
            )
        )

    engine = BatchedEngine(
        algorithm, runs, backend=str(backend) if backend is not None else None
    )
    # Group-level telemetry: the fused round kernel is timed into a
    # histogram labeled by (algorithm, engine, backend) — backend is the
    # *resolved* one, so a numba fallback profiles as numpy — and the
    # engine totals below join it in one snapshot shipped with the group.
    from repro.telemetry.phase import PhaseTimer

    registry = MetricsRegistry()
    timer = PhaseTimer(
        registry,
        engine_kind=engine_kind,
        metric="repro_kernel_seconds",
        help="Fused round-kernel wall time",
        labels={"algorithm": algorithm, "backend": engine.backend_name},
    )
    engine.phase_timer = timer
    history = BatchedErrorHistory(truths)
    mass_probe = BatchedMassProbe(tolerance=_MASS_TOLERANCE)
    mass_probe.start(engine)

    def on_round(eng, round_index: int) -> None:
        history.on_round_end(eng, round_index)
        mass_probe.on_round_end(eng, round_index)

    eligible = np.array(retire_ok, dtype=bool)
    stop_when = None
    if eligible.any():

        def stop_when(eng, round_index: int):
            current = history.current_max_errors()
            return eligible & np.isfinite(current) & (current <= epsilon)

    engine.run(rounds, stop_when=stop_when, on_round=on_round)

    wall = round((time.perf_counter() - t0) / len(cells), 4)
    # The kernel cost amortizes over the whole batch; attribute an equal
    # share to every cell, like wall_s.
    kernel_wall = round(timer.totals.get("kernel", 0.0) / len(cells), 6)
    sent = engine.messages_sent
    delivered = engine.messages_delivered
    run_rounds = engine.run_rounds
    records: List[Dict[str, object]] = []
    all_errors = history.max_errors
    all_mass_records = mass_probe.records
    for r, cell in enumerate(cells):
        errors = all_errors[r]
        final_error = errors[-1] if errors else float("inf")
        converged = math.isfinite(final_error) and final_error <= epsilon
        finite_errors = [e for e in errors if math.isfinite(e)]
        best_error = min(finite_errors) if finite_errors else float("inf")

        recovery: Dict[str, object] = {
            "event_round": event_rounds[r],
            "recovery_rounds": None,
            "recovered": None,
            "jump_factor": None,
            "restart_fraction": None,
        }
        event_round = event_rounds[r]
        if event_round is not None and event_round < len(errors):
            report = fallback_report(errors, event_round)
            recovered = report.recovery_rounds is not None
            recovery.update(
                {
                    "recovery_rounds": report.recovery_rounds
                    if recovered
                    else len(errors) - event_round,
                    "recovered": recovered,
                    "jump_factor": _json_float(report.jump_factor),
                    "restart_fraction": _json_float(report.restart_fraction),
                }
            )

        mass_records = all_mass_records[r]
        cell_rounds = int(run_rounds[r])
        tail_start = max(0, cell_rounds - max(cell_rounds // 4, 1))
        tail_drifts = [d for rnd, d in mass_records if rnd >= tail_start]
        records.append(
            {
                "cell_id": cell["cell_id"],
                "status": "ok",
                "algorithm": cell["algorithm"],
                "topology": cell["topology_label"],
                "fault": cell["fault"]["name"],  # type: ignore[index]
                "seed": int(cell["seed"]),  # type: ignore[arg-type]
                "engine": engine_kind,
                # The *resolved* backend: a numba spec that fell back to
                # numpy records "numpy", so results say what actually ran.
                "backend": engine.backend_name,
                "n": sizes[r],
                "rounds": cell_rounds,
                "epsilon": epsilon,
                "converged": converged,
                "rounds_to_tolerance": history.first_round_below(r, epsilon),
                "final_error": _json_float(final_error),
                "best_error": _json_float(best_error),
                "dynamics": (
                    schedules[r].meta() if schedules[r] is not None else None  # type: ignore[attr-defined]
                ),
                **recovery,
                "mass_drift_final": _json_float(
                    mass_records[-1][1] if mass_records else None
                ),
                "mass_drift_floor": _json_float(
                    min(tail_drifts) if tail_drifts else None
                ),
                "mass_drift_worst": _json_float(mass_probe.worst_drift(r)),
                "mass_violations": int(mass_probe.violations[r]),
                "alerts_total": 0,
                "alerts": {},
                "flight_dumps": [],
                "messages_sent": int(sent[r]),
                "messages_delivered": int(delivered[r]),
                "wall_s": wall,
                "kernel_seconds": kernel_wall,
                "error": None,
            }
        )
        _count_cell_metrics(
            registry,
            algorithm=algorithm,
            engine=engine_kind,
            backend=engine.backend_name,
            rounds=cell_rounds,
            sent=int(sent[r]),
            delivered=int(delivered[r]),
            mass_violations=int(mass_probe.violations[r]),
        )
    # One snapshot for the whole group, riding on its last record: the
    # parent merges it exactly once per successful attempt, whether the
    # group ran in-process or in a worker (shm/pipe transport is JSON,
    # and the snapshot is a plain JSON-able dict).
    records[-1]["_metrics_snapshot"] = registry.snapshot()
    return records


def _safe_cell_dir(cell_id: str) -> str:
    """Filesystem-safe directory name for a cell's flight dumps."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in cell_id)


def _failure_record(
    cell: Dict[str, object], attempts: int, error: str
) -> Dict[str, object]:
    # The flight recorder writes its black-box dumps before the failing
    # attempt unwinds (FlightRecorder.watch dumps on the escaping
    # exception), so whatever reached the cell's flight directory is the
    # post-mortem record for this failure.
    flight_dir = cell.get("flight_dir")
    dumps: List[str] = []
    if flight_dir is not None:
        directory = pathlib.Path(str(flight_dir))
        if directory.is_dir():
            dumps = sorted(str(p) for p in directory.glob("flight_*.json"))
    return {
        "cell_id": cell["cell_id"],
        "status": "failed",
        "algorithm": cell["algorithm"],
        "topology": cell.get("topology_label"),
        "fault": cell["fault"].get("name"),  # type: ignore[union-attr]
        "seed": cell["seed"],
        "engine": cell.get("engine", "object"),
        "backend": cell.get("backend"),
        "attempts": attempts,
        "flight_dumps": dumps,
        "error": error,
    }


@dataclasses.dataclass
class CampaignRun:
    """Summary of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    out_dir: pathlib.Path
    total_cells: int
    skipped: int
    executed: int
    ok: int
    failed: int
    retries_used: int
    #: Authoritative cross-process aggregate: every worker's per-cell /
    #: per-group registry snapshot merged in record-arrival order.
    metrics: Optional[MetricsRegistry] = None

    @property
    def results_path(self) -> pathlib.Path:
        return self.out_dir / "results.jsonl"


def load_results(out_dir: Union[str, pathlib.Path]) -> Dict[str, Dict[str, object]]:
    """Read ``results.jsonl``, keeping the latest record per cell id.

    Tolerates a truncated trailing line (the checkpoint file may have been
    cut mid-write by a crash): bad lines are skipped, which simply means
    the affected cell re-runs.
    """
    path = pathlib.Path(out_dir) / "results.jsonl"
    records: Dict[str, Dict[str, object]] = {}
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "cell_id" in record:
            records[str(record["cell_id"])] = record
    return records


def _append_record(path: pathlib.Path, record: Dict[str, object]) -> None:
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.flush()


def _mp_context(start_method: Optional[str] = None):
    """Explicit multiprocessing context selection.

    The start method used to be chosen as fork-if-available, which made
    the execution model platform-implicit (and silently picked ``fork``
    on macOS, where forking a threaded Python is unsafe). Now the choice
    is explicit: ``fork`` on Linux (cheap, inherits the imported NumPy),
    ``spawn`` everywhere else. Pass ``start_method`` to force one — e.g.
    ``spawn`` on Linux to mirror macOS/Windows behavior in tests.
    """
    if start_method is None:
        start_method = "fork" if sys.platform.startswith("linux") else "spawn"
    available = multiprocessing.get_all_start_methods()
    if start_method not in available:
        raise ConfigurationError(
            f"multiprocessing start method {start_method!r} is not "
            f"available on this platform; available: {available}"
        )
    return multiprocessing.get_context(start_method)


def _worker_entry(cell: Dict[str, object], result_conn) -> None:
    """Subprocess body: run the cell, ship the outcome (or the error) home."""
    try:
        result_conn.send(execute_cell(cell))
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        result_conn.send(
            {
                "cell_id": cell["cell_id"],
                "status": "worker_error",
                "error": f"{type(exc).__name__}: {exc}",
            }
        )


@dataclasses.dataclass
class _Attempt:
    cell: Dict[str, object]
    attempt: int  # 1-based
    process: object = None
    reader: object = None
    deadline: Optional[float] = None


def _start(ctx, item, target, *args) -> None:
    """Fork/spawn one attempt with a one-way pipe for its outcome."""
    item.reader, writer = ctx.Pipe(duplex=False)
    item.process = ctx.Process(target=target, args=(*args, writer), daemon=True)
    item.process.start()
    writer.close()  # the worker holds the only write end now


def _wait_any(running: list) -> None:
    """Block until an attempt reports, exits or reaches the nearest deadline."""
    from multiprocessing import connection

    deadlines = [item.deadline for item in running if item.deadline is not None]
    timeout = (
        max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
    )
    connection.wait(
        [item.reader for item in running]
        + [item.process.sentinel for item in running],
        timeout,
    )


def _outcome(item) -> Tuple[str, object]:
    """One attempt's state: ("result", payload), ("crashed", exit code),
    ("timeout", None) or ("running", None).

    A landed result wins over an expired deadline (the work is done either
    way), and liveness is sampled before the pipe so a worker that reported
    and exited is never mistaken for a crash. Finished attempts are joined
    (a timed-out one terminated first) and their pipe closed.
    """
    proc = item.process
    alive = proc.is_alive()
    state: Tuple[str, object]
    if item.reader.poll():
        try:
            state = ("result", item.reader.recv())
        except EOFError:  # died before (or while) reporting
            state = ("crashed", None)
    elif not alive:
        state = ("crashed", None)
    elif item.deadline is not None and time.monotonic() > item.deadline:
        proc.terminate()
        state = ("timeout", None)
    else:
        return ("running", None)
    proc.join()
    item.reader.close()
    if state[0] == "crashed":
        state = ("crashed", proc.exitcode)
    return state


def _run_serial(
    pending: List[Dict[str, object]],
    retries: int,
    on_record: Callable[[Dict[str, object]], None],
    executor: Callable[[Dict[str, object]], Dict[str, object]],
) -> Dict[str, int]:
    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    for cell in pending:
        last_error = "unknown"
        record: Optional[Dict[str, object]] = None
        for attempt in range(1, retries + 2):
            if attempt > 1:
                stats["retries_used"] += 1
            try:
                record = executor(cell)
                record["attempts"] = attempt
                break
            except Exception as exc:  # noqa: BLE001 - accounted as a failed attempt
                last_error = f"{type(exc).__name__}: {exc}"
                record = None
        if record is None:
            record = _failure_record(cell, retries + 1, last_error)
            stats["failed"] += 1
        else:
            stats["ok"] += 1
        on_record(record)
    return stats


def _run_batched(
    pending: List[Dict[str, object]],
    retries: int,
    on_record: Callable[[Dict[str, object]], None],
) -> Dict[str, int]:
    """Serial batched execution: one whole-array program per cell group.

    Pending cells are grouped by (algorithm, topology) — the run keys
    (rounds, epsilon, aggregate, data) are campaign-wide already — and
    each group executes as a single :class:`BatchedEngine` program. A
    failing group is retried whole; per-cell records land individually,
    so a partially completed campaign still resumes cell by cell.
    """
    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    groups: Dict[tuple, List[Dict[str, object]]] = {}
    order: List[tuple] = []
    for cell in pending:
        key = (str(cell["algorithm"]), str(cell["topology_label"]))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(cell)
    for key in order:
        cells = groups[key]
        last_error = "unknown"
        records: Optional[List[Dict[str, object]]] = None
        attempts = 0
        for attempt in range(1, retries + 2):
            attempts = attempt
            if attempt > 1:
                stats["retries_used"] += 1
            try:
                records = _execute_cells_batched(cells)
                break
            except Exception as exc:  # noqa: BLE001 - accounted per attempt
                last_error = f"{type(exc).__name__}: {exc}"
                records = None
        if records is None:
            for cell in cells:
                on_record(_failure_record(cell, retries + 1, last_error))
            stats["failed"] += len(cells)
        else:
            for record in records:
                record["attempts"] = attempts
                on_record(record)
            stats["ok"] += len(cells)
    return stats


def _run_parallel(
    pending: List[Dict[str, object]],
    workers: int,
    timeout: Optional[float],
    retries: int,
    on_record: Callable[[Dict[str, object]], None],
    start_method: Optional[str] = None,
) -> Dict[str, int]:
    ctx = _mp_context(start_method)
    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    todo: List[_Attempt] = [_Attempt(cell=c, attempt=1) for c in pending]
    todo.reverse()  # pop() keeps the original submission order
    running: List[_Attempt] = []

    def settle(item: _Attempt, error: str) -> None:
        """One attempt failed: requeue it or record the terminal failure."""
        if item.attempt <= retries:
            stats["retries_used"] += 1
            todo.append(_Attempt(cell=item.cell, attempt=item.attempt + 1))
        else:
            stats["failed"] += 1
            on_record(_failure_record(item.cell, item.attempt, error))

    while todo or running:
        while todo and len(running) < workers:
            item = todo.pop()
            _start(ctx, item, _worker_entry, item.cell)
            item.deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            running.append(item)

        _wait_any(running)
        still_running: List[_Attempt] = []
        for item in running:
            state, payload = _outcome(item)
            if state == "result":
                record: Dict[str, object] = payload  # type: ignore[assignment]
                if record.get("status") == "ok":
                    record["attempts"] = item.attempt
                    stats["ok"] += 1
                    on_record(record)
                else:  # the worker caught an in-run exception
                    settle(item, str(record.get("error", "worker error")))
            elif state == "crashed":
                settle(item, f"worker crashed (exit code {payload})")
            elif state == "timeout":
                settle(item, f"timeout after {timeout:g}s")
            else:
                still_running.append(item)
        running = still_running
    return stats


# ----------------------------------------------------------------------
# Parallel batched groups: one whole-array program per worker process,
# results shipped home through a parent-owned shared-memory segment.
# ----------------------------------------------------------------------

#: Per-cell capacity estimate for a group's result payload. Records are
#: ~1-2 KB of JSON; 8 KB per cell leaves generous headroom, and a group
#: whose payload still exceeds its segment falls back to the pipe.
_SHM_BYTES_PER_CELL = 8192
_SHM_MIN_BYTES = 65536


def _attach_shm(name: str):
    """Child-side attach to the parent-owned result segment.

    Ownership stays with the parent: it created the segment and unlinks
    it in *every* outcome path (success, worker error, crash, timeout,
    retry). On Python 3.13+ the child attaches with ``track=False`` so it
    never becomes co-responsible. Earlier versions register the attach
    with the resource tracker unconditionally — which is safe here:
    fork, spawn and forkserver children all inherit the parent's tracker
    fd, registration is set-idempotent, and the parent's unlink balances
    the books (the child must NOT unregister, or the parent's later
    unlink-unregister trips a tracker KeyError).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        return shared_memory.SharedMemory(name=name)


def _group_worker_entry(
    cells: List[Dict[str, object]], shm_name: str, result_conn
) -> None:
    """Subprocess body for one batched group.

    Writes the group's records as JSON into the parent's shared-memory
    segment and signals the payload size on the pipe; oversized payloads
    fall back to shipping the records inline through the pipe.
    """
    try:
        records = _execute_cells_batched(cells)
        payload = json.dumps(records).encode()
        shm = _attach_shm(shm_name)
        try:
            if len(payload) <= shm.size:
                shm.buf[: len(payload)] = payload
                result_conn.send(("shm", len(payload)))
            else:
                result_conn.send(("inline", records))
        finally:
            shm.close()
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        result_conn.send(("error", f"{type(exc).__name__}: {exc}"))


@dataclasses.dataclass
class _GroupAttempt:
    cells: List[Dict[str, object]]
    attempt: int  # 1-based
    process: object = None
    reader: object = None
    shm: object = None
    deadline: Optional[float] = None


def _group_pending(
    pending: List[Dict[str, object]],
) -> List[List[Dict[str, object]]]:
    """Group cells by (algorithm, topology) in first-seen order."""
    groups: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    order: List[Tuple[str, str]] = []
    for cell in pending:
        key = (str(cell["algorithm"]), str(cell["topology_label"]))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(cell)
    return [groups[key] for key in order]


def _run_parallel_batched(
    pending: List[Dict[str, object]],
    workers: int,
    timeout: Optional[float],
    retries: int,
    on_record: Callable[[Dict[str, object]], None],
    start_method: Optional[str] = None,
) -> Dict[str, int]:
    """Parallel batched execution: whole (algorithm, topology) groups per
    worker process, so a multi-group campaign saturates the machine while
    every group keeps the full whole-array speedup.

    Result transport is a parent-owned shared-memory segment per running
    group (created before the worker starts, unlinked by the parent in
    *every* outcome path — success, worker error, crash, timeout and
    retry — so no segment outlives its attempt). The per-cell ``timeout``
    scales with group size: a group of k cells gets ``k * timeout``
    seconds, preserving per-cell semantics.
    """
    from multiprocessing import shared_memory

    ctx = _mp_context(start_method)
    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    todo: List[_GroupAttempt] = [
        _GroupAttempt(cells=g, attempt=1) for g in _group_pending(pending)
    ]
    todo.reverse()  # pop() keeps the original submission order
    running: List[_GroupAttempt] = []
    seq = 0

    def release(item: _GroupAttempt) -> None:
        shm = item.shm
        if shm is None:
            return
        item.shm = None
        shm.close()  # type: ignore[union-attr]
        try:
            shm.unlink()  # type: ignore[union-attr]
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def settle(item: _GroupAttempt, error: str) -> None:
        release(item)
        if item.attempt <= retries:
            stats["retries_used"] += 1
            todo.append(_GroupAttempt(cells=item.cells, attempt=item.attempt + 1))
        else:
            stats["failed"] += len(item.cells)
            for cell in item.cells:
                on_record(_failure_record(cell, item.attempt, error))

    def finish(item: _GroupAttempt, records: List[Dict[str, object]]) -> None:
        release(item)
        stats["ok"] += len(item.cells)
        for record in records:
            record["attempts"] = item.attempt
            on_record(record)

    try:
        while todo or running:
            while todo and len(running) < workers:
                item = todo.pop()
                seq += 1
                item.shm = shared_memory.SharedMemory(
                    # PID-prefixed so stale segments are attributable (and
                    # the cleanup tests can scan for this process's leaks).
                    name=f"repro-grp-{os.getpid()}-{seq}",
                    create=True,
                    size=max(
                        _SHM_MIN_BYTES, _SHM_BYTES_PER_CELL * len(item.cells)
                    ),
                )
                _start(ctx, item, _group_worker_entry, item.cells, item.shm.name)
                item.deadline = (
                    time.monotonic() + timeout * len(item.cells)
                    if timeout is not None
                    else None
                )
                running.append(item)

            _wait_any(running)
            still_running: List[_GroupAttempt] = []
            for item in running:
                state, msg = _outcome(item)
                if state == "result":
                    tag, payload = msg  # type: ignore[misc]
                    if tag == "shm":
                        nbytes = int(payload)  # type: ignore[arg-type]
                        raw = bytes(item.shm.buf[:nbytes])  # type: ignore[union-attr]
                        finish(item, json.loads(raw.decode()))
                    elif tag == "inline":
                        finish(item, payload)  # type: ignore[arg-type]
                    else:  # the worker caught an in-run exception
                        settle(item, str(payload))
                elif state == "crashed":
                    settle(item, f"worker crashed (exit code {msg})")
                elif state == "timeout":
                    settle(
                        item,
                        f"group timeout after "
                        f"{timeout * len(item.cells):g}s "  # type: ignore[operator]
                        f"({len(item.cells)} cells x {timeout:g}s)",
                    )
                else:
                    still_running.append(item)
            running = still_running
    finally:
        # Belt and braces: a raising on_record (or KeyboardInterrupt) must
        # not leak segments or pipes of still-running groups.
        for item in running:
            if item.process is not None and item.process.is_alive():  # type: ignore[union-attr]
                item.process.terminate()  # type: ignore[union-attr]
                item.process.join()  # type: ignore[union-attr]
            if item.reader is not None:
                item.reader.close()  # type: ignore[union-attr]
            release(item)
    return stats


def run_campaign(
    spec: CampaignSpec,
    out_dir: Union[str, pathlib.Path],
    *,
    workers: int = 0,
    timeout: Optional[float] = None,
    retries: int = 1,
    resume: bool = True,
    log: Optional[Callable[[str], None]] = None,
    executor: Callable[[Dict[str, object]], Dict[str, object]] = execute_cell,
    metrics_every: int = 0,
    start_method: Optional[str] = None,
    metrics_port: Optional[int] = None,
) -> CampaignRun:
    """Sweep the full campaign grid, checkpointing into ``out_dir``.

    ``workers=0`` runs every cell in-process (deterministic, no timeout
    enforcement — the mode tests and small sweeps use); ``workers >= 1``
    fans cells out to that many OS processes, each attempt bounded by
    ``timeout`` seconds and retried up to ``retries`` times. On the
    batched engine, parallel workers execute whole (algorithm, topology)
    groups — one whole-array program per process, results returned
    through shared memory — so grouping and multiprocessing compose
    instead of competing. ``start_method`` forces the multiprocessing
    start method (default: ``fork`` on Linux, ``spawn`` elsewhere). With
    ``resume=True`` (default), cells already recorded in
    ``out_dir/results.jsonl`` are skipped — delete the file (or pass
    ``resume=False``) for a fresh sweep. ``executor`` is injectable for
    tests; the parallel path always runs :func:`execute_cell`.

    Every appended record is stamped with ``recorded_at`` (unix seconds)
    so the analysis layer can derive throughput and ETA. With
    ``metrics_every=N > 0``, campaign aggregates are re-exported to
    ``out_dir/metrics/`` (Prometheus/JSONL/CSV) after every N records —
    and once more when the sweep finishes — for in-flight observability.

    ``metrics_port`` (None = off, no socket is ever opened) starts a live
    HTTP observability server for the duration of the sweep: ``0`` binds
    an ephemeral port, logged and written to ``out_dir/server.json``. The
    server serves /metrics, /healthz, /progress, /alerts and /dashboard
    from the in-memory record stream plus the merged worker registries.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    out_path = pathlib.Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    say = log or (lambda _msg: None)

    spec_path = out_path / "campaign.json"
    spec_dict = spec.to_dict()
    if spec_path.exists():
        existing = json.loads(spec_path.read_text())
        # Older campaign dirs predate the telemetry_sample_rate, engine
        # and backend run keys; let them resume under the defaults rather
        # than refusing.
        existing.setdefault("telemetry_sample_rate", None)
        existing.setdefault("engine", "object")
        existing.setdefault("backend", None)
        if existing != spec_dict:
            raise ConfigurationError(
                f"{out_path} already holds results for a different campaign "
                f"({existing.get('name')!r}); use a fresh --out directory"
            )
    else:
        spec_path.write_text(json.dumps(spec_dict, indent=2) + "\n")

    results_path = out_path / "results.jsonl"
    if not resume and results_path.exists():
        results_path.unlink()
    completed = load_results(out_path) if resume else {}

    cells = spec.expand()
    for cell in cells:
        cell["flight_dir"] = str(
            out_path / "flight" / _safe_cell_dir(str(cell["cell_id"]))
        )
    pending = [c for c in cells if c["cell_id"] not in completed]
    skipped = len(cells) - len(pending)
    say(
        f"campaign {spec.name!r}: {len(cells)} cells "
        f"({skipped} already done, {len(pending)} to run, "
        f"workers={workers or 'serial'})"
    )

    if metrics_every < 0:
        raise ConfigurationError(
            f"metrics_every must be >= 0, got {metrics_every}"
        )
    seen_records: List[Dict[str, object]] = list(completed.values())
    # The parent-side authoritative aggregate: per-cell / per-group
    # snapshots merge here as records land, plus runner-level counters
    # (export failures). Served live when metrics_port is set; returned
    # on the CampaignRun either way.
    live_registry = MetricsRegistry()

    def export_metrics() -> None:
        # Lazy import: the analysis layer depends on this module, and the
        # runner must stay importable without the analytics stack loaded.
        from repro.analysis.campaigns.export import export_records_metrics

        try:
            export_records_metrics(
                seen_records,
                name=spec.name,
                spec=spec_dict,
                out_dir=out_path / "metrics",
                extra=live_registry.snapshot(),
            )
        except Exception as exc:  # noqa: BLE001 - observability never kills a sweep
            # Counted, not just noted: /healthz reports degraded while
            # this counter is non-zero, so swallowed export failures are
            # no longer invisible.
            live_registry.counter(
                "campaign_export_errors_total",
                "In-flight metrics export failures",
            ).inc(campaign=spec.name)
            say(f"  note: in-flight metrics export failed: {exc}")

    server = None
    live_source = None
    if metrics_port is not None:
        from repro.telemetry.server import CampaignLiveSource, MetricsServer

        live_source = CampaignLiveSource(
            name=spec.name,
            spec=spec_dict,
            out_dir=out_path,
            registry=live_registry,
        )
        for done in seen_records:
            live_source.add_record(done)
        server = MetricsServer(live_source, port=metrics_port)
        server.start()
        (out_path / "server.json").write_text(
            json.dumps(
                {
                    "host": server.host,
                    "port": server.port,
                    "url": server.url,
                    "pid": os.getpid(),
                    "endpoints": [
                        "/metrics",
                        "/healthz",
                        "/progress",
                        "/alerts",
                        "/dashboard",
                    ],
                },
                indent=2,
            )
            + "\n"
        )
        say(f"live metrics: {server.url}")

    def on_record(record: Dict[str, object]) -> None:
        # The snapshot is transport metadata, not part of the results
        # schema: pop it before the record is persisted or analyzed.
        snapshot = record.pop("_metrics_snapshot", None)
        if snapshot:
            live_registry.merge(snapshot)  # type: ignore[arg-type]
        record["recorded_at"] = time.time()
        _append_record(results_path, record)
        seen_records.append(record)
        if live_source is not None:
            live_source.add_record(record)
        if metrics_every and len(seen_records) % metrics_every == 0:
            export_metrics()
        status = record.get("status")
        detail = (
            f"err={record.get('final_error')}"
            if status == "ok"
            else record.get("error")
        )
        say(f"  [{status}] {record.get('cell_id')} {detail}")

    try:
        if pending:
            if workers == 0:
                # The batched engine gets its speedup from grouping cells
                # into one whole-array program; an injected executor
                # (tests) keeps the per-cell serial path, where batched
                # cells run one by one.
                if spec.engine == "batched" and executor is execute_cell:
                    stats = _run_batched(pending, retries, on_record)
                else:
                    stats = _run_serial(pending, retries, on_record, executor)
            elif spec.engine == "batched":
                stats = _run_parallel_batched(
                    pending,
                    workers,
                    timeout,
                    retries,
                    on_record,
                    start_method=start_method,
                )
            else:
                stats = _run_parallel(
                    pending,
                    workers,
                    timeout,
                    retries,
                    on_record,
                    start_method=start_method,
                )
        else:
            stats = {"ok": 0, "failed": 0, "retries_used": 0}
        if metrics_every:
            export_metrics()
    finally:
        if server is not None:
            server.close()

    return CampaignRun(
        spec=spec,
        out_dir=out_path,
        total_cells=len(cells),
        skipped=skipped,
        executed=len(pending),
        ok=stats["ok"],
        failed=stats["failed"],
        retries_used=stats["retries_used"],
        metrics=live_registry,
    )
