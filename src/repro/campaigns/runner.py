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
import os
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.aggregates import (
    AggregateKind,
    initial_mass_pairs,
    initial_values,
    initial_weights,
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
from repro.util import procs
from repro.util.procs import mp_context as _mp_context

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

    record = _outcome_record(
        cell,
        engine="object",
        backend=None,
        rounds=engine.round,
        errors=history.max_errors,
        rounds_to_tolerance=history.first_round_below(epsilon),
        event_round=built.event_round,
        dynamics=built.dynamics_meta,
        drifts=[
            (int(r["round"]), float(r["drift"]))  # type: ignore[arg-type]
            for r in mass_probe.records
        ],
        worst_drift=mass_probe.worst_drift(),
        mass_violations=len(mass_probe.violations),
        detectors=detectors,
        flight_dumps=(
            [str(p) for p in flight.dump_paths] if flight is not None else []
        ),
        sent=engine.messages_sent,
        delivered=engine.messages_delivered,
        wall_s=round(time.perf_counter() - t0, 4),
        # No fused kernel on the per-message object engine.
        kernel_seconds=None,
    )
    record["_metrics_snapshot"] = _cell_snapshot(
        registry,
        algorithm=str(cell["algorithm"]),
        engine="object",
        backend="none",
        rounds=engine.round,
        sent=engine.messages_sent,
        delivered=engine.messages_delivered,
        mass_violations=len(mass_probe.violations),
    )
    return record


def _outcome_record(
    cell: Dict[str, object],
    *,
    engine: str,
    backend: Optional[str],
    rounds: int,
    errors: Sequence[float],
    rounds_to_tolerance: Optional[int],
    event_round: Optional[int],
    dynamics: Optional[Dict[str, object]],
    drifts: Sequence[Tuple[int, float]],
    worst_drift: Optional[float],
    mass_violations: int,
    detectors: Sequence[object],
    flight_dumps: List[str],
    sent: int,
    delivered: int,
    wall_s: float,
    kernel_seconds: Optional[float],
) -> Dict[str, object]:
    """One finished cell's outcome record, the same fields in the same
    order on every engine.

    ``errors`` is the cell's per-round max error series and ``drifts``
    its ``(round, drift)`` mass-probe series.
    """
    epsilon = float(cell["epsilon"])  # type: ignore[arg-type]
    final_error = errors[-1] if errors else float("inf")
    finite_errors = [e for e in errors if math.isfinite(e)]
    best_error = min(finite_errors) if finite_errors else float("inf")

    recovery: Dict[str, object] = {
        "event_round": event_round,
        "recovery_rounds": None,
        "recovered": None,
        "jump_factor": None,
        "restart_fraction": None,
    }
    if event_round is not None and event_round < len(errors):
        report = fallback_report(errors, event_round)
        recovered = report.recovery_rounds is not None
        recovery.update(
            {
                # Censor never-recovered runs at the remaining round budget
                # so means stay comparable across algorithms.
                "recovery_rounds": report.recovery_rounds
                if recovered
                else len(errors) - event_round,
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
    tail_start = max(0, rounds - max(rounds // 4, 1))
    tail_drifts = [d for rnd, d in drifts if rnd >= tail_start]
    return {
        "cell_id": cell["cell_id"],
        "status": "ok",
        "algorithm": cell["algorithm"],
        "topology": cell["topology_label"],
        "fault": cell["fault"]["name"],  # type: ignore[index]
        "seed": int(cell["seed"]),  # type: ignore[arg-type]
        "engine": engine,
        "backend": backend,
        "n": int(cell["topology"]["n"]),  # type: ignore[index]
        "rounds": rounds,
        "epsilon": epsilon,
        "converged": math.isfinite(final_error) and final_error <= epsilon,
        "rounds_to_tolerance": rounds_to_tolerance,
        "final_error": _json_float(final_error),
        "best_error": _json_float(best_error),
        "dynamics": dynamics,
        **recovery,
        "mass_drift_final": _json_float(drifts[-1][1] if drifts else None),
        "mass_drift_floor": _json_float(
            min(tail_drifts) if tail_drifts else None
        ),
        "mass_drift_worst": _json_float(worst_drift),
        "mass_violations": mass_violations,
        "alerts_total": sum(len(d.alerts) for d in detectors),  # type: ignore[attr-defined]
        "alerts": {
            d.name: len(d.alerts) for d in detectors if d.alerts  # type: ignore[attr-defined]
        },
        "flight_dumps": flight_dumps,
        "messages_sent": sent,
        "messages_delivered": delivered,
        "wall_s": wall_s,
        "kernel_seconds": kernel_seconds,
        "error": None,
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

    runs: List[BatchedRun] = []
    truths: List[float] = []
    event_rounds: List[Optional[int]] = []
    retire_ok: List[bool] = []
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
        runs.append(
            BatchedRun(
                topology=topology,
                # The object path's initial mass pairs, as arrays.
                values=np.array(initial_values(kind, list(data))),
                weights=np.array(initial_weights(kind, n)),
                rng=np.random.default_rng(sched_stream),
                loss_probability=loss,
                link_failures=tuple(links),
                topology_schedule=schedule,
            )
        )

    engine = BatchedEngine(algorithm, runs)
    # Group-level telemetry: the fused round kernel is timed into a
    # histogram labeled by (algorithm, engine, backend), and the engine
    # totals below join it in one snapshot shipped with the group.
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
        cell_rounds = int(run_rounds[r])
        records.append(
            _outcome_record(
                cell,
                engine=engine_kind,
                backend=engine.backend_name,
                rounds=cell_rounds,
                errors=all_errors[r],
                rounds_to_tolerance=history.first_round_below(r, epsilon),
                event_round=event_rounds[r],
                dynamics=(
                    schedules[r].meta() if schedules[r] is not None else None  # type: ignore[attr-defined]
                ),
                drifts=all_mass_records[r],
                worst_drift=mass_probe.worst_drift(r),
                mass_violations=int(mass_probe.violations[r]),
                detectors=(),
                flight_dumps=[],
                sent=int(sent[r]),
                delivered=int(delivered[r]),
                wall_s=wall,
                kernel_seconds=kernel_wall,
            )
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
    # group ran in-process or in a worker (whose records, snapshot
    # included, come home pickled on the attempt's pipe).
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
        "backend": None,
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


def _sweep_units(
    pending: List[Dict[str, object]],
) -> List[List[Dict[str, object]]]:
    """A sweep's units in first-seen order.

    Batched-engine cells group by (algorithm, topology) — the run keys
    (rounds, epsilon, aggregate, data) are campaign-wide already — and
    each group runs as one whole-array program; every other cell is a
    unit of its own.
    """
    units: Dict[object, List[Dict[str, object]]] = {}
    for cell in pending:
        key = (
            (str(cell["algorithm"]), str(cell["topology_label"]))
            if cell.get("engine") == "batched"
            else cell["cell_id"]
        )
        units.setdefault(key, []).append(cell)
    return list(units.values())


def _execute_unit(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Run one unit of a sweep: a batched group, or a single cell.

    A module-level function, so a spawn-started worker can unpickle it;
    it looks up :func:`_execute_cells_batched` and :func:`execute_cell`
    when called, so a fork-started worker runs what the parent's module
    holds.
    """
    if cells[0].get("engine") == "batched":
        return _execute_cells_batched(cells)
    return [execute_cell(cell) for cell in cells]


def _run_cells(
    pending: List[Dict[str, object]],
    workers: int,
    timeout: Optional[float],
    retries: int,
    on_record: Callable[[Dict[str, object]], None],
    start_method: Optional[str] = None,
    executor: Callable[[Dict[str, object]], Dict[str, object]] = execute_cell,
) -> Dict[str, int]:
    """Run pending cells through one retry loop over units.

    With ``workers=0`` units run inline, one after another; otherwise up
    to ``workers`` run at once, each attempt in a worker process of its
    own (:mod:`repro.util.procs`), bounded by ``timeout`` seconds per
    cell of the unit. A failed attempt is retried at once, up to
    ``retries`` times, and then every cell of the unit is recorded as
    failed; records of a unit land one by one, so a partially completed
    campaign still resumes cell by cell. An injected ``executor`` runs
    inline, one cell per unit; workers always run :func:`_execute_unit`.
    """
    if workers == 0 and executor is not execute_cell:
        units = [[cell] for cell in pending]
        run_unit: Callable = lambda cells: [executor(cells[0])]
    else:
        units = _sweep_units(pending)
        run_unit = _execute_unit
    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    todo = [(cells, 1) for cells in reversed(units)]  # pop() keeps the order

    def settle(cells: List[Dict[str, object]], attempt: int, outcome) -> None:
        state, payload = outcome
        if state == "ok":
            stats["ok"] += len(cells)
            for record in payload:
                record["attempts"] = attempt
                on_record(record)
        elif attempt <= retries:
            stats["retries_used"] += 1
            todo.append((cells, attempt + 1))
        else:
            if state != "timeout":
                error = str(payload)
            elif cells[0].get("engine") == "batched":
                error = (
                    f"group timeout after {timeout * len(cells):g}s "  # type: ignore[operator]
                    f"({len(cells)} cells x {timeout:g}s)"
                )
            else:
                error = f"timeout after {timeout:g}s"
            stats["failed"] += len(cells)
            for cell in cells:
                on_record(_failure_record(cell, attempt, error))

    if workers == 0:
        while todo:
            cells, attempt = todo.pop()
            settle(cells, attempt, procs.call(run_unit, cells))
        return stats

    ctx = _mp_context(start_method)
    running: List[Tuple[List[Dict[str, object]], int, procs.Attempt]] = []
    try:
        while todo or running:
            while todo and len(running) < workers:
                cells, attempt = todo.pop()
                deadline = (
                    time.monotonic() + timeout * len(cells)
                    if timeout is not None
                    else None
                )
                running.append(
                    (cells, attempt, procs.Attempt(ctx, run_unit, (cells,), deadline))
                )
            procs.wait_any([worker for _, _, worker in running])
            still_running = []
            for cells, attempt, worker in running:
                outcome = worker.outcome()
                if outcome is None:
                    still_running.append((cells, attempt, worker))
                else:
                    settle(cells, attempt, outcome)
            running = still_running
    finally:
        # A raising on_record (or KeyboardInterrupt) must not leave
        # workers behind.
        for _, _, worker in running:
            worker.close()
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
    batched engine, cells run as whole (algorithm, topology) groups — one
    whole-array program per unit, inline or in one worker process, its
    records returned on a pipe — so grouping and multiprocessing compose
    instead of competing. ``start_method`` forces the multiprocessing
    start method (default: ``fork`` on Linux, ``spawn`` elsewhere). With
    ``resume=True`` (default), cells already recorded in
    ``out_dir/results.jsonl`` are skipped — delete the file (or pass
    ``resume=False``) for a fresh sweep. ``executor`` is injectable for
    tests and runs inline, cell by cell; worker processes always run the
    program's own cell and group execution.

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
        # Older campaign dirs predate the telemetry_sample_rate and engine
        # run keys; let them resume under the defaults rather than refusing.
        existing.setdefault("telemetry_sample_rate", None)
        existing.setdefault("engine", "object")
        # They may also record the removed kernel-backend key. Null and
        # "numpy" ran the one kernel set that is left; any other backend's
        # cells match it only within tolerance and must not mix with it.
        backend = existing.pop("backend", None)
        if backend not in (None, "numpy"):
            raise ConfigurationError(
                f"{out_path} holds results from the removed {backend!r} "
                "kernel backend, which the numpy kernels match only within "
                "tolerance; use a fresh --out directory"
            )
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

    stats = {"ok": 0, "failed": 0, "retries_used": 0}
    try:
        if pending:
            stats = _run_cells(
                pending,
                workers,
                timeout,
                retries,
                on_record,
                start_method=start_method,
                executor=executor,
            )
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
