"""Declarative fault-schedule specs — the fault axis of campaign grids.

A fault schedule is a plain serializable dict (JSON/TOML-friendly) naming
one of the fault models in :mod:`repro.faults` plus its parameters, or a
composition of several. Campaign specs carry these dicts across process
boundaries; :func:`build_faults` instantiates them for one concrete run.

Grammar::

    {"kind": "<kind>", <params...>, "name": "<optional label>"}
    {"compose": [<fault spec>, ...], "name": "<optional label>"}

Kinds (mapped onto the paper's fault taxonomy, Sec. I/II):

- ``none`` — the failure-free baseline.
- ``message_loss`` — i.i.d. per-message loss (``rate``).
- ``burst_loss`` — Gilbert–Elliott burst loss (``p_gb``, ``p_bg``).
- ``bit_flip`` — in-flight payload corruption (``rate``, optional
  ``max_bit``, ``corrupt_control``).
- ``link_failure`` — one permanent link failure (``round``, optional
  ``edge`` default ``[0, 1]``, ``detection_delay``) — the Figs. 4/7 event.
- ``node_failure`` — fail-stop node (``round``, ``node``, optional
  ``detection_delay``).
- ``state_flip`` — memory soft errors in stored flows (``rounds`` list,
  optional ``max_bit``) — the PCF-variant ablation's injector.

Dynamic-topology kinds (:mod:`repro.dynamics` — the regime of the related
dynamic-aggregation papers):

- ``churn`` — Poisson node join/leave churn (``rate``, optional
  ``start``/``end``/``min_live_fraction``) or a scripted ``events`` list
  of ``[round, "leave"|"join", node]`` entries;
- ``partition`` — cut the graph in two at ``round``, optionally heal at
  ``heal_round`` (optional ``fraction``);
- ``regional_outage`` — a contiguous id-block of nodes fails together at
  ``round`` for ``duration`` rounds (optional ``region_count``,
  ``region``);
- ``trace`` — replay a recorded per-round loss/failure schedule from a
  JSONL/CSV ``path`` (see :class:`repro.dynamics.trace.TraceRecorder`).

Randomized faults (loss, flips, random dynamics) derive their RNG streams
from the run seed passed to :func:`build_faults`, so two algorithms swept
with the same seed see the identical fault timeline — the paper's
paired-comparison method. Composed sub-faults draw from independent
``np.random.SeedSequence(seed).spawn(...)`` children, so the streams of
different parts are statistically independent, not merely offset.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.base import CompositeFault, MessageFault
from repro.faults.bit_flip import BitFlipFault
from repro.faults.events import FaultPlan, LinkFailure, NodeFailure
from repro.faults.message_loss import BurstMessageLoss, IidMessageLoss
from repro.faults.state_flip import StateBitFlipInjector

#: kind -> (required params, optional params)
FAULT_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "none": ((), ()),
    "message_loss": (("rate",), ()),
    "burst_loss": (("p_gb", "p_bg"), ()),
    "bit_flip": (("rate",), ("max_bit", "corrupt_control")),
    "link_failure": (("round",), ("edge", "detection_delay")),
    "node_failure": (("round", "node"), ("detection_delay",)),
    "state_flip": (("rounds",), ("max_bit",)),
    "churn": ((), ("rate", "start", "end", "events", "min_live_fraction")),
    "partition": (("round",), ("heal_round", "fraction")),
    "regional_outage": (("round", "duration"), ("region_count", "region")),
    "trace": (("path",), ()),
}

#: Kinds that build a dynamic topology schedule (need a topology at build).
DYNAMIC_FAULT_KINDS = ("churn", "partition", "regional_outage")


@dataclasses.dataclass
class BuiltFaults:
    """A fault schedule instantiated for one concrete run.

    ``message_fault`` plugs into the engine's transport, ``fault_plan``
    carries the permanent failures, ``observers`` hold any state-injection
    observers, and ``event_round`` is the earliest permanent-failure
    *handling* round (the reference point for recovery analysis), ``None``
    when the schedule has no permanent failures.
    """

    name: str
    message_fault: Optional[MessageFault]
    fault_plan: FaultPlan
    observers: List[object]
    event_round: Optional[int]
    #: Dynamic topology schedule (None for static fault schedules); plugs
    #: into the engines' ``topology_schedule`` hook.
    topology_schedule: Optional[object] = None
    #: JSON-safe summary of the dynamics for results.jsonl records.
    dynamics_meta: Optional[Dict[str, object]] = None


def _default_name(spec: Mapping[str, object]) -> str:
    kind = spec["kind"]
    if kind == "none":
        return "none"
    if kind == "message_loss":
        return f"loss{spec['rate']:g}"
    if kind == "burst_loss":
        return f"burst{spec['p_gb']:g}/{spec['p_bg']:g}"
    if kind == "bit_flip":
        return f"flip{spec['rate']:g}"
    if kind == "link_failure":
        u, v = spec.get("edge", (0, 1))
        return f"link({u},{v})@{spec['round']}"
    if kind == "node_failure":
        return f"node({spec['node']})@{spec['round']}"
    if kind == "state_flip":
        rounds = spec["rounds"]
        return f"stateflip@{','.join(str(r) for r in rounds)}"
    if kind == "churn":
        if "events" in spec:
            return "churn-scripted"
        return f"churn{spec['rate']:g}"
    if kind == "partition":
        heal = spec.get("heal_round")
        suffix = f"-heal@{heal}" if heal is not None else ""
        return f"partition@{spec['round']}{suffix}"
    if kind == "regional_outage":
        return f"outage@{spec['round']}+{spec['duration']}"
    if kind == "trace":
        import os

        return f"trace:{os.path.basename(str(spec['path']))}"
    raise AssertionError(kind)  # validated before this is called


def _validate_single(spec: Mapping[str, object], where: str) -> Dict[str, object]:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"{where}: unknown fault kind {kind!r}; "
            f"expected one of {sorted(FAULT_KINDS)}"
        )
    required, optional = FAULT_KINDS[kind]
    allowed = set(required) | set(optional) | {"kind", "name"}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) {unknown} for fault kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = sorted(set(required) - set(spec))
    if missing:
        raise ConfigurationError(
            f"{where}: fault kind {kind!r} is missing required key(s) {missing}"
        )
    out: Dict[str, object] = dict(spec)
    if kind in ("message_loss", "bit_flip"):
        rate = float(out["rate"])  # type: ignore[arg-type]
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"{where}: rate must be in [0, 1], got {rate}"
            )
        out["rate"] = rate
    if "round" in out:
        round_index = int(out["round"])  # type: ignore[arg-type]
        if round_index < 0:
            raise ConfigurationError(
                f"{where}: round must be >= 0, got {round_index}"
            )
        out["round"] = round_index
    if "detection_delay" in out and int(out["detection_delay"]) < 0:
        raise ConfigurationError(
            f"{where}: detection_delay must be >= 0, "
            f"got {out['detection_delay']}"
        )
    if kind == "link_failure":
        edge = out.get("edge", [0, 1])
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or not all(isinstance(e, int) for e in edge)
        ):
            raise ConfigurationError(
                f"{where}: edge must be a pair of node ids, got {edge!r}"
            )
        u, v = int(edge[0]), int(edge[1])
        if u < 0 or v < 0:
            raise ConfigurationError(
                f"{where}: edge node ids must be >= 0, got ({u}, {v})"
            )
        if u == v:
            raise ConfigurationError(
                f"{where}: edge endpoints must differ, got ({u}, {v})"
            )
        out["edge"] = [u, v]
    if kind == "node_failure" and int(out["node"]) < 0:
        raise ConfigurationError(
            f"{where}: node must be >= 0, got {out['node']}"
        )
    if kind == "state_flip":
        rounds = out["rounds"]
        if not isinstance(rounds, (list, tuple)) or not rounds:
            raise ConfigurationError(
                f"{where}: rounds must be a non-empty list, got {rounds!r}"
            )
        out["rounds"] = [int(r) for r in rounds]
        if any(r < 0 for r in out["rounds"]):
            raise ConfigurationError(
                f"{where}: rounds must all be >= 0, got {out['rounds']}"
            )
    if kind == "churn":
        has_rate = "rate" in out
        has_events = "events" in out
        if has_rate == has_events:
            raise ConfigurationError(
                f"{where}: churn needs exactly one of 'rate' or 'events'"
            )
        if has_rate:
            rate = float(out["rate"])  # type: ignore[arg-type]
            if rate <= 0.0:
                raise ConfigurationError(
                    f"{where}: churn rate must be > 0, got {rate}"
                )
            out["rate"] = rate
            start = int(out.get("start", 0))
            if start < 0:
                raise ConfigurationError(
                    f"{where}: start must be >= 0, got {start}"
                )
            out["start"] = start
            if "end" in out:
                end = int(out["end"])  # type: ignore[arg-type]
                if end <= start:
                    raise ConfigurationError(
                        f"{where}: end must be > start, got [{start}, {end})"
                    )
                out["end"] = end
        else:
            for key in ("start", "end", "min_live_fraction"):
                if key in out:
                    raise ConfigurationError(
                        f"{where}: {key!r} only applies to rate-based churn"
                    )
            events = out["events"]
            if not isinstance(events, (list, tuple)) or not events:
                raise ConfigurationError(
                    f"{where}: events must be a non-empty list of "
                    f"[round, action, node], got {events!r}"
                )
            normalized_events = []
            for event in events:
                if len(event) != 3 or event[1] not in ("leave", "join"):
                    raise ConfigurationError(
                        f"{where}: churn event must be "
                        f"[round, 'leave'|'join', node], got {event!r}"
                    )
                r, action, node = int(event[0]), event[1], int(event[2])
                if r < 0 or node < 0:
                    raise ConfigurationError(
                        f"{where}: churn event round/node must be >= 0, "
                        f"got {event!r}"
                    )
                normalized_events.append([r, action, node])
            out["events"] = normalized_events
        if "min_live_fraction" in out:
            fraction = float(out["min_live_fraction"])  # type: ignore[arg-type]
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"{where}: min_live_fraction must be in (0, 1], "
                    f"got {fraction}"
                )
            out["min_live_fraction"] = fraction
    if kind == "partition":
        if "heal_round" in out:
            heal = int(out["heal_round"])  # type: ignore[arg-type]
            if heal <= out["round"]:
                raise ConfigurationError(
                    f"{where}: heal_round must be after the partition "
                    f"round, got {heal} <= {out['round']}"
                )
            out["heal_round"] = heal
        if "fraction" in out:
            fraction = float(out["fraction"])  # type: ignore[arg-type]
            if not 0.0 < fraction < 1.0:
                raise ConfigurationError(
                    f"{where}: fraction must be in (0, 1), got {fraction}"
                )
            out["fraction"] = fraction
    if kind == "regional_outage":
        duration = int(out["duration"])  # type: ignore[arg-type]
        if duration < 1:
            raise ConfigurationError(
                f"{where}: duration must be >= 1, got {duration}"
            )
        out["duration"] = duration
        region_count = int(out.get("region_count", 4))
        if region_count < 2:
            raise ConfigurationError(
                f"{where}: region_count must be >= 2, got {region_count}"
            )
        out["region_count"] = region_count
        if "region" in out:
            region = int(out["region"])  # type: ignore[arg-type]
            if not 0 <= region < region_count:
                raise ConfigurationError(
                    f"{where}: region must be in [0, {region_count}), "
                    f"got {region}"
                )
            out["region"] = region
    if kind == "trace":
        path = out["path"]
        if not isinstance(path, str) or not path:
            raise ConfigurationError(
                f"{where}: path must be a non-empty string, got {path!r}"
            )
    return out


def validate_fault_spec(
    spec: Mapping[str, object], *, where: str = "fault spec"
) -> Dict[str, object]:
    """Validate ``spec`` and return a normalized copy with a ``name``.

    Raises :class:`~repro.exceptions.ConfigurationError` on unknown kinds,
    unknown/missing keys or out-of-range parameters — the campaign loader
    surfaces these before any run starts.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"{where}: a fault schedule must be a table/dict, got {type(spec).__name__}"
        )
    if "compose" in spec:
        unknown = sorted(set(spec) - {"compose", "name"})
        if unknown:
            raise ConfigurationError(
                f"{where}: composed schedule allows only 'compose' and 'name', "
                f"got extra key(s) {unknown}"
            )
        parts = spec["compose"]
        if not isinstance(parts, (list, tuple)) or not parts:
            raise ConfigurationError(
                f"{where}: 'compose' must be a non-empty list of fault specs"
            )
        normalized = [
            _validate_single(part, f"{where}[{i}]") for i, part in enumerate(parts)
        ]
        name = spec.get("name") or "+".join(_default_name(p) for p in normalized)
        return {"name": str(name), "compose": normalized}
    single = _validate_single(spec, where)
    single["name"] = str(spec.get("name") or _default_name(single))
    return single


def _part_seeds(seed: int, count: int) -> List[int]:
    """Independent per-part RNG seeds for one composed schedule.

    ``SeedSequence.spawn`` children are statistically independent streams
    (the fixed-stride derivation used before produced correlated ones —
    the same bug class PR 5 fixed in the campaign runner), while staying a
    pure function of ``seed``: the paired-comparison property (same seed →
    same fault timeline across algorithms) is preserved.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def validate_fault_against_topology(
    spec: Mapping[str, object], n: int, *, where: str = "fault spec"
) -> None:
    """Range-check a validated spec's node/edge ids against a topology size.

    The campaign loader calls this per (fault, topology) pair so a
    misconfigured grid fails at validation time instead of mid-run inside
    the engine. Edge *existence* still depends on the concrete (possibly
    seed-randomized) topology instance and is checked by the engine.
    """
    normalized = validate_fault_spec(spec, where=where)
    for part in normalized.get("compose") or [normalized]:
        kind = part["kind"]
        if kind == "link_failure":
            u, v = part.get("edge", [0, 1])
            if u >= n or v >= n:
                raise ConfigurationError(
                    f"{where}: link_failure edge ({u}, {v}) is outside the "
                    f"topology (n={n})"
                )
        elif kind == "node_failure" and int(part["node"]) >= n:
            raise ConfigurationError(
                f"{where}: node_failure node {part['node']} is outside the "
                f"topology (n={n})"
            )
        elif kind == "churn" and "events" in part:
            for r, _action, node in part["events"]:
                if node >= n:
                    raise ConfigurationError(
                        f"{where}: churn event names node {node} outside "
                        f"the topology (n={n})"
                    )
        elif kind == "regional_outage" and int(part["region_count"]) > n:
            raise ConfigurationError(
                f"{where}: region_count {part['region_count']} exceeds the "
                f"topology size (n={n})"
            )


def _build_dynamic_part(
    part: Mapping[str, object],
    topology,
    part_seed: int,
    horizon: Optional[int],
    where: str,
):
    """Instantiate one dynamic part as a TopologySchedule."""
    from repro.dynamics import builders

    kind = part["kind"]
    if kind == "churn":
        if "events" in part:
            return builders.scripted_churn(
                (r, action, node) for r, action, node in part["events"]
            )
        end = part.get("end", horizon)
        if end is None:
            raise ConfigurationError(
                f"{where}: rate-based churn needs 'end' or a run horizon"
            )
        return builders.poisson_churn(
            topology,
            rate=float(part["rate"]),
            start=int(part.get("start", 0)),
            end=int(end),
            seed=part_seed,
            min_live_fraction=float(part.get("min_live_fraction", 0.5)),
        )
    if kind == "partition":
        heal = part.get("heal_round")
        return builders.partition_and_heal(
            topology,
            round=int(part["round"]),
            heal_round=int(heal) if heal is not None else None,
            fraction=float(part.get("fraction", 0.5)),
            seed=part_seed,
        )
    assert kind == "regional_outage"
    return builders.regional_outage(
        topology,
        round=int(part["round"]),
        duration=int(part["duration"]),
        region_count=int(part["region_count"]),
        region=part.get("region"),
        seed=part_seed,
    )


def build_topology_schedule(
    spec: Mapping[str, object],
    *,
    topology,
    seed: int = 0,
    horizon: Optional[int] = None,
):
    """Build only the dynamic topology schedule of a fault spec (or None).

    Uses the exact per-part seed derivation of :func:`build_faults`, so the
    object and batched campaign paths construct identical schedules for the
    same cell seed.
    """
    normalized = validate_fault_spec(spec)
    parts = normalized.get("compose") or [normalized]
    seeds = _part_seeds(seed, len(parts))
    schedules = []
    for index, part in enumerate(parts):
        if part["kind"] in DYNAMIC_FAULT_KINDS:
            schedules.append(
                _build_dynamic_part(
                    part,
                    topology,
                    seeds[index],
                    horizon,
                    f"fault {normalized['name']!r}",
                )
            )
        elif part["kind"] == "trace":
            from repro.dynamics.trace import load_trace, replay_from_trace

            replay = replay_from_trace(load_trace(str(part["path"])))
            schedules.append(replay.topology_schedule)
    return _joined_schedule(schedules)


def _joined_schedule(schedules: List[object]) -> Optional[object]:
    """The parts' topology schedules as one (None when no part has events)."""
    from repro.dynamics.schedule import TopologySchedule

    joined = TopologySchedule.join(schedules)  # type: ignore[arg-type]
    return None if joined.is_empty() else joined


def build_faults(
    spec: Mapping[str, object],
    *,
    seed: int = 0,
    topology=None,
    horizon: Optional[int] = None,
) -> BuiltFaults:
    """Instantiate a (validated or raw) fault-schedule spec for one run.

    Dynamic kinds (``churn``/``partition``/``regional_outage``) need the
    run's ``topology`` (the universe graph the schedule perturbs); rate-
    based churn without an explicit ``end`` additionally needs ``horizon``
    (the run's round budget).
    """
    normalized = validate_fault_spec(spec)
    parts = normalized.get("compose") or [normalized]
    seeds = _part_seeds(seed, len(parts))
    message_faults: List[MessageFault] = []
    link_failures: List[LinkFailure] = []
    node_failures: List[NodeFailure] = []
    observers: List[object] = []
    schedules: List[object] = []
    for index, part in enumerate(parts):
        kind = part["kind"]
        part_seed = seeds[index]
        if kind == "none":
            continue
        elif kind in DYNAMIC_FAULT_KINDS:
            if topology is None:
                raise ConfigurationError(
                    f"fault kind {kind!r} needs a topology at build time "
                    "(pass build_faults(..., topology=...))"
                )
            schedules.append(
                _build_dynamic_part(
                    part,
                    topology,
                    part_seed,
                    horizon,
                    f"fault {normalized['name']!r}",
                )
            )
        elif kind == "trace":
            from repro.dynamics.trace import load_trace, replay_from_trace

            replay = replay_from_trace(load_trace(str(part["path"])))
            if replay.message_fault is not None:
                message_faults.append(replay.message_fault)
            link_failures.extend(replay.fault_plan.link_failures)
            node_failures.extend(replay.fault_plan.node_failures)
            schedules.append(replay.topology_schedule)
        elif kind == "message_loss":
            message_faults.append(IidMessageLoss(part["rate"], seed=part_seed))
        elif kind == "burst_loss":
            message_faults.append(
                BurstMessageLoss(
                    float(part["p_gb"]), float(part["p_bg"]), seed=part_seed
                )
            )
        elif kind == "bit_flip":
            message_faults.append(
                BitFlipFault(
                    part["rate"],
                    seed=part_seed,
                    corrupt_control=bool(part.get("corrupt_control", False)),
                    max_bit=int(part.get("max_bit", 63)),
                )
            )
        elif kind == "link_failure":
            u, v = part["edge"]
            link_failures.append(
                LinkFailure(
                    round=int(part["round"]),
                    u=u,
                    v=v,
                    detection_delay=int(part.get("detection_delay", 0)),
                )
            )
        elif kind == "node_failure":
            node_failures.append(
                NodeFailure(
                    round=int(part["round"]),
                    node=int(part["node"]),
                    detection_delay=int(part.get("detection_delay", 0)),
                )
            )
        elif kind == "state_flip":
            observers.append(
                StateBitFlipInjector(
                    part["rounds"],
                    seed=part_seed,
                    max_bit=int(part.get("max_bit", 55)),
                )
            )
    message_fault: Optional[MessageFault]
    if not message_faults:
        message_fault = None
    elif len(message_faults) == 1:
        message_fault = message_faults[0]
    else:
        message_fault = CompositeFault(message_faults)
    plan = FaultPlan(link_failures=link_failures, node_failures=node_failures)
    topology_schedule = _joined_schedule(schedules)
    dynamics_meta = None
    if topology_schedule is not None:
        dynamics_meta = topology_schedule.meta()
    handle_rounds = [lf.handle_round for lf in link_failures]
    handle_rounds += [nf.handle_round for nf in node_failures]
    if handle_rounds:
        # The earliest permanent-failure handling round (the reference
        # point of the paper's recovery analysis).
        event_round: Optional[int] = min(handle_rounds)
    elif topology_schedule is not None:
        # Pure dynamics: recovery is measured from the final delta (the
        # heal/restore/rejoin instant after which the network is whole).
        event_round = topology_schedule.last_round
    else:
        event_round = None
    return BuiltFaults(
        name=str(normalized["name"]),
        message_fault=message_fault,
        fault_plan=plan,
        observers=observers,
        event_round=event_round,
        topology_schedule=topology_schedule,
        dynamics_meta=dynamics_meta,
    )
