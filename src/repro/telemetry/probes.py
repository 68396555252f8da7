"""Paper-grounded invariant probes, implemented as engine observers.

Each probe watches one quantity the paper argues about (see DESIGN.md for
the section mapping):

- :class:`FlowMagnitudeProbe` — per-round max/mean flow magnitude and the
  flow-to-weight ratio. This is the Figs. 2–3 blow-up signal: push-flow's
  flows grow ~linearly with ``n`` while its estimates stay O(1), so the
  estimate subtraction cancels catastrophically; PCF's stay bounded.
- :class:`MassConservationProbe` — checks that the summed
  (value, weight) mass of the live nodes stays within a configurable
  relative tolerance of the conserved total (Sec. II: flow conservation
  implies global mass conservation). Transient drift after message loss or
  between a failure and its handling is exactly what the probe surfaces;
  drift that persists (push-sum under loss, PCF deadlock mass drain) is
  flagged as a violation.
- :class:`PCFCancellationProbe` — cancellation-handshake progress
  (Sec. III-A): passive-flow magnitude (driven to zero each era), the era
  counters, and the cumulative cancel/swap counts.

Probes duck-type over all engines: the object engines expose
``algorithms`` (whose flow protocols implement ``max_flow_magnitude`` /
``conserved_mass``), the vectorized engines expose array-level
equivalents (``node_flow_magnitudes`` and the shared read-only
``shared_estimate_pairs``, which the next round's kernel reuses, so a
sampled round pays for at most one estimate). Engines without the
relevant state (e.g. push-sum and the flow probe) are silently skipped,
so a probe can be attached to any run.

Every probe appends plain-dict ``records`` (one per sampled round, with a
``type`` tag) and ``violations``; the telemetry session merges these into
its ``trace.jsonl`` dump.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.state import MassPair
from repro.simulation.observers import Observer
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampling import RoundSampler, resolve_sampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.engine import SynchronousEngine

_TINY = 1e-300


class _SamplingProbe(Observer):
    """Shared thinning + record/violation storage for the probes.

    ``sampler`` is the telemetry-wide round sampler; ``every`` builds one
    (both default to sampling every round).
    """

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        sampler: Optional[RoundSampler] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._sampler = resolve_sampler(sampler, every=every)
        self._registry = registry
        self.records: List[Dict[str, object]] = []
        self.violations: List[Dict[str, object]] = []

    def wants_detail(self, round_index: int) -> bool:
        # Probes sample engine state at round boundaries only.
        return False

    def on_round_end(self, engine: "SynchronousEngine", round_index: int) -> None:
        if self._sampler.sample(round_index):
            self.sample(engine, round_index)

    def on_run_end(self, engine: "SynchronousEngine", rounds_executed: int) -> None:
        # Always capture the final state, even on thinned traces.
        last = self.records[-1]["round"] if self.records else None
        final_round = _engine_round(engine) - 1
        if final_round >= 0 and last != final_round:
            self.sample(engine, final_round)

    def sample(self, engine: "SynchronousEngine", round_index: int) -> None:
        raise NotImplementedError  # pragma: no cover


def _engine_round(engine: object) -> int:
    rounds = getattr(engine, "round", None)
    if rounds is not None:
        return int(rounds)
    now = getattr(engine, "now", None)  # async engine: rounds-equivalents
    return int(now) if now is not None else 0


def _conserved_total(algorithms) -> Tuple[MassPair, int]:
    total: Optional[MassPair] = None
    for alg in algorithms:
        conserved = alg.conserved_mass()
        total = conserved if total is None else total + conserved
    assert total is not None
    return total, len(algorithms)


def _object_algorithms(engine: object):
    algorithms = getattr(engine, "algorithms", None)
    if algorithms is None:
        return None
    live = getattr(engine, "live_nodes", None)
    if live is not None:
        return [algorithms[i] for i in live()]
    return list(algorithms)


def _live_node_ids(engine: object) -> Optional[frozenset]:
    """The live-node id set of an object engine (None when not exposed)."""
    live = getattr(engine, "live_nodes", None)
    return frozenset(live()) if live is not None else None


def vector_pairs(engine: object) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A vectorized engine's ``(values, weights)``: its shared read-only
    pair when it keeps one, else ``estimate_pairs()``; None for the object
    engines, which keep no arrays."""
    for name in ("shared_estimate_pairs", "estimate_pairs"):
        pairs = getattr(engine, name, None)
        if pairs is not None:
            return pairs()
    return None


def flow_stats(engine: object) -> Optional[Tuple[float, float, float]]:
    """``(max_flow, mean_flow, flow_weight_ratio)`` for any engine.

    Duck-types over the vectorized flow engines (``node_flow_magnitudes``)
    and the object engines (per-algorithm ``max_flow_magnitude``); returns
    None when the run carries no flow state (e.g. push-sum). Shared by
    :class:`FlowMagnitudeProbe` and the blow-up detector in
    :mod:`repro.tracing.anomaly`.
    """
    node_mags = getattr(engine, "node_flow_magnitudes", None)
    if node_mags is not None:  # vectorized flow engine
        mags = np.asarray(node_mags())
        _, weights = vector_pairs(engine)  # type: ignore[misc]
        mean_weight = float(np.mean(np.abs(weights)))
    else:
        algorithms = _object_algorithms(engine)
        if algorithms is None:
            return None
        flow_algs = [
            alg for alg in algorithms if hasattr(alg, "max_flow_magnitude")
        ]
        if not flow_algs:
            return None
        mags = np.array([alg.max_flow_magnitude() for alg in flow_algs])
        weights = [abs(alg.estimate_pair().weight) for alg in algorithms]
        mean_weight = float(np.mean(weights)) if weights else 0.0
    if mags.size == 0:
        return None
    max_flow = float(np.max(mags))
    mean_flow = float(np.mean(mags))
    ratio = max_flow / max(mean_weight, _TINY)
    return max_flow, mean_flow, ratio


def pcf_stats(engine: object) -> Optional[Tuple[float, int, int, int]]:
    """``(passive_flow, era_max, cancellations, swaps)`` for any engine.

    None when the run carries no PCF handshake state. Shared by
    :class:`PCFCancellationProbe` and the cancellation-stall detector in
    :mod:`repro.tracing.anomaly`.
    """
    cancels = getattr(engine, "cancellations", None)
    if cancels is not None:  # vectorized PCF engine
        swaps = int(getattr(engine, "swaps", getattr(engine, "catch_ups", 0)))
        passive = float(engine.passive_flow_magnitude())  # type: ignore[attr-defined]
        era = int(engine.max_era())  # type: ignore[attr-defined]
        return passive, era, int(cancels), swaps
    algorithms = _object_algorithms(engine)
    if algorithms is None:
        return None
    pcf_algs = [
        alg
        for alg in algorithms
        if hasattr(alg, "cancellations") and hasattr(alg, "edge_state")
    ]
    if not pcf_algs:
        return None
    passive = 0.0
    era = 0
    total_cancels = 0
    total_swaps = 0
    for alg in pcf_algs:
        total_cancels += alg.cancellations
        total_swaps += int(getattr(alg, "swaps", getattr(alg, "catch_ups", 0)))
        for neighbor in alg.neighbors:
            edge = alg.edge_state(neighbor)
            passive = max(passive, edge.passive_flow().magnitude())
            era = max(era, edge.era)
    return passive, era, total_cancels, total_swaps


class FlowMagnitudeProbe(_SamplingProbe):
    """Per-round flow-magnitude statistics (the Figs. 2–3 signal).

    Records ``max_flow`` (largest stored flow magnitude anywhere),
    ``mean_flow`` (mean over nodes of each node's largest flow) and
    ``flow_weight_ratio`` — ``max_flow`` divided by the mean live weight
    mass. Estimates keep weights O(1), so a growing ratio is precisely
    the "flows grow with n while estimates do not" diagnosis.
    """

    record_type = "flow"

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        sampler: Optional[RoundSampler] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(every=every, sampler=sampler, registry=registry)
        if registry is not None:
            self._g_max = registry.gauge(
                "repro_flow_magnitude_max", "Largest stored flow magnitude"
            )
            self._g_mean = registry.gauge(
                "repro_flow_magnitude_mean", "Mean per-node max flow magnitude"
            )
            self._g_ratio = registry.gauge(
                "repro_flow_weight_ratio", "Max flow / mean weight mass"
            )

    def sample(self, engine: "SynchronousEngine", round_index: int) -> None:
        stats = flow_stats(engine)
        if stats is None:
            return
        max_flow, mean_flow, ratio = stats
        self.records.append(
            {
                "type": self.record_type,
                "round": round_index,
                "max_flow": max_flow,
                "mean_flow": mean_flow,
                "flow_weight_ratio": ratio,
            }
        )
        if self._registry is not None:
            self._g_max.set(max_flow)
            self._g_mean.set(mean_flow)
            self._g_ratio.set(ratio)

    def max_flow_series(self) -> List[float]:
        """The recorded ``max_flow`` trajectory (probe's headline output)."""
        return [float(r["max_flow"]) for r in self.records]


class MassDriftTracker:
    """Stateful relative mass-drift computation, shared across consumers.

    Captures the conserved-mass baseline at run start (``start``) and
    reports the relative deviation of the current live totals from it
    (``drift``), duck-typed over vectorized and object engines. The
    object-engine baseline is re-based whenever the live-node *membership*
    changes (not merely the count, so a same-round leave-plus-join under
    churn still re-bases), since fail-stop removal and dynamic-topology
    churn both legitimately move mass. A rejoining node re-enters with its
    initial conserved share, so post-rejoin drift measures exactly the
    mass the protocol failed to restore — zero for push-flow, the
    orphaned cancelled-flow residual for PCF. Used by
    :class:`MassConservationProbe` for violation records and by
    :class:`repro.tracing.flight.FlightRecorder` for its black-box
    trigger, so both agree on what "drift" means.
    """

    def __init__(self) -> None:
        self._baseline: Optional[Tuple[np.ndarray, float]] = None
        self._obj_baseline: Optional[MassPair] = None
        self._obj_members: Optional[frozenset] = None

    def start(self, engine: object) -> None:
        """Capture the baseline from a freshly constructed engine."""
        pairs = vector_pairs(engine)
        if pairs is not None:  # vectorized engine: flows start at zero
            values, weights = pairs
            self._baseline = (
                np.sum(np.asarray(values), axis=0),
                float(np.sum(weights)),
            )
            return
        algorithms = _object_algorithms(engine)
        if algorithms:
            self._obj_baseline = _conserved_total(algorithms)[0]
            members = _live_node_ids(engine)
            self._obj_members = (
                members
                if members is not None
                else frozenset(range(len(algorithms)))
            )

    def drift(self, engine: object) -> Optional[float]:
        """Relative deviation from the baseline; inf when non-finite."""
        pairs = vector_pairs(engine)
        if pairs is not None:  # vectorized engine
            values, weights = pairs
            current = (
                np.sum(np.asarray(values), axis=0),
                float(np.sum(weights)),
            )
            if self._baseline is None:
                self._baseline = current
                return 0.0
            if not (
                np.all(np.isfinite(current[0])) and math.isfinite(current[1])
            ):
                return float("inf")
            exp_v, exp_w = self._baseline
            scale = max(float(np.max(np.abs(exp_v))), abs(exp_w), _TINY)
            deviation = max(
                float(np.max(np.abs(current[0] - exp_v))),
                abs(current[1] - exp_w),
            )
            return deviation / scale
        algorithms = _object_algorithms(engine)
        if not algorithms:
            return None
        members = _live_node_ids(engine)
        if members is None:
            members = frozenset(range(len(algorithms)))
        if self._obj_baseline is None or members != self._obj_members:
            # First sample, or the live membership changed (fail-stop or
            # churn): (re-)base the expected total on the survivors'
            # conserved shares.
            self._obj_baseline = _conserved_total(algorithms)[0]
            self._obj_members = members
        expected = self._obj_baseline
        current_pair: Optional[MassPair] = None
        for alg in algorithms:
            estimate = alg.estimate_pair()
            current_pair = (
                estimate if current_pair is None else current_pair + estimate
            )
        assert current_pair is not None
        if not current_pair.is_finite():
            return float("inf")
        deviation = (current_pair - expected).magnitude()
        return deviation / max(expected.magnitude(), _TINY)


class MassConservationProbe(_SamplingProbe):
    """Checks global mass conservation within a relative tolerance.

    The expected mass is the sum over live nodes of ``conserved_mass()``,
    captured as a baseline at run start (so push-sum's silent mass leak
    under message loss is caught instead of compared against itself) and
    re-based whenever the live-node set changes (fail-stop legitimately
    removes mass). The observed quantity is the sum of the live estimate
    pairs; their relative deviation is the *drift*, and sampled rounds
    where it exceeds ``tolerance`` become violations.

    Two kinds of over-tolerance drift are *expected* and self-healing, and
    show up as transient spikes rather than persistent offsets: a lost
    flow-carrying message (healed by the next successful exchange on the
    edge), and a PF message crossing — both endpoints of an edge gossiping
    with each other in one round overwrite each other's virtual send, so
    pairwise antisymmetry breaks until the edge is next exchanged cleanly.
    Persistent drift is the fault signal (push-sum under loss, PF's
    flow-zeroing estimate jump on link failure, PCF deadlock mass drain).
    """

    record_type = "mass"

    def __init__(
        self,
        *,
        tolerance: float = 1e-9,
        every: Optional[int] = None,
        sampler: Optional[RoundSampler] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(every=every, sampler=sampler, registry=registry)
        if tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        self.tolerance = float(tolerance)
        self._tracker = MassDriftTracker()
        if registry is not None:
            self._g_drift = registry.gauge(
                "repro_mass_drift_relative", "Relative global mass drift"
            )
            self._c_violations = registry.counter(
                "repro_invariant_violations_total",
                "Invariant-probe violations",
            )

    def on_run_start(self, engine: "SynchronousEngine") -> None:
        self._tracker.start(engine)

    def _drift(self, engine: object) -> Optional[float]:
        return self._tracker.drift(engine)

    def sample(self, engine: "SynchronousEngine", round_index: int) -> None:
        drift = self._drift(engine)
        if drift is None:
            return
        violated = drift > self.tolerance
        self.records.append(
            {
                "type": self.record_type,
                "round": round_index,
                "drift": drift,
                "violated": violated,
            }
        )
        if violated:
            self.violations.append(
                {
                    "type": "violation",
                    "probe": "mass_conservation",
                    "round": round_index,
                    "drift": drift,
                    "tolerance": self.tolerance,
                }
            )
        if self._registry is not None:
            self._g_drift.set(drift)
            if violated:
                self._c_violations.inc(probe="mass_conservation")

    def worst_drift(self) -> float:
        return max(
            (float(r["drift"]) for r in self.records), default=0.0
        )


class PCFCancellationProbe(_SamplingProbe):
    """Cancellation-handshake progress of the PCF protocols (Sec. III-A).

    Tracks the largest passive-flow magnitude (cooperatively driven to
    zero once per era), the highest era counter reached, and the
    cumulative cancel / role-swap (or catch-up, for the hardened
    handshake) counts.
    """

    record_type = "pcf"

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        sampler: Optional[RoundSampler] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(every=every, sampler=sampler, registry=registry)
        if registry is not None:
            self._g_passive = registry.gauge(
                "repro_pcf_passive_flow_magnitude",
                "Largest passive-slot flow magnitude",
            )
            self._g_era = registry.gauge(
                "repro_pcf_era_max", "Highest role-swap era reached"
            )
            self._g_cancels = registry.gauge(
                "repro_pcf_cancellations_total", "Cumulative cancel events"
            )
            self._g_swaps = registry.gauge(
                "repro_pcf_role_swaps_total",
                "Cumulative role swaps / catch-ups",
            )

    def sample(self, engine: "SynchronousEngine", round_index: int) -> None:
        stats = pcf_stats(engine)
        if stats is None:
            return
        passive, era, cancels, swaps = stats
        self.records.append(
            {
                "type": self.record_type,
                "round": round_index,
                "passive_flow": passive,
                "era_max": era,
                "cancellations": cancels,
                "swaps": swaps,
            }
        )
        if self._registry is not None:
            self._g_passive.set(passive)
            self._g_era.set(era)
            self._g_cancels.set(cancels)
            self._g_swaps.set(swaps)


class FaultTimelineProbe(Observer):
    """Records every fault activation, drop and handling as timeline events.

    The observability companion to the fault injectors: the resulting
    event list (merged into ``trace.jsonl`` by the session) is the "how do
    faults propagate" record the report tool renders as a timeline.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def on_fault_injected(
        self, engine: "SynchronousEngine", round_index: int, kind: str, detail: str
    ) -> None:
        self.events.append(
            {
                "type": "fault",
                "round": round_index,
                "kind": kind,
                "detail": detail,
            }
        )

    def on_link_handled(
        self, engine: "SynchronousEngine", round_index: int, u: int, v: int
    ) -> None:
        self.events.append(
            {
                "type": "fault",
                "round": round_index,
                "kind": "link_handled",
                "detail": f"link({u},{v})",
            }
        )
