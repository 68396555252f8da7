"""Online anomaly detectors for the paper's failure signatures.

Each detector is an observer that watches one pathology the paper (or this
reproduction's findings) documents, and raises a structured *alert* when
its signature appears — into its ``alerts`` list, the shared metrics
registry (``repro_anomaly_alerts_total{detector=}``), and the causal trace
when a :class:`~repro.tracing.tracer.CausalTracer` is attached. DESIGN.md
maps each detector to its paper figure; the thresholds were tuned on the
repo's own reproduction runs (see the class docstrings).

- :class:`FlowBlowupDetector` — Figs. 2–3: push-flow's stored flows grow
  ~linearly with ``n`` while estimates stay O(1), so the estimate
  subtraction cancels catastrophically. Signature: the flow-to-weight
  ratio stays above ``ratio_threshold`` for ``patience`` consecutive
  samples. On the Fig. 2 bus case study (n=32) PF sustains a ratio of
  23–27 while (hardened) PCF stays below ~12 after the initial transient.
- :class:`RestartRegressionDetector` — Fig. 4: PF's link-failure handling
  zeroes the failed link's flows, throwing the estimates back to
  near-initial error; PCF restores flows cooperatively and barely moves.
  Signature: estimate spread within ``window`` rounds after a handled
  failure exceeds ``regression_factor`` times the pre-failure spread
  (hypercube n=64 reproduction: PF regresses ~1000x, PCF ~2.5x).
- :class:`PCFCancellationStallDetector` — the Fig. 5 handshake's
  message-crossing deadlock (reproduction finding F1): a stalled edge
  swallows every half-estimate "sent" into it, so the global weight mass
  drains toward zero while healthy PCF keeps it at O(n). Signature: live
  weight mass below ``drain_fraction`` of its baseline for ``patience``
  consecutive samples (bus n=64: plain PCF drains 78 -> 0.003 by round
  20000; the hardened handshake stays at ~80).
- :class:`PartitionHealDetector` — dynamic networks (repro.dynamics): a
  partition or regional outage opens an *episode*; the detector alerts
  ``never_healed`` when no restoring topology event arrives within
  ``heal_window`` rounds, and ``no_reconvergence`` when the estimate
  spread fails to collapse back down within ``reconverge_window`` rounds
  after the heal (push-flow reconverges exactly; a diverged component
  that never reconnects keeps the global spread pinned at the gap
  between the component averages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.simulation.observers import Observer
from repro.telemetry.probes import flow_stats, pcf_stats, vector_pairs
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampling import RoundSampler, resolve_sampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.engine import SynchronousEngine
    from repro.tracing.tracer import CausalTracer


def _live_weight_mass(engine: object) -> Optional[float]:
    """Summed live weight mass, duck-typed over all engines."""
    pairs = vector_pairs(engine)
    if pairs is not None:  # vectorized engine
        return float(np.sum(pairs[1]))
    algorithms = getattr(engine, "algorithms", None)
    if algorithms is None:
        return None
    live = getattr(engine, "live_nodes", None)
    nodes = live() if live is not None else range(len(algorithms))
    return float(sum(algorithms[i].estimate_pair().weight for i in nodes))


def _estimate_spread(engine: object) -> Optional[float]:
    """Max-min over live node estimates (inf when any is non-finite).

    A node's estimate is its largest component. The vectorized engines
    return one ``(n, d)`` array, divided from their shared pair."""
    try:
        estimates = engine.estimates()  # type: ignore[attr-defined]
        if isinstance(estimates, np.ndarray):
            estimates = estimates.max(axis=1)
        else:
            estimates = np.array(
                [
                    float(np.max(np.atleast_1d(np.asarray(e, dtype=np.float64))))
                    for e in estimates
                ]
            )
    except (AttributeError, TypeError, ValueError):
        return None
    if estimates.size == 0:
        return None
    if not np.all(np.isfinite(estimates)):
        return float("inf")
    return float(estimates.max() - estimates.min())


class AnomalyDetector(Observer):
    """Base: sampled observation + structured alert plumbing."""

    name = "anomaly"

    def __init__(
        self,
        *,
        sampler: Optional[RoundSampler] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional["CausalTracer"] = None,
    ) -> None:
        self._sampler = resolve_sampler(sampler)
        self._tracer = tracer
        self.alerts: List[Dict[str, object]] = []
        self._counter = (
            registry.counter(
                "repro_anomaly_alerts_total", "Anomaly-detector alerts"
            )
            if registry is not None
            else None
        )

    def wants_detail(self, round_index: int) -> bool:
        # Detectors read engine state at round boundaries only.
        return False

    @property
    def fired(self) -> bool:
        return bool(self.alerts)

    def attach_tracer(self, tracer: "CausalTracer") -> None:
        """Route future alerts into ``tracer`` as causal alert events."""
        self._tracer = tracer

    def _alert(self, round_index: int, **detail: object) -> None:
        self.alerts.append(
            {
                "type": "alert",
                "detector": self.name,
                "round": round_index,
                **detail,
            }
        )
        if self._counter is not None:
            self._counter.inc(detector=self.name)
        if self._tracer is not None:
            self._tracer.record_alert(round_index, self.name, dict(detail))

    def on_round_end(self, engine: "SynchronousEngine", round_index: int) -> None:
        if self._sampler.sample(round_index):
            self.observe(engine, round_index)

    def observe(self, engine: "SynchronousEngine", round_index: int) -> None:
        raise NotImplementedError  # pragma: no cover


class FlowBlowupDetector(AnomalyDetector):
    """Figs. 2–3: flows growing far beyond the weight scale, sustained."""

    name = "flow_blowup"

    def __init__(
        self,
        *,
        ratio_threshold: float = 15.0,
        patience: int = 3,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.ratio_threshold = float(ratio_threshold)
        self.patience = int(patience)
        self._over = 0
        self._last_ratio = 0.0

    def observe(self, engine: "SynchronousEngine", round_index: int) -> None:
        stats = flow_stats(engine)
        if stats is None:
            return
        max_flow, _, ratio = stats
        self._last_ratio = ratio
        if ratio >= self.ratio_threshold:
            self._over += 1
            if self._over == self.patience:  # alert once per excursion
                self._alert(
                    round_index,
                    flow_weight_ratio=ratio,
                    max_flow=max_flow,
                    threshold=self.ratio_threshold,
                    sustained_samples=self._over,
                )
        else:
            self._over = 0


class RestartRegressionDetector(AnomalyDetector):
    """Fig. 4: estimate spread regressing after a handled link failure."""

    name = "restart_regression"

    def __init__(
        self,
        *,
        regression_factor: float = 50.0,
        min_spread: float = 1e-9,
        window: int = 64,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.regression_factor = float(regression_factor)
        self.min_spread = float(min_spread)
        self.window = int(window)
        self._last_spread: Optional[float] = None
        # (event_round, pre-failure spread) for each unalerted handling.
        self._pending: List[Tuple[int, float]] = []

    def on_link_handled(
        self, engine: "SynchronousEngine", round_index: int, u: int, v: int
    ) -> None:
        if self._last_spread is not None and self._last_spread > 0:
            self._pending.append((round_index, self._last_spread))

    def observe(self, engine: "SynchronousEngine", round_index: int) -> None:
        spread = _estimate_spread(engine)
        if spread is None:
            return
        still_pending: List[Tuple[int, float]] = []
        for event_round, pre_spread in self._pending:
            if round_index - event_round > self.window:
                continue  # expired without regression
            if (
                spread > self.regression_factor * pre_spread
                and spread > self.min_spread
            ):
                self._alert(
                    round_index,
                    event_round=event_round,
                    pre_spread=pre_spread,
                    post_spread=spread,
                    regression=spread / pre_spread,
                )
            else:
                still_pending.append((event_round, pre_spread))
        self._pending = still_pending
        self._last_spread = spread


class PCFCancellationStallDetector(AnomalyDetector):
    """Finding F1: crossing-deadlocked handshake draining the weight mass."""

    name = "pcf_stall"

    def __init__(
        self,
        *,
        drain_fraction: float = 0.5,
        patience: int = 3,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.drain_fraction = float(drain_fraction)
        self.patience = int(patience)
        self._baseline: Optional[float] = None
        self._live_count: Optional[int] = None
        self._under = 0

    def observe(self, engine: "SynchronousEngine", round_index: int) -> None:
        if pcf_stats(engine) is None:
            return  # not a PCF run
        mass = _live_weight_mass(engine)
        if mass is None:
            return
        live = getattr(engine, "live_nodes", None)
        count = len(live()) if live is not None else None
        if self._baseline is None or count != self._live_count:
            # First sample, or fail-stop legitimately removed mass.
            self._baseline = mass
            self._live_count = count
            self._under = 0
            return
        if abs(mass) < self.drain_fraction * abs(self._baseline):
            self._under += 1
            if self._under == self.patience:  # alert once per drain
                self._alert(
                    round_index,
                    weight_mass=mass,
                    baseline=self._baseline,
                    drain_fraction=self.drain_fraction,
                )
        else:
            self._under = 0


class PartitionHealDetector(AnomalyDetector):
    """Dynamic networks: partitions that never heal, or heal without
    the estimates reconverging.

    A topology event labelled ``partition`` or ``outage`` opens an
    episode and snapshots the pre-partition estimate spread; any
    restoring event (``edge_up`` / ``node_join``) marks the heal. The
    detector alerts ``never_healed`` when the heal does not arrive
    within ``heal_window`` rounds, and ``no_reconvergence`` when, after
    the heal, the spread stays above
    ``max(reconverge_factor * pre_spread, spread_floor)`` for
    ``reconverge_window`` rounds. One episode is tracked at a time
    (overlapping cuts extend the open episode).
    """

    name = "partition_heal"

    #: Topology-event labels that open an episode. Per-node churn is
    #: excluded on purpose: individual leave/join pairs are routine, the
    #: detector watches *correlated* cuts.
    partition_labels = ("partition", "outage")

    def __init__(
        self,
        *,
        heal_window: int = 60,
        reconverge_window: int = 60,
        reconverge_factor: float = 10.0,
        spread_floor: float = 1e-6,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.heal_window = int(heal_window)
        self.reconverge_window = int(reconverge_window)
        self.reconverge_factor = float(reconverge_factor)
        self.spread_floor = float(spread_floor)
        self._last_spread: Optional[float] = None
        self._episode: Optional[Dict[str, object]] = None

    def on_topology_event(
        self,
        engine: "SynchronousEngine",
        round_index: int,
        kind: str,
        detail: Dict[str, object],
    ) -> None:
        label = str(detail.get("label", ""))
        if kind in ("edge_down", "node_leave") and label in self.partition_labels:
            if self._episode is None:
                self._episode = {
                    "open_round": round_index,
                    "pre_spread": self._last_spread,
                    "heal_round": None,
                }
        elif kind in ("edge_up", "node_join"):
            if self._episode is not None and self._episode["heal_round"] is None:
                self._episode["heal_round"] = round_index

    def observe(self, engine: "SynchronousEngine", round_index: int) -> None:
        spread = _estimate_spread(engine)
        if spread is not None:
            self._last_spread = spread
        episode = self._episode
        if episode is None:
            return
        open_round = int(episode["open_round"])  # type: ignore[arg-type]
        heal_round = episode["heal_round"]
        if heal_round is None:
            if round_index - open_round > self.heal_window:
                self._alert(
                    round_index,
                    reason="never_healed",
                    partition_round=open_round,
                    heal_window=self.heal_window,
                    spread=spread,
                )
                self._episode = None
            return
        if spread is None:
            return
        pre = episode["pre_spread"]
        target = max(
            self.reconverge_factor * float(pre) if pre is not None else 0.0,
            self.spread_floor,
        )
        if spread <= target:
            self._episode = None  # reconverged after the heal
        elif round_index - int(heal_round) > self.reconverge_window:  # type: ignore[arg-type]
            self._alert(
                round_index,
                reason="no_reconvergence",
                partition_round=open_round,
                heal_round=int(heal_round),  # type: ignore[arg-type]
                pre_spread=pre,
                post_spread=spread,
                target_spread=target,
            )
            self._episode = None


def default_detectors(
    *,
    sampler: Optional[RoundSampler] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional["CausalTracer"] = None,
) -> List[AnomalyDetector]:
    """The standard detector set a telemetry session attaches per engine."""
    kwargs = {"sampler": sampler, "registry": registry, "tracer": tracer}
    return [
        FlowBlowupDetector(**kwargs),  # type: ignore[arg-type]
        RestartRegressionDetector(**kwargs),  # type: ignore[arg-type]
        PCFCancellationStallDetector(**kwargs),  # type: ignore[arg-type]
        PartitionHealDetector(**kwargs),  # type: ignore[arg-type]
    ]
