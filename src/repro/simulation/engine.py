"""The synchronous round-based gossip engine.

Execution model (the paper's "regular, synchronous communication schedule"):
in every round each live node, in node-id order,

1. asks the :class:`~repro.simulation.schedule.Schedule` for a gossip target
   among its live neighbors,
2. performs its local send bookkeeping (``make_message`` — the flow
   algorithms' "virtual send") and hands the message to the transport.

After all sends, the transport applies permanent-failure filtering (dead
links/nodes swallow messages) and per-message fault injectors (loss,
bit flips), then all surviving messages are delivered (``on_receive``),
again in deterministic order. Finally timed permanent failures scheduled for
*handling* this round trigger ``on_link_failed`` on the survivors, and
observers run.

The engine is deliberately deterministic: given (topology, algorithm,
initial data, schedule seed, fault plan/filters with their seeds) two runs
are bit-identical, and two runs differing *only* in the algorithm (e.g. PF
vs PCF) see the exact same communication schedule and fault timeline — the
methodology behind the paper's Fig. 4 vs Fig. 7 comparison.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import GossipAlgorithm
from repro.dynamics.schedule import TopologyDelta, TopologySchedule
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.base import MessageFault, NoFault
from repro.faults.events import FaultPlan
from repro.simulation.messages import Message
from repro.simulation.observers import Observer, ObserverList
from repro.simulation.schedule import Schedule
from repro.topology.base import Topology

StopCondition = Callable[["SynchronousEngine", int], bool]


class SynchronousEngine:
    """Round-synchronous simulator for one reduction over one topology."""

    def __init__(
        self,
        topology: Topology,
        algorithms: Sequence[GossipAlgorithm],
        schedule: Schedule,
        *,
        message_fault: Optional[MessageFault] = None,
        fault_plan: Optional[FaultPlan] = None,
        topology_schedule: Optional[TopologySchedule] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        if len(algorithms) != topology.n:
            raise ConfigurationError(
                f"expected {topology.n} algorithm instances, got {len(algorithms)}"
            )
        for i, alg in enumerate(algorithms):
            if alg.node_id != i:
                raise ConfigurationError(
                    f"algorithm at position {i} has node_id {alg.node_id}"
                )
        self._topology = topology
        self._algorithms = list(algorithms)
        self._schedule = schedule
        self._message_fault = message_fault or NoFault()
        self._fault_plan = fault_plan or FaultPlan()
        from repro.telemetry.session import session_observers

        self._observer = ObserverList(
            list(observers) + session_observers(self, engine_kind="sync")
        )

        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        self._dead_edges: Set[Tuple[int, int]] = set()
        self._dead_nodes: Set[int] = set()
        self._handled_edges: Set[Tuple[int, int]] = set()
        # Dynamic-topology overlay: temporarily absent nodes and downed
        # edges, disjoint from the permanent-failure sets above (permanent
        # failures win on conflicts and are never revived).
        self._topology_schedule = topology_schedule
        self._departed: Set[int] = set()
        self._down_edges: Set[Tuple[int, int]] = set()
        if topology_schedule is not None:
            topology_schedule.validate_against(topology)
        self._validate_fault_plan()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def algorithms(self) -> List[GossipAlgorithm]:
        return self._algorithms

    @property
    def round(self) -> int:
        """Number of completed rounds."""
        return self._round

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def dead_nodes(self) -> frozenset:
        return frozenset(self._dead_nodes)

    @property
    def departed_nodes(self) -> frozenset:
        """Nodes currently absent due to the dynamic topology schedule."""
        return frozenset(self._departed)

    @property
    def down_edges(self) -> frozenset:
        """Edges currently down due to the dynamic topology schedule."""
        return frozenset(self._down_edges)

    def live_nodes(self) -> List[int]:
        return [
            i
            for i in self._topology.nodes()
            if i not in self._dead_nodes and i not in self._departed
        ]

    def estimates(self) -> List[object]:
        """Current estimate of every *live* node (dead nodes excluded)."""
        return [
            self._algorithms[i].estimate() for i in self.live_nodes()
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        *,
        stop_when: Optional[StopCondition] = None,
    ) -> int:
        """Execute up to ``max_rounds`` rounds; returns rounds executed.

        ``stop_when(engine, round_index)`` is evaluated after each round
        (the harness uses it for the paper's "prescribed target accuracy"
        oracle termination).
        """
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        if self._round == 0:
            self._observer.on_run_start(self)
        executed = 0
        while executed < max_rounds:
            self.step()
            executed += 1
            if stop_when is not None and stop_when(self, self._round - 1):
                break
        self._observer.on_run_end(self, executed)
        return executed

    def step(self) -> None:
        """Execute exactly one synchronous round."""
        round_index = self._round
        # Observed runs time every phase; unobserved runs skip all of it so
        # disabled telemetry stays off the hot path. Sampled telemetry sets
        # additionally skip phase timing and per-message hooks on unsampled
        # rounds (`detailed` False); message totals of such rounds are
        # reported through the batched on_round_messages hook instead, and
        # drops/faults/handlings always fire individually.
        observed = bool(self._observer)
        detailed = observed and self._observer.wants_detail(round_index)

        # Dynamic topology deltas apply at the very start of the round,
        # before any fault activation or send — the transition instant has
        # no in-flight messages (the synchronous model delivers within the
        # round), so flows and phi change only through the handled
        # exclusion/restoration paths.
        if self._topology_schedule is not None:
            self._apply_topology_deltas(round_index)

        # Phase 0: components whose physical failure starts this round.
        for lf in self._fault_plan.link_failures:
            if lf.round == round_index:
                self._dead_edges.add(lf.edge)
                if observed:
                    self._observer.on_fault_injected(
                        self, round_index, "link_failure", f"link({lf.u},{lf.v})"
                    )
        for nf in self._fault_plan.node_failures:
            if nf.round == round_index:
                self._dead_nodes.add(nf.node)
                if observed:
                    self._observer.on_fault_injected(
                        self, round_index, "node_failure", f"node({nf.node})"
                    )

        # Phase 1: sends (local bookkeeping happens here).
        t0 = time.perf_counter() if detailed else 0.0
        outbox: List[Message] = []
        for node in self._topology.nodes():
            if node in self._dead_nodes or node in self._departed:
                continue
            alg = self._algorithms[node]
            live = alg.neighbors
            target = self._schedule.choose(node, live, round_index)
            if target is None:
                continue
            if target not in live:
                raise SimulationError(
                    f"schedule chose non-neighbor {target} for node {node}"
                )
            payload = alg.make_message(target)
            message = Message(
                sender=node,
                receiver=target,
                round=round_index,
                payload=payload,
            )
            outbox.append(message)
            self._messages_sent += 1
            if detailed:
                self._observer.on_message_sent(self, message)
        if detailed:
            t1 = time.perf_counter()
            self._observer.on_phase_end(self, "send", t1 - t0)
            t0 = t1

        # Phase 2: transport — permanent failures swallow, injectors filter.
        delivered: List[Message] = []
        for message in outbox:
            edge = message.edge()
            if edge in self._dead_edges or edge in self._down_edges:
                if observed:
                    self._observer.on_message_dropped(self, message, "dead_edge")
                continue
            if (
                message.receiver in self._dead_nodes
                or message.receiver in self._departed
            ):
                if observed:
                    self._observer.on_message_dropped(self, message, "dead_node")
                continue
            filtered = self._message_fault.apply(message)
            if filtered is not None:
                if observed and filtered is not message:
                    self._observer.on_fault_injected(
                        self,
                        round_index,
                        "message_corruption",
                        f"edge({message.sender},{message.receiver})",
                    )
                delivered.append(filtered)
            elif observed:
                self._observer.on_message_dropped(self, message, "injector")
        if detailed:
            t1 = time.perf_counter()
            self._observer.on_phase_end(self, "transport", t1 - t0)
            t0 = t1

        # Phase 3: deliveries, in deterministic (send) order.
        for message in delivered:
            self._algorithms[message.receiver].on_receive(
                message.sender, message.payload
            )
            self._messages_delivered += 1
            if detailed:
                self._observer.on_message_delivered(self, message)
        if detailed:
            t1 = time.perf_counter()
            self._observer.on_phase_end(self, "deliver", t1 - t0)
            t0 = t1

        # Phase 4: failure handling scheduled for this round.
        for lf in self._fault_plan.link_handlings_at(round_index):
            self._handle_link(lf.u, lf.v, round_index)
        for nf in self._fault_plan.node_handlings_at(round_index):
            for neighbor in self._topology.neighbors(nf.node):
                self._handle_link(nf.node, neighbor, round_index)
        if detailed:
            self._observer.on_phase_end(
                self, "handle", time.perf_counter() - t0
            )

        self._round += 1
        if observed and not detailed:
            # Unsampled round: report the send total in one batched call.
            # delivered == sent here because every drop was already
            # reported individually above (on_round_messages' delta counts
            # only drops that had no per-message callback).
            self._observer.on_round_messages(
                self, round_index, len(outbox), len(outbox)
            )
        self._observer.on_round_end(self, round_index)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle_link(self, u: int, v: int, round_index: int) -> None:
        edge = (u, v) if u < v else (v, u)
        if edge in self._handled_edges:
            return
        self._handled_edges.add(edge)
        self._dead_edges.add(edge)
        for endpoint, other in ((u, v), (v, u)):
            if endpoint in self._dead_nodes or endpoint in self._departed:
                continue
            alg = self._algorithms[endpoint]
            if other in alg.neighbors:
                alg.on_link_failed(other)
        self._observer.on_link_handled(self, round_index, edge[0], edge[1])

    # ------------------------------------------------------------------
    # Dynamic topology (repro.dynamics)
    # ------------------------------------------------------------------
    def _apply_topology_deltas(self, round_index: int) -> None:
        for delta in self._topology_schedule.deltas_at(round_index):
            if delta.kind == "edge_down":
                self._dyn_edge_down(delta, round_index)
            elif delta.kind == "edge_up":
                self._dyn_edge_up(delta, round_index)
            elif delta.kind == "node_leave":
                self._dyn_node_leave(delta, round_index)
            else:
                self._dyn_node_join(delta, round_index)

    def _emit_topology_event(
        self, round_index: int, delta: TopologyDelta
    ) -> None:
        detail: dict = {"label": delta.label}
        if delta.edge is not None:
            detail["edge"] = list(delta.edge)
        if delta.node is not None:
            detail["node"] = delta.node
        self._observer.on_topology_event(self, round_index, delta.kind, detail)

    def _dyn_edge_down(self, delta: TopologyDelta, round_index: int) -> None:
        edge = delta.edge
        if edge in self._down_edges or edge in self._dead_edges:
            return
        self._down_edges.add(edge)
        u, v = edge
        for endpoint, other in ((u, v), (v, u)):
            if endpoint in self._dead_nodes or endpoint in self._departed:
                continue
            alg = self._algorithms[endpoint]
            if other in alg.neighbors:
                alg.on_link_failed(other)
        if self._observer:
            # Downing an edge runs the exact link-failure recovery path, so
            # the same telemetry fires (restart detectors, fault timelines).
            self._observer.on_link_handled(self, round_index, u, v)
            self._emit_topology_event(round_index, delta)

    def _dyn_edge_up(self, delta: TopologyDelta, round_index: int) -> None:
        edge = delta.edge
        if edge not in self._down_edges:
            return
        self._down_edges.discard(edge)
        u, v = edge
        # A permanently failed link stays dead through any edge_up.
        if not (
            edge in self._dead_edges
            or u in self._dead_nodes
            or v in self._dead_nodes
            or u in self._departed
            or v in self._departed
        ):
            for endpoint, other in ((u, v), (v, u)):
                alg = self._algorithms[endpoint]
                if other not in alg.neighbors:
                    alg.on_link_restored(other)
        if self._observer:
            self._emit_topology_event(round_index, delta)

    def _dyn_node_leave(self, delta: TopologyDelta, round_index: int) -> None:
        node = delta.node
        if node in self._departed or node in self._dead_nodes:
            return
        self._departed.add(node)
        for neighbor in self._topology.neighbors(node):
            edge = (node, neighbor) if node < neighbor else (neighbor, node)
            if edge in self._dead_edges or edge in self._down_edges:
                continue
            if neighbor in self._dead_nodes or neighbor in self._departed:
                continue
            # The survivor runs the same recovery as a handled link failure;
            # the departing node's state is frozen as-is (it is reset
            # wholesale if it ever rejoins).
            alg = self._algorithms[neighbor]
            if node in alg.neighbors:
                alg.on_link_failed(node)
                if self._observer:
                    self._observer.on_link_handled(
                        self, round_index, edge[0], edge[1]
                    )
        if self._observer:
            self._emit_topology_event(round_index, delta)

    def _dyn_node_join(self, delta: TopologyDelta, round_index: int) -> None:
        node = delta.node
        if node not in self._departed or node in self._dead_nodes:
            return
        self._departed.discard(node)
        live_neighbors = []
        for neighbor in self._topology.neighbors(node):
            edge = (node, neighbor) if node < neighbor else (neighbor, node)
            if edge in self._dead_edges or edge in self._down_edges:
                continue
            if neighbor in self._dead_nodes or neighbor in self._departed:
                continue
            live_neighbors.append(neighbor)
        self._algorithms[node].reset_for_join(live_neighbors)
        for neighbor in live_neighbors:
            alg = self._algorithms[neighbor]
            if node not in alg.neighbors:
                alg.on_link_restored(node)
        if self._observer:
            self._emit_topology_event(round_index, delta)

    def _validate_fault_plan(self) -> None:
        for lf in self._fault_plan.link_failures:
            if not self._topology.has_edge(lf.u, lf.v):
                raise ConfigurationError(
                    f"fault plan kills edge ({lf.u}, {lf.v}) which does not "
                    f"exist in topology {self._topology.name!r}"
                )
        for nf in self._fault_plan.node_failures:
            if not 0 <= nf.node < self._topology.n:
                raise ConfigurationError(
                    f"fault plan kills node {nf.node} outside topology "
                    f"(n={self._topology.n})"
                )
