"""Time-varying topology: declarative round → adjacency-delta schedules.

The paper evaluates its algorithms on static topologies; the related
dynamic-aggregation literature (Jesus/Baquero/Almeida, "Flow-Updating Meets
Mass-Distribution" and "Dependability in Aggregation by Averaging") studies
the regime a real deployment faces: node churn, correlated regional
outages, and network partitions that later heal. A
:class:`TopologySchedule` expresses such a regime as round-sorted
:class:`TopologyDelta` events, stored as columns (round, kind, endpoints,
label), that the engines apply at the *start* of the named round, before
any send of that round.

Semantics at the transition instant (see DESIGN.md for the full note):

- the synchronous engines deliver every message within its round, so there
  are never in-flight messages across a delta;
- ``edge_down`` / ``node_leave`` run the same algorithmic exclusion path as
  a handled ``link_failure`` (``on_link_failed`` — flows zeroed/absorbed);
- ``edge_up`` re-adds the neighbor with an exact-zero flow on both sides;
- ``node_join`` resets the joining node to its initial mass with zero
  flows (``reset_for_join``) and re-adds it to each live neighbor.

Deltas describe changes relative to the *universe* graph — the static
:class:`~repro.topology.base.Topology` the run was built on. Edges taken
up must exist in the universe; nodes are identified by universe ids.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.base import Topology

#: The delta kinds engines understand; a kind's code is its index here.
DELTA_KINDS = ("edge_down", "edge_up", "node_leave", "node_join")
EDGE_DOWN, EDGE_UP, NODE_LEAVE, NODE_JOIN = range(len(DELTA_KINDS))

Edge = Tuple[int, int]


@dataclasses.dataclass(frozen=True)
class TopologyDelta:
    """One adjacency change, applied at the start of ``round``.

    ``label`` groups deltas into named episodes ("partition", "heal",
    "churn", "outage", ...) for telemetry and the
    :class:`~repro.tracing.anomaly.PartitionHealDetector`.
    """

    round: int
    kind: str
    edge: Optional[Edge] = None
    node: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ConfigurationError(
                f"topology delta round must be >= 0, got {self.round}"
            )
        if self.kind not in DELTA_KINDS:
            raise ConfigurationError(
                f"unknown topology delta kind {self.kind!r}; "
                f"expected one of {DELTA_KINDS}"
            )
        if self.kind in ("edge_down", "edge_up"):
            edge = self.edge
            if (
                edge is None
                or len(edge) != 2
                or not all(isinstance(e, int) for e in edge)
            ):
                raise ConfigurationError(
                    f"{self.kind} delta needs an (u, v) edge, got {edge!r}"
                )
            u, v = int(edge[0]), int(edge[1])
            if u == v:
                raise ConfigurationError(f"self-edge ({u}, {v}) in topology delta")
            if u < 0 or v < 0:
                raise ConfigurationError(
                    f"negative node id in topology delta edge ({u}, {v})"
                )
            object.__setattr__(self, "edge", (u, v) if u < v else (v, u))
            if self.node is not None:
                raise ConfigurationError(f"{self.kind} delta must not carry a node")
        else:
            if self.node is None or not isinstance(self.node, int):
                raise ConfigurationError(
                    f"{self.kind} delta needs a node id, got {self.node!r}"
                )
            if self.node < 0:
                raise ConfigurationError(
                    f"negative node id {self.node} in topology delta"
                )
            if self.edge is not None:
                raise ConfigurationError(f"{self.kind} delta must not carry an edge")

    def to_event(self) -> Dict[str, object]:
        """JSON-safe dict form (used by trace recording)."""
        out: Dict[str, object] = {"round": self.round, "kind": self.kind}
        if self.edge is not None:
            out["u"], out["v"] = self.edge
        if self.node is not None:
            out["node"] = self.node
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_event(cls, event: Mapping[str, object]) -> "TopologyDelta":
        kind = str(event["kind"])
        edge = None
        if "u" in event and event.get("u") is not None and event.get("u") != "":
            edge = (int(event["u"]), int(event["v"]))  # type: ignore[arg-type]
        node = event.get("node")
        node = int(node) if node not in (None, "") else None
        return cls(
            round=int(event["round"]),  # type: ignore[arg-type]
            kind=kind,
            edge=edge,
            node=node,
            label=str(event.get("label") or ""),
        )


class DeltaColumns(NamedTuple):
    """A schedule's events as read-only int64 columns, one entry per event."""

    rounds: np.ndarray  # ascending
    kinds: np.ndarray  # index into DELTA_KINDS
    a: np.ndarray  # the node, or the edge's smaller endpoint
    b: np.ndarray  # the edge's larger endpoint; -1 for node events
    label_ids: np.ndarray  # index into the schedule's label texts


class TopologySchedule:
    """Immutable, round-sorted topology deltas, stored as columns.

    Within one round, deltas apply in insertion order (the sort is stable),
    so builders control e.g. leave-before-join toggles deterministically.
    The builders and the batched engine work on :attr:`columns`;
    :class:`TopologyDelta` objects are built only when asked for
    (:attr:`deltas`, :meth:`deltas_at`, :meth:`to_events`).
    """

    def __init__(self, deltas: Iterable[TopologyDelta] = ()) -> None:
        deltas = tuple(deltas)
        labels: Dict[str, int] = {}
        rows = [
            (d.round, DELTA_KINDS.index(d.kind))
            + ((d.node, -1) if d.edge is None else d.edge)
            + (labels.setdefault(d.label, len(labels)),)
            for d in deltas
        ]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
        order = self._store(DeltaColumns(*columns), tuple(labels))
        # The deltas are validated objects already: keep them.
        self._deltas = tuple(deltas[i] for i in order)

    @classmethod
    def from_columns(
        cls,
        rounds,
        kinds,
        a,
        b,
        label_ids,
        labels: Sequence[str],
    ) -> "TopologySchedule":
        """A schedule from event columns (scalars broadcast).

        ``kinds`` index :data:`DELTA_KINDS`; ``a`` is the node of a node
        event and one endpoint of an edge event, ``b`` the other endpoint
        (-1 for node events); ``label_ids`` index ``labels``, whose texts
        must be distinct. Events are checked as :class:`TopologyDelta`
        checks them, and the first invalid one raises its error.
        """
        rounds, kinds, a, b, label_ids = (
            np.array(col, dtype=np.int64)
            for col in np.broadcast_arrays(rounds, kinds, a, b, label_ids)
        )
        edge = kinds <= EDGE_UP
        bad = (rounds < 0) | (kinds < 0) | (kinds >= len(DELTA_KINDS)) | (a < 0)
        bad |= np.where(edge, (b < 0) | (a == b), b != -1)
        if bad.any():
            k = int(np.argmax(bad))
            _raise_invalid(int(rounds[k]), int(kinds[k]), int(a[k]), int(b[k]))
        labels = tuple(str(label) for label in labels)
        if ((label_ids < 0) | (label_ids >= len(labels))).any():
            raise ConfigurationError(
                f"topology delta label index out of range for {len(labels)} labels"
            )
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"topology delta labels must be distinct, got {labels!r}"
            )
        schedule = cls.__new__(cls)
        schedule._store(
            DeltaColumns(
                rounds,
                kinds,
                np.where(edge, np.minimum(a, b), a),
                np.where(edge, np.maximum(a, b), -1),
                label_ids,
            ),
            labels,
        )
        return schedule

    @classmethod
    def join(cls, schedules: Iterable["TopologySchedule"]) -> "TopologySchedule":
        """Every event of ``schedules`` in one schedule.

        Events are taken part after part, then stably sorted by round: the
        schedule of the parts' concatenated :attr:`deltas`.
        """
        parts = [s for s in schedules if not s.is_empty()]
        if len(parts) <= 1:
            return parts[0] if parts else cls()
        table: Dict[str, int] = {}
        ids = []
        for part in parts:
            remap = np.array(
                [table.setdefault(label, len(table)) for label in part._labels],
                dtype=np.int64,
            )
            ids.append(remap[part._columns.label_ids])
        columns = [np.concatenate([part._columns[i] for part in parts]) for i in range(4)]
        schedule = cls.__new__(cls)
        schedule._store(DeltaColumns(*columns, np.concatenate(ids)), tuple(table))
        return schedule

    def _store(self, columns: DeltaColumns, labels: Tuple[str, ...]) -> np.ndarray:
        """Keep read-only copies of ``columns``, stably sorted by round;
        returns the sort order."""
        order = np.argsort(columns.rounds, kind="stable")
        columns = DeltaColumns(*(col[order] for col in columns))
        for col in columns:
            col.setflags(write=False)
        self._columns = columns
        self._labels = labels
        self._deltas: Optional[Tuple[TopologyDelta, ...]] = None
        self._by_round: Optional[Dict[int, Tuple[TopologyDelta, ...]]] = None
        return order

    @property
    def columns(self) -> DeltaColumns:
        return self._columns

    @property
    def deltas(self) -> Tuple[TopologyDelta, ...]:
        if self._deltas is None:
            labels = self._labels
            self._deltas = tuple(
                TopologyDelta(
                    round=r,
                    kind=DELTA_KINDS[k],
                    edge=None if b < 0 else (a, b),
                    node=a if b < 0 else None,
                    label=labels[label],
                )
                for r, k, a, b, label in zip(
                    *(col.tolist() for col in self._columns)
                )
            )
        return self._deltas

    def __len__(self) -> int:
        return len(self._columns.rounds)

    def is_empty(self) -> bool:
        return not len(self)

    @property
    def last_round(self) -> int:
        """Latest delta round (-1 when empty)."""
        return int(self._columns.rounds[-1]) if len(self) else -1

    def deltas_at(self, round_index: int) -> Tuple[TopologyDelta, ...]:
        if self._by_round is None:
            by_round: Dict[int, List[TopologyDelta]] = {}
            for delta in self.deltas:
                by_round.setdefault(delta.round, []).append(delta)
            self._by_round = {r: tuple(ds) for r, ds in by_round.items()}
        return self._by_round.get(round_index, ())

    def validate_against(self, topology: Topology) -> None:
        """Check every delta names nodes/edges of the universe graph."""
        n = topology.n
        _, kinds, a, b, _ = self._columns
        bad = (a >= n) | (b >= n)
        check = (b >= 0) & ~bad
        if check.any():
            edges = topology.edge_array()
            codes = edges[:, 0] * n + edges[:, 1]  # ascending: edges are sorted
            wanted = a[check] * n + b[check]
            pos = np.minimum(np.searchsorted(codes, wanted), len(codes) - 1)
            bad[check] = codes[pos] != wanted
        if not bad.any():
            return
        k = int(np.argmax(bad))
        kind, u, v = DELTA_KINDS[kinds[k]], int(a[k]), int(b[k])
        if v >= 0:
            raise ConfigurationError(
                f"topology delta {kind} names edge ({u}, {v}) "
                f"which is not an edge of topology {topology.name!r}"
            )
        raise ConfigurationError(
            f"topology delta {kind} names node {u} outside topology (n={n})"
        )

    def meta(self) -> Dict[str, object]:
        """JSON-safe summary for results.jsonl records."""
        _, kinds, _, _, label_ids = self._columns
        named = np.array([bool(label) for label in self._labels], dtype=bool)
        label_ids = label_ids[named[label_ids]]
        return {
            "deltas": len(self),
            "kinds": {
                DELTA_KINDS[k]: count for k, count in _first_seen_counts(kinds)
            },
            "labels": {
                self._labels[i]: count
                for i, count in _first_seen_counts(label_ids)
            },
            "first_round": int(self._columns.rounds[0]) if len(self) else None,
            "last_round": self.last_round if len(self) else None,
        }

    def to_events(self) -> List[Dict[str, object]]:
        return [delta.to_event() for delta in self.deltas]

    @classmethod
    def from_events(
        cls, events: Iterable[Mapping[str, object]]
    ) -> "TopologySchedule":
        return cls(TopologyDelta.from_event(e) for e in events)


def _first_seen_counts(ids: np.ndarray) -> List[Tuple[int, int]]:
    """``(id, count)`` of each distinct id, in order of first occurrence."""
    unique, first, counts = np.unique(ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    return list(zip(unique[order].tolist(), counts[order].tolist()))


def _raise_invalid(round_index: int, kind: int, a: int, b: int) -> None:
    """Raise the error :class:`TopologyDelta` gives for this event."""
    if not 0 <= kind < len(DELTA_KINDS):
        TopologyDelta(round=round_index, kind=str(kind))
    elif kind <= EDGE_UP:
        TopologyDelta(round=round_index, kind=DELTA_KINDS[kind], edge=(a, b))
    else:
        TopologyDelta(
            round=round_index,
            kind=DELTA_KINDS[kind],
            node=a,
            edge=None if b == -1 else (a, b),
        )
    raise AssertionError("unreachable: the event above is invalid")
