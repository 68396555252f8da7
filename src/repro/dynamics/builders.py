"""Builders for the common dynamic-network scenarios.

Each builder turns a scenario description into a plain
:class:`~repro.dynamics.schedule.TopologySchedule`:

- :func:`scripted_churn` — an explicit (round, action, node) event list;
- :func:`poisson_churn` — memoryless join/leave churn (the model of the
  "Dependability in Aggregation by Averaging" survey's churn experiments);
- :func:`partition_and_heal` — cut the network into two components at one
  round, optionally restore every cut edge later;
- :func:`regional_outage` — a correlated outage taking down a contiguous
  id-block of nodes for a fixed duration (rack/region failure);
- :func:`random_edge_flaps` — transient edge rewiring: random links go
  down for a fixed number of rounds, then come back.

All randomized builders draw from ``np.random.default_rng(seed)`` only, so
a (builder, parameters, seed) triple is a reproducible scenario — the
campaign layer derives the seed from the cell's fault stream, preserving
the paired-comparison methodology (same seed → same dynamics for every
algorithm).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.schedule import (
    EDGE_DOWN,
    EDGE_UP,
    NODE_JOIN,
    NODE_LEAVE,
    TopologySchedule,
)
from repro.exceptions import ConfigurationError
from repro.topology.base import Topology

ChurnEvent = Tuple[int, str, int]  # (round, "leave"|"join", node)


def _from_rows(
    rows: Sequence[Tuple[int, int, int, int, int]], labels: Sequence[str]
) -> TopologySchedule:
    """A schedule from ``(round, kind, a, b, label id)`` rows."""
    columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return TopologySchedule.from_columns(*columns, labels)


def scripted_churn(events: Iterable[ChurnEvent]) -> TopologySchedule:
    """Churn from an explicit event list of ``(round, action, node)``."""
    rows = []
    for event in events:
        if len(event) != 3:
            raise ConfigurationError(
                f"churn event must be (round, action, node), got {event!r}"
            )
        round_index, action, node = event
        if action not in ("leave", "join"):
            raise ConfigurationError(
                f"churn action must be 'leave' or 'join', got {action!r}"
            )
        kind = NODE_LEAVE if action == "leave" else NODE_JOIN
        rows.append((int(round_index), kind, int(node), -1, 0))
    return _from_rows(rows, ("churn",))


def poisson_churn(
    topology: Topology,
    *,
    rate: float,
    start: int = 0,
    end: int,
    seed: int = 0,
    min_live_fraction: float = 0.5,
) -> TopologySchedule:
    """Memoryless churn: ``Poisson(rate)`` membership toggles per round.

    Each toggle picks a uniform node: a live node leaves (unless that
    would push the live population below ``min_live_fraction * n``), a
    departed node rejoins. At ``end`` every still-departed node rejoins
    (label ``churn-heal``), so runs past the churn window measure
    reconvergence of the full population.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"churn rate must be > 0, got {rate}")
    if not 0 <= start < end:
        raise ConfigurationError(
            f"churn window must satisfy 0 <= start < end, got [{start}, {end})"
        )
    if not 0.0 < min_live_fraction <= 1.0:
        raise ConfigurationError(
            f"min_live_fraction must be in (0, 1], got {min_live_fraction}"
        )
    n = topology.n
    min_live = max(1, int(math.ceil(min_live_fraction * n)))
    rng = np.random.default_rng(seed)
    departed: List[int] = []  # insertion-ordered for determinism
    rows = []
    # A round draws its toggle count, then one node per toggle: the draws
    # interleave, so the rounds run one after another.
    for round_index in range(start, end):
        for _ in range(int(rng.poisson(rate))):
            node = int(rng.integers(n))
            if node in departed:
                departed.remove(node)
                rows.append((round_index, NODE_JOIN, node, -1, 0))
            elif n - len(departed) - 1 >= min_live:
                departed.append(node)
                rows.append((round_index, NODE_LEAVE, node, -1, 0))
    rows.extend((end, NODE_JOIN, node, -1, 1) for node in departed)
    return _from_rows(rows, ("churn", "churn-heal"))


def partition_and_heal(
    topology: Topology,
    *,
    round: int,
    heal_round: Optional[int] = None,
    fraction: float = 0.5,
    seed: int = 0,
) -> TopologySchedule:
    """Cut the graph into two node sets at ``round``; heal at ``heal_round``.

    A seeded permutation assigns ``fraction`` of the nodes to one side;
    every edge crossing the cut goes down (label ``partition``). When
    ``heal_round`` is given, every cut edge comes back up there (label
    ``heal``); ``None`` models a partition that never heals.
    """
    if round < 0:
        raise ConfigurationError(f"partition round must be >= 0, got {round}")
    if heal_round is not None and heal_round <= round:
        raise ConfigurationError(
            f"heal_round {heal_round} must be after the partition round {round}"
        )
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(
            f"partition fraction must be in (0, 1), got {fraction}"
        )
    n = topology.n
    side_size = min(max(int(fraction * n + 0.5), 1), n - 1)
    rng = np.random.default_rng(seed)
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[:side_size]] = True
    edges = topology.edge_array()
    cut = edges[side[edges[:, 0]] != side[edges[:, 1]]]  # in edge order
    rounds = [round] if heal_round is None else [round, heal_round]
    phases = len(rounds)
    return TopologySchedule.from_columns(
        np.repeat(rounds, len(cut)),
        np.repeat([EDGE_DOWN, EDGE_UP][:phases], len(cut)),
        np.tile(cut[:, 0], phases),
        np.tile(cut[:, 1], phases),
        np.repeat(np.arange(phases), len(cut)),
        ("partition", "heal"),
    )


def regional_outage(
    topology: Topology,
    *,
    round: int,
    duration: int,
    region_count: int = 4,
    region: Optional[int] = None,
    seed: int = 0,
) -> TopologySchedule:
    """A correlated outage: one contiguous id-block of nodes fails together.

    Nodes are partitioned into ``region_count`` contiguous id blocks (the
    node-partition map — racks/regions). At ``round`` every node of the
    chosen ``region`` (seeded-uniform when None) leaves (label
    ``outage``); ``duration`` rounds later they all rejoin (label
    ``restore``).
    """
    if round < 0:
        raise ConfigurationError(f"outage round must be >= 0, got {round}")
    if duration < 1:
        raise ConfigurationError(f"outage duration must be >= 1, got {duration}")
    n = topology.n
    if not 2 <= region_count <= n:
        raise ConfigurationError(
            f"region_count must be in [2, {n}], got {region_count}"
        )
    if region is None:
        region = int(np.random.default_rng(seed).integers(region_count))
    if not 0 <= region < region_count:
        raise ConfigurationError(
            f"region must be in [0, {region_count}), got {region}"
        )
    nodes = np.arange(region * n // region_count, (region + 1) * n // region_count)
    return TopologySchedule.from_columns(
        np.repeat([round, round + duration], len(nodes)),
        np.repeat([NODE_LEAVE, NODE_JOIN], len(nodes)),
        np.tile(nodes, 2),
        -1,
        np.repeat([0, 1], len(nodes)),
        ("outage", "restore"),
    )


def random_edge_flaps(
    topology: Topology,
    *,
    rate: float,
    duration: int,
    start: int = 0,
    end: int,
    seed: int = 0,
) -> TopologySchedule:
    """Transient rewiring: random edges go down for ``duration`` rounds.

    Each round in ``[start, end)`` takes ``Poisson(rate)`` currently-up
    edges down (label ``flap``); each comes back exactly ``duration``
    rounds later.
    """
    if rate <= 0.0:
        raise ConfigurationError(f"flap rate must be > 0, got {rate}")
    if duration < 1:
        raise ConfigurationError(f"flap duration must be >= 1, got {duration}")
    if not 0 <= start < end:
        raise ConfigurationError(
            f"flap window must satisfy 0 <= start < end, got [{start}, {end})"
        )
    edges: Sequence[Tuple[int, int]] = topology.edges
    rng = np.random.default_rng(seed)
    down_until: dict = {}
    rows = []
    for round_index in range(start, end):
        for edge, up_round in list(down_until.items()):
            if up_round == round_index:
                del down_until[edge]
        for _ in range(int(rng.poisson(rate))):
            edge = edges[int(rng.integers(len(edges)))]
            if edge in down_until:
                continue
            down_until[edge] = round_index + duration
            rows.append((round_index, EDGE_DOWN, *edge, 0))
            rows.append((round_index + duration, EDGE_UP, *edge, 0))
    return _from_rows(rows, ("flap",))
