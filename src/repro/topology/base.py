"""Immutable network topology abstraction.

A :class:`Topology` is a simple undirected graph on nodes ``0..n-1`` with at
least one edge per node (gossip algorithms require a nonempty neighborhood
``N_i`` for every node, Sec. II-A of the paper). It is deliberately
lightweight — adjacency sets plus derived index structures — so both the
object engine and the vectorized engine can consume it directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import TopologyError

Edge = Tuple[int, int]


def _canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Topology:
    """An undirected, connected-by-convention communication graph.

    Parameters
    ----------
    n:
        Number of nodes; node identifiers are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops and duplicates are rejected
        (a duplicate indicates a builder bug and would silently skew the
        uniform neighbor choice of the gossip schedule).
    name:
        Human-readable identifier used in experiment reports.
    require_connected:
        If true (default) the constructor verifies connectivity; gossip
        reductions cannot converge to the global aggregate on a disconnected
        graph, so catching this at construction time saves debugging.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        *,
        name: str = "custom",
        require_connected: bool = True,
    ) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise TopologyError(f"node count must be a positive int, got {n!r}")
        self._n = n
        self._name = name
        adjacency: List[set] = [set() for _ in range(n)]
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            canonical = _canonical_edge(u, v)
            if canonical in edge_set:
                raise TopologyError(f"duplicate edge {canonical}")
            edge_set.add(canonical)
            adjacency[u].add(v)
            adjacency[v].add(u)

        if n > 1:
            isolated = [i for i, nbrs in enumerate(adjacency) if not nbrs]
            if isolated:
                raise TopologyError(
                    f"nodes with empty neighborhoods are not allowed: {isolated[:5]}"
                )

        self._neighbors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adjacency
        )
        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._edge_array: Optional[np.ndarray] = None

        if require_connected and not self._is_connected():
            raise TopologyError(
                f"topology {name!r} with n={n} is not connected; "
                "gossip reductions require a connected graph"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def name(self) -> str:
        return self._name

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges as sorted canonical ``(min, max)`` pairs."""
        return self._edges

    def edge_array(self) -> np.ndarray:
        """:attr:`edges` as a read-only ``(num_edges, 2)`` int64 array,
        built once per topology."""
        if self._edge_array is None:
            edges = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
            edges.setflags(write=False)
            self._edge_array = edges
        return self._edge_array

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbors of ``node``."""
        self._check_node(node)
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._neighbors[node])

    def degrees(self) -> List[int]:
        return [len(nbrs) for nbrs in self._neighbors]

    def max_degree(self) -> int:
        return max(self.degrees())

    def is_regular(self) -> bool:
        """True when every node has the same degree (torus, hypercube, ring...)."""
        degrees = self.degrees()
        return min(degrees) == max(degrees)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._neighbors[u]

    def nodes(self) -> range:
        return range(self._n)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, n={self._n}, "
            f"edges={len(self._edges)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def neighbor_index(self, node: int, neighbor: int) -> int:
        """Position of ``neighbor`` within ``neighbors(node)``.

        The vectorized engine stores per-edge flow state in dense
        ``(n, max_degree)`` arrays indexed by this slot number.
        """
        try:
            return self._neighbors[node].index(neighbor)
        except ValueError:
            raise TopologyError(
                f"{neighbor} is not a neighbor of {node} in {self._name!r}"
            ) from None

    def adjacency_sets(self) -> List[FrozenSet[int]]:
        return [frozenset(nbrs) for nbrs in self._neighbors]

    def without_edge(self, u: int, v: int, *, require_connected: bool = True) -> "Topology":
        """A copy with edge ``(u, v)`` removed (permanent link failure)."""
        if not self.has_edge(u, v):
            raise TopologyError(f"edge ({u}, {v}) not present in {self._name!r}")
        removed = _canonical_edge(u, v)
        remaining = [e for e in self._edges if e != removed]
        return Topology(
            self._n,
            remaining,
            name=f"{self._name}-without({u},{v})",
            require_connected=require_connected,
        )

    def without_node(self, node: int, *, require_connected: bool = True) -> "Topology":
        """A copy with ``node``'s edges removed (fail-stop node failure).

        Node identifiers are preserved (the failed node stays as an isolated
        vertex conceptually) but because :class:`Topology` forbids isolated
        vertices, the failed node itself is excluded and a relabeling map is
        returned via :meth:`Topology.relabeling` on the result.
        """
        self._check_node(node)
        keep = [i for i in range(self._n) if i != node]
        relabel: Dict[int, int] = {old: new for new, old in enumerate(keep)}
        remaining = [
            (relabel[u], relabel[v])
            for (u, v) in self._edges
            if u != node and v != node
        ]
        survivor = Topology(
            self._n - 1,
            remaining,
            name=f"{self._name}-without-node({node})",
            require_connected=require_connected,
        )
        survivor._relabeling = dict(relabel)  # type: ignore[attr-defined]
        return survivor

    def relabeling(self) -> Dict[int, int]:
        """Old-id → new-id map when this topology came from :meth:`without_node`."""
        return dict(getattr(self, "_relabeling", {i: i for i in range(self._n)}))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise TopologyError(f"node {node} out of range for n={self._n}")

    def _is_connected(self) -> bool:
        if self._n <= 1:
            return True
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n


def directed_edge_list(topology: Topology) -> List[Edge]:
    """All ordered ``(i, j)`` pairs with ``j`` a neighbor of ``i``.

    Convenience for fault injectors and state machines that keep per-direction
    state (the PCF edge state machine is per ordered edge).
    """
    pairs: List[Edge] = []
    for i in topology.nodes():
        for j in topology.neighbors(i):
            pairs.append((i, j))
    return pairs
