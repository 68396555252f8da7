"""Dense array form of a topology for the vectorized engine.

Per-edge protocol state lives in ``(n, max_degree)`` arrays indexed by
*slot*: slot ``s`` of node ``i`` is its ``s``-th neighbor in sorted order
(matching :meth:`repro.topology.base.Topology.neighbor_index`). The reverse
map ``slot_of[i, s]`` gives the slot under which node ``i`` appears in the
neighbor list of ``nbr[i, s]`` — when ``i`` sends on slot ``s``, the
receiver's state to update sits at ``(nbr[i, s], slot_of[i, s])``. Because a
node sends at most one message per round and each ordered edge has a unique
``(receiver, slot)`` pair, all per-round receiver updates are scatter
operations on distinct indices, i.e. fully data-parallel.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from repro.topology.base import Topology

#: One TopologyArrays per live Topology; an entry goes with its topology.
_MEMO: "weakref.WeakKeyDictionary[Topology, TopologyArrays]" = (
    weakref.WeakKeyDictionary()
)


@dataclasses.dataclass(frozen=True)
class TopologyArrays:
    """Padded neighbor tables: ``-1`` marks unused slots."""

    n: int
    max_degree: int
    nbr: np.ndarray  # (n, max_degree) int32, -1 padded
    slot_of: np.ndarray  # (n, max_degree) int32, -1 padded
    degree: np.ndarray  # (n,) int32

    @classmethod
    def from_topology(cls, topology: Topology) -> "TopologyArrays":
        """The topology's arrays, built once per topology and shared.

        The arrays are read-only, so every engine on one topology can
        share them.
        """
        arrays = _MEMO.get(topology)
        if arrays is None:
            arrays = _MEMO[topology] = cls._build(topology)
        return arrays

    @classmethod
    def _build(cls, topology: Topology) -> "TopologyArrays":
        n = topology.n
        max_degree = max(topology.max_degree(), 1)
        nbr = np.full((n, max_degree), -1, dtype=np.int32)
        slot_of = np.full((n, max_degree), -1, dtype=np.int32)
        degree = np.zeros(n, dtype=np.int32)
        for i in topology.nodes():
            neighbors = topology.neighbors(i)
            degree[i] = len(neighbors)
            for s, j in enumerate(neighbors):
                nbr[i, s] = j
                slot_of[i, s] = topology.neighbor_index(j, i)
        nbr.setflags(write=False)
        slot_of.setflags(write=False)
        degree.setflags(write=False)
        return cls(
            n=n, max_degree=max_degree, nbr=nbr, slot_of=slot_of, degree=degree
        )
