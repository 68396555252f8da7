"""Name-based topology registry used by the experiment harness and CLI.

Specs reference topologies by ``family`` + node count so experiment
definitions stay serializable (plain dicts/JSON); this module resolves them.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import TopologyError
from repro.topology import standard
from repro.topology.base import Topology
from repro.topology.random_graphs import erdos_renyi, random_regular

_BuilderByNodes = Callable[..., Topology]


def build(family: str, n: int, *, seed: Optional[int] = None, **kwargs: object) -> Topology:
    """Build a topology of ``family`` with exactly ``n`` nodes.

    Supported families: ``bus``, ``ring``, ``complete``, ``star``,
    ``binary_tree``, ``hypercube`` (n must be a power of two), ``torus3d``
    (n must be a perfect cube), ``grid2d`` (n must be a perfect square),
    ``erdos_renyi`` (kwarg ``p``), ``random_regular`` (kwarg ``k``).
    """
    family = family.lower()
    if family == "bus":
        return standard.bus(n)
    if family == "ring":
        return standard.ring(n)
    if family == "complete":
        return standard.complete(n)
    if family == "star":
        return standard.star(n)
    if family == "binary_tree":
        return standard.binary_tree(n)
    if family == "hypercube":
        return standard.hypercube_for_nodes(n)
    if family == "torus3d":
        return standard.torus3d_for_nodes(n)
    if family == "grid2d":
        side = round(n ** 0.5)
        if side * side != n:
            raise TopologyError(f"grid2d node count must be a perfect square, got {n}")
        return standard.grid2d(side, side, periodic=bool(kwargs.get("periodic", False)))
    if family == "kary_ncube":
        k = int(kwargs.get("k", 2))
        if k < 2:
            raise TopologyError(f"k must be >= 2, got {k}")
        dimension = 0
        count = 1
        while count < n:
            count *= k
            dimension += 1
        if count != n:
            raise TopologyError(
                f"kary_ncube node count must be a power of k={k}, got {n}"
            )
        return standard.kary_ncube(k, dimension)
    if family == "erdos_renyi":
        p = float(kwargs.get("p", 0.2))
        return erdos_renyi(n, p, seed=seed)
    if family == "random_regular":
        k = int(kwargs.get("k", 4))
        return random_regular(n, k, seed=seed)
    raise TopologyError(f"unknown topology family {family!r}")


#: Families whose graph depends on the ``seed`` passed to :func:`build`.
RANDOM_FAMILIES = frozenset({"erdos_renyi", "random_regular"})

FAMILIES = (
    "bus",
    "ring",
    "complete",
    "star",
    "binary_tree",
    "hypercube",
    "torus3d",
    "kary_ncube",
    "grid2d",
    "erdos_renyi",
    "random_regular",
)
