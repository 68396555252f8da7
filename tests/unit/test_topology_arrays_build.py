"""TopologyArrays built from the edge array equal the per-node definition:
slot ``s`` of node ``i`` is its ``s``-th neighbor in sorted order, and
``slot_of[i, s]`` is where ``i`` sits in that neighbor's list."""

import numpy as np
import pytest

from repro.topology import registry
from repro.topology.base import Topology
from repro.vectorized.topology_arrays import TopologyArrays


def _reference(topology):
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
    return max_degree, nbr, slot_of, degree


TOPOLOGIES = [
    ("bus", 1, {}),
    ("bus", 9, {}),
    ("ring", 12, {}),
    ("complete", 7, {}),
    ("star", 10, {}),
    ("binary_tree", 15, {}),
    ("hypercube", 64, {}),
    ("torus3d", 27, {}),
    ("grid2d", 16, {}),
    ("erdos_renyi", 40, {"p": 0.2}),
    ("random_regular", 30, {"k": 4}),
]


@pytest.mark.parametrize("family,n,params", TOPOLOGIES)
def test_built_arrays_match_the_per_node_definition(family, n, params):
    topology = registry.build(family, n, seed=3, **params)
    arrays = TopologyArrays._build(topology)
    max_degree, nbr, slot_of, degree = _reference(topology)
    assert arrays.max_degree == max_degree
    for got, want in ((arrays.nbr, nbr), (arrays.slot_of, slot_of), (arrays.degree, degree)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


def test_irregular_degrees_pad_with_minus_one():
    topology = Topology(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)], name="fan")
    arrays = TopologyArrays._build(topology)
    _, nbr, slot_of, degree = _reference(topology)
    assert np.array_equal(arrays.nbr, nbr)
    assert np.array_equal(arrays.slot_of, slot_of)
    assert np.array_equal(arrays.degree, degree)
