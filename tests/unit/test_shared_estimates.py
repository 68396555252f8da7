"""The shared read-only estimate pair of the vectorized engines.

A round computes its estimate pair once: the stop rule, the probes and
the next round's kernel all read the same read-only arrays. The cache is
keyed by a state version that every mutation bumps (the kernel round,
``_zero_failed_links``, ``_reset_nodes``), so the shared pair must always
equal a fresh ``estimate_pairs()`` bit for bit, and reading it must never
change a run.
"""

import numpy as np
import pytest

from repro.dynamics import scripted_churn
from repro.faults.events import LinkFailure
from repro.topology import hypercube
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.parity import vector_engine_for

ALGORITHMS = [
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
]


def _assert_fresh(engine):
    shared = engine.shared_estimate_pairs()
    fresh = engine.estimate_pairs()
    for a, b in zip(shared, fresh):
        assert a.tobytes() == b.tobytes()


def _engine(algorithm):
    topo = hypercube(4)
    values = np.random.default_rng(2).standard_normal((topo.n, 2))
    return vector_engine_for(algorithm)(topo, values, np.ones(topo.n), seed=5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestSharedPair:
    def test_pair_is_read_only(self, algorithm):
        engine = _engine(algorithm)
        engine.run(3)
        values, weights = engine.shared_estimate_pairs()
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 1.0

    def test_copies_stay_caller_owned(self, algorithm):
        engine = _engine(algorithm)
        engine.run(3)
        shared = [a.copy() for a in engine.shared_estimate_pairs()]
        values, weights = engine.estimate_pairs()
        estimates = engine.estimates()
        values[:] = 7.0
        weights[:] = 7.0
        estimates[:] = 7.0
        for a, b in zip(shared, engine.shared_estimate_pairs()):
            assert a.tobytes() == b.tobytes()

    def test_pair_follows_every_mutation(self, algorithm):
        engine = _engine(algorithm)
        engine.run(4)
        # Read the pair before each mutation, so a mutation that forgot to
        # invalidate it would leave a stale copy behind.
        engine.shared_estimate_pairs()
        engine.step()
        _assert_fresh(engine)
        engine._zero_failed_links(np.array([0, 1, 0]), np.array([0, 0, 1]))
        _assert_fresh(engine)
        engine.run(3)
        engine.shared_estimate_pairs()
        engine._reset_nodes(np.array([2, 5]))
        _assert_fresh(engine)
        engine.step()
        _assert_fresh(engine)


def _dynamic_batch(algorithm):
    topo = hypercube(4)
    data = np.random.default_rng(9).uniform(size=(3, topo.n))
    churn = scripted_churn(
        [(6, "leave", 3), (9, "join", 3), (12, "leave", 8), (16, "join", 8)]
    )
    failure = LinkFailure(round=5, u=0, v=1, detection_delay=3)
    runs = [
        BatchedRun(
            topology=topo,
            values=data[r],
            weights=np.ones(topo.n),
            rng=r,
            link_failures=(failure,) if r != 1 else (),
            topology_schedule=churn if r != 2 else None,
        )
        for r in range(3)
    ]
    return BatchedEngine(algorithm, runs)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batched_rounds_share_a_fresh_pair(algorithm):
    # Deltas (leave folds, join resets) and link handling all mutate the
    # stacked engine between kernel rounds; every round's shared pair must
    # match a fresh one, and reading it must not change the trajectory.
    observed, plain = _dynamic_batch(algorithm), _dynamic_batch(algorithm)
    runs, n, d = observed.n_runs, observed.n, observed.dimension
    for _ in range(20):
        observed.step()
        plain.step()
        shared = observed.round_estimates()
        values, weights = observed._engine.estimate_pairs()
        assert shared.values.tobytes() == values.reshape(runs, n, d).tobytes()
        assert shared.weights.tobytes() == weights.reshape(runs, n).tobytes()
        assert not shared.estimates.flags.writeable
        _assert_fresh(observed._engine)
    assert observed.estimates().tobytes() == plain.estimates().tobytes()
