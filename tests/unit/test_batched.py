"""Unit tests for the batched whole-array executor.

The load-bearing property is *bit-for-bit* parity: stacking R runs into
one disjoint-union program must produce, for every run, exactly the
floating-point trajectory the single-run vectorized engine produces —
same schedule draws, same loss draws, same ``np.add.at`` accumulation
order. Everything else (retirement, link failures, the batch observers)
layers on top of that invariant.
"""

import numpy as np
import pytest

from repro.dynamics import scripted_churn
from repro.exceptions import ConfigurationError
from repro.faults.events import LinkFailure
from repro.simulation.observers import Observer
from repro.simulation.schedule import UniformGossipSchedule
from repro.topology import hypercube, ring
from repro.vectorized.batched import (
    BatchedEngine,
    BatchedErrorHistory,
    BatchedMassProbe,
    BatchedRun,
)
from repro.vectorized.engines import VectorPushSum
from repro.vectorized.parity import materialize_schedule, vector_engine_for
from repro.vectorized.topology_arrays import TopologyArrays

ALGORITHMS = [
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
]


def _batch_data(topo, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(count, topo.n))


class TestScriptedParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batched_matches_single_runs_bit_for_bit(self, algorithm):
        topo = hypercube(3)
        rounds = 40
        data = _batch_data(topo, 3, seed=3)
        schedules = [
            materialize_schedule(
                UniformGossipSchedule(topo.n, r), topo, rounds
            )
            for r in range(3)
        ]
        batch = BatchedEngine(
            algorithm,
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    targets=schedules[r],
                )
                for r in range(3)
            ],
        )
        batch.run(rounds)
        for r in range(3):
            single = vector_engine_for(algorithm)(
                topo, data[r], np.ones(topo.n), targets=schedules[r]
            )
            single.run(rounds)
            assert np.array_equal(batch.estimates()[r], single.estimates())

    def test_scripted_schedule_exhaustion(self):
        topo = ring(4)
        targets = np.array([[1, 2, 3, 0]])
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=np.ones(4),
                    weights=np.ones(4),
                    targets=targets,
                )
            ],
        )
        batch.step()
        with pytest.raises(ConfigurationError, match="exhausted"):
            batch.step()


class TestNativeParity:
    def test_native_schedule_with_loss_matches_single_runs(self):
        # Same SeedSequence child => same stream, whether the run executes
        # alone or inside a batch; message counters must agree too.
        topo = hypercube(3)
        rounds = 60
        data = _batch_data(topo, 3, seed=1)
        children = np.random.SeedSequence(11).spawn(3)
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    rng=np.random.default_rng(children[r]),
                    loss_probability=0.2,
                )
                for r in range(3)
            ],
        )
        batch.run(rounds)
        for r in range(3):
            single = vector_engine_for("push_flow")(
                topo,
                data[r],
                np.ones(topo.n),
                seed=np.random.default_rng(children[r]),
                loss_probability=0.2,
            )
            single.run(rounds)
            assert np.array_equal(batch.estimates()[r], single.estimates())
            assert batch.messages_sent[r] == single.messages_sent
            assert batch.messages_delivered[r] == single.messages_delivered

    def test_runs_are_independent(self):
        # Changing one run's seed must not perturb its batch-mates.
        topo = hypercube(3)
        data = _batch_data(topo, 2, seed=2)

        def estimates_with_first_seed(seed):
            batch = BatchedEngine(
                "push_cancel_flow",
                [
                    BatchedRun(
                        topology=topo,
                        values=data[0],
                        weights=np.ones(topo.n),
                        rng=seed,
                    ),
                    BatchedRun(
                        topology=topo,
                        values=data[1],
                        weights=np.ones(topo.n),
                        rng=7,
                    ),
                ],
            )
            batch.run(30)
            return batch.estimates()

        a = estimates_with_first_seed(1)
        b = estimates_with_first_seed(2)
        assert not np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def _mixed_runs(rounds):
    """One run per batch feature, on two topologies of equal n but
    different degree (so the stacked union has padded slots)."""
    cube, circle = hypercube(4), ring(16)
    data = _batch_data(cube, 6, seed=21)
    ones = np.ones(cube.n)
    script = materialize_schedule(UniformGossipSchedule(16, 5), circle, rounds)
    churn = scripted_churn([(10, "leave", 3), (25, "join", 3), (30, "leave", 7)])
    failure = LinkFailure(round=8, u=0, v=1, detection_delay=3)
    return [
        BatchedRun(topology=cube, values=data[0], weights=ones, rng=1),
        BatchedRun(
            topology=circle,
            values=data[1],
            weights=ones,
            rng=2,
            loss_probability=0.3,
        ),
        BatchedRun(topology=circle, values=data[2], weights=ones, targets=script),
        BatchedRun(
            topology=cube, values=data[3], weights=ones, rng=4, max_rounds=23
        ),
        BatchedRun(
            topology=cube,
            values=data[4],
            weights=ones,
            rng=5,
            loss_probability=0.1,
            link_failures=(failure,),
        ),
        BatchedRun(
            topology=circle,
            values=data[5],
            weights=ones,
            rng=6,
            topology_schedule=churn,
        ),
    ]


class TestMixedBatchParity:
    """Every batch feature at once: each run must be unaffected by its
    batch-mates, bit for bit — the whole-batch round assembly keeps
    messages run-major and each run's draws in single-engine order."""

    ROUNDS = 60

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_run_matches_a_batch_of_one(self, algorithm):
        mixed = BatchedEngine(algorithm, _mixed_runs(self.ROUNDS))
        mixed.run(self.ROUNDS)
        for r, run in enumerate(_mixed_runs(self.ROUNDS)):
            alone = BatchedEngine(algorithm, [run])
            alone.run(self.ROUNDS)
            assert mixed.estimates()[r].tobytes() == alone.estimates()[0].tobytes()
            assert mixed.run_rounds[r] == alone.run_rounds[0]
            assert mixed.messages_sent[r] == alone.messages_sent[0]
            assert mixed.messages_delivered[r] == alone.messages_delivered[0]
        assert mixed.run_rounds.tolist() == [60, 60, 60, 23, 60, 60]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_native_scripted_and_lossy_runs_match_single_engine(self, algorithm):
        mixed = BatchedEngine(algorithm, _mixed_runs(self.ROUNDS))
        mixed.run(self.ROUNDS)
        for r, run in enumerate(_mixed_runs(self.ROUNDS)[:3]):
            single = vector_engine_for(algorithm)(
                run.topology,
                run.values,
                run.weights,
                seed=0 if run.rng is None else run.rng,
                loss_probability=run.loss_probability,
                targets=run.targets,
            )
            single.run(self.ROUNDS)
            assert mixed.estimates()[r].tobytes() == single.estimates().tobytes()
            assert mixed.messages_sent[r] == single.messages_sent
            assert mixed.messages_delivered[r] == single.messages_delivered


class TestRetirement:
    def test_retired_run_freezes_while_batch_continues(self):
        topo = hypercube(3)
        data = _batch_data(topo, 2, seed=5)
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    rng=r,
                )
                for r in range(2)
            ],
        )

        def stop(engine, round_index):
            return np.array([round_index >= 9, False])

        executed = batch.run(30, stop_when=stop)
        assert executed.tolist() == [10, 30]
        frozen = batch.estimates()[0].copy()
        sent = int(batch.messages_sent[0])
        batch.run(5)
        assert np.array_equal(batch.estimates()[0], frozen)
        assert batch.messages_sent[0] == sent
        assert batch.run_rounds.tolist() == [10, 35]

    def test_all_retired_ends_run_early(self):
        topo = ring(4)
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=np.ones(4),
                    weights=np.ones(4),
                    rng=0,
                )
            ],
        )
        executed = batch.run(
            100, stop_when=lambda eng, r: np.array([r >= 9])
        )
        assert executed.tolist() == [10]
        assert batch.round == 10

    def test_stop_checked_at_horizon_despite_check_every(self):
        # 10 % 3 != 0: the horizon round must still be consulted, or a
        # run converging in the last rounds would be misreported.
        topo = ring(4)
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=np.ones(4),
                    weights=np.ones(4),
                    rng=0,
                )
            ],
        )
        seen = []

        def stop(engine, round_index):
            seen.append(round_index)
            return None

        batch.run(10, stop_when=stop, check_every=3)
        assert seen == [2, 5, 8, 9]

    def test_bad_retire_mask_shape_rejected(self):
        topo = ring(4)
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo, values=np.ones(4), weights=np.ones(4)
                )
            ],
        )
        with pytest.raises(ConfigurationError, match="retirement mask"):
            batch.retire(np.zeros(3, dtype=bool))


class TestSingleEngineStopCondition:
    def test_horizon_checked_when_not_multiple_of_check_every(self):
        engine = VectorPushSum(ring(4), np.ones(4), np.ones(4), seed=0)
        seen = []

        def stop(eng, round_index):
            seen.append(round_index)
            return False

        engine.run(10, stop_when=stop, check_every=3)
        assert seen == [2, 5, 8, 9]

    def test_zero_round_run_with_observer_flushes_nothing(self):
        calls = []

        class Recorder(Observer):
            def on_round_messages(self, engine, round_index, sent, delivered):
                calls.append(("messages", round_index))

            def on_run_end(self, engine, executed):
                calls.append(("end", executed))

        engine = VectorPushSum(
            ring(4), np.ones(4), np.ones(4), seed=0, observers=[Recorder()]
        )
        assert engine.run(0) == 0
        assert calls == [("end", 0)]


class TestSlotLookup:
    def test_every_neighbor_pair_resolves_to_its_slot(self):
        topo = hypercube(3)
        arrays = TopologyArrays.from_topology(topo)
        engine = VectorPushSum(topo, np.ones(topo.n), np.ones(topo.n))
        senders, targets = [], []
        for i in range(topo.n):
            for s in range(arrays.degree[i]):
                senders.append(i)
                targets.append(int(arrays.nbr[i, s]))
        slots = engine._slots_for_targets(
            np.array(senders), np.array(targets)
        )
        assert (arrays.nbr[senders, slots] == targets).all()

    def test_non_neighbor_target_message(self):
        engine = VectorPushSum(ring(4), np.ones(4), np.ones(4))
        with pytest.raises(
            ConfigurationError,
            match=r"scripted target 2 is not a neighbor of 0",
        ):
            engine._slots_for_targets(np.array([0]), np.array([2]))

    def test_out_of_range_targets_rejected(self):
        engine = VectorPushSum(ring(4), np.ones(4), np.ones(4))
        for bad in (9, -1):
            with pytest.raises(ConfigurationError, match="not a neighbor"):
                engine._slots_for_targets(np.array([1]), np.array([bad]))


class TestLinkFailures:
    @staticmethod
    def _failed_batch(algorithm, fail_round):
        topo = hypercube(4)
        data = _batch_data(topo, 2, seed=9)
        runs = [
            BatchedRun(
                topology=topo,
                values=data[r],
                weights=np.ones(topo.n),
                rng=r,
                link_failures=(LinkFailure(round=fail_round, u=0, v=1),),
            )
            for r in range(2)
        ]
        batch = BatchedEngine(algorithm, runs)
        history = BatchedErrorHistory(data.mean(axis=1))
        mass = BatchedMassProbe()
        mass.start(batch)

        def on_round(engine, round_index):
            history.on_round_end(engine, round_index)
            mass.on_round_end(engine, round_index)

        batch.run(300, on_round=on_round)
        return batch, history, mass

    def test_push_flow_still_reaches_truth_after_handled_failure(self):
        batch, history, mass = self._failed_batch("push_flow", 10)
        assert (history.current_max_errors() < 1e-9).all()
        # Discarded edge state registers as drift and is flagged.
        for r in range(2):
            assert mass.violations[r] > 0
            assert mass.worst_drift(r) > 1e-6

    @pytest.mark.parametrize(
        "algorithm", ["push_flow", "push_cancel_flow"]
    )
    def test_consensus_after_handled_failure(self, algorithm):
        # A failure handled long before convergence discards in-flight
        # mass, so the agreed value may be offset from the original truth
        # (the paper's semantics) — but every node must still agree.
        batch, history, mass = self._failed_batch(algorithm, 10)
        est = batch.estimates()[:, :, 0]
        spread = est.max(axis=1) - est.min(axis=1)
        assert (spread < 1e-9).all()
        assert np.isfinite(history.current_max_errors()).all()

    def test_detection_delay_defers_handling(self):
        topo = hypercube(3)
        data = _batch_data(topo, 1, seed=4)
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[0],
                    weights=np.ones(topo.n),
                    rng=0,
                    link_failures=(
                        LinkFailure(round=5, u=0, v=1, detection_delay=10),
                    ),
                )
            ],
        )
        batch.run(200)
        # Messages sent on the dead link between fail and handling vanish.
        assert batch.messages_delivered[0] < batch.messages_sent[0]

    def test_non_edge_failure_rejected(self):
        topo = hypercube(3)  # 0 and 3 differ in two bits: not adjacent
        with pytest.raises(ConfigurationError, match="not an .*edge"):
            BatchedEngine(
                "push_flow",
                [
                    BatchedRun(
                        topology=topo,
                        values=np.ones(topo.n),
                        weights=np.ones(topo.n),
                        link_failures=(LinkFailure(round=5, u=0, v=3),),
                    )
                ],
            )

    def test_duplicate_edge_failure_rejected(self):
        topo = ring(4)
        with pytest.raises(ConfigurationError, match="duplicate"):
            BatchedEngine(
                "push_flow",
                [
                    BatchedRun(
                        topology=topo,
                        values=np.ones(4),
                        weights=np.ones(4),
                        link_failures=(
                            LinkFailure(round=5, u=0, v=1),
                            LinkFailure(round=9, u=1, v=0),
                        ),
                    )
                ],
            )


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one run"):
            BatchedEngine("push_sum", [])

    def test_mismatched_node_counts_rejected(self):
        runs = [
            BatchedRun(
                topology=ring(4), values=np.ones(4), weights=np.ones(4)
            ),
            BatchedRun(
                topology=ring(5), values=np.ones(5), weights=np.ones(5)
            ),
        ]
        with pytest.raises(ConfigurationError, match="share the node count"):
            BatchedEngine("push_sum", runs)

    def test_mismatched_dimensions_rejected(self):
        runs = [
            BatchedRun(
                topology=ring(4),
                values=np.ones((4, 2)),
                weights=np.ones(4),
            ),
            BatchedRun(
                topology=ring(4), values=np.ones(4), weights=np.ones(4)
            ),
        ]
        with pytest.raises(ConfigurationError, match="dimension"):
            BatchedEngine("push_sum", runs)

    def test_bad_loss_probability_rejected(self):
        runs = [
            BatchedRun(
                topology=ring(4),
                values=np.ones(4),
                weights=np.ones(4),
                loss_probability=1.5,
            )
        ]
        with pytest.raises(ConfigurationError, match="loss_probability"):
            BatchedEngine("push_sum", runs)

    def test_bad_targets_shape_rejected(self):
        runs = [
            BatchedRun(
                topology=ring(4),
                values=np.ones(4),
                weights=np.ones(4),
                targets=np.zeros((3, 5), dtype=np.int64),
            )
        ]
        with pytest.raises(ConfigurationError, match="scripted targets"):
            BatchedEngine("push_sum", runs)

    def test_negative_max_rounds_rejected(self):
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=ring(4), values=np.ones(4), weights=np.ones(4)
                )
            ],
        )
        with pytest.raises(ConfigurationError, match="max_rounds"):
            batch.run(-1)


class TestBatchObservers:
    def test_error_history_semantics(self):
        history = BatchedErrorHistory([0.0, 2.0])
        assert np.isinf(history.current_max_errors()).all()
        # Zero truth falls back to absolute error (scale 1.0).
        assert history._scale.tolist() == [1.0, 2.0]

    def test_error_history_tracks_convergence_round(self):
        topo = hypercube(3)
        data = _batch_data(topo, 2, seed=8)
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    rng=r,
                )
                for r in range(2)
            ],
        )
        history = BatchedErrorHistory(data.mean(axis=1))
        batch.run(200, on_round=history.on_round_end)
        for r in range(2):
            below = history.first_round_below(r, 1e-9)
            assert below is not None
            assert history.max_errors[r][below] <= 1e-9
            assert history.final_max_error(r) <= 1e-9

    def test_mass_probe_counts_violations(self):
        topo = hypercube(3)
        data = _batch_data(topo, 1, seed=6)
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[0],
                    weights=np.ones(topo.n),
                    rng=0,
                    link_failures=(
                        LinkFailure(round=5, u=0, v=1, detection_delay=20),
                    ),
                )
            ],
        )
        mass = BatchedMassProbe(tolerance=1e-6)
        mass.start(batch)
        batch.run(60, on_round=mass.on_round_end)
        # While the dead link swallowed mass, drift exceeded tolerance.
        assert mass.violations[0] > 0
        assert mass.worst_drift(0) > 1e-6

    def test_round_estimates_shared_read_only_and_refreshed(self):
        topo = hypercube(3)
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=_batch_data(topo, 1)[0],
                    weights=np.ones(topo.n),
                    rng=0,
                )
            ],
        )
        shared = batch.round_estimates()
        assert batch.round_estimates() is shared
        assert not any(part.flags.writeable for part in shared)
        owned = batch.estimates()
        owned[:] = 0.0  # the caller's copy, not the shared one
        assert np.array_equal(batch.round_estimates().estimates, shared.estimates)
        batch.step()
        fresh = batch.round_estimates()
        assert fresh is not shared
        assert np.array_equal(fresh.estimates, batch.estimates())
        assert not np.array_equal(fresh.estimates, shared.estimates)


class TestTopologyArraysMemo:
    def test_built_once_per_topology_and_released_with_it(self):
        import gc
        import weakref

        topo = hypercube(3)
        arrays = TopologyArrays.from_topology(topo)
        assert TopologyArrays.from_topology(topo) is arrays
        assert not arrays.nbr.flags.writeable
        alive = weakref.ref(topo)
        del topo
        gc.collect()
        assert alive() is None  # the memo holds its keys weakly


class TestPerRunCaps:
    def test_capped_runs_freeze_at_their_budget(self):
        # Heterogeneous per-run round budgets in one batch: each run must
        # retire exactly at its own cap while uncapped mates keep going.
        topo = hypercube(3)
        data = _batch_data(topo, 3, seed=9)
        caps = [5, 10, None]
        batch = BatchedEngine(
            "push_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    rng=r,
                    max_rounds=caps[r],
                )
                for r in range(3)
            ],
        )
        batch.run(20)
        assert batch.run_rounds.tolist() == [5, 10, 20]

    def test_capped_run_matches_single_engine_bit_for_bit(self):
        # A run capped at k inside a batch must freeze on exactly the
        # state a lone vectorized engine reaches after k rounds.
        topo = hypercube(3)
        data = _batch_data(topo, 2, seed=10)
        batch = BatchedEngine(
            "push_cancel_flow",
            [
                BatchedRun(
                    topology=topo,
                    values=data[r],
                    weights=np.ones(topo.n),
                    rng=17 + r,
                    max_rounds=5 if r == 0 else None,
                )
                for r in range(2)
            ],
        )
        batch.run(40)
        single = vector_engine_for("push_cancel_flow")(
            topo, data[0], np.ones(topo.n), seed=17
        )
        single.run(5)
        assert np.array_equal(batch.estimates()[0], single.estimates())
        assert batch.messages_sent[0] == single.messages_sent

    def test_zero_cap_retired_before_any_step(self):
        topo = ring(4)
        values = np.arange(4.0)
        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=values,
                    weights=np.ones(4),
                    rng=0,
                    max_rounds=0,
                ),
                BatchedRun(
                    topology=topo,
                    values=values,
                    weights=np.ones(4),
                    rng=0,
                ),
            ],
        )
        batch.run(10)
        assert batch.run_rounds.tolist() == [0, 10]
        assert batch.messages_sent[0] == 0
        assert np.array_equal(batch.estimates()[0].ravel(), values)

    def test_capped_run_still_gets_final_stop_check(self):
        # The cap retires a run *after* the round's stop check, so a
        # stop_when firing on the cap round still registers for it.
        topo = ring(4)
        seen = []

        def stop(engine, round_index):
            seen.append(engine.last_round_active.copy())
            return np.zeros(2, dtype=bool)

        batch = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=topo,
                    values=np.ones(4),
                    weights=np.ones(4),
                    rng=r,
                    max_rounds=3,
                )
                for r in range(2)
            ],
        )
        batch.run(5, stop_when=stop)
        # Rounds 0..2 execute for both runs; the cap-round check (index 2)
        # must still see both active before they freeze.
        assert len(seen) == 3
        assert seen[2].tolist() == [True, True]

    def test_negative_per_run_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            BatchedEngine(
                "push_sum",
                [
                    BatchedRun(
                        topology=ring(4),
                        values=np.ones(4),
                        weights=np.ones(4),
                        max_rounds=-1,
                    )
                ],
            )
