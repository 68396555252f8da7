"""Integration: dynamic networks — churn, partition-and-heal, outages.

The reproduction's dynamic-network findings as executable assertions:

- push-flow reconverges *exactly* after any membership change: its flows
  are antisymmetric at round boundaries, so excluding a node (and zeroing
  the incident flows on the survivor side) restores exactly the
  survivors' conserved mass, and a rejoin restores the full total.
- push-sum is exact under edge-only partitions (no mass ever leaves) but
  converges to the wrong value under node churn — the departed node's
  in-protocol mass is simply gone.
- PCF under node churn/outage carries a permanent residual offset: the
  survivors' phi retains cancelled mass whose counterpart lived on the
  departed node and was wiped by ``reset_for_join``.
"""

import numpy as np
import pytest

from repro.algorithms.aggregates import AggregateKind, initial_mass_pairs
from repro.algorithms.registry import instantiate
from repro.dynamics import (
    TopologyDelta,
    TopologySchedule,
    TraceRecorder,
    load_trace,
    partition_and_heal,
    poisson_churn,
    random_edge_flaps,
    regional_outage,
    replay_from_trace,
    scripted_churn,
)
from repro.faults import IidMessageLoss
from repro.faults.events import FaultPlan, LinkFailure
from repro.simulation.engine import SynchronousEngine
from repro.simulation.observers import Observer
from repro.simulation.schedule import FixedSchedule, UniformGossipSchedule
from repro.topology import hypercube, ring
from repro.tracing.anomaly import PartitionHealDetector
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.parity import materialize_schedule
from repro.vectorized.topology_arrays import TopologyArrays

TOPO = hypercube(4)
DATA = list(np.arange(float(TOPO.n)))
TRUTH = float(np.mean(DATA))
INITIAL = initial_mass_pairs(AggregateKind.AVERAGE, DATA)


def run_dynamic(
    algorithm,
    schedule,
    *,
    rounds=200,
    observers=(),
    message_fault=None,
    sched_seed=5,
):
    algs = instantiate(algorithm, TOPO, INITIAL)
    engine = SynchronousEngine(
        TOPO,
        algs,
        UniformGossipSchedule(TOPO.n, sched_seed),
        observers=list(observers),
        message_fault=message_fault,
        topology_schedule=schedule,
    )
    engine.run(rounds)
    return engine, algs


def live_errors(engine, algs):
    return [
        abs(float(np.max(np.atleast_1d(np.asarray(algs[i].estimate())))) - TRUTH)
        for i in engine.live_nodes()
    ]


CHURN = scripted_churn([(30, "leave", 3), (60, "join", 3)])
PARTITION = partition_and_heal(TOPO, round=40, heal_round=80, seed=2)
OUTAGE = regional_outage(TOPO, round=40, duration=30, region_count=4, region=1)


class TestChurnMassConservation:
    def test_push_flow_reconverges_exactly_after_churn(self):
        engine, algs = run_dynamic("push_flow", CHURN)
        assert max(live_errors(engine, algs)) < 1e-9

    def test_push_sum_loses_departed_mass_under_churn(self):
        engine, algs = run_dynamic("push_sum", CHURN)
        errors = live_errors(engine, algs)
        # All nodes agree on a *wrong* value: the leaving node took its
        # in-protocol mass with it, the rejoin restored only the initial
        # share.
        assert min(errors) > 0.05
        assert max(errors) - min(errors) < 1e-9

    def test_pcf_carries_orphaned_cancellation_residual(self):
        engine, algs = run_dynamic("push_cancel_flow", CHURN)
        errors = live_errors(engine, algs)
        # Converged (tiny spread) but offset: cancelled mass paired with
        # the departed node's phi was wiped by reset_for_join.
        assert 1e-3 < max(errors) < 1.0
        assert max(errors) - min(errors) < 1e-6

    def test_push_flow_survives_regional_outage_exactly(self):
        engine, algs = run_dynamic("push_flow", OUTAGE)
        assert max(live_errors(engine, algs)) < 1e-9


class TestPartitionAndHeal:
    @pytest.mark.parametrize(
        "algorithm,bound",
        [
            ("push_sum", 1e-9),  # edge-only cut: mass never leaves
            ("push_flow", 1e-6),
            ("push_cancel_flow", 1e-2),
            ("push_cancel_flow_hardened", 5e-2),
        ],
    )
    def test_reconverges_after_heal(self, algorithm, bound):
        engine, algs = run_dynamic(algorithm, PARTITION)
        assert max(live_errors(engine, algs)) < bound

    def test_detector_stays_quiet_when_partition_heals(self):
        detector = PartitionHealDetector()
        run_dynamic("push_flow", PARTITION, observers=[detector])
        assert not detector.fired

    def test_detector_fires_when_heal_never_comes(self):
        from repro.dynamics import TopologySchedule

        never_heal = TopologySchedule(
            [d for d in PARTITION.deltas if d.round == 40]
        )
        detector = PartitionHealDetector()
        run_dynamic("push_flow", never_heal, observers=[detector])
        assert detector.fired
        assert detector.alerts[0]["reason"] == "never_healed"


class RecordingSchedule(UniformGossipSchedule):
    """Uniform gossip that records every choice as a scripted target."""

    def __init__(self, n, seed, rounds):
        super().__init__(n, seed)
        self.targets = np.full((rounds, n), -1, dtype=np.int64)

    def choose(self, node, live_neighbors, round_index):
        target = super().choose(node, live_neighbors, round_index)
        if target is not None:
            self.targets[round_index, node] = target
        return target


class LiveViews(Observer):
    """Each live node's neighbor view at the end of every round."""

    def __init__(self):
        self.rounds = []

    def on_round_end(self, engine, round_index):
        self.rounds.append(
            {
                i: engine.algorithms[i].neighbors
                for i in engine.live_nodes()
            }
        )


def _same_round_mix():
    # One round whose events do not commute: an edge and its endpoint go
    # down, the endpoint leaves and rejoins, the edge comes back up; a
    # repeated edge_down; a node leaving next to a downed edge.
    topo = hypercube(5)
    deltas = [
        TopologyDelta(12, "edge_down", edge=(0, 1)),
        TopologyDelta(12, "edge_down", edge=(0, 2)),
        TopologyDelta(12, "edge_down", edge=(0, 2)),
        TopologyDelta(12, "node_leave", node=0),
        TopologyDelta(12, "node_leave", node=3),
        TopologyDelta(12, "node_join", node=0),
        TopologyDelta(12, "edge_up", edge=(0, 1)),
        TopologyDelta(12, "edge_down", edge=(1, 3)),
        TopologyDelta(12, "node_join", node=3),
        TopologyDelta(20, "edge_up", edge=(0, 2)),
        TopologyDelta(20, "edge_up", edge=(1, 3)),
    ]
    return topo, TopologySchedule(deltas), []


def _neighbours_and_toggle():
    # Adjacent nodes leave in one round (4-5, 4-6 and 5-7 are hypercube
    # edges), one of them rejoins in the same round, and a third node
    # toggles leave/join/leave.
    topo = hypercube(5)
    deltas = [
        TopologyDelta(10, "node_leave", node=4),
        TopologyDelta(10, "node_leave", node=5),
        TopologyDelta(10, "node_leave", node=6),
        TopologyDelta(10, "node_leave", node=7),
        TopologyDelta(10, "node_join", node=5),
        TopologyDelta(10, "node_leave", node=5),
        TopologyDelta(10, "node_leave", node=9),
        TopologyDelta(10, "node_join", node=9),
        TopologyDelta(10, "node_leave", node=9),
        TopologyDelta(22, "node_join", node=6),
        TopologyDelta(22, "node_join", node=4),
        TopologyDelta(22, "node_join", node=5),
        TopologyDelta(22, "node_join", node=7),
        TopologyDelta(22, "node_join", node=9),
    ]
    return topo, TopologySchedule(deltas), []


def _undetected_failure(node, events):
    # Link (0, 1) fails at round 10 and is detected only at round 20; an
    # endpoint departs (and maybe rejoins) while the failure is undetected.
    def build():
        topo = hypercube(4)
        schedule = scripted_churn([(r, action, node) for r, action in events])
        failure = LinkFailure(round=10, u=0, v=1, detection_delay=10)
        return topo, schedule, [failure]

    return build


def _failed_edge_up(up_round):
    # Edge (0, 1) goes down at round 5, the link fails permanently at
    # round 8 (detected at 18), and the edge_up arrives at ``up_round``:
    # a failed link stays dead through any edge_up.
    def build():
        topo = hypercube(4)
        schedule = TopologySchedule(
            [
                TopologyDelta(5, "edge_down", edge=(0, 1)),
                TopologyDelta(up_round, "edge_up", edge=(0, 1)),
            ]
        )
        failure = LinkFailure(round=8, u=0, v=1, detection_delay=10)
        return topo, schedule, [failure]

    return build


DYNAMIC_SCENARIOS = {
    "partition-heal": lambda: (
        hypercube(5),
        partition_and_heal(hypercube(5), round=10, heal_round=25, seed=3),
        [],
    ),
    "regional-outage": lambda: (
        hypercube(5),
        regional_outage(hypercube(5), round=8, duration=14, seed=1),
        [],
    ),
    "poisson-churn": lambda: (
        hypercube(5),
        poisson_churn(hypercube(5), rate=2.0, start=3, end=30, seed=5),
        [],
    ),
    "edge-flaps": lambda: (
        hypercube(5),
        random_edge_flaps(
            hypercube(5), rate=3.0, duration=4, start=2, end=30, seed=6
        ),
        [],
    ),
    "same-round-mix": _same_round_mix,
    "neighbours-and-toggle": _neighbours_and_toggle,
    "undetected-failure-leave-0": _undetected_failure(0, [(14, "leave")]),
    "undetected-failure-leave-1": _undetected_failure(1, [(14, "leave")]),
    "undetected-failure-rejoin-0": _undetected_failure(
        0, [(13, "leave"), (17, "join")]
    ),
    "undetected-failure-rejoin-1": _undetected_failure(
        1, [(13, "leave"), (17, "join")]
    ),
    "failed-edge-up-before-detection": _failed_edge_up(12),
    "failed-edge-up-after-handling": _failed_edge_up(25),
}


class TestObjectBatchedParity:
    @pytest.mark.parametrize(
        "algorithm",
        [
            "push_sum",
            "push_flow",
            "push_cancel_flow",
            "push_cancel_flow_hardened",
        ],
    )
    def test_scripted_churn_parity_bit_for_bit(self, algorithm):
        topo = ring(8)
        rounds = 60
        leave, rejoin, node = 20, 40, 3
        schedule = scripted_churn([(leave, "leave", node), (rejoin, "join", node)])
        targets = materialize_schedule(
            UniformGossipSchedule(topo.n, 7), topo, rounds
        )
        # While the node is away it is silent and never targeted, so both
        # engines face the identical message pattern.
        away = slice(leave, rejoin)
        targets[away, node] = -1
        block = targets[away]
        block[block == node] = -1
        targets[away] = block

        data = np.random.default_rng(4).uniform(size=topo.n)
        initial = initial_mass_pairs(AggregateKind.AVERAGE, list(data))
        algs = instantiate(algorithm, topo, initial)
        obj_engine = SynchronousEngine(
            topo,
            algs,
            FixedSchedule(targets.tolist()),
            topology_schedule=schedule,
        )
        obj_engine.run(rounds)
        obj = np.stack(
            [np.atleast_1d(np.asarray(alg.estimate())) for alg in algs]
        )

        batch = BatchedEngine(
            algorithm,
            [
                BatchedRun(
                    topology=topo,
                    values=data,
                    weights=np.ones(topo.n),
                    targets=targets,
                    topology_schedule=schedule,
                )
            ],
        )
        batch.run(rounds)
        vec = batch.estimates()[0]
        np.testing.assert_array_equal(obj, vec)

    @pytest.mark.parametrize(
        "algorithm",
        [
            "push_sum",
            "push_flow",
            "push_cancel_flow",
            "push_cancel_flow_hardened",
        ],
    )
    @pytest.mark.parametrize("scenario", sorted(DYNAMIC_SCENARIOS))
    def test_dynamic_schedule_parity_bit_for_bit(self, algorithm, scenario):
        # The object engine draws its own uniform schedule; the batched
        # engine replays those choices as scripted targets. Replayed targets
        # alone would hide a wrong live set (the sends match regardless),
        # so every round also compares each live node's schedule-visible
        # neighbors against the object algorithm's own view.
        topo, schedule, link_failures = DYNAMIC_SCENARIOS[scenario]()
        rounds = 50
        data = np.random.default_rng(4).uniform(size=topo.n)
        initial = initial_mass_pairs(AggregateKind.AVERAGE, list(data))
        algs = instantiate(algorithm, topo, initial)
        recording = RecordingSchedule(topo.n, seed=7, rounds=rounds)
        views = LiveViews()
        obj_engine = SynchronousEngine(
            topo,
            algs,
            recording,
            fault_plan=FaultPlan(link_failures=link_failures),
            topology_schedule=schedule,
            observers=[views],
        )
        obj_engine.run(rounds)
        obj = np.stack(
            [np.atleast_1d(np.asarray(alg.estimate())) for alg in algs]
        )

        batch = BatchedEngine(
            algorithm,
            [
                BatchedRun(
                    topology=topo,
                    values=data,
                    weights=np.ones(topo.n),
                    targets=recording.targets,
                    link_failures=tuple(link_failures),
                    topology_schedule=schedule,
                )
            ],
        )
        nbr = np.asarray(TopologyArrays.from_topology(topo).nbr)
        for t in range(rounds):
            batch.step()
            alive = batch.node_alive[0]
            assert sorted(views.rounds[t]) == list(np.flatnonzero(alive)), t
            for node, neighbors in views.rounds[t].items():
                live = batch._live_list[node, : batch._live_degree[node]]
                assert tuple(nbr[node, live]) == neighbors, (t, node)
        np.testing.assert_array_equal(obj, batch.estimates()[0])


class TestTraceRecordReplay:
    def _replay(self, path, sched_seed):
        replay = replay_from_trace(load_trace(path))
        engine, algs = run_dynamic(
            "push_flow",
            replay.topology_schedule,
            message_fault=replay.message_fault,
            sched_seed=sched_seed,
        )
        return np.stack(
            [np.atleast_1d(np.asarray(alg.estimate())) for alg in algs]
        )

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_replay_reproduces_recorded_run_exactly(self, tmp_path, suffix):
        recorder = TraceRecorder()
        engine, algs = run_dynamic(
            "push_flow",
            CHURN,
            observers=[recorder],
            message_fault=IidMessageLoss(0.2, seed=13),
        )
        original = np.stack(
            [np.atleast_1d(np.asarray(alg.estimate())) for alg in algs]
        )
        path = recorder.save(tmp_path / f"trace{suffix}")

        first = self._replay(path, sched_seed=5)
        second = self._replay(path, sched_seed=5)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, original)


class TestChurnGridCampaign:
    def test_churn_grid_runs_on_object_and_vectorized(self, tmp_path):
        import json

        from repro.campaigns.builtin import CHURN_GRID
        from repro.campaigns.runner import run_campaign
        from repro.campaigns.spec import CampaignSpec

        base = {
            **CHURN_GRID,
            "algorithms": ["push_sum", "push_flow"],
            "seeds": [0],
            "rounds": 60,
        }
        records = {}
        for engine in ("object", "vectorized"):
            spec = CampaignSpec.from_dict({**base, "engine": engine})
            run = run_campaign(spec, tmp_path / engine, log=lambda _m: None)
            assert run.failed == 0
            lines = [
                json.loads(line)
                for line in (tmp_path / engine / "results.jsonl")
                .read_text()
                .splitlines()
            ]
            records[engine] = lines
        obj, vec = records["object"], records["vectorized"]
        assert len(obj) == len(vec) == 8
        assert {frozenset(r) for r in obj} == {frozenset(r) for r in vec}
        by_fault = {
            (r["algorithm"], r["fault"]): r for r in obj
        }
        for (algorithm, fault), record in by_fault.items():
            if fault == "none":
                assert record["dynamics"] is None
            else:
                assert record["dynamics"]["deltas"] > 0
