"""Columnar topology schedules: the columns and the delta objects agree.

A :class:`TopologySchedule` stores its events as columns and builds
:class:`TopologyDelta` objects only on request; these tests pin that the
two views describe the same schedule, that the column constructor rejects
what the delta constructor rejects (with the same error), and that the
builders and the batched engine never build a delta object.
"""

import numpy as np
import pytest

from repro.dynamics import (
    DELTA_KINDS,
    TopologyDelta,
    TopologySchedule,
    partition_and_heal,
    poisson_churn,
    random_edge_flaps,
    regional_outage,
    scripted_churn,
)
from repro.dynamics import schedule as schedule_module
from repro.exceptions import ConfigurationError
from repro.faults.specs import build_topology_schedule
from repro.topology import hypercube, ring
from repro.vectorized.batched import BatchedEngine, BatchedRun

LABELS = ("", "churn", "heal", "flap")


def _random_events(rng, count, n):
    """Valid random events as (round, kind, a, b, label id) rows."""
    rows = []
    for _ in range(count):
        kind = int(rng.integers(len(DELTA_KINDS)))
        a = int(rng.integers(n))
        if kind < 2:
            b = int((a + 1 + rng.integers(n - 1)) % n)
        else:
            b = -1
        rows.append((int(rng.integers(0, 12)), kind, a, b, int(rng.integers(len(LABELS)))))
    return rows


def _delta(row):
    r, kind, a, b, label = row
    if b >= 0:
        return TopologyDelta(round=r, kind=DELTA_KINDS[kind], edge=(a, b), label=LABELS[label])
    return TopologyDelta(round=r, kind=DELTA_KINDS[kind], node=a, label=LABELS[label])


class TestColumnsMatchDeltas:
    @pytest.mark.parametrize("seed", range(20))
    def test_from_columns_equals_the_delta_form(self, seed):
        rng = np.random.default_rng(seed)
        rows = _random_events(rng, int(rng.integers(0, 40)), 9)
        columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
        schedule = TopologySchedule.from_columns(*columns, LABELS)
        reference = TopologySchedule([_delta(row) for row in rows])
        assert schedule.deltas == reference.deltas
        assert schedule.to_events() == reference.to_events()
        assert schedule.meta() == reference.meta()
        # The summary's key order is part of the record a campaign writes.
        assert list(schedule.meta()["kinds"]) == list(reference.meta()["kinds"])
        assert list(schedule.meta()["labels"]) == list(reference.meta()["labels"])
        assert (len(schedule), schedule.last_round) == (
            len(reference),
            reference.last_round,
        )
        for r in range(-1, 14):
            assert schedule.deltas_at(r) == reference.deltas_at(r)
        for got, want in zip(schedule.columns[:4], reference.columns[:4]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(10))
    def test_join_equals_the_schedule_of_concatenated_deltas(self, seed):
        rng = np.random.default_rng(100 + seed)
        parts = []
        for _ in range(int(rng.integers(0, 4))):
            rows = _random_events(rng, int(rng.integers(0, 15)), 7)
            parts.append(TopologySchedule([_delta(row) for row in rows]))
        joined = TopologySchedule.join(parts)
        reference = TopologySchedule([d for part in parts for d in part.deltas])
        assert joined.deltas == reference.deltas
        assert joined.meta() == reference.meta()
        assert list(joined.meta()["labels"]) == list(reference.meta()["labels"])

    def test_edges_are_canonical_and_columns_read_only(self):
        schedule = TopologySchedule.from_columns(
            [3, 1], [0, 1], [5, 2], [2, 4], 0, ("flap",)
        )
        assert [d.edge for d in schedule.deltas] == [(2, 4), (2, 5)]
        for column in schedule.columns:
            with pytest.raises(ValueError):
                column[0] = 7

    def test_from_columns_rejects_what_a_delta_rejects(self):
        cases = [
            (([-1], [2], [0], [-1]), "round must be >= 0"),
            (([0], [0], [2], [2]), "self-edge"),
            (([0], [1], [3], [-1]), "negative node id"),
            (([0], [2], [-4], [-1]), "negative node id -4"),
            (([0], [3], [1], [2]), "must not carry an edge"),
            (([0], [9], [1], [-1]), "unknown topology delta kind"),
        ]
        for columns, message in cases:
            with pytest.raises(ConfigurationError, match=message):
                TopologySchedule.from_columns(*columns, 0, ("",))
        # The first invalid event in input order raises.
        with pytest.raises(ConfigurationError, match="self-edge"):
            TopologySchedule.from_columns(
                [5, 0, 1], [2, 0, 2], [1, 3, -1], [-1, 3, -1], 0, ("",)
            )
        with pytest.raises(ConfigurationError, match="label index"):
            TopologySchedule.from_columns([0], [2], [1], [-1], [1], ("",))
        with pytest.raises(ConfigurationError, match="labels must be distinct"):
            TopologySchedule.from_columns([0], [2], [1], [-1], [1], ("a", "a"))

    def test_scripted_churn_keeps_its_errors(self):
        with pytest.raises(ConfigurationError, match="round must be >= 0"):
            scripted_churn([(-2, "leave", 1)])
        with pytest.raises(ConfigurationError, match="negative node id"):
            scripted_churn([(2, "join", -1)])
        with pytest.raises(ConfigurationError, match="must be \\(round"):
            scripted_churn([(2, "join")])


class TestValidateAgainst:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_a_per_delta_check(self, seed):
        topo = ring(8)
        rng = np.random.default_rng(seed)
        rows = _random_events(rng, 6, 10)  # ids up to 9: some outside n = 8
        schedule = TopologySchedule([_delta(row) for row in rows])
        bad = None
        for delta in schedule.deltas:
            if delta.edge is not None:
                u, v = delta.edge
                if not (u < 8 and v < 8 and topo.has_edge(u, v)):
                    bad = "not an edge"
                    break
            elif delta.node >= 8:
                bad = "outside topology"
                break
        if bad is None:
            schedule.validate_against(topo)
        else:
            with pytest.raises(ConfigurationError, match=bad):
                schedule.validate_against(topo)


class TestDeltaObjectsOnlyOnRequest:
    def test_builders_and_batched_engine_build_no_delta(self, monkeypatch):
        built = []
        original = schedule_module.TopologyDelta.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(schedule_module.TopologyDelta, "__post_init__", counting)
        topo = hypercube(5)
        schedules = [
            scripted_churn([(3, "leave", 1), (6, "join", 1)]),
            poisson_churn(topo, rate=0.5, start=2, end=20, seed=1),
            partition_and_heal(topo, round=4, heal_round=9, seed=2),
            regional_outage(topo, round=5, duration=4, seed=3),
            random_edge_flaps(topo, rate=1.0, duration=3, end=15, seed=4),
            build_topology_schedule(
                {
                    "name": "both",
                    "compose": [
                        {"kind": "churn", "rate": 0.3, "start": 1, "end": 12},
                        {"kind": "partition", "round": 4, "heal_round": 8},
                    ],
                },
                topology=topo,
                seed=5,
                horizon=20,
            ),
        ]
        runs = [
            BatchedRun(
                topology=topo,
                values=np.arange(topo.n, dtype=float),
                weights=np.ones(topo.n),
                rng=k,
                topology_schedule=s,
            )
            for k, s in enumerate(schedules)
        ]
        engine = BatchedEngine("push_cancel_flow", runs)
        engine.run(20)
        for s in schedules:
            s.meta()
        assert built == []
        assert len(schedules[2].deltas) == len(schedules[2])
        assert len(built) == len(schedules[2])
