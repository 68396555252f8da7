"""Golden digests of the vectorized engines' observable outputs.

Each case runs one engine configuration and folds what a caller can
observe into a SHA-256 digest: every round's ``estimate_pairs()`` bytes,
the message counters, and the PCF handshake counters (cancellations,
swaps, catch-ups). The committed digests (``tests/data/engine_golden.json``)
pin those outputs bit for bit, so a rewrite of the engines' internal state
layout or of the kernels must reproduce them exactly;
``tests/integration/test_golden_digests.py`` checks every case.

The cases cover:

- single-run engines: all four algorithms x {native, lossy, scripted}
  schedules x value dimension d in {1, 3};
- batched runs with a link failure, churn, a round cap, message loss and
  a scripted schedule in one batch, on mixed topologies;
- one 16-job daemon wave through ``repro.service.batch.execute_group``;
- the churn path: every dynamic-topology builder on hypercube(8) for
  three seeds, one composed churn + partition fault spec through
  ``build_topology_schedule`` and ``build_faults``, and a batched
  churn-grid group's per-round error-history and mass-drift series
  (``BatchedErrorHistory``, ``BatchedMassProbe``).

No case uses BLAS (dmGS is left out), and every case refuses to record a
non-finite estimate, so a digest depends only on IEEE element-wise
arithmetic and the engines' operation order.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python -m tests.golden_outputs --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
from typing import Callable, Dict

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "engine_golden.json"

ALGORITHMS = (
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
)
SCHEDULES = ("native", "lossy", "scripted")
DIMENSIONS = (1, 3)
ROUNDS = 40


class _Digest:
    """SHA-256 over arrays (shape, dtype and C-order bytes) and integers."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def array(self, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        self._h.update(f"{arr.dtype.str}{arr.shape}".encode())
        self._h.update(np.ascontiguousarray(arr).tobytes())

    def ints(self, *values) -> None:
        self.array(np.array([int(v) for v in values], dtype=np.int64))

    def text(self, value: str) -> None:
        self._h.update(value.encode())

    def pair(self, values: np.ndarray, weights: np.ndarray) -> None:
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = np.asarray(values) / np.expand_dims(weights, -1)
        if not np.isfinite(estimates).all():
            raise AssertionError("golden cases must not produce non-finite estimates")
        self.array(values)
        self.array(weights)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _handshake_counters(engine) -> tuple:
    return tuple(
        int(getattr(engine, name, -1))
        for name in ("cancellations", "swaps", "catch_ups")
    )


def _irregular_topology():
    from repro.topology.random_graphs import erdos_renyi

    # Degrees differ, so every engine carries padded slots.
    return erdos_renyi(16, 0.3, seed=4)


def _scripted_targets(topology, rounds: int, seed: int) -> np.ndarray:
    """Random neighbor choices, with about one node in ten silent."""
    rng = np.random.default_rng(seed)
    targets = np.full((rounds, topology.n), -1, dtype=np.int64)
    for t in range(rounds):
        for i in topology.nodes():
            if rng.random() >= 0.1:
                nbrs = list(topology.neighbors(i))
                targets[t, i] = nbrs[int(rng.integers(len(nbrs)))]
    return targets


def single_run_digest(algorithm: str, schedule: str, d: int) -> str:
    from repro.vectorized.parity import vector_engine_for

    topo = _irregular_topology()
    rng = np.random.default_rng([DIMENSIONS.index(d), SCHEDULES.index(schedule)])
    values = rng.standard_normal((topo.n, d))
    weights = rng.uniform(0.5, 1.5, topo.n)
    kwargs: Dict[str, object] = {"seed": 11}
    if schedule == "lossy":
        kwargs["loss_probability"] = 0.25
    elif schedule == "scripted":
        kwargs["targets"] = _scripted_targets(topo, ROUNDS, seed=3)
    engine = vector_engine_for(algorithm)(topo, values, weights, **kwargs)
    digest = _Digest()
    digest.pair(*engine.estimate_pairs())
    for _ in range(ROUNDS):
        engine.step()
        digest.pair(*engine.estimate_pairs())
        digest.ints(
            engine.messages_sent,
            engine.messages_delivered,
            *_handshake_counters(engine),
        )
    return digest.hexdigest()


def batched_digest(algorithm: str) -> str:
    from repro.dynamics import scripted_churn
    from repro.faults.events import LinkFailure
    from repro.topology import hypercube
    from repro.vectorized.batched import BatchedEngine, BatchedRun

    cube, irregular = hypercube(4), _irregular_topology()
    n = cube.n
    data = np.random.default_rng(21).standard_normal((5, n, 2))
    churn = scripted_churn(
        [(6, "leave", 3), (9, "join", 3), (12, "leave", 8), (16, "join", 8)]
    )
    a, b = sorted(irregular.neighbors(0))[:2]
    runs = [
        BatchedRun(
            topology=cube,
            values=data[0],
            weights=np.ones(n),
            rng=0,
            link_failures=(LinkFailure(round=5, u=0, v=1, detection_delay=3),),
        ),
        BatchedRun(
            topology=cube,
            values=data[1],
            weights=np.ones(n),
            rng=1,
            loss_probability=0.1,
            topology_schedule=churn,
        ),
        BatchedRun(
            topology=irregular,
            values=data[2],
            weights=np.ones(n),
            rng=2,
            max_rounds=12,
        ),
        BatchedRun(
            topology=irregular,
            values=data[3],
            weights=np.ones(n),
            rng=3,
            targets=_scripted_targets(irregular, 30, seed=5),
            link_failures=(
                LinkFailure(round=4, u=0, v=a),
                LinkFailure(round=10, u=0, v=b, detection_delay=2),
            ),
        ),
        BatchedRun(
            topology=cube,
            values=data[4],
            weights=np.ones(n),
            rng=4,
            max_rounds=20,
            topology_schedule=churn,
            link_failures=(LinkFailure(round=7, u=2, v=3, detection_delay=1),),
        ),
    ]
    batch = BatchedEngine(algorithm, runs)
    digest = _Digest()
    digest.pair(*batch.estimate_pairs())
    for _ in range(30):
        batch.step()
        digest.pair(*batch.estimate_pairs())
        digest.array(batch.messages_sent)
        digest.array(batch.messages_delivered)
        digest.array(batch.run_rounds)
        digest.array(batch.retired)
        digest.ints(*_handshake_counters(batch._engine))
    return digest.hexdigest()


def daemon_wave_digest() -> str:
    from repro.linalg.reduction_service import derive_schedule_seed
    from repro.service.batch import execute_group
    from repro.service.jobs import ExecRequest
    from repro.topology import hypercube

    topo = hypercube(6)
    rng = np.random.default_rng(31)
    plan = (
        [("push_cancel_flow", 4)] * 8
        + [("push_flow", 4)] * 4
        + [("push_cancel_flow_hardened", 1)] * 4
    )
    requests = [
        ExecRequest(
            job_id=f"job-{k}",
            algorithm=algorithm,
            topology=topo,
            data=rng.uniform(-1.0, 1.0, (topo.n, d)),
            scalar_input=d == 1,
            aggregate="average",
            epsilon=1e-15,
            schedule_seed=derive_schedule_seed(k % 5, k),
            max_rounds=None if k % 3 else 300,
            stall_rounds=60,
            backend="auto",
        )
        for k, (algorithm, d) in enumerate(plan)
    ]
    digest = _Digest()
    for res in execute_group(requests):
        if not np.isfinite(res.estimates).all():
            raise AssertionError("golden cases must not produce non-finite estimates")
        digest.array(res.estimates)
        digest.ints(
            res.rounds,
            res.messages_sent,
            res.messages_delivered,
            res.converged,
            res.best_round,
            res.batched_with,
        )
        digest.array(np.array([res.max_error, res.best_error]))
        digest.text(res.engine)
    return digest.hexdigest()


#: Seeds of the dynamic-topology builder cases.
BUILDER_SEEDS = (0, 1, 2)


def _schedule_digest(digest: _Digest, schedule) -> None:
    """A schedule's public view: its events, summary and per-round lookup."""
    digest.text(json.dumps(schedule.to_events(), sort_keys=True))
    digest.text(json.dumps(schedule.meta()))
    digest.ints(len(schedule), schedule.last_round)
    digest.ints(
        *(len(schedule.deltas_at(r)) for r in range(schedule.last_round + 2))
    )


def builder_digest(builder: str, k: int) -> str:
    from repro import dynamics
    from repro.topology import hypercube

    topo = hypercube(8)
    seed = BUILDER_SEEDS[k]
    if builder == "scripted_churn":
        rng = np.random.default_rng(seed)
        events = [
            (int(r), "leave" if rng.random() < 0.5 else "join", int(node))
            for r, node in zip(
                rng.integers(0, 100, 60), rng.integers(0, topo.n, 60)
            )
        ]
        schedule = dynamics.scripted_churn(events)
    elif builder == "poisson_churn":
        schedule = dynamics.poisson_churn(
            topo, rate=0.5 + k, start=5, end=120, seed=seed
        )
    elif builder == "partition_and_heal":
        schedule = dynamics.partition_and_heal(
            topo,
            round=40,
            heal_round=None if k == 2 else 80,
            fraction=0.3 + 0.2 * k,
            seed=seed,
        )
    elif builder == "regional_outage":
        schedule = dynamics.regional_outage(
            topo, round=40, duration=30, region_count=4 + k, seed=seed
        )
    else:
        schedule = dynamics.random_edge_flaps(
            topo, rate=2.0, duration=5, start=0, end=60, seed=seed
        )
    digest = _Digest()
    _schedule_digest(digest, schedule)
    return digest.hexdigest()


def composed_schedule_digest() -> str:
    from repro.faults.specs import build_faults, build_topology_schedule
    from repro.topology import hypercube

    topo = hypercube(8)
    spec = {
        "name": "churn+partition",
        "compose": [
            {"kind": "churn", "rate": 0.3, "start": 10, "end": 90},
            {"kind": "partition", "round": 40, "heal_round": 80},
        ],
    }
    digest = _Digest()
    schedule = build_topology_schedule(spec, topology=topo, seed=7, horizon=160)
    _schedule_digest(digest, schedule)
    built = build_faults(spec, seed=7, topology=topo, horizon=160)
    _schedule_digest(digest, built.topology_schedule)
    digest.text(json.dumps(built.dynamics_meta))
    digest.ints(built.event_round)
    return digest.hexdigest()


def churn_group_digest(algorithm: str, d: int) -> str:
    """A churn-grid group on the batched engine, as the campaign runner
    drives it: the builtin's four faults x two seeds on hypercube(5), the
    error history and mass probe on every round, converged fault-free
    runs retired."""
    from repro.campaigns.builtin import BUILTIN_SPECS
    from repro.faults.specs import build_topology_schedule
    from repro.topology import hypercube
    from repro.vectorized.batched import (
        BatchedEngine,
        BatchedErrorHistory,
        BatchedMassProbe,
        BatchedRun,
    )

    grid = BUILTIN_SPECS["churn-grid"]
    rounds, epsilon = int(grid["rounds"]), float(grid["epsilon"])
    topo = hypercube(5)
    rng = np.random.default_rng([41, d])
    runs, truths, eligible = [], [], []
    for fault in grid["faults"]:
        for seed in grid["seeds"]:
            values = rng.uniform(0.0, 1.0, (topo.n, d))
            schedule = build_topology_schedule(
                fault, topology=topo, seed=int(seed), horizon=rounds
            )
            runs.append(
                BatchedRun(
                    topology=topo,
                    values=values,
                    weights=np.ones(topo.n),
                    rng=len(runs),
                    topology_schedule=schedule,
                )
            )
            truths.append(values.mean(axis=0))
            eligible.append(schedule is None)
    engine = BatchedEngine(algorithm, runs)
    history = BatchedErrorHistory(truths)
    probe = BatchedMassProbe(tolerance=1e-6)
    probe.start(engine)
    eligible = np.array(eligible)

    def on_round(eng, round_index: int) -> None:
        history.on_round_end(eng, round_index)
        probe.on_round_end(eng, round_index)

    def stop_when(eng, round_index: int):
        current = history.current_max_errors()
        return eligible & np.isfinite(current) & (current <= epsilon)

    engine.run(rounds, stop_when=stop_when, on_round=on_round)
    digest = _Digest()
    for r in range(engine.n_runs):
        digest.array(np.array(history.max_errors[r]))
        rounds_r, drifts = zip(*probe.records[r])
        digest.array(np.array(rounds_r))
        digest.array(np.array(drifts))
        digest.array(np.array([probe.worst_drift(r)]))
    digest.array(history.current_max_errors())
    digest.array(probe.violations)
    digest.array(engine.run_rounds)
    digest.array(engine.messages_sent)
    digest.array(engine.messages_delivered)
    return digest.hexdigest()


def cases() -> Dict[str, Callable[[], str]]:
    """Case name -> zero-argument digest function."""
    table: Dict[str, Callable[[], str]] = {}
    for algorithm in ALGORITHMS:
        for schedule in SCHEDULES:
            for d in DIMENSIONS:
                table[f"single/{algorithm}/{schedule}/d{d}"] = (
                    lambda a=algorithm, s=schedule, d=d: single_run_digest(a, s, d)
                )
        table[f"batched/{algorithm}"] = lambda a=algorithm: batched_digest(a)
    table["daemon/execute_group-16"] = daemon_wave_digest
    for builder in (
        "scripted_churn",
        "poisson_churn",
        "partition_and_heal",
        "regional_outage",
        "random_edge_flaps",
    ):
        for k, seed in enumerate(BUILDER_SEEDS):
            table[f"dynamics/{builder}/hypercube8-s{seed}"] = (
                lambda b=builder, k=k: builder_digest(b, k)
            )
    table["dynamics/compose-churn-partition"] = composed_schedule_digest
    for algorithm in ("push_sum", "push_flow", "push_cancel_flow"):
        table[f"churn-group/{algorithm}/d1"] = (
            lambda a=algorithm: churn_group_digest(a, 1)
        )
    table["churn-group/push_cancel_flow/d3"] = lambda: churn_group_digest(
        "push_cancel_flow", 3
    )
    return table


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help=f"rewrite {GOLDEN_PATH.name}"
    )
    args = parser.parse_args(argv)
    digests = {name: fn() for name, fn in cases().items()}
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "generator": "tests/golden_outputs.py",
            "digests": digests,
        }
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    golden = load_golden()
    bad = sorted(name for name in digests if golden.get(name) != digests[name])
    for name in bad:
        print(f"MISMATCH {name}")
    print(f"{len(digests) - len(bad)}/{len(digests)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
