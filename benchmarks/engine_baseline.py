"""Write ``BENCH_engine.json``: a machine-readable engine-throughput baseline.

Usage::

    PYTHONPATH=src python benchmarks/engine_baseline.py [output.json]
    PYTHONPATH=src python benchmarks/engine_baseline.py --quick --json out.json

``--quick`` is the CI mode (n=32 only, short timing windows); the
``bench-check`` job feeds its output to ``benchmarks/check_regression.py``,
which compares engine-to-engine ratios against the committed baseline.

Measures steady-state rounds/sec of the synchronous object engine and the
vectorized engine at n ∈ {32, 128} (push-flow, the paper's workhorse), with
telemetry detached — the committed numbers are the trajectory future PRs
compare against. Each entry carries two overhead records for the same
rounds with a telemetry observer set attached (collector + phase timer +
probes):

- ``overhead`` — every round sampled (the historical full-detail cost);
- ``overhead_sampled`` — the default-on configuration, sampling one round
  in :data:`repro.telemetry.sampling.DEFAULT_SAMPLE_EVERY`; engines skip
  per-message hook dispatch and phase timing on unsampled rounds, which
  is what keeps this slowdown within the CI-gated 1.5× budget.

The six engines of one size (sync and vector; plain, full and sampled
telemetry) are timed side by side: they run alternating chunks and each
keeps its fastest chunk (:func:`fastest_chunks`), so the gated ratios —
vector/sync and the sampled slowdown — compare engines timed under the
same load. A ``batched-r1`` entry per size runs the vector entry's run as
a ``BatchedEngine`` batch of one the same way, against the single-run
engine, and records its round time over the single-run engine's
(informational, no gate).

Wall-clock numbers are machine-dependent; compare ratios, not absolutes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

from repro.algorithms.aggregates import AggregateKind, initial_mass_pairs
from repro.algorithms.registry import instantiate
from repro.simulation.engine import SynchronousEngine
from repro.simulation.schedule import UniformGossipSchedule
from repro.telemetry import (
    DEFAULT_SAMPLE_EVERY,
    MetricsRegistry,
    PhaseTimer,
    RoundSampler,
    TelemetryCollector,
)
from repro.telemetry.probes import FlowMagnitudeProbe, MassConservationProbe
from repro.topology import hypercube
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.parity import vector_engine_for

ALGORITHM = "push_flow"
SIZES = (32, 128)  # hypercube(5), hypercube(7)
MIN_SECONDS = 0.4
#: The batched entry: one campaign-style seed axis of this many runs,
#: executed as a single whole-array program, compared against running the
#: same runs one-by-one on the object engine (the pre-batching campaign
#: path). Same machine, same process — the speedup is a ratio, so it is
#: hardware-independent and CI-gateable.
BATCHED_RUNS = 16
BATCHED_N = 1024  # hypercube(10); --quick drops to 128
#: The batched-groups entry: a whole campaign (all four algorithms as
#: separate (algorithm, topology) groups) executed with multiprocess
#: workers, vs the estimated sequential object-engine cost of the same
#: cells. Informational — absolute scaling depends on core count.
GROUPS_N = 4096  # hypercube(12); --quick drops to 128
GROUPS_ALGORITHMS = (
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
)
#: Target wall time of one timed chunk of the sync, vector and batched-r1
#: entries.
CHUNK_SECONDS = 0.02


def _telemetry_observers(sampler=None):
    registry = MetricsRegistry()
    return [
        TelemetryCollector(registry),
        PhaseTimer(registry, sampler=sampler),
        FlowMagnitudeProbe(registry=registry, sampler=sampler),
        MassConservationProbe(registry=registry, sampler=sampler),
    ]


def _sync_engine(n, observers=()):
    topo = hypercube(int(np.log2(n)))
    data = np.random.default_rng(0).uniform(size=topo.n)
    initial = initial_mass_pairs(AggregateKind.AVERAGE, list(data))
    algs = instantiate(ALGORITHM, topo, initial)
    return SynchronousEngine(
        topo,
        algs,
        UniformGossipSchedule(topo.n, 1),
        observers=list(observers),
    )


def _vector_engine(n, observers=()):
    topo = hypercube(int(np.log2(n)))
    data = np.random.default_rng(0).uniform(size=topo.n)
    return vector_engine_for(ALGORITHM)(
        topo, data, np.ones(topo.n), seed=1, observers=list(observers)
    )


def _batched_r1_engine(n):
    """The vector entry's run (same topology, data and seed) as a batch of
    one."""
    topo = hypercube(int(np.log2(n)))
    data = np.random.default_rng(0).uniform(size=topo.n)
    run = BatchedRun(topology=topo, values=data, weights=np.ones(topo.n), rng=1)
    return BatchedEngine(ALGORITHM, [run])


def _batched_engine(n, runs=BATCHED_RUNS):
    topo = hypercube(int(np.log2(n)))
    children = np.random.SeedSequence(7).spawn(runs)
    batch = []
    for child in children:
        rng = np.random.default_rng(child)
        batch.append(
            BatchedRun(
                topology=topo,
                values=rng.uniform(size=topo.n),
                weights=np.ones(topo.n),
                rng=rng,
            )
        )
    return BatchedEngine(ALGORITHM, batch)


def _groups_entry(bn, rounds, sync_rps, workers):
    """Multiprocess batched groups: one whole campaign, all cores.

    Runs the same four-algorithm campaign twice — serial batched
    (``workers=0``) and with one worker process per (algorithm, topology)
    group — and reports the group-parallel scaling plus the combined
    speedup over the estimated cost of executing every cell sequentially
    on the object engine (``cells * rounds / sync_rps``, with ``sync_rps``
    measured on this machine in this process).
    """
    from repro.campaigns import CampaignSpec, run_campaign

    def spec(tag):
        # epsilon far below the attainable error floor: no cell retires
        # early, so both runs execute exactly cells * rounds work.
        return CampaignSpec.from_dict(
            {
                "name": f"bench-groups-{tag}",
                "engine": "batched",
                "algorithms": list(GROUPS_ALGORITHMS),
                "topologies": [{"family": "hypercube", "n": bn}],
                "faults": [{"kind": "none"}],
                "seeds": list(range(BATCHED_RUNS)),
                "rounds": rounds,
                "epsilon": 1e-300,
            }
        )

    cells = len(GROUPS_ALGORITHMS) * BATCHED_RUNS
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        t0 = time.perf_counter()
        serial = run_campaign(spec("serial"), root / "serial")
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_campaign(
            spec("parallel"), root / "parallel", workers=workers
        )
        parallel_s = time.perf_counter() - t0
    assert (serial.failed, parallel.failed) == (0, 0)
    sequential_sync_s = cells * rounds / max(sync_rps, 1e-9)
    return {
        "engine": "batched-groups",
        "algorithm": "all",
        "n": bn,
        "runs": BATCHED_RUNS,
        "groups": len(GROUPS_ALGORITHMS),
        "workers": workers,
        "rounds": rounds,
        "serial_seconds": round(serial_s, 6),
        "parallel_seconds": round(parallel_s, 6),
        "group_parallel_speedup": round(serial_s / max(parallel_s, 1e-9), 2),
        "sync_rounds_per_sec": sync_rps,
        "estimated_sequential_sync_seconds": round(sequential_sync_s, 6),
        # Informational: how much faster the whole multiprocess campaign
        # is than sequential object-engine cells. CI gates the in-process
        # batched ratio instead (see check_regression.py).
        "speedup_vs_sequential_sync": round(
            sequential_sync_s / max(parallel_s, 1e-9), 2
        ),
    }


def _server_entry(bn, rounds):
    """Live metrics server overhead: one small batched campaign, twice.

    Runs the same single-algorithm campaign dark (no socket) and live
    (ephemeral-port server, per-record snapshot merging, server.json)
    and reports the wall-clock ratio. Informational: the live plane is
    default-off, and with nothing scraping, the server thread is idle —
    the ratio measures the always-on cost (registry snapshots riding the
    result channel plus the listener thread), not scrape cost.
    """
    from repro.campaigns import CampaignSpec, run_campaign

    def spec(tag):
        return CampaignSpec.from_dict(
            {
                "name": f"bench-server-{tag}",
                "engine": "batched",
                "algorithms": [ALGORITHM],
                "topologies": [{"family": "hypercube", "n": bn}],
                "faults": [{"kind": "none"}],
                "seeds": list(range(BATCHED_RUNS)),
                "rounds": rounds,
                "epsilon": 1e-300,
            }
        )

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        t0 = time.perf_counter()
        dark = run_campaign(spec("dark"), root / "dark")
        dark_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        live = run_campaign(spec("live"), root / "live", metrics_port=0)
        live_s = time.perf_counter() - t0
    assert (dark.failed, live.failed) == (0, 0)
    return {
        "engine": "campaign-live-server",
        "algorithm": ALGORITHM,
        "n": bn,
        "runs": BATCHED_RUNS,
        "rounds": rounds,
        "dark_seconds": round(dark_s, 6),
        "live_seconds": round(live_s, 6),
        "live_overhead_ratio": round(live_s / max(dark_s, 1e-9), 3),
    }


def rounds_per_sec(factory, min_seconds: float = MIN_SECONDS) -> dict:
    """Time ``engine.run`` in growing chunks until >= ``min_seconds`` elapsed."""
    engine = factory()
    engine.run(16)  # warm-up (allocations, first-touch)
    rounds = 0
    elapsed = 0.0
    chunk = 64
    while elapsed < min_seconds:
        t0 = time.perf_counter()
        engine.run(chunk)
        elapsed += time.perf_counter() - t0
        rounds += chunk
        chunk = min(chunk * 2, 8192)
    return {
        "rounds": rounds,
        "seconds": round(elapsed, 6),
        "rounds_per_sec": round(rounds / elapsed, 2),
    }


def fastest_chunks(engines, min_seconds: float = MIN_SECONDS):
    """Time engines side by side; one ``{rounds, seconds, rounds_per_sec}``
    record per engine, of its fastest chunk.

    The engines run alternating chunks until each has run ``min_seconds``;
    each keeps its fastest chunk, so a burst of load on a shared box slows
    one chunk rather than one engine. An engine's chunk is the multiple of
    ``DEFAULT_SAMPLE_EVERY`` rounds nearest ``CHUNK_SECONDS`` after a
    warm-up (every chunk then samples the same number of rounds).
    """
    sizes = []
    for engine in engines:
        t0 = time.perf_counter()
        engine.run(16)  # warm-up (allocations, first-touch)
        per_round = (time.perf_counter() - t0) / 16
        step = DEFAULT_SAMPLE_EVERY
        sizes.append(max(step, step * round(CHUNK_SECONDS / per_round / step)))
    best = [float("inf")] * len(engines)
    spent = [0.0] * len(engines)
    while min(spent) < min_seconds:
        for i, engine in enumerate(engines):
            t0 = time.perf_counter()
            engine.run(sizes[i])
            elapsed = time.perf_counter() - t0
            best[i] = min(best[i], elapsed)
            spent[i] += elapsed
    return [
        {
            "rounds": size,
            "seconds": round(seconds, 6),
            "rounds_per_sec": round(size / seconds, 2),
        }
        for size, seconds in zip(sizes, best)
    ]


def round_ratio(single, batch, min_seconds: float = MIN_SECONDS) -> dict:
    """Round times of a single-run engine and a batch of one, compared
    side by side (:func:`fastest_chunks`)."""
    vector, batched = fastest_chunks([single, batch], min_seconds)
    return {
        "rounds_per_sec": batched["rounds_per_sec"],
        "vector_rounds_per_sec": vector["rounds_per_sec"],
        "round_time_vs_vector": round(
            vector["rounds_per_sec"] / batched["rounds_per_sec"], 3
        ),
    }


def _slowdown(plain: dict, observed: dict) -> float:
    return round(
        plain["rounds_per_sec"] / max(observed["rounds_per_sec"], 1e-9), 3
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Measure engine rounds/sec and write a JSON baseline."
    )
    parser.add_argument(
        "output",
        nargs="?",
        default=None,
        help="output path (positional form, kept for compatibility)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="output path (takes precedence over the positional form)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: n=32 only, short timing windows (noisier numbers)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    output = args.json_path or args.output or "BENCH_engine.json"
    sizes = SIZES[:1] if args.quick else SIZES
    min_seconds = 0.1 if args.quick else MIN_SECONDS
    kinds = (("sync", _sync_engine), ("vector", _vector_engine))
    timed = {}
    for n in sizes:
        engines = [
            factory(n, observers=observers())
            for _, factory in kinds
            for observers in (
                lambda: (),
                _telemetry_observers,
                lambda: _telemetry_observers(
                    RoundSampler(every=DEFAULT_SAMPLE_EVERY)
                ),
            )
        ]
        records = fastest_chunks(engines, min_seconds)
        for k, (kind, _) in enumerate(kinds):
            timed[kind, n] = records[3 * k : 3 * k + 3]
    entries = []
    for kind, _ in kinds:
        for n in sizes:
            plain, observed, sampled = timed[kind, n]
            entries.append(
                {
                    "engine": kind,
                    "algorithm": ALGORITHM,
                    "n": n,
                    **plain,
                    "overhead": {
                        "telemetry_rounds_per_sec": observed["rounds_per_sec"],
                        "slowdown": _slowdown(plain, observed),
                    },
                    "overhead_sampled": {
                        "sample_every": DEFAULT_SAMPLE_EVERY,
                        "telemetry_rounds_per_sec": sampled["rounds_per_sec"],
                        "slowdown": _slowdown(plain, sampled),
                    },
                }
            )
            print(
                f"{kind:6s} n={n:4d}  {plain['rounds_per_sec']:>10.1f} rounds/s  "
                f"(telemetry: full {entries[-1]['overhead']['slowdown']:.2f}x, "
                f"sampled 1/{DEFAULT_SAMPLE_EVERY} "
                f"{entries[-1]['overhead_sampled']['slowdown']:.2f}x)"
            )

    # One run as a batch of one vs the single-run engine: the per-round
    # price of folding the single-run engine into BatchedEngine.
    for n in sizes:
        r1 = round_ratio(_vector_engine(n), _batched_r1_engine(n), min_seconds)
        entries.append({"engine": "batched-r1", "algorithm": ALGORITHM, "n": n, "runs": 1, **r1})
        print(
            f"batched-r1 n={n:4d}  {r1['rounds_per_sec']:>10.1f} rounds/s  "
            f"({r1['round_time_vs_vector']:.2f}x the single-run round, "
            "informational)"
        )

    # Batched campaign axis: BATCHED_RUNS independent runs as one program
    # vs the same runs executed sequentially on the object engine. One
    # batched "round" advances all runs, so the axis-level speedup is
    # runs * batched_rps / sync_rps; CI gates it.
    bn = 128 if args.quick else BATCHED_N
    sync_ref = rounds_per_sec(lambda: _sync_engine(bn), min_seconds)
    batched = rounds_per_sec(lambda: _batched_engine(bn), min_seconds)
    speedup = round(
        BATCHED_RUNS
        * batched["rounds_per_sec"]
        / max(sync_ref["rounds_per_sec"], 1e-9),
        2,
    )
    entries.append(
        {
            "engine": "batched",
            "algorithm": ALGORITHM,
            "n": bn,
            "runs": BATCHED_RUNS,
            **batched,
            "sync_rounds_per_sec": sync_ref["rounds_per_sec"],
            "speedup_vs_sequential_sync": speedup,
        }
    )
    print(
        f"batched n={bn:4d} x{BATCHED_RUNS} runs  "
        f"{batched['rounds_per_sec']:>10.1f} axis rounds/s  "
        f"({speedup:.1f}x vs sequential object engine at "
        f"{sync_ref['rounds_per_sec']:.1f} rounds/s)"
    )

    # Multiprocess batched groups: a whole four-algorithm campaign with
    # one worker per group, vs the estimated sequential object-engine
    # cost of the same cells. Informational — scaling tracks core count.
    gn = 128 if args.quick else GROUPS_N
    groups_rounds = 40 if args.quick else 120
    groups_sync = (
        sync_ref
        if gn == bn
        else rounds_per_sec(lambda: _sync_engine(gn), min_seconds)
    )
    workers = max(1, min(len(GROUPS_ALGORITHMS), os.cpu_count() or 1))
    groups = _groups_entry(
        gn, groups_rounds, groups_sync["rounds_per_sec"], workers
    )
    entries.append(groups)
    print(
        f"batched-groups n={gn:4d} {groups['groups']} groups x "
        f"{BATCHED_RUNS} runs, {workers} workers  "
        f"{groups['group_parallel_speedup']:.2f}x group scaling, "
        f"{groups['speedup_vs_sequential_sync']:.1f}x vs sequential "
        "object engine (informational)"
    )

    # Live observability plane: the same campaign with and without the
    # HTTP metrics server + snapshot aggregation. Informational.
    server = _server_entry(gn, groups_rounds)
    entries.append(server)
    print(
        f"campaign-server n={gn:4d} live/dark wall-clock "
        f"{server['live_overhead_ratio']:.2f}x (informational; "
        "default-off, nothing scraping)"
    )
    payload = {
        "benchmark": "engine_throughput",
        "algorithm": ALGORITHM,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "note": (
            "rounds/sec with no observers attached; 'overhead' shows the "
            "same engine with a full telemetry observer set, "
            "'overhead_sampled' the default-on sampled configuration "
            "(one round in DEFAULT_SAMPLE_EVERY). The six sync and vector "
            "engines of one n run alternating chunks of about "
            "CHUNK_SECONDS each; rounds and seconds are the engine's "
            "fastest chunk. The 'batched' entry "
            "runs a whole seed axis as one whole-array program; "
            "speedup_vs_sequential_sync is a same-machine ratio against "
            "the object engine (CI gates it; batched-groups is "
            "informational). "
            "'batched-r1' times the vector entry's run as a batch of one, "
            "side by side with the single-run engine in the same chunks; "
            "round_time_vs_vector is its round time over the single-run "
            "engine's (informational). "
            "The 'batched-groups' entry runs a four-algorithm campaign "
            "with one worker process per group; 'campaign-live-server' "
            "reruns a campaign with the --metrics-port HTTP plane up "
            "(informational: default-off). Compare ratios across "
            "commits, not absolute wall-clock."
        ),
        "entries": entries,
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
