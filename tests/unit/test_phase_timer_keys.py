"""PhaseTimer's cached label keys and the histogram's bisect bucket search
record exactly what a per-call labelled ``observe`` with a linear bucket
scan records."""

import math

import numpy as np

from repro.telemetry.phase import PhaseTimer
from repro.telemetry.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry


def _linear_bucket(bounds, value):
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def test_bisect_buckets_match_a_linear_scan():
    registry = MetricsRegistry()
    hist = registry.histogram("h", "test")
    bounds = sorted(DEFAULT_TIME_BUCKETS)
    values = list(bounds) + [b * (1 + 1e-12) for b in bounds] + [
        b * (1 - 1e-12) for b in bounds
    ]
    values += [0.0, -1.0, 1e9, math.inf, -math.inf, math.nan]
    values += list(np.random.default_rng(3).uniform(0, 12, 500))
    expected = [0] * (len(bounds) + 1)
    for value in values:
        hist.observe(value, phase="x")
        expected[_linear_bucket(bounds, value)] += 1
    ((labels, slot),) = hist.raw_slots()
    assert labels == {"phase": "x"}
    assert slot["buckets"] == expected


def test_phase_timer_records_what_labelled_observe_records():
    labels = {"algorithm": "push_cancel_flow", "backend": "numpy"}
    timed, manual = MetricsRegistry(), MetricsRegistry()
    timer = PhaseTimer(
        timed, engine_kind="batched", metric="m", help="x", labels=labels
    )
    hist = manual.histogram("m", "x")
    rng = np.random.default_rng(5)
    for k in range(300):
        phase = ("kernel", "probe", "stop")[k % 3]
        engine = "batched" if k % 5 else "vectorized"
        seconds = float(rng.exponential(1e-4))
        timer.record(phase, seconds, engine_kind=engine)
        hist.observe(seconds, engine=engine, phase=phase, **labels)
    assert timed.snapshot() == manual.snapshot()
    assert timer.counts == {"kernel": 100, "probe": 100, "stop": 100}
