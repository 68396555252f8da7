"""The merged stop rule against the two trackers it replaced.

A reduction used to keep two trackers: ``_BestTracker`` (best error and
its round) and ``_StallTracker`` (its own best plus a since-improvement
counter, consulted only while the run had not converged). A converged run
stops at once, so for every run still going the two held the same best;
the merged rule keeps only best error and best round and calls a run
stalled when ``max(window, 1)`` rounds have passed since its best. The
old trackers live on here as the reference, for the scalar single-run
rule (``repro.reduction._BestTracker``) and for the daemon's R-run form
(``repro.service.batch._BestTrackers``), over error sequences with NaN
and inf, windows None/0/1/k and round caps 0/1/k.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction import _BestTracker
from repro.service.batch import _BestTrackers, _execute_object, execute_group
from repro.service.jobs import ExecRequest
from repro.topology import hypercube


class OldBestTracker:
    def __init__(self):
        self.error = float("inf")
        self.round = -1

    def observe(self, error, round_index):
        if error < self.error:
            self.error = error
            self.round = round_index


class OldStallTracker:
    def __init__(self, window):
        self._window = window
        self._best = float("inf")
        self._since_improvement = 0

    def stalled(self, error):
        if self._window is None:
            return False
        if error < self._best:
            self._best = error
            self._since_improvement = 0
            return False
        self._since_improvement += 1
        return self._since_improvement >= self._window


errors = st.one_of(
    st.sampled_from([0.0, 1e-16, 1e-15, 1e-9, 0.5, 1.0, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1.0),
)
windows = st.one_of(st.none(), st.integers(min_value=-2, max_value=8))
caps = st.one_of(st.sampled_from([0, 1]), st.integers(min_value=2, max_value=45))
epsilons = st.sampled_from([0.0, 1e-15, 1e-9, 0.5])


def old_run(series, epsilon, window, cap, last_event=-1):
    """The old single-run loop: ``(rounds, best_error, best_round)``."""
    best, tracker = OldBestTracker(), OldStallTracker(window)
    rounds = 0
    for t in range(cap):
        err = series[t]
        rounds += 1
        best.observe(err, t)
        if t < last_event:
            continue
        if err <= epsilon or tracker.stalled(err):
            break
    best.observe(series[rounds - 1] if rounds else series[0], rounds - 1)
    return rounds, best.error, best.round


def new_vector_run(series, epsilon, window, cap):
    """The merged rule as ``_run_vector`` uses it."""
    best = _BestTracker(window)
    rounds = 0
    for t in range(cap):
        err = series[t]
        rounds += 1
        if best.observe(err, t) or err <= epsilon:
            break
    best.observe(series[rounds - 1] if rounds else series[0], rounds - 1)
    return rounds, best.error, best.round


def new_object_run(series, epsilon, window, cap, last_event):
    """The merged rule as ``_run_object`` uses it: a second tracker opens
    the stall window at the last planned failure."""
    best = _BestTracker()
    stall = _BestTracker(window, first_round=max(last_event, 0))
    rounds = 0
    for t in range(cap):
        err = series[t]
        rounds += 1
        best.observe(err, t)
        if t < last_event:
            continue
        if stall.observe(err, t) or err <= epsilon:
            break
    best.observe(series[rounds - 1] if rounds else series[0], rounds - 1)
    return rounds, best.error, best.round


def same(a, b):
    return a[0] == b[0] and a[2] == b[2] and (
        a[1] == b[1] or (math.isnan(a[1]) and math.isnan(b[1]))
    )


@settings(max_examples=400, deadline=None)
@given(
    series=st.lists(errors, min_size=46, max_size=46),
    epsilon=epsilons,
    window=windows,
    cap=caps,
)
def test_scalar_rule_matches_old_trackers(series, epsilon, window, cap):
    assert same(
        new_vector_run(series, epsilon, window, cap),
        old_run(series, epsilon, window, cap),
    )


@settings(max_examples=300, deadline=None)
@given(
    series=st.lists(errors, min_size=46, max_size=46),
    epsilon=epsilons,
    window=windows,
    cap=caps,
    last_event=st.integers(min_value=-1, max_value=20),
)
def test_stall_window_opens_after_last_event(
    series, epsilon, window, cap, last_event
):
    # The object path never stops before the last planned failure; its
    # stall window opens there.
    assert same(
        new_object_run(series, epsilon, window, cap, last_event),
        old_run(series, epsilon, window, cap, last_event),
    )


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    runs=st.integers(min_value=1, max_value=5),
    epsilon=epsilons,
)
def test_r_run_rule_matches_old_trackers(data, runs, epsilon):
    # The daemon's form: R runs in lockstep, each retiring on its own cap
    # or stop, NaN errors read as inf, then the frozen state re-observed
    # at each run's rounds - 1.
    series = np.array(
        data.draw(
            st.lists(
                st.lists(errors, min_size=runs, max_size=runs),
                min_size=46,
                max_size=46,
            )
        )
    )
    series[np.isnan(series)] = np.inf
    run_windows = data.draw(st.lists(windows, min_size=runs, max_size=runs))
    run_caps = np.array(data.draw(st.lists(caps, min_size=runs, max_size=runs)))
    best = _BestTrackers(run_windows)
    retired = run_caps == 0
    executed = np.zeros(runs, dtype=np.int64)
    for t in range(int(run_caps.max())):
        active = ~retired
        executed[active] += 1
        retired |= executed >= run_caps
        err = series[t]
        stalled = best.observe(err, t, active)
        retired |= active & (stalled | (err <= epsilon))
    final = series[np.maximum(executed - 1, 0), np.arange(runs)]
    best.observe(final, executed - 1, np.ones(runs, dtype=bool))
    for r in range(runs):
        expected = old_run(
            list(series[:, r]), epsilon, run_windows[r], int(run_caps[r])
        )
        got = (int(executed[r]), float(best.error[r]), int(best.round[r]))
        assert same(got, expected), (r, got, expected)


@pytest.mark.parametrize("stall_rounds", [None, -1, 0, 1, 7])
def test_daemon_job_stops_like_the_serial_service(stall_rounds):
    # One rule on both paths: a batched daemon job stops on the same round
    # as the serial single-run reduction, negative windows included.
    topo = hypercube(4)
    data = np.random.default_rng(1).standard_normal((topo.n, 2))
    request = ExecRequest(
        job_id="job",
        algorithm="push_cancel_flow",
        topology=topo,
        data=data,
        scalar_input=False,
        aggregate="average",
        epsilon=1e-15,
        schedule_seed=3,
        max_rounds=None,
        stall_rounds=stall_rounds,
        backend="auto",
    )
    batched = execute_group([request])[0]
    serial = _execute_object(dataclasses.replace(request, backend="vector"))
    assert batched.engine == "batched" and serial.engine == "object"
    assert (batched.rounds, batched.best_round) == (serial.rounds, serial.best_round)
    assert batched.estimates.tobytes() == serial.estimates.tobytes()
