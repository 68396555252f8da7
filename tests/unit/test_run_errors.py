"""The one R-run error check equals the per-node form, bit for bit.

:class:`repro.vectorized.batched.RunErrors` takes each run's maximum of
``|estimate - truth|`` over its live nodes and divides once by the run's
scale. The batched error history used to divide every node's maximum and
then take the run maximum; division by a positive scale is monotone, so
the two agree in every bit, including NaN (read as inf), ±inf, zero truth
and runs whose every node has departed.
"""

import numpy as np

from repro.vectorized.batched import BatchedErrorHistory, RoundEstimates, RunErrors

CASES = 3000


def _per_node_errors(est, truth, scale, alive):
    """The per-node form: divide each node's maximum, then maximize."""
    with np.errstate(invalid="ignore", over="ignore"):
        node_err = np.abs(est - truth[:, None, :]).max(axis=2) / scale[:, None]
    node_err[np.isnan(node_err)] = np.inf
    node_err[~alive] = -np.inf
    return node_err.max(axis=1)


def _case(rng):
    runs, n, d = (int(rng.integers(1, k)) for k in (6, 9, 5))
    truth = rng.choice([0.0, 1.0, -3.5, 1e-300, 1e300], size=(runs, d))
    truth += rng.standard_normal((runs, d)) * rng.integers(0, 2, (runs, d))
    est = truth[:, None, :] + rng.standard_normal((runs, n, d)) * 10.0 ** rng.integers(
        -17, 3, (runs, n, d)
    )
    specials = rng.random((runs, n, d))
    est[specials < 0.05] = np.nan
    est[(specials >= 0.05) & (specials < 0.08)] = np.inf
    est[(specials >= 0.08) & (specials < 0.1)] = -np.inf
    alive = rng.random((runs, n)) < rng.choice([0.0, 0.5, 1.0], size=(runs, 1))
    scale = np.abs(truth).max(axis=1)
    scale = np.where(scale > 0.0, scale, 1.0)
    return truth, scale, est, alive


def _shared(est, alive):
    return RoundEstimates(
        values=est, weights=np.ones(est.shape[:2]), estimates=est, node_alive=alive
    )


def test_run_errors_equal_the_per_node_form():
    rng = np.random.default_rng(2024)
    covered = {"nan": 0, "inf": 0, "zero_truth": 0, "all_departed": 0}
    for _ in range(CASES):
        truth, scale, est, alive = _case(rng)
        expected = _per_node_errors(est, truth, scale, alive)
        with np.errstate(over="ignore"):
            got = RunErrors(truth, scale)(_shared(est, alive))
        assert got.tobytes() == expected.tobytes()
        covered["nan"] += bool(np.isnan(est[alive]).any())
        covered["inf"] += bool(np.isinf(est[alive]).any())
        covered["zero_truth"] += bool((np.abs(truth).max(axis=1) == 0).any())
        covered["all_departed"] += bool((~alive).all(axis=1).any())
    assert all(count > 50 for count in covered.values()), covered


def test_output_buffer_and_membership_changes():
    rng = np.random.default_rng(7)
    truth, scale, est, _ = _case(rng)
    errors = RunErrors(truth, scale)
    out = np.empty(len(scale))
    everyone = np.ones(est.shape[:2], dtype=bool)
    assert errors(_shared(est, everyone), out=out) is out
    # A new membership copy is read, not the mask of an earlier round.
    departed = everyone.copy()
    departed[:, 0] = False
    assert errors(_shared(est, departed)).tobytes() == _per_node_errors(
        est, truth, scale, departed
    ).tobytes()
    assert errors(_shared(est, everyone)).tobytes() == _per_node_errors(
        est, truth, scale, everyone
    ).tobytes()


def test_error_history_records_run_errors():
    rng = np.random.default_rng(11)
    truth, scale, est, alive = _case(rng)

    class StubEngine:
        _last_active = np.ones(len(truth), dtype=bool)

        def round_estimates(self):
            return _shared(est, alive)

    history = BatchedErrorHistory(truth)
    with np.errstate(over="ignore"):
        history.on_round_end(StubEngine(), 0)
    expected = _per_node_errors(est, truth, history._scale, alive)
    assert [series[0] for series in history.max_errors] == expected.tolist()
