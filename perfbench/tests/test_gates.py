"""Each correctness gate passes on a right result and fails on a wrong one."""

import numpy as np
import pytest

from perfbench import gates
from repro.linalg.qr import distributed_qr
from repro.linalg.reduction_service import ReductionService
from repro.service import ReductionDaemon
from repro.topology import hypercube


@pytest.fixture(scope="module")
def exact_qr():
    v = np.random.default_rng(0).standard_normal((16, 4))
    result = distributed_qr(v, hypercube(4), algorithm="exact")
    return v, result.q.gather(), [r.copy() for r in result.r_blocks]


def test_qr_gate_accepts_a_right_factorization(exact_qr):
    v, q, r_blocks = exact_qr
    err = gates.worst_factorization_error(v, q, r_blocks)
    assert err < 1e-15
    assert gates.check_factorization("push_cancel_flow", err) is None
    assert gates.check_factorization("push_flow", 1.23e-10) is None  # PF's worst seen at n = 64


@pytest.mark.parametrize("algorithm", sorted(gates.QR_ERROR_BOUND))
def test_qr_gate_rejects_a_wrong_r_factor(exact_qr, algorithm):
    v, q, r_blocks = exact_qr
    wrong = [r.copy() for r in r_blocks]
    wrong[5][1, 2] += 1e-3  # one node's copy of R is off
    err = gates.worst_factorization_error(v, q, wrong)
    assert gates.check_factorization(algorithm, err) is not None


def test_estimate_gate_rejects_non_finite_and_wrong_shape():
    good = np.ones((8, 2))
    assert gates.check_estimates(good, (8, 2)) is None
    bad = good.copy()
    bad[3, 1] = np.nan
    assert gates.check_estimates(bad, (8, 2)) is not None
    assert gates.check_estimates(good[:, 0], (8, 2)) is not None


def test_parity_gate_rejects_a_perturbed_estimate():
    topo = hypercube(3)
    partials = np.random.default_rng(1).standard_normal((topo.n, 2))
    with ReductionDaemon(workers=0) as daemon:
        job = daemon.submit(
            tenant="t", algorithm="push_cancel_flow", topology=topo,
            partials=partials, seed=7, call_index=0,
        )
        estimates = daemon.result(job, timeout=60).estimates
    serial = ReductionService(topo, seed=7).all_reduce_sum(partials)
    assert gates.check_parity(estimates, serial) is None
    perturbed = estimates.copy()
    perturbed[2, 1] = np.nextafter(perturbed[2, 1], np.inf)  # one ulp
    assert gates.check_parity(perturbed, serial) is not None
    assert gates.sum_error(serial, partials) < 1e-14


def _records():
    records = {}
    for algorithm in ("push_sum", "push_flow", "push_cancel_flow"):
        for fault in ("none", "churn0.05"):
            cell_id = f"{algorithm}|{fault}"
            records[cell_id] = {
                "cell_id": cell_id, "algorithm": algorithm, "fault": fault,
                "status": "ok", "converged": fault == "none",
            }
    return records


def test_sweep_gate_accepts_a_complete_sweep():
    records = _records()
    assert gates.check_sweep(records, list(records)) == []


def test_sweep_gate_rejects_a_dropped_cell():
    records = _records()
    cell_ids = list(records)
    del records["push_flow|churn0.05"]
    problems = gates.check_sweep(records, cell_ids)
    assert problems == ["cell push_flow|churn0.05 is missing"]


def test_sweep_gate_rejects_a_failed_or_unconverged_cell():
    records = _records()
    records["push_sum|churn0.05"]["status"] = "failed"
    records["push_cancel_flow|none"]["converged"] = False
    assert len(gates.check_sweep(records, list(records))) == 2
