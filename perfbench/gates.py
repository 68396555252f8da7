"""Correctness gates: each returns None when the output is right, else why not.

The gates compute their reference values with NumPy from the workload's
own inputs, not with the program's error helpers, so a defect in those
helpers cannot hide a wrong result.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: Worst per-node factorization error a dmGS run may reach at n = 64.
#: PCF's error is thin-tailed: over 800 qr-service factorizations (seeds
#: 0-99, cycles 0-7) the median was 6e-15 and the worst 1.5e-14. PF's is
#: not. About 5 of its 31 reductions per factorization stop short of
#: epsilon (the paper's Fig. 8 degradation), and a stopped reduction
#: returns its final estimates, which can drift far from its best round
#: before the 60-round stall rule ends it: median 1e-14, 99th percentile
#: 3e-13, worst 1.2e-10, where one reduction drifted from 1e-15 to 3e-10.
#: So PF's bound rejects only gross errors, four decades above the worst.
QR_ERROR_BOUND = {"push_cancel_flow": 5e-14, "push_flow": 1e-6}

#: Cells whose fault-free runs must converge in a churn-grid sweep.
CONVERGING_ALGORITHMS = ("push_flow", "push_cancel_flow")


def check_estimates(estimates: np.ndarray, shape: Sequence[int]) -> Optional[str]:
    """A reduction result: the expected shape and every entry finite."""
    arr = np.asarray(estimates)
    if arr.shape != tuple(shape):
        return f"estimates have shape {arr.shape}, expected {tuple(shape)}"
    if not np.isfinite(arr).all():
        return "estimates contain non-finite values"
    return None


def worst_factorization_error(
    v: np.ndarray, q: np.ndarray, r_blocks: Sequence[np.ndarray]
) -> float:
    """max over nodes p of ||V - Q R_p||_inf / ||V||_inf.

    ``q`` is the gathered Q; node p's copy of R rebuilds every row, the
    way a consumer reading the factorization off node p would.
    """
    v = np.asarray(v, dtype=np.float64)
    rebuilt = np.matmul(np.asarray(q)[None, :, :], np.stack(r_blocks))  # (p, rows, m)
    row_sums = np.abs(v[None, :, :] - rebuilt).sum(axis=2).max(axis=1)
    err = row_sums.max() / np.abs(v).sum(axis=1).max()
    return float(err) if np.isfinite(err) else math.inf


def check_factorization(algorithm: str, err: float) -> Optional[str]:
    """A dmGS run's :func:`worst_factorization_error` within its bound."""
    bound = QR_ERROR_BOUND[algorithm]
    if not err <= bound:
        return f"dmGS({algorithm}) factorization error {err:.3g} exceeds {bound:.0e}"
    return None


def sum_error(estimates: np.ndarray, partials: np.ndarray) -> float:
    """||est - sum(partials)||_inf / (n * max|partial|) for one job."""
    partials = np.asarray(partials, dtype=np.float64)
    n = partials.shape[0]
    truth = partials.sum(axis=0)
    scale = n * float(np.abs(partials).max())
    err = float(np.abs(np.asarray(estimates) - truth[None, :]).max()) / scale
    return err if math.isfinite(err) else math.inf


def check_parity(job: np.ndarray, serial: np.ndarray) -> Optional[str]:
    """A daemon job must equal the serial service call bit for bit."""
    if not np.array_equal(np.asarray(job), np.asarray(serial)):
        return "daemon result differs from the serial ReductionService call"
    return None


def check_sweep(
    records: Mapping[str, Dict[str, object]], cell_ids: Iterable[str]
) -> List[str]:
    """Every cell present with status ok; fault-free PF/PCF cells converged."""
    problems: List[str] = []
    for cell_id in cell_ids:
        record = records.get(cell_id)
        if record is None:
            problems.append(f"cell {cell_id} is missing")
        elif record.get("status") != "ok":
            problems.append(f"cell {cell_id} has status {record.get('status')!r}")
        elif (
            record.get("fault") == "none"
            and record.get("algorithm") in CONVERGING_ALGORITHMS
            and not record.get("converged")
        ):
            problems.append(f"fault-free cell {cell_id} did not converge")
    return problems


def digits(error: float) -> float:
    """-log10 of an error; an exact result reads as float64's 17 digits."""
    if error <= 0.0:
        return 17.0
    return -math.log10(error)
