"""Vectorized push-sum / push-flow / push-cancel-flow engines.

Each class executes the synchronous round semantics of its object-engine
counterpart (:mod:`repro.algorithms`): the hot per-round update is
delegated to the engine's kernel backend
(:mod:`repro.vectorized.backends`, selected via the ``backend`` keyword),
whose NumPy reference keeps the floating-point operation *order*
identical to the object engine — per-message combined phi deltas applied
in sender order via ``np.add.at`` — so scripted-schedule runs agree
bit-for-bit between the two engines (verified by the parity tests). The
kernels take the pre-round estimate pair from
:meth:`~repro.vectorized.base.VectorizedEngine.shared_estimate_pairs`.
Everything else — estimates (PF's left-to-right flow sum lives only in
:meth:`VectorPushFlow.estimate_pairs`), flow diagnostics, link-failure and
churn state transitions — stays here and is backend-independent.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.vectorized.base import VectorizedEngine


class VectorPushSum(VectorizedEngine):
    """Vectorized push-sum (the fragile baseline at scale)."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        self._val = self._v0.copy()
        self._w = self._w0.copy()

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._val.copy(), self._w.copy()

    def _reset_nodes(self, nodes) -> None:
        # Rejoin with the initial mass; whatever mass the node carried away
        # at departure is gone — push-sum's churn fragility.
        self._state_version += 1
        self._val[nodes] = self._v0[nodes]
        self._w[nodes] = self._w0[nodes]

    def _apply_round(self, senders, slots, delivered) -> None:
        self._state_version += 1
        receivers, _ = self._receiver_indices(senders, slots)
        self._kernels.push_sum_round(
            self._val, self._w, senders, receivers, delivered
        )


class _FlowEngine(VectorizedEngine):
    """Flow diagnostics of the engines that keep flows per edge slot."""

    def max_flow_magnitude(self) -> float:
        """Largest flow magnitude — grows with n under PF (the blow-up
        diagnostic), stays O(estimate) under PCF's cancellation."""
        return max(
            float(np.max(np.abs(self._fval))) if self._fval.size else 0.0,
            float(np.max(np.abs(self._fw))) if self._fw.size else 0.0,
        )

    def node_flow_magnitudes(self) -> np.ndarray:
        """Per-node largest flow magnitude, shape (n,) — probe input."""
        if not self._fval.size:
            return np.zeros(self.n)
        per_val = np.abs(self._fval).reshape(self.n, -1).max(axis=1)
        per_w = np.abs(self._fw).reshape(self.n, -1).max(axis=1)
        return np.maximum(per_val, per_w)


class VectorPushFlow(_FlowEngine):
    """Vectorized push-flow, ``recompute`` variant (Fig. 1 semantics)."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        n, md, d = self.n, self._arrays.max_degree, self._d
        self._fval = np.zeros((n, md, d))
        self._fw = np.zeros((n, md))

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        # Mirror the object engine's rounding exactly: accumulate the flow
        # sum left-to-right over sorted-neighbor slots first, then subtract
        # it from the initial data in one operation (padded slots hold
        # exact zeros, which cannot perturb the rounding).
        total_val = np.zeros_like(self._v0)
        total_w = np.zeros_like(self._w0)
        for s in range(self._arrays.max_degree):
            total_val += self._fval[:, s]
            total_w += self._fw[:, s]
        return self._v0 - total_val, self._w0 - total_w

    def _zero_failed_links(self, nodes, slots) -> None:
        # Object PF (recompute) drops the edge's flow record entirely, which
        # is equivalent to an exact-zero flow on that slot.
        self._state_version += 1
        self._fval[nodes, slots] = 0.0
        self._fw[nodes, slots] = 0.0

    def _reset_nodes(self, nodes) -> None:
        # Fresh zero flows; the estimate reverts to the initial data.
        self._state_version += 1
        self._fval[nodes] = 0.0
        self._fw[nodes] = 0.0

    def _apply_round(self, senders, slots, delivered) -> None:
        est_val, est_w = self.shared_estimate_pairs()
        self._state_version += 1
        receivers, r_slots = self._receiver_indices(senders, slots)
        self._kernels.push_flow_round(
            self._fval,
            self._fw,
            est_val,
            est_w,
            senders,
            slots,
            receivers,
            r_slots,
            delivered,
        )


class CancelFlowEngine(_FlowEngine):
    """State shared by the two push-cancel-flow engines (``efficient`` phi
    bookkeeping): two flow copies per edge, era counters and phi."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        n, md, d = self.n, self._arrays.max_degree, self._d
        self._fval = np.zeros((n, md, 2, d))
        self._fw = np.zeros((n, md, 2))
        self._r = np.zeros((n, md), dtype=np.int64)
        self._phi_val = np.zeros((n, d))
        self._phi_w = np.zeros(n)
        self.cancellations = 0

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._v0 - self._phi_val, self._w0 - self._phi_w

    @abc.abstractmethod
    def _passive_roles(self) -> np.ndarray:
        """Per-slot index (0 or 1) of the passive flow copy."""

    def passive_flow_magnitude(self) -> float:
        """Largest *passive*-slot flow magnitude — cancellation progress."""
        if not self._fval.size:
            return 0.0
        passive = self._passive_roles().astype(np.int64)
        p_val = np.take_along_axis(
            self._fval, passive[:, :, None, None], axis=2
        )
        p_w = np.take_along_axis(self._fw, passive[:, :, None], axis=2)
        return max(float(np.max(np.abs(p_val))), float(np.max(np.abs(p_w))))

    def max_era(self) -> int:
        """Highest role-swap era counter reached on any edge."""
        return int(np.max(self._r)) if self._r.size else 0

    def _zero_failed_links(self, nodes, slots) -> None:
        # Object PCF (efficient) folds the edge's total flow back out of phi
        # (phi = phi - (flow[0] + flow[1])) before dropping the edge state;
        # a node losing several edges subtracts them in the given order.
        self._state_version += 1
        total_val = self._fval[nodes, slots, 0] + self._fval[nodes, slots, 1]
        total_w = self._fw[nodes, slots, 0] + self._fw[nodes, slots, 1]
        np.subtract.at(self._phi_val, nodes, total_val)
        np.subtract.at(self._phi_w, nodes, total_w)
        self._fval[nodes, slots] = 0.0
        self._fw[nodes, slots] = 0.0
        self._r[nodes, slots] = 0

    def _reset_nodes(self, nodes) -> None:
        # Fresh zero flows, eras and phi — same as the object algorithms'
        # reset_for_join.
        self._state_version += 1
        self._fval[nodes] = 0.0
        self._fw[nodes] = 0.0
        self._r[nodes] = 0
        self._phi_val[nodes] = 0.0
        self._phi_w[nodes] = 0.0


class VectorPushCancelFlow(CancelFlowEngine):
    """Vectorized push-cancel-flow, ``efficient`` variant (Fig. 5 semantics)."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        self._c = np.zeros((self.n, self._arrays.max_degree), dtype=np.int8)
        self.swaps = 0

    def _passive_roles(self) -> np.ndarray:
        return 1 - self._c

    def _zero_failed_links(self, nodes, slots) -> None:
        super()._zero_failed_links(nodes, slots)
        self._c[nodes, slots] = 0

    def _reset_nodes(self, nodes) -> None:
        super()._reset_nodes(nodes)
        self._c[nodes] = 0

    def _apply_round(self, senders, slots, delivered) -> None:
        est_val, est_w = self.shared_estimate_pairs()
        self._state_version += 1
        receivers, r_slots = self._receiver_indices(senders, slots)
        cancels, swaps = self._kernels.pcf_round(
            self._fval,
            self._fw,
            self._c,
            self._r,
            self._phi_val,
            self._phi_w,
            est_val,
            est_w,
            senders,
            slots,
            receivers,
            r_slots,
            delivered,
        )
        self.cancellations += cancels
        self.swaps += swaps
