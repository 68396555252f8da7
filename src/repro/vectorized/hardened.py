"""Vectorized latency-hardened PCF engine.

Whole-array implementation of
:class:`repro.algorithms.push_cancel_flow_hardened.PushCancelFlowHardened`
(efficient variant) with the same per-message floating-point operation
order as the object engine, so scripted-schedule runs agree bit-for-bit
(covered by the parity tests). Needed because the Fig-5 PCF formulation
deadlocks on low-degree topologies (message crossing, see the findings in
DESIGN.md), so the bus-network experiments and large-scale hardened sweeps
run on this engine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.vectorized.base import VectorizedEngine


class VectorPushCancelFlowHardened(VectorizedEngine):
    """Vectorized hardened PCF, ``efficient`` phi bookkeeping."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        n, md, d = self.n, self._arrays.max_degree, self._d
        self._fval = np.zeros((n, md, 2, d))
        self._fw = np.zeros((n, md, 2))
        self._r = np.zeros((n, md), dtype=np.int64)
        self._frozen_val = np.zeros((n, md, d))
        self._frozen_w = np.zeros((n, md))
        self._phi_val = np.zeros((n, d))
        self._phi_w = np.zeros(n)
        # initiator[i, s]: node i initiates on its edge toward nbr[i, s].
        nbr = self._arrays.nbr
        self._initiator = (np.arange(n)[:, None] < nbr) & (nbr >= 0)
        self.cancellations = 0
        self.catch_ups = 0

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._v0 - self._phi_val, self._w0 - self._phi_w

    def max_flow_magnitude(self) -> float:
        return max(
            float(np.max(np.abs(self._fval))) if self._fval.size else 0.0,
            float(np.max(np.abs(self._fw))) if self._fw.size else 0.0,
        )

    def node_flow_magnitudes(self) -> np.ndarray:
        """Per-node largest flow magnitude, shape (n,) — probe input."""
        if not self._fval.size:
            return np.zeros(self.n)
        per_val = np.max(np.abs(self._fval), axis=(1, 2, 3))
        per_w = np.max(np.abs(self._fw), axis=(1, 2))
        return np.maximum(per_val, per_w)

    def passive_flow_magnitude(self) -> float:
        """Largest *passive*-slot flow magnitude — cancellation progress."""
        if not self._fval.size:
            return 0.0
        passive = (1 - (self._r % 2)).astype(np.int64)
        p_val = np.take_along_axis(
            self._fval, passive[:, :, None, None], axis=2
        )
        p_w = np.take_along_axis(self._fw, passive[:, :, None], axis=2)
        return max(float(np.max(np.abs(p_val))), float(np.max(np.abs(p_w))))

    def max_era(self) -> int:
        """Highest role-swap era counter reached on any edge."""
        return int(np.max(self._r)) if self._r.size else 0

    def _zero_failed_links(self, nodes, slots) -> None:
        # Same phi fold-out as PCF (phi = phi - (flow[0] + flow[1])), plus
        # the hardened engine's frozen reference copies are discarded.
        total_val = self._fval[nodes, slots, 0] + self._fval[nodes, slots, 1]
        total_w = self._fw[nodes, slots, 0] + self._fw[nodes, slots, 1]
        np.subtract.at(self._phi_val, nodes, total_val)
        np.subtract.at(self._phi_w, nodes, total_w)
        self._fval[nodes, slots] = 0.0
        self._fw[nodes, slots] = 0.0
        self._r[nodes, slots] = 0
        self._frozen_val[nodes, slots] = 0.0
        self._frozen_w[nodes, slots] = 0.0

    def _reset_nodes(self, nodes) -> None:
        # Fresh zero flows, eras, frozen copies and phi — same as the object
        # algorithm's reset_for_join (initiator flags are id-derived and
        # unchanged).
        self._fval[nodes] = 0.0
        self._fw[nodes] = 0.0
        self._r[nodes] = 0
        self._frozen_val[nodes] = 0.0
        self._frozen_w[nodes] = 0.0
        self._phi_val[nodes] = 0.0
        self._phi_w[nodes] = 0.0

    def _apply_round(self, senders, slots, delivered) -> None:
        receivers, r_slots = self._receiver_indices(senders, slots)
        cancels, catch_ups = self._kernels.pcf_hardened_round(
            self._fval,
            self._fw,
            self._r,
            self._frozen_val,
            self._frozen_w,
            self._initiator,
            self._phi_val,
            self._phi_w,
            self._v0,
            self._w0,
            senders,
            slots,
            receivers,
            r_slots,
            delivered,
        )
        self.cancellations += cancels
        self.catch_ups += catch_ups
