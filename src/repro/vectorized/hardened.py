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

import numpy as np

from repro.vectorized.engines import CancelFlowEngine


class VectorPushCancelFlowHardened(CancelFlowEngine):
    """Vectorized hardened PCF, ``efficient`` phi bookkeeping."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        n, md = self.n, self._arrays.max_degree
        self._frozen = np.zeros((n, md, self._d + 1))
        # initiator[i, s]: node i initiates on its edge toward nbr[i, s].
        nbr = self._arrays.nbr
        self._initiator = (np.arange(n)[:, None] < nbr) & (nbr >= 0)
        self.catch_ups = 0

    def _passive_roles(self) -> np.ndarray:
        return 1 - (self._r % 2)

    def _zero_failed_links(self, nodes, slots) -> None:
        # Same phi fold-out as PCF, plus the frozen reference copies are
        # discarded.
        super()._zero_failed_links(nodes, slots)
        self._frozen[nodes, slots] = 0.0

    def _reset_nodes(self, nodes) -> None:
        # As PCF, plus fresh frozen copies (initiator flags are id-derived
        # and unchanged).
        super()._reset_nodes(nodes)
        self._frozen[nodes] = 0.0

    def _apply_round(self, senders, slots, delivered) -> None:
        est = self.shared_estimate()
        self._state_version += 1
        receivers, r_slots = self._receiver_indices(senders, slots)
        cancels, catch_ups = self._kernels.pcf_hardened_round(
            self._flow,
            self._r,
            self._frozen,
            self._initiator,
            self._phi,
            est,
            senders,
            slots,
            receivers,
            r_slots,
            delivered,
        )
        self.cancellations += cancels
        self.catch_ups += catch_ups
