"""Vectorized push-sum / push-flow / push-cancel-flow engines.

Each class executes the synchronous round semantics of its object-engine
counterpart (:mod:`repro.algorithms`): the hot per-round update is
delegated to the round kernels
(:class:`repro.vectorized.backends.NumpyKernels`), which keep the
floating-point operation *order* identical to the object engine —
per-message combined phi deltas applied in sender order via
``np.add.at`` — so scripted-schedule runs agree bit-for-bit between the
two engines (verified by the parity tests). The kernels take the
pre-round estimate from
:meth:`~repro.vectorized.base.VectorizedEngine.shared_estimate`.
Everything else — estimates (PF's left-to-right flow sum lives only in
:meth:`VectorPushFlow._estimate`), flow diagnostics, link-failure and
churn state transitions — stays here.

Every mass array is fused: its rows hold the ``d`` values, then the
weight, so each statement below updates a (value, weight) pair at once.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.vectorized.base import VectorizedEngine


class VectorPushSum(VectorizedEngine):
    """Vectorized push-sum (the fragile baseline at scale)."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        self._mass = self._mass0.copy()

    def _estimate(self) -> np.ndarray:
        return self._mass.copy()

    def _reset_nodes(self, nodes) -> None:
        # Rejoin with the initial mass; whatever mass the node carried away
        # at departure is gone — push-sum's churn fragility.
        self._state_version += 1
        self._mass[nodes] = self._mass0[nodes]

    def _apply_round(self, senders, slots, delivered) -> None:
        self._state_version += 1
        receivers, _ = self._receiver_indices(senders, slots)
        self._kernels.push_sum_round(self._mass, senders, receivers, delivered)


class _FlowEngine(VectorizedEngine):
    """Flow diagnostics of the engines that keep flows per edge slot."""

    def max_flow_magnitude(self) -> float:
        """Largest flow magnitude — grows with n under PF (the blow-up
        diagnostic), stays O(estimate) under PCF's cancellation."""
        return float(np.max(np.abs(self._flow))) if self._flow.size else 0.0

    def node_flow_magnitudes(self) -> np.ndarray:
        """Per-node largest flow magnitude, shape (n,) — probe input."""
        if not self._flow.size:
            return np.zeros(self.n)
        return np.abs(self._flow).reshape(self.n, -1).max(axis=1)


class VectorPushFlow(_FlowEngine):
    """Vectorized push-flow, ``recompute`` variant (Fig. 1 semantics)."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        self._flow = np.zeros((self.n, self._arrays.max_degree, self._d + 1))

    def _estimate(self) -> np.ndarray:
        # Mirror the object engine's rounding exactly: accumulate the flow
        # sum left-to-right over sorted-neighbor slots first, then subtract
        # it from the initial data in one operation (padded slots hold
        # exact zeros, which cannot perturb the rounding).
        flow = self._flow
        if self._d == 1 and flow.flags.c_contiguous:
            # A (value, weight) row read as one complex128: each slot add
            # is one long loop over nodes instead of a two-element loop per
            # node, and still two IEEE additions per pair.
            flow = flow.view(np.complex128)[..., 0]
        total = np.zeros(flow.shape[:1] + flow.shape[2:], flow.dtype)
        for s in range(self._arrays.max_degree):
            total += flow[:, s]
        return self._mass0 - total.view(np.float64).reshape(self._mass0.shape)

    def _zero_failed_links(self, nodes, slots) -> None:
        # Object PF (recompute) drops the edge's flow record entirely, which
        # is equivalent to an exact-zero flow on that slot.
        self._state_version += 1
        self._flow[nodes, slots] = 0.0

    def _reset_nodes(self, nodes) -> None:
        # Fresh zero flows; the estimate reverts to the initial data.
        self._state_version += 1
        self._flow[nodes] = 0.0

    def _apply_round(self, senders, slots, delivered) -> None:
        est = self.shared_estimate()
        self._state_version += 1
        receivers, r_slots = self._receiver_indices(senders, slots)
        self._kernels.push_flow_round(
            self._flow, est, senders, slots, receivers, r_slots, delivered
        )


class CancelFlowEngine(_FlowEngine):
    """State shared by the two push-cancel-flow engines (``efficient`` phi
    bookkeeping): two flow copies per edge, era counters and phi."""

    def __init__(self, topology, values, weights, **kwargs) -> None:
        super().__init__(topology, values, weights, **kwargs)
        n, md, k = self.n, self._arrays.max_degree, self._d + 1
        self._flow = np.zeros((n, md, 2, k))
        self._r = np.zeros((n, md), dtype=np.int64)
        self._phi = np.zeros((n, k))
        self.cancellations = 0

    def _estimate(self) -> np.ndarray:
        return self._mass0 - self._phi

    @abc.abstractmethod
    def _passive_roles(self) -> np.ndarray:
        """Per-slot index (0 or 1) of the passive flow copy."""

    def passive_flow_magnitude(self) -> float:
        """Largest *passive*-slot flow magnitude — cancellation progress."""
        if not self._flow.size:
            return 0.0
        passive = self._passive_roles().astype(np.int64)
        p = np.take_along_axis(self._flow, passive[:, :, None, None], axis=2)
        return float(np.max(np.abs(p)))

    def max_era(self) -> int:
        """Highest role-swap era counter reached on any edge."""
        return int(np.max(self._r)) if self._r.size else 0

    def _zero_failed_links(self, nodes, slots) -> None:
        # Object PCF (efficient) folds the edge's total flow back out of phi
        # (phi = phi - (flow[0] + flow[1])) before dropping the edge state;
        # a node losing several edges subtracts them in the given order.
        self._state_version += 1
        total = self._flow[nodes, slots, 0] + self._flow[nodes, slots, 1]
        np.subtract.at(self._phi, nodes, total)
        self._flow[nodes, slots] = 0.0
        self._r[nodes, slots] = 0

    def _reset_nodes(self, nodes) -> None:
        # Fresh zero flows, eras and phi — same as the object algorithms'
        # reset_for_join.
        self._state_version += 1
        self._flow[nodes] = 0.0
        self._r[nodes] = 0
        self._phi[nodes] = 0.0


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
        est = self.shared_estimate()
        self._state_version += 1
        receivers, r_slots = self._receiver_indices(senders, slots)
        cancels, swaps = self._kernels.pcf_round(
            self._flow,
            self._c,
            self._r,
            self._phi,
            est,
            senders,
            slots,
            receivers,
            r_slots,
            delivered,
        )
        self.cancellations += cancels
        self.swaps += swaps
