"""The kernel-backend contract for the vectorized engines.

A :class:`KernelBackend` owns the *hot inner round* of every vectorized
algorithm: the fused send/accumulate update that
:meth:`repro.vectorized.base.VectorizedEngine._apply_round` runs once per
round. Everything around the kernel — schedule drawing, loss masking,
topology arrays, estimates, link-failure handling, dynamic-topology
deltas, observers — stays in the engines and is backend-independent.

The contract is deliberately data-only: kernels receive plain ``ndarray``
state (mutated in place) plus the round's message arrays, and return at
most a couple of counters. That keeps every implementation swappable and
lets compiled backends (numba) receive exactly the same arguments as the
NumPy reference.

Semantics every backend must honour (the parity suites enforce this
against the object engine):

- **Phase separation.** All send-side updates happen before any
  delivery: the flow kernels receive the pre-round estimate pair
  ``(est_val, est_w)`` (the engine's read-only shared pair, never
  written), payloads are snapshots taken after the send phase, and
  receiver updates never feed back into the same round's sends.
- **Sender-order accumulation.** Within a round, receiver-side updates
  that can collide (push-sum mass, PCF phi deltas) are applied in
  ascending message order — the order ``np.add.at`` uses and the order
  the object engine delivers in. This is what makes the NumPy reference
  bit-for-bit reproducible; compiled backends keep the same order so any
  deviation is limited to instruction-level rounding (e.g. FMA
  contraction), which the close-tolerance parity suite bounds.
- **Unique sender slots.** Each sender appears at most once per round and
  receiver ``(node, slot)`` pairs are unique, so per-edge state updates
  are collision-free by construction. Senders arrive strictly ascending,
  so a round in which all ``n`` nodes send has ``senders == arange(n)``.
- **Contiguous state.** State arrays are C-contiguous; the NumPy
  reference writes through flat views and raises
  :class:`~repro.exceptions.ConfigurationError` on anything else.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np


class KernelBackend(abc.ABC):
    """Fused per-round kernels for all four vectorized algorithms."""

    #: Backend identifier recorded in campaign results and bench entries.
    name: str = "abstract"
    #: True when the kernels are JIT-compiled (vs interpreted/NumPy).
    compiled: bool = False

    @abc.abstractmethod
    def push_sum_round(
        self,
        val: np.ndarray,  # (n, d) in/out
        w: np.ndarray,  # (n,) in/out
        senders: np.ndarray,  # (k,) int64
        receivers: np.ndarray,  # (k,) int64
        delivered: np.ndarray,  # (k,) bool
    ) -> None:
        """One push-sum round: halve sender mass, deliver in sender order."""

    @abc.abstractmethod
    def push_flow_round(
        self,
        fval: np.ndarray,  # (n, md, d) in/out
        fw: np.ndarray,  # (n, md) in/out
        est_val: np.ndarray,  # (n, d) pre-round estimate values (read-only)
        est_w: np.ndarray,  # (n,) pre-round estimate weights (read-only)
        senders: np.ndarray,
        slots: np.ndarray,
        receivers: np.ndarray,
        r_slots: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """One push-flow round: each sender adds half its estimate to the
        chosen flow, receivers mirror the payload."""

    @abc.abstractmethod
    def pcf_round(
        self,
        fval: np.ndarray,  # (n, md, 2, d) in/out
        fw: np.ndarray,  # (n, md, 2) in/out
        c: np.ndarray,  # (n, md) int8 role bits, in/out
        r: np.ndarray,  # (n, md) int64 era counters, in/out
        phi_val: np.ndarray,  # (n, d) in/out
        phi_w: np.ndarray,  # (n,) in/out
        est_val: np.ndarray,  # (n, d) pre-round v0 - phi_val (read-only)
        est_w: np.ndarray,  # (n,) pre-round w0 - phi_w (read-only)
        senders: np.ndarray,
        slots: np.ndarray,
        receivers: np.ndarray,
        r_slots: np.ndarray,
        delivered: np.ndarray,
    ) -> Tuple[int, int]:
        """One push-cancel-flow round; returns ``(cancellations, swaps)``."""

    @abc.abstractmethod
    def pcf_hardened_round(
        self,
        fval: np.ndarray,  # (n, md, 2, d) in/out
        fw: np.ndarray,  # (n, md, 2) in/out
        r: np.ndarray,  # (n, md) int64 era counters, in/out
        frozen_val: np.ndarray,  # (n, md, d) in/out
        frozen_w: np.ndarray,  # (n, md) in/out
        initiator: np.ndarray,  # (n, md) bool (read-only)
        phi_val: np.ndarray,
        phi_w: np.ndarray,
        est_val: np.ndarray,
        est_w: np.ndarray,
        senders: np.ndarray,
        slots: np.ndarray,
        receivers: np.ndarray,
        r_slots: np.ndarray,
        delivered: np.ndarray,
    ) -> Tuple[int, int]:
        """One hardened-PCF round; returns ``(cancellations, catch_ups)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} compiled={self.compiled}>"
