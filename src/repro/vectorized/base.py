"""Shared machinery of the vectorized gossip engines.

The vectorized engines execute the *same* synchronous round semantics as
:class:`repro.simulation.engine.SynchronousEngine` — phase-separated sends,
snapshot transport, receiver updates in sender order — but express every
phase as NumPy array operations over all nodes at once. They exist because
the paper's scaling study (Figs. 3/6) goes up to 2^15 nodes, far beyond
what per-message Python objects can simulate in reasonable time.

Scope: failure-free runs plus i.i.d. message loss. Permanent-failure
experiments (Figs. 4/7) run at n=64 where the object engine is the right
tool. Parity between the two engines on identical scripted schedules is
covered by tests (see :mod:`repro.vectorized.parity`).

Value payloads may be vectors: state arrays carry a trailing dimension
``d``, so one engine run can carry a whole batch of reductions under a
shared schedule — the distributed QR uses this to push all dot products of
a Gram-Schmidt step through a single reduction.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulation.observers import Observer, ObserverList
from repro.topology.base import Topology
from repro.vectorized.backends import KernelBackend, resolve_backend
from repro.vectorized.topology_arrays import TopologyArrays

StopCondition = Callable[["VectorizedEngine", int], bool]


def _as_matrix(values: np.ndarray, n: int) -> np.ndarray:
    """Coerce per-node values to an (n, d) float64 matrix."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ConfigurationError(
            f"initial values must have shape ({n},) or ({n}, d), got {arr.shape}"
        )
    return np.array(arr, copy=True)


class VectorizedEngine(abc.ABC):
    """Base class: schedule drawing, loss masking, run loop, estimates."""

    def __init__(
        self,
        topology: Union[Topology, TopologyArrays],
        values: np.ndarray,
        weights: np.ndarray,
        *,
        seed: int = 0,
        loss_probability: float = 0.0,
        targets: Optional[np.ndarray] = None,
        observers: Sequence[Observer] = (),
        backend: Union[str, KernelBackend, None] = None,
    ) -> None:
        # The batched executor pre-assembles a stacked TopologyArrays for a
        # whole run batch; single runs pass a Topology as before.
        if isinstance(topology, TopologyArrays):
            self._arrays = topology
        else:
            self._arrays = TopologyArrays.from_topology(topology)
        n = self._arrays.n
        self._v0 = _as_matrix(values, n)
        self._w0 = np.asarray(weights, dtype=np.float64).reshape(n).copy()
        self._d = self._v0.shape[1]
        if not 0.0 <= loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self._loss = float(loss_probability)
        self._kernels = resolve_backend(backend)
        self._rng = np.random.default_rng(seed)
        from repro.telemetry.session import session_observers

        self._observer = ObserverList(
            list(observers) + session_observers(self, engine_kind="vector")
        )
        self._run_started = False
        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        # Message totals of unsampled rounds, flushed in one batched
        # on_round_messages call at the next sampled round (or run end).
        self._pending_sent = 0
        self._pending_delivered = 0
        if targets is not None:
            targets = np.asarray(targets, dtype=np.int64)
            if targets.ndim != 2 or targets.shape[1] != n:
                raise ConfigurationError(
                    f"scripted targets must be (rounds, {n}), got {targets.shape}"
                )
        self._scripted_targets = targets
        self._slot_lookup: Optional[Tuple[np.ndarray, int]] = None
        self._receiver_table: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Every full round sends from all nodes, loss-free ones deliver all.
        self._all_senders = np.arange(n)
        self._all_delivered = np.ones(n, dtype=bool)
        self._all_senders.setflags(write=False)
        self._all_delivered.setflags(write=False)
        # Bumped by every mutation of protocol state: the kernel round,
        # _zero_failed_links and _reset_nodes. It keys the shared pair.
        self._state_version = 0
        self._shared_pair: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._arrays.n

    @property
    def dimension(self) -> int:
        return self._d

    @property
    def round(self) -> int:
        return self._round

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def backend(self) -> KernelBackend:
        """The resolved kernel backend running this engine's rounds."""
        return self._kernels

    @property
    def backend_name(self) -> str:
        return self._kernels.name

    def live_nodes(self) -> list:
        """All nodes — the vectorized engines model no permanent failures.

        Exists so round-level observers (traces, probes) can treat every
        engine uniformly.
        """
        return list(range(self._arrays.n))

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(values (n, d), weights (n,))`` estimate pairs, freshly
        computed into arrays the caller owns."""

    @abc.abstractmethod
    def _apply_round(
        self, senders: np.ndarray, slots: np.ndarray, delivered: np.ndarray
    ) -> None:
        """Execute one round for senders[k] sending on slots[k].

        ``delivered[k]`` is False when the transport dropped message ``k``;
        the *send-side* bookkeeping must still happen (the virtual send
        precedes the physical one). Like every state mutation, it bumps
        ``_state_version``; flow kernels read the pre-round shared pair.
        """

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def shared_estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The current estimate pair, computed once per state version.

        The arrays are read-only and shared: the stop rule, the probes and
        the next round's kernel (which takes the pre-round pair) all read
        this one copy, so a round pays for at most one estimate.
        """
        cached = self._shared_pair
        if cached is None or cached[0] != self._state_version:
            values, weights = self.estimate_pairs()
            values.setflags(write=False)
            weights.setflags(write=False)
            cached = self._shared_pair = (self._state_version, values, weights)
        return cached[1], cached[2]

    def estimates(self) -> np.ndarray:
        """Per-node aggregate estimates, shape (n, d)."""
        values, weights = self.shared_estimate_pairs()
        with np.errstate(divide="ignore", invalid="ignore"):
            return values / weights[:, None]

    def step(self) -> None:
        # Per-message callbacks are unaffordable at 2^15 nodes; observed
        # runs get the batched hooks plus per-round phase timings instead,
        # and unobserved runs skip the timing calls entirely. Sampled
        # telemetry thins further: unsampled rounds skip phase timing and
        # accumulate their message totals for the next batched flush.
        observed = bool(self._observer)
        if observed and not self._run_started:
            self._run_started = True
            self._observer.on_run_start(self)
        detailed = observed and self._observer.wants_detail(self._round)
        t0 = time.perf_counter() if detailed else 0.0
        n = self._arrays.n
        senders = self._all_senders
        if self._scripted_targets is not None:
            if self._round >= len(self._scripted_targets):
                raise ConfigurationError(
                    f"scripted schedule exhausted at round {self._round}"
                )
            target_nodes = self._scripted_targets[self._round]
            active = target_nodes >= 0
            senders = senders[active]
            slots = self._slots_for_targets(senders, target_nodes[active])
        else:
            # Native fast schedule: one uniform draw per node per round;
            # draws * degree >= 0, so truncation is the floor.
            draws = self._rng.random(n)
            slots = (draws * self._arrays.degree).astype(np.int64)

        sent = len(senders)
        if self._loss > 0.0:
            delivered = self._rng.random(sent) >= self._loss
            delivered_count = int(np.count_nonzero(delivered))
        else:
            delivered = self._all_delivered[:sent]
            delivered_count = sent
        self._messages_sent += sent
        self._messages_delivered += delivered_count
        if detailed:
            t1 = time.perf_counter()
            self._observer.on_phase_end(self, "send", t1 - t0)
            t0 = t1
        self._apply_round(senders, slots, delivered)
        round_index = self._round
        self._round += 1
        if observed:
            if detailed:
                self._observer.on_phase_end(
                    self, "deliver", time.perf_counter() - t0
                )
                self._observer.on_round_messages(
                    self,
                    round_index,
                    self._pending_sent + sent,
                    self._pending_delivered + delivered_count,
                )
                self._pending_sent = 0
                self._pending_delivered = 0
            else:
                self._pending_sent += sent
                self._pending_delivered += delivered_count
            self._observer.on_round_end(self, round_index)

    def run(
        self,
        max_rounds: int,
        *,
        stop_when: Optional[StopCondition] = None,
        check_every: int = 1,
    ) -> int:
        """Run up to ``max_rounds`` rounds; returns rounds executed.

        ``stop_when(engine, round_index)`` is consulted every
        ``check_every`` rounds (error oracles cost an O(n d) pass, so large
        sweeps check every few rounds).
        """
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        executed = 0
        while executed < max_rounds:
            self.step()
            executed += 1
            # The horizon itself is always checked, even when it is not a
            # multiple of check_every — otherwise convergence in the final
            # max_rounds % check_every rounds would be misreported.
            if (
                stop_when is not None
                and (executed % check_every == 0 or executed == max_rounds)
                and stop_when(self, self._round - 1)
            ):
                break
        if self._observer:
            if self._round > 0 and (self._pending_sent or self._pending_delivered):
                # Flush message totals accumulated on unsampled rounds.
                self._observer.on_round_messages(
                    self,
                    self._round - 1,
                    self._pending_sent,
                    self._pending_delivered,
                )
                self._pending_sent = 0
                self._pending_delivered = 0
            self._observer.on_run_end(self, executed)
        return executed

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _slots_for_targets(
        self, senders: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Translate absolute target node ids into neighbor slots.

        Uses a precomputed inverse lookup: each row of ``nbr`` is sorted
        ascending (padding mapped past every valid id), so flattening with a
        per-row offset yields one globally ascending key array and a single
        ``searchsorted`` resolves every (sender, target) pair at once.
        """
        arrays = self._arrays
        n, max_degree = arrays.n, arrays.max_degree
        if max_degree == 0:
            if len(senders):
                i, j = int(senders[0]), int(targets[0])
                raise ConfigurationError(
                    f"scripted target {j} is not a neighbor of {i}"
                )
            return np.empty(0, dtype=np.int64)
        if self._slot_lookup is None:
            # Padding (-1) becomes key i*(n+1)+n, which no valid target
            # i*(n+1)+j with j in [0, n) can ever equal.
            padded = np.where(arrays.nbr >= 0, arrays.nbr, n).astype(np.int64)
            keys = (padded + np.arange(n, dtype=np.int64)[:, None] * (n + 1)).ravel()
            self._slot_lookup = (keys, n + 1)
        keys, stride = self._slot_lookup
        senders = np.asarray(senders, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        in_range = (targets >= 0) & (targets < n)
        wanted = senders * stride + np.where(in_range, targets, 0)
        pos = np.searchsorted(keys, wanted)
        row_start = senders * max_degree
        valid = (
            in_range
            & (pos >= row_start)
            & (pos < row_start + max_degree)
            & (keys[np.minimum(pos, len(keys) - 1)] == wanted)
        )
        if not valid.all():
            k = int(np.nonzero(~valid)[0][0])
            i, j = int(senders[k]), int(targets[k])
            raise ConfigurationError(
                f"scripted target {j} is not a neighbor of {i}"
            )
        return (pos - row_start).astype(np.int64)

    def _receiver_indices(
        self, senders: np.ndarray, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Receivers and the receiver-side slots for these sends."""
        if self._receiver_table is None:
            # int64 copies indexed by flat edge id (node * max_degree + slot).
            self._receiver_table = (
                self._arrays.nbr.astype(np.int64).ravel(),
                self._arrays.slot_of.astype(np.int64).ravel(),
            )
        nbr, slot_of = self._receiver_table
        edge = senders * self._arrays.max_degree + slots
        return nbr[edge], slot_of[edge]

    def _zero_failed_links(self, nodes: np.ndarray, slots: np.ndarray) -> None:
        """Forget per-edge protocol state at ``(nodes[k], slots[k])``.

        Mirrors the object engines' ``on_link_failed`` handling for the
        batched executor: each endpoint discards its edge state when a
        permanent link failure is detected. Push-sum keeps no per-edge
        state, so the base implementation is a no-op. The (node, slot)
        pairs passed in are distinct, but a node may repeat: its fold-outs
        apply in the given order, as one event after another would.
        """

    def _reset_nodes(self, nodes: np.ndarray) -> None:
        """Reset ``nodes`` to their initial protocol state (node rejoin).

        Mirrors the object algorithms' ``reset_for_join``: a rejoining node
        re-enters with its initial mass and all-zero per-edge state. Used by
        the batched executor's dynamic-topology support.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support node rejoin"
        )
