"""Batched vectorized execution: R independent runs as one NumPy program.

Campaign sweeps execute the same (algorithm, topology-shape, rounds)
signature across a whole seed axis; running those cells one at a time
leaves most of the speedup of the vectorized engines on the table. This
module stacks R independent runs into a single disjoint-union graph —
run ``r``'s node ``i`` becomes global node ``r*n + i`` — and drives the
*existing* vectorized engine kernels over the union, so an entire
campaign axis executes as one whole-array program.

Correctness rests on two observations:

- the union graph has no edges between runs, so per-round scatters for
  different runs touch disjoint state; and
- messages are assembled run-major (run 0's senders first, then run 1's,
  ...), so within each run the accumulation order of ``np.add.at``
  collisions is exactly the order a single-run engine would use. Padded
  slots hold exact zeros. Together this makes every run's state
  *bit-for-bit identical* to running it alone (the parity tests assert
  this for push-sum, PF, PCF and hardened PCF).

Per-run features on top of the stacked kernels:

- independent RNG streams (one ``np.random.Generator`` per run, spawned
  by the caller — e.g. via ``np.random.SeedSequence.spawn``);
- per-run i.i.d. message-loss probabilities;
- per-run scripted schedules (for parity testing);
- per-run permanent link failures with the object engine's two-instant
  semantics: from ``round`` the link swallows messages (senders still
  pick it), at ``round + detection_delay`` both endpoints discard their
  edge state (:meth:`VectorizedEngine._zero_failed_links`) and exclude
  the neighbor from future schedule draws;
- early retirement: ``stop_when`` returns a per-run mask and retired
  (e.g. converged) runs stop sending while the rest of the batch keeps
  going, freezing their state at the retirement round.

:class:`BatchedErrorHistory` and :class:`BatchedMassProbe` are the
whole-batch equivalents of :class:`repro.metrics.history.ErrorHistory`
and :class:`repro.telemetry.probes.MassConservationProbe`, so the
campaign runner can emit records that are schema-identical to the
object-engine path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamics.schedule import TopologySchedule
from repro.exceptions import ConfigurationError
from repro.faults.events import LinkFailure
from repro.topology.base import Topology
from repro.vectorized.base import _as_matrix
from repro.vectorized.parity import vector_engine_for
from repro.vectorized.topology_arrays import TopologyArrays

#: ``stop_when(engine, round_index)`` returns a per-run retirement mask
#: (shape ``(n_runs,)``; True retires the run) or None to keep going.
BatchStopCondition = Callable[
    ["BatchedEngine", int], Optional[np.ndarray]
]

#: ``on_round(engine, round_index)`` — invoked after every executed round,
#: before the stop condition; batched observers record their series here.
BatchRoundHook = Callable[["BatchedEngine", int], None]


@dataclasses.dataclass
class BatchedRun:
    """One run of a batch: its topology, initial state, and fault setup."""

    topology: Topology
    values: np.ndarray
    weights: np.ndarray
    #: Seed material for this run's private stream — anything
    #: ``np.random.default_rng`` accepts (Generator, SeedSequence, int).
    rng: Union[np.random.Generator, np.random.SeedSequence, int, None] = None
    loss_probability: float = 0.0
    #: Scripted ``(rounds, n)`` targets (-1 = silent), or None for the
    #: native uniform-gossip schedule drawn from ``rng``.
    targets: Optional[np.ndarray] = None
    link_failures: Tuple[LinkFailure, ...] = ()
    #: Dynamic-topology schedule (churn / partition / outage) applied to
    #: this run with the object engine's transition-instant semantics.
    topology_schedule: Optional[TopologySchedule] = None
    #: Per-run round cap: the run retires (state frozen) once it has
    #: executed this many rounds, independent of the batch horizon. None
    #: leaves the run bounded only by ``run(max_rounds)`` — this is how a
    #: batch multiplexes jobs with different round budgets.
    max_rounds: Optional[int] = None


def _stack_topologies(
    arrays: Sequence[TopologyArrays],
) -> TopologyArrays:
    """Disjoint union of per-run topologies, run ``r`` offset by ``r*n``."""
    n = arrays[0].n
    runs = len(arrays)
    max_degree = max(a.max_degree for a in arrays)
    total = runs * n
    nbr = np.full((total, max_degree), -1, dtype=np.int32)
    slot_of = np.full((total, max_degree), -1, dtype=np.int32)
    degree = np.zeros(total, dtype=np.int32)
    for r, a in enumerate(arrays):
        base = r * n
        block = a.nbr.astype(np.int64)
        nbr[base : base + n, : a.max_degree] = np.where(
            block >= 0, block + base, -1
        ).astype(np.int32)
        slot_of[base : base + n, : a.max_degree] = a.slot_of
        degree[base : base + n] = a.degree
    nbr.setflags(write=False)
    slot_of.setflags(write=False)
    degree.setflags(write=False)
    return TopologyArrays(
        n=total, max_degree=max_degree, nbr=nbr, slot_of=slot_of, degree=degree
    )


class BatchedEngine:
    """Execute R independent runs of one algorithm as a single program."""

    def __init__(
        self,
        algorithm: str,
        runs: Sequence[BatchedRun],
        *,
        backend: Union[str, None] = None,
    ) -> None:
        if not runs:
            raise ConfigurationError("a batch needs at least one run")
        self._runs = len(runs)
        n = runs[0].topology.n
        self._n = n
        per_arrays = []
        values_parts = []
        weights_parts = []
        for r, run in enumerate(runs):
            if run.topology.n != n:
                raise ConfigurationError(
                    f"batch run {r} has n={run.topology.n}, expected {n} — "
                    "all runs of a batch must share the node count"
                )
            per_arrays.append(TopologyArrays.from_topology(run.topology))
            values_parts.append(_as_matrix(run.values, n))
            weights_parts.append(
                np.asarray(run.weights, dtype=np.float64).reshape(n)
            )
            if not 0.0 <= float(run.loss_probability) <= 1.0:
                raise ConfigurationError(
                    f"batch run {r}: loss_probability must be in [0, 1], "
                    f"got {run.loss_probability}"
                )
        d = values_parts[0].shape[1]
        for r, v in enumerate(values_parts):
            if v.shape[1] != d:
                raise ConfigurationError(
                    f"batch run {r} has value dimension {v.shape[1]}, "
                    f"expected {d}"
                )
        self._d = d
        arrays = _stack_topologies(per_arrays)
        self._arrays = arrays
        cls = vector_engine_for(algorithm)
        self._engine = cls(
            arrays,
            np.vstack(values_parts),
            np.concatenate(weights_parts),
            seed=0,
            backend=backend,
        )
        self._rngs = [np.random.default_rng(run.rng) for run in runs]
        self._loss = np.array(
            [float(run.loss_probability) for run in runs]
        )
        # Scripted schedules, stacked (scripted runs, rounds, n) and padded
        # with -1 (silent) past each run's own length; _script_of maps a
        # run to its row (-1 for runs on the native schedule).
        scripts = []
        self._script_of = np.full(self._runs, -1, dtype=np.int64)
        for r, run in enumerate(runs):
            if run.targets is None:
                continue
            targets = np.asarray(run.targets, dtype=np.int64)
            if targets.ndim != 2 or targets.shape[1] != n:
                raise ConfigurationError(
                    f"batch run {r}: scripted targets must be "
                    f"(rounds, {n}), got {targets.shape}"
                )
            self._script_of[r] = len(scripts)
            scripts.append(targets)
        self._script_len = np.array([len(t) for t in scripts], dtype=np.int64)
        self._script = np.full(
            (len(scripts), int(self._script_len.max(initial=0)), n),
            -1,
            dtype=np.int64,
        )
        for i, targets in enumerate(scripts):
            self._script[i, : len(targets)] = targets

        # Schedule-visible neighborhood: live_list[i, :live_degree[i]] are
        # the slots node i may still draw; handled link failures shrink it.
        total = arrays.n
        md = arrays.max_degree
        self._slot_alive = (
            np.arange(md)[None, :] < arrays.degree[:, None]
        )
        self._live_degree = arrays.degree.astype(np.int64).copy()
        self._live_list = np.where(
            self._slot_alive, np.arange(md)[None, :], 0
        ).astype(np.int64)
        # Transport-dead slots: messages sent on them vanish (the sender
        # still spends its round on them until the failure is handled).
        self._blocked = np.zeros((total, md), dtype=bool)
        # Dynamic-topology state. node_alive tracks join/leave membership;
        # perm_dead marks slots taken by *permanent* link failures (which
        # dynamics must never revive); dyn_down holds the currently-downed
        # transient edges as canonical global (min, max) pairs.
        self._node_alive = np.ones(total, dtype=bool)
        self._perm_dead = np.zeros((total, md), dtype=bool)
        self._dyn_down: set = set()
        self._dyn_events: Dict[int, List[Tuple]] = {}
        self._fail_events: Dict[int, List[Tuple[int, int]]] = {}
        self._handle_events: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for r, run in enumerate(runs):
            schedule = run.topology_schedule
            if schedule is not None and not schedule.is_empty():
                schedule.validate_against(run.topology)
                base = r * n
                for delta in schedule.deltas:
                    if delta.kind in ("edge_down", "edge_up"):
                        u, v = delta.edge
                        self._dyn_events.setdefault(delta.round, []).append(
                            (
                                delta.kind,
                                base + u,
                                base + v,
                                run.topology.neighbor_index(u, v),
                                run.topology.neighbor_index(v, u),
                            )
                        )
                    else:
                        self._dyn_events.setdefault(delta.round, []).append(
                            (delta.kind, base + delta.node)
                        )
        for r, run in enumerate(runs):
            base = r * n
            seen_edges = set()
            for lf in run.link_failures:
                u, v = lf.u, lf.v
                if lf.edge in seen_edges:
                    raise ConfigurationError(
                        f"batch run {r}: duplicate link failure on {lf.edge}"
                    )
                seen_edges.add(lf.edge)
                if not (0 <= u < n and 0 <= v < n) or v not in run.topology.neighbors(u):
                    raise ConfigurationError(
                        f"batch run {r}: link failure ({u}, {v}) is not an "
                        "edge of the run's topology"
                    )
                su = run.topology.neighbor_index(u, v)
                sv = run.topology.neighbor_index(v, u)
                gi, gj = base + u, base + v
                self._fail_events.setdefault(lf.round, []).extend(
                    [(gi, su), (gj, sv)]
                )
                self._handle_events.setdefault(lf.handle_round, []).append(
                    (gi, gj, su, sv)
                )

        # Optional kernel profiler: when the campaign runner (or a caller)
        # attaches a PhaseTimer here, every fused `_apply_round` kernel
        # call is timed as phase "kernel". None keeps the hot loop free of
        # any timing overhead.
        self.phase_timer = None

        caps = [run.max_rounds for run in runs]
        if any(c is not None for c in caps):
            for r, c in enumerate(caps):
                if c is not None and c < 0:
                    raise ConfigurationError(
                        f"batch run {r}: max_rounds must be >= 0, got {c}"
                    )
            self._caps: Optional[np.ndarray] = np.array(
                [-1 if c is None else int(c) for c in caps], dtype=np.int64
            )
        else:
            self._caps = None

        self._round = 0
        self._retired = np.zeros(self._runs, dtype=bool)
        if self._caps is not None:
            self._retired |= self._caps == 0
        self._executed = np.zeros(self._runs, dtype=np.int64)
        self._messages_sent = np.zeros(self._runs, dtype=np.int64)
        self._messages_delivered = np.zeros(self._runs, dtype=np.int64)
        self._last_active = np.zeros(self._runs, dtype=bool)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return self._runs

    @property
    def n(self) -> int:
        """Nodes per run (the union graph holds ``n_runs * n``)."""
        return self._n

    @property
    def dimension(self) -> int:
        return self._d

    @property
    def round(self) -> int:
        return self._round

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend driving the stacked engine."""
        return self._engine.backend_name

    @property
    def retired(self) -> np.ndarray:
        return self._retired.copy()

    @property
    def last_round_active(self) -> np.ndarray:
        """Runs that participated in the most recent :meth:`step`."""
        return self._last_active.copy()

    @property
    def run_rounds(self) -> np.ndarray:
        """Rounds each run has executed (retired runs stop counting)."""
        return self._executed.copy()

    @property
    def messages_sent(self) -> np.ndarray:
        return self._messages_sent.copy()

    @property
    def messages_delivered(self) -> np.ndarray:
        return self._messages_delivered.copy()

    @property
    def node_alive(self) -> np.ndarray:
        """Per-run node membership, shape (R, n) — False while departed."""
        return self._node_alive.reshape(self._runs, self._n).copy()

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-run ``(values (R, n, d), weights (R, n))`` estimate pairs."""
        values, weights = self._engine.estimate_pairs()
        return (
            values.reshape(self._runs, self._n, self._d),
            weights.reshape(self._runs, self._n),
        )

    def estimates(self) -> np.ndarray:
        """Per-node aggregate estimates, shape (R, n, d)."""
        return self._engine.estimates().reshape(self._runs, self._n, self._d)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def retire(self, mask: np.ndarray) -> None:
        """Retire runs where ``mask`` is True; their state freezes."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._runs,):
            raise ConfigurationError(
                f"retirement mask must have shape ({self._runs},), "
                f"got {mask.shape}"
            )
        self._retired |= mask

    def step(self) -> None:
        """Execute one synchronous round for every non-retired run."""
        rnd = self._round
        # Topology deltas apply at the very start of the round — between
        # rounds no messages are in flight, so the transition instant is
        # unambiguous (same semantics as the object engine).
        for event in self._dyn_events.get(rnd, ()):
            if not self._retired[event[1] // self._n]:
                self._apply_dyn_event(event)
        for node, slot in self._fail_events.get(rnd, ()):
            self._blocked[node, slot] = True
            self._perm_dead[node, slot] = True

        active = np.flatnonzero(~self._retired)
        if len(active):
            senders, slots, delivered = self._assemble(rnd, active)
            if self.phase_timer is not None:
                t0 = time.perf_counter()
                self._engine._apply_round(senders, slots, delivered)
                self.phase_timer.record(
                    "kernel", time.perf_counter() - t0
                )
            else:
                self._engine._apply_round(senders, slots, delivered)

        for gi, gj, si, sj in self._handle_events.get(rnd, ()):
            self._handle_link(gi, gj, si, sj)

        self._last_active = ~self._retired
        self._executed[active] += 1
        self._round += 1
        if self._caps is not None:
            # A capped run retires the instant it has spent its budget, so
            # its frozen state is exactly the single-engine state after
            # max_rounds rounds — callers with mixed budgets can share a
            # batch without over-running the short ones.
            self._retired |= (self._caps >= 0) & (self._executed >= self._caps)

    def _assemble(
        self, rnd: int, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round's messages for the ``active`` runs, as whole arrays.

        Messages are run-major with ascending senders within a run — the
        order a single-run engine uses, which keeps every run's
        ``np.add.at`` accumulation order, and so its state, bit-for-bit
        identical to running it alone. Each run's generator is drawn in a
        single engine's order: ``random(n)`` for slot picks on the native
        schedule, then ``random(k)`` for loss over its ``k`` messages.
        Updates the per-run message counters.
        """
        n = self._n
        md = self._arrays.max_degree
        scripted = self._script_of[active] >= 0
        native = active[~scripted]
        parts = []
        if len(native):
            # One uniform draw per node per round. Failure-free runs have
            # live_degree == degree and live_list[i, s] == s, so the
            # chosen slots match the single engine bit-for-bit.
            draws = np.empty((len(native), n))
            for row, r in zip(draws, native):
                self._rngs[r].random(out=row)
            if len(native) == self._runs:
                nodes = None  # every node of the batch
                live_deg = self._live_degree
            else:
                nodes = (native[:, None] * n + np.arange(n)).ravel()
                live_deg = self._live_degree[nodes]
            # draws * live_deg >= 0, so truncation is the floor.
            picks = (draws.ravel() * live_deg).astype(np.int64)
            sending = np.flatnonzero(live_deg > 0)
            senders = sending if nodes is None else nodes[sending]
            slots = self._live_list.ravel()[senders * md + picks[sending]]
            parts.append((senders, slots))
        if scripted.any():
            runs = active[scripted]
            rows = self._script_of[runs]
            if (self._script_len[rows] <= rnd).any():
                raise ConfigurationError(
                    f"scripted schedule exhausted at round {rnd}"
                )
            targets = self._script[rows, rnd]
            run_pos, local = np.nonzero(targets >= 0)
            base = runs[run_pos] * n
            senders = base + local
            slots = self._engine._slots_for_targets(
                senders, targets[run_pos, local] + base
            )
            parts.append((senders, slots))
        if len(parts) == 1:
            senders, slots = parts[0]
        else:
            senders = np.concatenate([p[0] for p in parts])
            order = np.argsort(senders, kind="stable")
            senders = senders[order]
            slots = np.concatenate([p[1] for p in parts])[order]

        run_of = senders // n
        lossy = active[self._loss[active] > 0.0]
        if len(lossy):
            # Loss-free runs compare 0.0 >= 0.0 and always deliver.
            uniform = np.zeros(len(senders))
            starts = np.searchsorted(senders, lossy * n)
            ends = np.searchsorted(senders, lossy * n + n)
            for r, lo, hi in zip(lossy, starts, ends):
                self._rngs[r].random(out=uniform[lo:hi])
            delivered = uniform >= self._loss[run_of]
        else:
            delivered = np.ones(len(senders), dtype=bool)
        if self._blocked.any():
            # Physically dead links swallow the message in transport; the
            # sender still spent its round on it (object-engine semantics).
            delivered &= ~self._blocked.ravel()[senders * md + slots]
        sent = np.bincount(run_of, minlength=self._runs)
        self._messages_sent += sent
        self._messages_delivered += (
            sent
            if delivered.all()
            else np.bincount(run_of[delivered], minlength=self._runs)
        )
        return senders, slots, delivered

    def _handle_link(self, gi: int, gj: int, si: int, sj: int) -> None:
        """Failure-detector handling: discard edge state, shrink schedules."""
        # Mark the slots permanently dead first: even when dynamics already
        # downed the edge (slot not alive), a later edge_up / node_join must
        # not revive a permanently failed link.
        self._perm_dead[gi, si] = True
        self._perm_dead[gj, sj] = True
        if not self._slot_alive[gi, si]:
            return
        self._engine._zero_failed_links(
            np.array([gi, gj]), np.array([si, sj])
        )
        for node, slot in ((gi, si), (gj, sj)):
            self._slot_alive[node, slot] = False
            self._blocked[node, slot] = True
            self._recompute_live(node)

    # ------------------------------------------------------------------
    # Dynamic topology (churn / partition / outage)
    # ------------------------------------------------------------------
    def _recompute_live(self, node: int) -> None:
        live = np.nonzero(self._slot_alive[node])[0]
        self._live_list[node, : len(live)] = live
        self._live_list[node, len(live) :] = 0
        self._live_degree[node] = len(live)

    def _apply_dyn_event(self, event: Tuple) -> None:
        kind = event[0]
        if kind == "edge_down":
            self._dyn_edge_down(*event[1:])
        elif kind == "edge_up":
            self._dyn_edge_up(*event[1:])
        elif kind == "node_leave":
            self._dyn_node_leave(event[1])
        else:
            self._dyn_node_join(event[1])

    def _dyn_edge_down(self, gi: int, gj: int, si: int, sj: int) -> None:
        key = (gi, gj) if gi < gj else (gj, gi)
        if key in self._dyn_down or self._perm_dead[gi, si]:
            return
        self._dyn_down.add(key)
        if not self._slot_alive[gi, si]:
            # An endpoint already departed — the edge state was discarded
            # at its departure; only the down marker is recorded.
            return
        self._engine._zero_failed_links(
            np.array([gi, gj]), np.array([si, sj])
        )
        for node, slot in ((gi, si), (gj, sj)):
            self._slot_alive[node, slot] = False
            self._blocked[node, slot] = True
            self._recompute_live(node)

    def _dyn_edge_up(self, gi: int, gj: int, si: int, sj: int) -> None:
        key = (gi, gj) if gi < gj else (gj, gi)
        if key not in self._dyn_down:
            return
        self._dyn_down.discard(key)
        if self._perm_dead[gi, si]:
            return
        if not (self._node_alive[gi] and self._node_alive[gj]):
            # A departed endpoint keeps the edge down; its node_join will
            # revive the slot once both ends are live again.
            return
        for node, slot in ((gi, si), (gj, sj)):
            self._slot_alive[node, slot] = True
            self._blocked[node, slot] = False
            self._recompute_live(node)

    def _dyn_node_leave(self, g: int) -> None:
        if not self._node_alive[g]:
            return
        self._node_alive[g] = False
        for s in range(int(self._arrays.degree[g])):
            if not self._slot_alive[g, s]:
                continue
            gj = int(self._arrays.nbr[g, s])
            sj = int(self._arrays.slot_of[g, s])
            # Survivor discards its edge state (object: on_link_failed);
            # the departing side is frozen and fully reset at rejoin.
            self._engine._zero_failed_links(np.array([gj]), np.array([sj]))
            self._slot_alive[g, s] = False
            self._blocked[g, s] = True
            self._slot_alive[gj, sj] = False
            self._blocked[gj, sj] = True
            self._recompute_live(gj)
        self._recompute_live(g)

    def _dyn_node_join(self, g: int) -> None:
        if self._node_alive[g]:
            return
        self._node_alive[g] = True
        self._engine._reset_nodes(np.array([g]))
        for s in range(int(self._arrays.degree[g])):
            if self._perm_dead[g, s]:
                continue
            gj = int(self._arrays.nbr[g, s])
            sj = int(self._arrays.slot_of[g, s])
            if not self._node_alive[gj]:
                continue
            key = (g, gj) if g < gj else (gj, g)
            if key in self._dyn_down:
                continue
            self._slot_alive[g, s] = True
            self._blocked[g, s] = False
            self._slot_alive[gj, sj] = True
            self._blocked[gj, sj] = False
            self._recompute_live(gj)
        self._recompute_live(g)

    def run(
        self,
        max_rounds: int,
        *,
        stop_when: Optional[BatchStopCondition] = None,
        check_every: int = 1,
        on_round: Optional[BatchRoundHook] = None,
    ) -> np.ndarray:
        """Run up to ``max_rounds`` rounds; returns per-run executed counts.

        ``stop_when(engine, round_index)`` returns a per-run boolean mask
        (True retires the run) and is consulted every ``check_every``
        rounds plus at the horizon; the loop ends early once every run is
        retired. ``on_round`` fires after each executed round, before the
        stop condition — batched observers hook in here.
        """
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be >= 0, got {max_rounds}"
            )
        start = self._executed.copy()
        executed = 0
        while executed < max_rounds and not self._retired.all():
            self.step()
            executed += 1
            if on_round is not None:
                on_round(self, self._round - 1)
            if stop_when is not None and (
                executed % check_every == 0 or executed == max_rounds
            ):
                mask = stop_when(self, self._round - 1)
                if mask is not None:
                    self.retire(mask)
        return self._executed - start


class BatchedErrorHistory:
    """Per-run error series — :class:`ErrorHistory` for a whole batch.

    ``max_errors[r][t]`` is run ``r``'s max local relative error after its
    round ``t``, with the exact semantics of
    :func:`repro.algorithms.aggregates.relative_error`: per node, the
    max-norm deviation over components divided by the truth's max-norm
    scale (1.0 when the truth is exactly zero), ``inf`` for non-finite
    estimates. Retired runs stop recording, so their series end at their
    retirement round.
    """

    def __init__(self, truths: Sequence[float]) -> None:
        truth = np.asarray(truths, dtype=np.float64)
        if truth.ndim == 1:
            truth = truth[:, None]
        self._truth = truth  # (R, d)
        scale = np.abs(truth).max(axis=1)
        self._scale = np.where(scale > 0.0, scale, 1.0)
        self.max_errors: List[List[float]] = [[] for _ in range(len(truth))]

    def on_round_end(self, engine: BatchedEngine, round_index: int) -> None:
        est = engine.estimates()
        with np.errstate(invalid="ignore"):
            diff = np.abs(est - self._truth[:, None, :]).max(axis=2)
        finite = np.isfinite(est).all(axis=2)
        node_err = np.where(
            finite, diff / self._scale[:, None], np.inf
        )
        # Departed nodes hold frozen (or reset) state that is not part of
        # the computation; exclude them from the run maximum.
        node_err = np.where(engine.node_alive, node_err, -np.inf)
        run_max = node_err.max(axis=1)
        for r in np.nonzero(engine.last_round_active)[0]:
            self.max_errors[int(r)].append(float(run_max[r]))

    def current_max_errors(self) -> np.ndarray:
        """Latest recorded error per run (inf before any round)."""
        return np.array(
            [series[-1] if series else np.inf for series in self.max_errors]
        )

    def final_max_error(self, run: int) -> float:
        series = self.max_errors[run]
        if not series:
            raise ValueError("no rounds recorded")
        return series[-1]

    def first_round_below(self, run: int, threshold: float) -> Optional[int]:
        """First round whose max error is <= threshold (None if never)."""
        for t, err in enumerate(self.max_errors[run]):
            if err <= threshold:
                return t
        return None


class BatchedMassProbe:
    """Per-run mass-conservation drift — the batch's mass probe.

    Mirrors :class:`repro.telemetry.probes.MassDriftTracker`'s vectorized
    branch: the baseline is the run's initial (sum of values, sum of
    weights), drift is the max absolute deviation of either sum from its
    baseline, normalized by the baseline magnitude. ``records[r]`` holds
    ``(round, drift)`` pairs; ``violations[r]`` counts drifts above the
    tolerance.
    """

    def __init__(self, tolerance: float = 1e-6) -> None:
        self.tolerance = float(tolerance)
        self._exp_val: Optional[np.ndarray] = None
        self._exp_w: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self._alive_prev: Optional[np.ndarray] = None
        self.records: List[List[Tuple[int, float]]] = []
        self.violations: Optional[np.ndarray] = None

    @staticmethod
    def _masked_sums(
        engine: BatchedEngine,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mass sums over live nodes only (departed mass left the system)."""
        values, weights = engine.estimate_pairs()
        alive = engine.node_alive
        return (
            np.where(alive[:, :, None], values, 0.0).sum(axis=1),
            np.where(alive, weights, 0.0).sum(axis=1),
            alive,
        )

    def start(self, engine: BatchedEngine) -> None:
        self._exp_val, self._exp_w, self._alive_prev = self._masked_sums(
            engine
        )
        self._scale = np.maximum(
            np.maximum(np.abs(self._exp_val).max(axis=1), np.abs(self._exp_w)),
            1e-300,
        )
        self.records = [[] for _ in range(engine.n_runs)]
        self.violations = np.zeros(engine.n_runs, dtype=np.int64)

    def on_round_end(self, engine: BatchedEngine, round_index: int) -> None:
        if self._exp_val is None:
            self.start(engine)
        cur_val, cur_w, alive = self._masked_sums(engine)
        changed = (alive != self._alive_prev).any(axis=1)
        if changed.any():
            # A membership change legitimately moves the conserved
            # quantity (mass enters/leaves with the node); re-base the
            # affected runs on the post-change live population.
            self._exp_val[changed] = cur_val[changed]
            self._exp_w[changed] = cur_w[changed]
            self._scale[changed] = np.maximum(
                np.maximum(
                    np.abs(cur_val[changed]).max(axis=1),
                    np.abs(cur_w[changed]),
                ),
                1e-300,
            )
            self._alive_prev = alive
        deviation = np.maximum(
            np.abs(cur_val - self._exp_val).max(axis=1),
            np.abs(cur_w - self._exp_w),
        )
        finite = np.isfinite(cur_val).all(axis=1) & np.isfinite(cur_w)
        drift = np.where(finite, deviation / self._scale, np.inf)
        violated = drift > self.tolerance
        for r in np.nonzero(engine.last_round_active)[0]:
            self.records[int(r)].append((round_index, float(drift[r])))
            if violated[r]:
                self.violations[int(r)] += 1

    def worst_drift(self, run: int) -> Optional[float]:
        series = self.records[run]
        return max(d for _, d in series) if series else None
