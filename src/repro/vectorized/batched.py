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
- per-run dynamic topologies (churn / partition / outage), compiled at
  construction into per-round segments that apply to the whole batch in
  a few array operations (see :meth:`BatchedEngine._compile_deltas`);
- early retirement: ``stop_when`` returns a per-run mask and retired
  (e.g. converged) runs stop sending while the rest of the batch keeps
  going, freezing their state at the retirement round.

:class:`BatchedErrorHistory` and :class:`BatchedMassProbe` are the
whole-batch equivalents of :class:`repro.metrics.history.ErrorHistory`
and :class:`repro.telemetry.probes.MassConservationProbe`, so the
campaign runner can emit records that are schema-identical to the
object-engine path. Both read the engine's one shared estimate per round
(:meth:`BatchedEngine.round_estimates`) and record one row per round.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamics.schedule import DELTA_KINDS, TopologySchedule
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


class _DeltaSegment(NamedTuple):
    """Same-kind events (``DELTA_KINDS`` index) of one segment, all runs.

    ``a``/``b`` are global node ids (``b`` is -1 for node events) and
    ``sa``/``sb`` the edge's slot at each endpoint.
    """

    kind: int
    a: np.ndarray
    b: np.ndarray
    sa: np.ndarray
    sb: np.ndarray


class RoundEstimates(NamedTuple):
    """One round's per-run estimates and membership (read-only arrays)."""

    values: np.ndarray  # (R, n, d)
    weights: np.ndarray  # (R, n)
    estimates: np.ndarray  # (R, n, d): values / weights
    node_alive: np.ndarray  # (R, n)


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
        self._slot_index = np.arange(md)
        self._slot_alive = self._slot_index < arrays.degree[:, None]
        self._live_degree = arrays.degree.astype(np.int64).copy()
        self._live_list = np.where(self._slot_alive, self._slot_index, 0)
        # Transport-dead slots: messages sent on them vanish (the sender
        # still spends its round on them until the failure is handled).
        self._blocked = np.zeros((total, md), dtype=bool)
        # Dynamic-topology state. node_alive tracks join/leave membership;
        # perm_dead marks slots taken by *permanent* link failures (which
        # dynamics must never revive); dyn_down marks both slots of every
        # currently-downed transient edge.
        self._node_alive = np.ones(total, dtype=bool)
        self._perm_dead = np.zeros((total, md), dtype=bool)
        self._dyn_down = np.zeros((total, md), dtype=bool)
        self._deltas = self._compile_deltas(runs)
        # Per-round link failures as (nodes, slots) rows: both endpoints of
        # each link, one link after another.
        fails: Dict[int, List[Tuple[int, int]]] = {}
        handles: Dict[int, List[Tuple[int, int]]] = {}
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
                ends = [
                    (base + u, run.topology.neighbor_index(u, v)),
                    (base + v, run.topology.neighbor_index(v, u)),
                ]
                fails.setdefault(lf.round, []).extend(ends)
                handles.setdefault(lf.handle_round, []).extend(ends)
        self._fails = {t: np.array(p).T for t, p in fails.items()}
        self._handles = {t: np.array(p).T for t, p in handles.items()}

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
        self._shared: Optional[RoundEstimates] = None
        self._shared_key = (-1, -1)  # (round, engine state version) cached

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

    def round_estimates(self) -> RoundEstimates:
        """This round's estimates, computed once and shared read-only.

        Built on the stacked engine's shared pair, which the next round's
        kernel reads too. The batch observers and stop rules of one round
        all read this one copy; a step, a delta or a handled link failure
        invalidates it.
        """
        key = (self._round, self._engine._state_version)
        if self._shared_key != key:
            values, weights = self._engine.shared_estimate_pairs()
            with np.errstate(divide="ignore", invalid="ignore"):
                estimates = values / weights[:, None]
            runs, n, d = self._runs, self._n, self._d
            self._shared = RoundEstimates(
                values.reshape(runs, n, d),
                weights.reshape(runs, n),
                estimates.reshape(runs, n, d),
                self._node_alive.reshape(runs, n).copy(),
            )
            for part in self._shared:
                part.setflags(write=False)
            self._shared_key = key
        return self._shared

    def estimate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-run ``(values (R, n, d), weights (R, n))`` estimate pairs."""
        shared = self.round_estimates()
        return shared.values.copy(), shared.weights.copy()

    def estimates(self) -> np.ndarray:
        """Per-node aggregate estimates, shape (R, n, d)."""
        return self.round_estimates().estimates.copy()

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
        if rnd in self._deltas:
            self._apply_deltas(self._deltas[rnd])
        if rnd in self._fails:
            nodes, slots = self._fails[rnd]
            self._blocked[nodes, slots] = True
            self._perm_dead[nodes, slots] = True

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

        if rnd in self._handles:
            self._handle_links(*self._handles[rnd])

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

    def _handle_links(self, nodes: np.ndarray, slots: np.ndarray) -> None:
        """Failure-detector handling: discard edge state, shrink schedules.

        Only endpoints whose slot is still alive fold: a side that dynamics
        already took down, or whose node departed, has nothing left to
        discard (object engine: ``on_link_failed`` only where the neighbor
        is still listed).
        """
        # Mark the slots permanently dead first: even when dynamics already
        # downed the edge (slot not alive), a later edge_up / node_join must
        # not revive a permanently failed link.
        self._perm_dead[nodes, slots] = True
        up = self._slot_alive[nodes, slots]
        if up.any():
            self._cut(nodes[up], slots[up])
            self._recompute_live(nodes[up])

    # ------------------------------------------------------------------
    # Dynamic topology (churn / partition / outage)
    # ------------------------------------------------------------------
    def _compile_deltas(
        self, runs: Sequence[BatchedRun]
    ) -> Dict[int, List[_DeltaSegment]]:
        """Every run's topology schedule as per-round whole-batch segments.

        A segment is a maximal stretch of same-kind events of one run in
        one round. Segment ``k`` of every run applies together, one array
        operation per kind: runs touch disjoint state, so only the order
        within a run matters, and same-kind events of one segment commute
        except for the order of PCF fold-outs, which the apply methods keep.
        Inside a segment a repeated edge or node is a no-op and is dropped.
        """
        rows = []
        for r, run in enumerate(runs):
            schedule = run.topology_schedule
            if schedule is None or schedule.is_empty():
                continue
            schedule.validate_against(run.topology)
            rows.extend(
                (d.round, DELTA_KINDS.index(d.kind), r)
                + ((d.node, -1) if d.edge is None else d.edge)
                for d in schedule.deltas
            )
        if not rows:
            return {}
        rnd, kind, run_of, a, b = np.array(rows, dtype=np.int64).T
        a += run_of * self._n
        b = np.where(b >= 0, b + run_of * self._n, -1)
        new_round = np.r_[
            True, (run_of[1:] != run_of[:-1]) | (rnd[1:] != rnd[:-1])
        ]
        seg = np.cumsum(new_round | np.r_[True, kind[1:] != kind[:-1]]) - 1
        k = seg - seg[new_round][np.cumsum(new_round) - 1]  # index in round
        _, first = np.unique(np.stack((seg, a, b)), axis=1, return_index=True)
        keep = np.sort(first)
        keep = keep[np.lexsort((kind[keep], k[keep], rnd[keep]))]  # stable
        rnd, k, kind, a, b = (x[keep] for x in (rnd, k, kind, a, b))
        edge = b >= 0
        sa, sb = np.zeros((2, len(a)), dtype=np.int64)
        sa[edge] = self._engine._slots_for_targets(a[edge], b[edge])
        sb[edge] = self._engine._slots_for_targets(b[edge], a[edge])
        cuts = np.flatnonzero(np.diff(rnd) | np.diff(k) | np.diff(kind)) + 1
        segments: Dict[int, List[_DeltaSegment]] = {}
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(a)]):
            parts = (x[lo:hi] for x in (a, b, sa, sb))
            segments.setdefault(int(rnd[lo]), []).append(
                _DeltaSegment(int(kind[lo]), *parts)
            )
        return segments

    def _apply_deltas(self, segments: List[_DeltaSegment]) -> None:
        """Apply one round's segments in order, then refresh live lists."""
        touched = []
        any_retired = self._retired.any()
        for seg in segments:
            if any_retired:
                keep = ~self._retired[seg.a // self._n]
                seg = _DeltaSegment(seg.kind, *(x[keep] for x in seg[1:]))
            if len(seg.a):
                touched.append(self._APPLY[seg.kind](self, seg))
        if touched:
            self._recompute_live(np.concatenate(touched))

    def _cut(self, nodes: np.ndarray, slots: np.ndarray) -> None:
        """Drop slots from the schedule; their flows fold out in order."""
        self._engine._zero_failed_links(nodes, slots)
        self._slot_alive[nodes, slots] = False
        self._blocked[nodes, slots] = True

    def _edges_down(self, seg: _DeltaSegment) -> np.ndarray:
        new = ~(self._dyn_down[seg.a, seg.sa] | self._perm_dead[seg.a, seg.sa])
        a, b, sa, sb = (x[new] for x in seg[1:])
        self._dyn_down[a, sa] = True
        self._dyn_down[b, sb] = True
        # An endpoint that already departed discarded the edge state at its
        # departure; only the down marker is recorded.
        up = self._slot_alive[a, sa]
        nodes = np.column_stack((a[up], b[up])).ravel()
        self._cut(nodes, np.column_stack((sa[up], sb[up])).ravel())
        return nodes

    def _edges_up(self, seg: _DeltaSegment) -> np.ndarray:
        a, b, sa, sb = (x[self._dyn_down[seg.a, seg.sa]] for x in seg[1:])
        self._dyn_down[a, sa] = False
        self._dyn_down[b, sb] = False
        # A permanently failed link stays dead; a departed endpoint keeps
        # the edge down until its node_join revives it.
        ok = ~self._perm_dead[a, sa] & self._node_alive[a]
        ok &= self._node_alive[b]
        nodes = np.concatenate((a[ok], b[ok]))
        slots = np.concatenate((sa[ok], sb[ok]))
        self._slot_alive[nodes, slots] = True
        self._blocked[nodes, slots] = False
        return nodes

    def _nodes_leave(self, seg: _DeltaSegment) -> np.ndarray:
        g = seg.a[self._node_alive[seg.a]]
        self._node_alive[g] = False
        pos, s = np.nonzero(self._slot_alive[g])  # event order, slot order
        src = g[pos]
        dst, dst_slot = self._engine._receiver_indices(src, s)
        # The departing side is frozen as-is (reset wholesale at rejoin).
        self._slot_alive[src, s] = False
        self._blocked[src, s] = True
        # Survivors fold their side out (object: on_link_failed), except on
        # a failed link whose failure is not yet detected — that side stays
        # alive and blocked until handling — and except toward a node that
        # left earlier in this segment, whose departure already cut the edge.
        order = np.full(self._arrays.n, len(g))
        order[g] = np.arange(len(g))
        fold = ~self._perm_dead[src, s] & (order[dst] >= pos)
        self._cut(dst[fold], dst_slot[fold])
        return np.concatenate((g, dst[fold]))

    def _nodes_join(self, seg: _DeltaSegment) -> np.ndarray:
        g = seg.a[~self._node_alive[seg.a]]
        self._node_alive[g] = True
        self._engine._reset_nodes(g)
        # Revive every edge toward a live neighbor (joiners of this segment
        # included) unless it is permanently failed or dynamically down.
        nbr = self._arrays.nbr[g]
        pos, s = np.nonzero(
            (nbr >= 0) & ~self._perm_dead[g] & ~self._dyn_down[g]
        )
        src, dst = g[pos], nbr[pos, s]
        live = self._node_alive[dst]
        src, s, dst = src[live], s[live], dst[live]
        nodes = np.concatenate((src, dst))
        slots = np.concatenate((s, self._arrays.slot_of[src, s]))
        self._slot_alive[nodes, slots] = True
        self._blocked[nodes, slots] = False
        return np.concatenate((g, dst))

    #: Apply methods indexed by kind code (DELTA_KINDS order).
    _APPLY = (_edges_down, _edges_up, _nodes_leave, _nodes_join)

    def _recompute_live(self, rows: np.ndarray) -> None:
        alive = self._slot_alive[rows]
        degree = alive.sum(axis=1)
        self._live_degree[rows] = degree
        self._live_list[rows] = np.where(
            self._slot_index < degree[:, None],
            np.argsort(~alive, axis=1, kind="stable"),
            0,
        )

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


class _RunSeries:
    """Per-run series, recorded as one whole-batch row per round.

    ``active`` marks the runs that record a row, so a retired run's series
    ends at its retirement round; ``last`` is each run's latest value.
    """

    def __init__(self, runs: int) -> None:
        self._rows: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self.last = np.full(runs, np.inf)

    def append(
        self, round_index: int, row: np.ndarray, active: np.ndarray
    ) -> None:
        self._rows.append((round_index, row, active))
        np.copyto(self.last, row, where=active)

    def runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rounds (T,), values (T, R), active (T, R))`` of every row."""
        if not self._rows:
            empty = np.empty((0, len(self.last)))
            return np.empty(0, dtype=np.int64), empty, empty.astype(bool)
        rounds, rows, active = zip(*self._rows)
        return np.array(rounds), np.array(rows), np.array(active)

    def values(self, run: int) -> np.ndarray:
        _, rows, active = self.runs()
        return rows[active[:, run], run]


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
        self._series = _RunSeries(len(truth))

    def on_round_end(self, engine: BatchedEngine, round_index: int) -> None:
        shared = engine.round_estimates()
        est = shared.estimates
        with np.errstate(invalid="ignore"):
            diff = np.abs(est - self._truth[:, None, :]).max(axis=2)
        finite = np.isfinite(est).all(axis=2)
        node_err = np.where(
            finite, diff / self._scale[:, None], np.inf
        )
        # Departed nodes hold frozen (or reset) state that is not part of
        # the computation; exclude them from the run maximum.
        node_err = np.where(shared.node_alive, node_err, -np.inf)
        self._series.append(
            round_index, node_err.max(axis=1), engine._last_active
        )

    @property
    def max_errors(self) -> List[List[float]]:
        """Each run's recorded series, as lists of floats."""
        _, rows, active = self._series.runs()
        return [rows[active[:, r], r].tolist() for r in range(rows.shape[1])]

    def current_max_errors(self) -> np.ndarray:
        """Latest recorded error per run (inf before any round)."""
        return self._series.last.copy()

    def final_max_error(self, run: int) -> float:
        series = self._series.values(run)
        if not len(series):
            raise ValueError("no rounds recorded")
        return float(series[-1])

    def first_round_below(self, run: int, threshold: float) -> Optional[int]:
        """First round whose max error is <= threshold (None if never)."""
        below = np.flatnonzero(self._series.values(run) <= threshold)
        return int(below[0]) if len(below) else None


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
        self._series: Optional[_RunSeries] = None
        self.violations: Optional[np.ndarray] = None

    @staticmethod
    def _masked_sums(
        engine: BatchedEngine,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mass sums over live nodes only (departed mass left the system)."""
        shared = engine.round_estimates()
        alive = shared.node_alive
        return (
            np.where(alive[:, :, None], shared.values, 0.0).sum(axis=1),
            np.where(alive, shared.weights, 0.0).sum(axis=1),
            alive,
        )

    @staticmethod
    def _scale_of(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.maximum(
            np.maximum(np.abs(values).max(axis=1), np.abs(weights)), 1e-300
        )

    def start(self, engine: BatchedEngine) -> None:
        self._exp_val, self._exp_w, self._alive_prev = self._masked_sums(
            engine
        )
        self._scale = self._scale_of(self._exp_val, self._exp_w)
        self._series = _RunSeries(engine.n_runs)
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
            self._scale[changed] = self._scale_of(
                cur_val[changed], cur_w[changed]
            )
            self._alive_prev = alive
        deviation = np.maximum(
            np.abs(cur_val - self._exp_val).max(axis=1),
            np.abs(cur_w - self._exp_w),
        )
        finite = np.isfinite(cur_val).all(axis=1) & np.isfinite(cur_w)
        drift = np.where(finite, deviation / self._scale, np.inf)
        active = engine._last_active
        self.violations += (drift > self.tolerance) & active
        self._series.append(round_index, drift, active)

    @property
    def records(self) -> List[List[Tuple[int, float]]]:
        """Each run's ``(round, drift)`` pairs."""
        if self._series is None:
            return []
        rounds, rows, active = self._series.runs()
        return [
            list(zip(rounds[mask].tolist(), rows[mask, r].tolist()))
            for r, mask in enumerate(active.T)
        ]

    def worst_drift(self, run: int) -> Optional[float]:
        series = self._series.values(run)
        return float(series.max()) if len(series) else None
