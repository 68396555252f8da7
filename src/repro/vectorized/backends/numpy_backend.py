"""The round kernels: one fused per-round update for each vectorized
algorithm.

:class:`NumpyKernels` owns the *hot inner round* of every vectorized
algorithm: the fused send/accumulate update that
:meth:`repro.vectorized.base.VectorizedEngine._apply_round` runs once per
round. Everything around the kernel — schedule drawing, loss masking,
topology arrays, estimates, link-failure handling, dynamic-topology
deltas, observers — stays in the engines. Kernels receive plain
``ndarray`` state (mutated in place) plus the round's message arrays,
and return at most a couple of counters. Every kernel takes the round's
messages last, ending with ``delivered``.

**Fused mass layout.** Every protocol quantity is a mass pair (value,
weight), and every mass array stores the pair as one row of ``k = d + 1``
float64 columns: the ``d`` value columns, then the weight. That covers
push-sum's mass ``(n, d + 1)``, PF flows ``(n, md, d + 1)``, PCF flows
``(n, md, 2, d + 1)``, phi ``(n, d + 1)``, the hardened frozen copies
``(n, md, d + 1)`` and the pre-round estimate ``(n, d + 1)``. Each
gather, scatter and arithmetic step below moves a whole row, so the
weight gets exactly the operations, in exactly the order, it got as a
separate array; that is why the layout changes no bit of any result.

Semantics the kernels honour; the engine parity suites check them
against the object engine, and the kernel tests against the per-message
loop kernels in ``tests/loop_kernels.py``, bit for bit:

- **Phase separation.** All send-side updates happen before any
  delivery: the flow kernels receive the pre-round estimate ``est``
  (the engine's read-only shared estimate, never written, so no kernel
  computes an estimate), payloads are snapshots taken after the send
  phase, and receiver updates never feed back into the same round's
  sends.
- **Sender-order accumulation.** Within a round, receiver-side updates
  that can collide (push-sum mass, PCF phi deltas) are applied in
  ascending message order through ``np.add.at`` — the order the object
  engine delivers in. Padded slots hold exact zeros, so they cannot
  perturb rounding.
- **Signed zeros.** Phi deltas accumulate as ``0.0 - x`` subtractions
  from zero, never by unary negation, and are applied for every
  delivered message even when zero, because ``-0.0 + 0.0 == +0.0`` is
  observable under bitwise comparison.
- **Unique sender slots.** Each sender appears at most once per round and
  receiver ``(node, slot)`` pairs are unique, so per-edge state updates
  are collision-free by construction. Senders arrive strictly ascending,
  so a round in which all ``n`` nodes send has ``senders == arange(n)``.

Per-edge state is addressed by *flat edge id*. Slot ``s`` of node ``i``
is edge ``i * max_degree + s`` of the raveled ``(n * max_degree, k)``
view of an ``(n, max_degree, k)`` array, and PCF's two flow copies sit
at rows ``edge * 2 + role`` of the ``(n * max_degree * 2, k)`` view, so a
copy's partner row is ``row ^ 1``. One integer index per message
replaces NumPy's slower multi-index fancy indexing; rows are gathered
with ``ndarray.take`` and scattered through :func:`_rows`.

**Contiguous state.** Writes go through those flat views, so kernel
state must be C-contiguous: :func:`_require_contiguous` refuses anything
else with a :class:`~repro.exceptions.ConfigurationError`, because
raveling a non-contiguous array yields a copy and every write into it
would be lost.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError


def _require_contiguous(*arrays: np.ndarray) -> None:
    """Refuse kernel state that flat views cannot alias, before any write.

    Raveling a non-contiguous array yields a copy, so every write made
    through it would silently vanish.
    """
    for arr in arrays:
        if not arr.flags.c_contiguous:
            raise ConfigurationError(
                f"kernel state of shape {arr.shape} with strides {arr.strides} "
                "is not C-contiguous; the numpy kernels write through flat views"
            )


@functools.lru_cache(maxsize=64)
def _record(nbytes: int) -> np.dtype:
    return np.dtype((np.void, nbytes))


def _rows(arr: np.ndarray) -> np.ndarray:
    """1-D view of a C-contiguous ``(m, k)`` array whose items are whole
    rows (opaque ``k * itemsize``-byte records). Fancy assignment through
    it copies rows bit-for-bit as memcpy, well ahead of NumPy's 2-D row
    scatter."""
    return arr.view(_record(arr.itemsize * arr.shape[1])).reshape(-1)


def _all_rows(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)``: reducing a transposed contiguous copy along
    axis 0 beats NumPy's per-row reduction of a short trailing axis."""
    return np.logical_and.reduce(np.ascontiguousarray(mask.T), axis=0)


@functools.lru_cache(maxsize=64)
def _flat_index(n: int, k: int) -> np.ndarray:
    """``(n, k)`` table of flat element ids: row ``i`` holds ``i * k + c``."""
    table = np.arange(n * k).reshape(n, k)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _zero_row(k: int) -> np.ndarray:
    """One all-zero ``k``-column row as a record, broadcast by scatters."""
    row = np.zeros((1, k))
    row.setflags(write=False)
    return _rows(row)


def _add_rows_at(target: np.ndarray, rows: np.ndarray, deltas: np.ndarray) -> None:
    """``np.add.at(target, rows, deltas)`` for an ``(n, k)`` target as one
    1-D ``np.add.at``. Each element still receives its additions in
    ascending message order, so the sums are bit-identical."""
    idx = _flat_index(*target.shape).take(rows, axis=0).reshape(-1)
    np.add.at(target.reshape(-1), idx, deltas.reshape(-1))


def _send_halves(est, phi, senders):
    """PCF's virtual-send bookkeeping: each sender's half estimate
    ``est * 0.5``, which is also added to its phi.

    Senders are strictly ascending, so a round in which every node sends
    has ``senders == arange(n)`` and needs no gather or scatter.
    """
    if len(senders) == len(phi):
        half = est * 0.5
        phi += half
    else:
        half = est.take(senders, axis=0) * 0.5
        _rows(phi)[senders] = _rows(phi.take(senders, axis=0) + half)
    return half


class NumpyKernels:
    """Whole-array NumPy round kernels for all four vectorized algorithms."""

    #: Recorded as the ``backend`` of whole-array campaign results.
    name = "numpy"

    def push_sum_round(self, mass, senders, receivers, delivered) -> None:
        """One push-sum round on the ``(n, d + 1)`` mass: halve sender
        mass, deliver in sender order."""
        _require_contiguous(mass)
        # Keep half, send half — the send-side halving happens regardless
        # of delivery (a dropped message loses mass, as in the real
        # protocol).
        half = mass.take(senders, axis=0) * 0.5
        _rows(mass)[senders] = _rows(half)
        if not delivered.all():
            keep = delivered.nonzero()[0]
            receivers = receivers[keep]
            half = half.take(keep, axis=0)
        _add_rows_at(mass, receivers, half)

    def push_flow_round(
        self, flow, est, senders, slots, receivers, r_slots, delivered
    ) -> None:
        """One push-flow round on the ``(n, md, d + 1)`` flows: each
        sender adds half its estimate to the chosen flow, receivers mirror
        the payload."""
        _require_contiguous(flow)
        md, k = flow.shape[1], flow.shape[2]
        fm = flow.reshape(-1, k)  # row = edge
        fr = _rows(fm)

        # Phase 1: virtual sends (sender slots are unique per round); the
        # updated flows are also the physical payloads. When every node
        # sends, senders == arange(n) and the estimate needs no gather.
        edge = senders * md + slots
        if len(senders) != len(est):
            est = est.take(senders, axis=0)
        sent = fm.take(edge, axis=0) + est * 0.5
        fr[edge] = _rows(sent)

        # Phase 2: deliveries — receiver (node, slot) pairs are unique.
        if not delivered.all():
            keep = delivered.nonzero()[0]
            receivers, r_slots = receivers[keep], r_slots[keep]
            sent = sent.take(keep, axis=0)
        fr[receivers * md + r_slots] = _rows(-sent)

    def pcf_round(
        self, flow, c, r, phi, est, senders, slots, receivers, r_slots, delivered
    ) -> Tuple[int, int]:
        """One push-cancel-flow round on the ``(n, md, 2, d + 1)`` flows,
        the ``(n, md)`` int8 role bits ``c`` and int64 eras ``r`` and the
        ``(n, d + 1)`` phi; returns ``(cancellations, swaps)``."""
        _require_contiguous(flow, c, r, phi)
        md, k = c.shape[1], phi.shape[1]
        fm = flow.reshape(-1, k)  # row = edge * 2 + role
        fr = _rows(fm)
        cf = c.reshape(-1)  # index = edge
        rf = r.reshape(-1)

        # Phase 1: virtual sends into the active slot + incremental phi.
        edge = senders * md + slots
        # Role bits are int8. They are cast explicitly: mixed-dtype
        # arithmetic runs through NumPy's buffered iterator, whose cast
        # buffers raise the process's peak memory. The send phase leaves
        # role bits alone, so this gather is also the payload's role.
        pc = cf[edge].astype(np.int64)
        act = edge * 2 + pc
        half = _send_halves(est, phi, senders)
        fr[act] = _rows(fm.take(act, axis=0) + half)

        # Phase 2: snapshot the delivered payloads (both slots + control
        # variables); a dropped message's payload is never read.
        if not delivered.all():
            keep = delivered.nonzero()[0]
            edge, pc = edge[keep], pc[keep]
            receivers, r_slots = receivers[keep], r_slots[keep]
        m = len(edge)
        if m == 0:
            return 0, 0
        pm = fm.reshape(-1, 2 * k).take(edge, axis=0).reshape(-1, k)  # row = msg * 2 + role
        pr = rf[edge]

        # Phase 3: deliveries. Receiver (node, slot) pairs are unique, so
        # per-edge updates are data-parallel; only phi accumulations can
        # collide and those go through ordered np.add.at.
        redge = receivers * md + r_slots
        lc = cf[redge].astype(np.int64)
        lr = rf[redge]

        # Only role-consistent messages (e) touch the edge: roles agree,
        # or (adopt) the peer swapped first — same era, so the receiver
        # takes over the peer's role assignment. Either way the active
        # role is the peer's. The rest leave the edge untouched and add a
        # zero phi delta.
        e_idx = ((lc == pc) | (lr == pr)).nonzero()[0]
        if len(e_idx) < m:
            redge, pc, lr, pr = redge[e_idx], pc[e_idx], lr[e_idx], pr[e_idx]
        ae = pc
        ra = redge * 2 + ae  # receiver's active row
        rp = ra ^ 1  # receiver's passive row
        ga = e_idx * 2 + ae  # payload's active row
        gp = ga ^ 1

        # Active-slot PF repair. The combined phi delta per message
        # (active repair + optional passive repair) starts from zero and
        # is applied once in sender order — the object engine's single
        # phi update per received message.
        g_a = pm.take(ga, axis=0)
        de = 0.0 - (fm.take(ra, axis=0) + g_a)
        fr[ra] = _rows(-g_a)

        # Passive-slot handshake. Cancel needs equal eras and swap the
        # peer one era ahead, so at most one of them holds.
        f_p = fm.take(rp, axis=0)
        g_p = pm.take(gp, axis=0)
        ahead = pr - lr
        cancel = _all_rows(g_p == -f_p) & (ahead == 0)
        swap = _all_rows(g_p == 0.0) & (ahead == 1)
        zero = cancel | swap
        repair = (~zero & (ahead >= 0)).nonzero()[0]

        # (cancel)/(swap): zero the passive copy, advance the era; the
        # value stays absorbed in phi (no delta). Swap additionally flips
        # roles.
        fr[rp[zero]] = _zero_row(k)
        cf[redge] = np.where(swap, ae ^ 1, ae).astype(np.int8)
        rf[redge[zero]] += 1

        # (repair): conservation violated — treat the passive like an
        # active.
        if len(repair):
            g_r = g_p.take(repair, axis=0)
            _rows(de)[repair] = _rows(
                de.take(repair, axis=0) - (f_p.take(repair, axis=0) + g_r)
            )
            fr[rp[repair]] = _rows(-g_r)

        # Accumulate phi in sender order.
        if len(e_idx) == m:
            delta = de
        else:
            delta = np.zeros((m, k))
            _rows(delta)[e_idx] = _rows(de)
        _add_rows_at(phi, receivers, delta)
        return int(np.count_nonzero(cancel)), int(np.count_nonzero(swap))

    def pcf_hardened_round(
        self,
        flow,
        r,
        frozen,
        initiator,
        phi,
        est,
        senders,
        slots,
        receivers,
        r_slots,
        delivered,
    ) -> Tuple[int, int]:
        """One hardened-PCF round, with the ``(n, md, d + 1)`` frozen
        copies and the read-only ``(n, md)`` initiator mask; returns
        ``(cancellations, catch_ups)``."""
        _require_contiguous(flow, r, frozen, phi)
        md, k = r.shape[1], phi.shape[1]
        fm = flow.reshape(-1, k)  # row = edge * 2 + role
        fr = _rows(fm)
        rf = r.reshape(-1)  # index = edge
        zm = frozen.reshape(-1, k)  # row = edge
        zr = _rows(zm)

        # Phase 1: virtual sends into the era-derived active slot.
        edge = senders * md + slots
        act = edge * 2 + rf[edge] % 2
        half = _send_halves(est, phi, senders)
        fr[act] = _rows(fm.take(act, axis=0) + half)

        # Phase 2: snapshots of the delivered payloads.
        if not delivered.all():
            keep = delivered.nonzero()[0]
            edge, receivers, r_slots = edge[keep], receivers[keep], r_slots[keep]
        m = len(edge)
        if m == 0:
            return 0, 0
        pm = fm.reshape(-1, 2 * k).take(edge, axis=0).reshape(-1, k)  # row = msg * 2 + role
        pr = rf[edge]
        pz = zm.take(edge, axis=0)

        # Phase 3: deliveries at unique (receiver, slot) pairs. Each
        # message's phi delta starts from zero and is applied once, in
        # sender order.
        redge = receivers * md + r_slots
        lr = rf[redge]
        ini = initiator.reshape(-1)[redge]
        delta = np.zeros((m, k))

        in_window = (pr >= lr - 1) & (pr <= lr + 1)

        # --- boundary refresh (peer one era behind, at the initiator) ----
        b_idx = (in_window & (pr == lr - 1) & ini).nonzero()[0]
        if len(b_idx):
            pb = 1 - lr[b_idx] % 2  # local passive == peer's stale active
            rb = redge[b_idx] * 2 + pb
            g_b = pm.take(b_idx * 2 + pb, axis=0)
            _rows(delta)[b_idx] = _rows(0.0 - (fm.take(rb, axis=0) + g_b))
            fr[rb] = _rows(-g_b)

        # --- frozen-verified catch-up (peer ahead, at the follower) ------
        catch = in_window & (pr == lr + 1) & ~ini
        c_idx = catch.nonzero()[0]
        catch_ups = len(c_idx)
        if catch_ups:
            rc = redge[c_idx] * 2 + 1 - lr[c_idx] % 2
            fz = pz.take(c_idx, axis=0)
            _rows(delta)[c_idx] = _rows(0.0 - (fm.take(rc, axis=0) + fz))
            zr[redge[c_idx]] = _rows(-fz)
            fr[rc] = _zero_row(k)
            lr[c_idx] += 1

        # --- era-equal processing (includes just-caught-up messages) -----
        cancels = 0
        e_idx = (in_window & ((pr == lr) | catch)).nonzero()[0]
        if len(e_idx):
            ae = lr[e_idx] % 2
            ra = redge[e_idx] * 2 + ae  # receiver's active row
            rp = ra ^ 1  # receiver's passive row
            ga = e_idx * 2 + ae  # payload's active row
            # Active-slot PF repair.
            g_a = pm.take(ga, axis=0)
            de = delta.take(e_idx, axis=0) - (fm.take(ra, axis=0) + g_a)
            fr[ra] = _rows(-g_a)

            g_p = pm.take(ga ^ 1, axis=0)
            f_p = fm.take(rp, axis=0)
            ini_e = ini[e_idx]

            # Initiator: cancel when the follower mirrors exactly.
            conserved = _all_rows(g_p == -f_p)
            z = (ini_e & conserved).nonzero()[0]
            cancels = len(z)
            if cancels:
                zr[redge[e_idx[z]]] = _rows(f_p.take(z, axis=0))
                fr[rp[z]] = _zero_row(k)
                lr[e_idx[z]] += 1

            # Follower: track the initiator's reference copy.
            f = (~ini_e).nonzero()[0]
            if len(f):
                g_f = g_p.take(f, axis=0)
                _rows(de)[f] = _rows(
                    de.take(f, axis=0) - (f_p.take(f, axis=0) + g_f)
                )
                fr[rp[f]] = _rows(-g_f)
            _rows(delta)[e_idx] = _rows(de)

        # Write back eras; accumulate phi in sender order.
        rf[redge] = lr
        _add_rows_at(phi, receivers, delta)
        return cancels, catch_ups
