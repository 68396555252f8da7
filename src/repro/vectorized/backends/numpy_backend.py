"""Pure-NumPy reference kernels.

These are the correctness reference: bit-for-bit identical to the object
engine under scripted schedules (the engine parity suites assert this),
and the baseline every other backend is compared against.

Operation-order notes mirror :mod:`repro.vectorized.engines`: colliding
receiver updates go through ``np.add.at`` in ascending message order, and
padded slots hold exact zeros so they cannot perturb rounding. The flow
kernels take the pre-round estimate pair as an argument (the engine's
shared pair), so no kernel computes an estimate.

Per-edge state is addressed by *flat edge id*. Slot ``s`` of node ``i``
is edge ``i * max_degree + s`` of the raveled ``(n * max_degree, ...)``
view of an ``(n, max_degree, ...)`` array, and PCF's two flow copies sit
at rows ``edge * 2 + role`` of the ``(n * max_degree * 2, d)`` view. One
integer index per message replaces NumPy's slower multi-index fancy
indexing; rows are gathered with ``np.take`` and scattered through
:func:`_rows`. Writes go through those views, so kernel state must be
C-contiguous: :func:`_require_contiguous` refuses anything else with a
:class:`~repro.exceptions.ConfigurationError`, because raveling a
non-contiguous array yields a copy and every write into it would be
lost.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.vectorized.backends.base import KernelBackend


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
    """1-D view of a C-contiguous ``(m, d)`` array whose items are whole
    rows (opaque ``d * itemsize``-byte records). Fancy assignment through
    it copies rows bit-for-bit as memcpy, well ahead of NumPy's 2-D row
    scatter."""
    return arr.view(_record(arr.itemsize * arr.shape[1])).reshape(-1)


def _all_rows(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)``: reducing a transposed contiguous copy along
    axis 0 beats NumPy's per-row reduction of a short trailing axis."""
    return np.logical_and.reduce(np.ascontiguousarray(mask.T), axis=0)


def _add_rows_at(target: np.ndarray, rows: np.ndarray, deltas: np.ndarray) -> None:
    """``np.add.at(target, rows, deltas)`` for an ``(n, d)`` target as one
    1-D ``np.add.at``. Each element still receives its additions in
    ascending message order, so the sums are bit-identical."""
    d = target.shape[1]
    idx = rows if d == 1 else (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(target.reshape(-1), idx, deltas.reshape(-1))


def _send_halves(est_val, est_w, phi_val, phi_w, senders):
    """PCF's virtual-send bookkeeping: each sender's half estimate
    ``est * 0.5``, which is also added to its phi.

    Senders are strictly ascending, so a round in which every node sends
    has ``senders == arange(n)`` and needs no gather or scatter.
    """
    if len(senders) == len(phi_w):
        half_val = est_val * 0.5
        half_w = est_w * 0.5
        phi_val += half_val
        phi_w += half_w
    else:
        half_val = np.take(est_val, senders, axis=0) * 0.5
        half_w = est_w[senders] * 0.5
        _rows(phi_val)[senders] = _rows(np.take(phi_val, senders, axis=0) + half_val)
        phi_w[senders] += half_w
    return half_val, half_w


class NumpyKernels(KernelBackend):
    """The reference backend: whole-array NumPy round kernels."""

    name = "numpy"
    compiled = False

    def push_sum_round(self, val, w, senders, receivers, delivered) -> None:
        _require_contiguous(val, w)
        # Keep half, send half — the send-side halving happens regardless
        # of delivery (a dropped message loses mass, as in the real
        # protocol).
        half_val = np.take(val, senders, axis=0) * 0.5
        half_w = w[senders] * 0.5
        _rows(val)[senders] = _rows(half_val)
        w[senders] = half_w
        if not delivered.all():
            keep = np.flatnonzero(delivered)
            receivers = receivers[keep]
            half_val = np.take(half_val, keep, axis=0)
            half_w = half_w[keep]
        _add_rows_at(val, receivers, half_val)
        np.add.at(w, receivers, half_w)

    def push_flow_round(
        self, fval, fw, est_val, est_w, senders, slots, receivers, r_slots, delivered
    ) -> None:
        _require_contiguous(fval, fw)
        md, d = fval.shape[1], fval.shape[2]
        fv = fval.reshape(-1, d)  # row = edge
        fvr = _rows(fv)
        fwf = fw.reshape(-1)

        # Phase 1: virtual sends (sender slots are unique per round); the
        # updated flows are also the physical payloads. When every node
        # sends, senders == arange(n) and the estimate needs no gather.
        edge = senders * md + slots
        if len(senders) != len(est_w):
            est_val, est_w = np.take(est_val, senders, axis=0), est_w[senders]
        sent_val = np.take(fv, edge, axis=0) + est_val * 0.5
        sent_w = fwf[edge] + est_w * 0.5
        fvr[edge] = _rows(sent_val)
        fwf[edge] = sent_w

        # Phase 2: deliveries — receiver (node, slot) pairs are unique.
        if not delivered.all():
            keep = np.flatnonzero(delivered)
            receivers, r_slots = receivers[keep], r_slots[keep]
            sent_val = np.take(sent_val, keep, axis=0)
            sent_w = sent_w[keep]
        redge = receivers * md + r_slots
        fvr[redge] = _rows(-sent_val)
        fwf[redge] = -sent_w

    def pcf_round(
        self,
        fval,
        fw,
        c,
        r,
        phi_val,
        phi_w,
        est_val,
        est_w,
        senders,
        slots,
        receivers,
        r_slots,
        delivered,
    ) -> Tuple[int, int]:
        _require_contiguous(fval, fw, c, r, phi_val, phi_w)
        md, d = c.shape[1], phi_val.shape[1]
        fv = fval.reshape(-1, d)  # row = edge * 2 + role
        fvr = _rows(fv)
        fwf = fw.reshape(-1)
        cf = c.reshape(-1)  # index = edge
        rf = r.reshape(-1)

        # Phase 1: virtual sends into the active slot + incremental phi.
        edge = senders * md + slots
        # Role bits are int8. They are cast explicitly: mixed-dtype
        # arithmetic runs through NumPy's buffered iterator, whose cast
        # buffers raise the process's peak memory.
        act = edge * 2 + cf[edge].astype(np.int64)
        half_val, half_w = _send_halves(est_val, est_w, phi_val, phi_w, senders)
        fvr[act] = _rows(np.take(fv, act, axis=0) + half_val)
        fwf[act] += half_w

        # Phase 2: snapshot the delivered payloads (both slots + control
        # variables); a dropped message's payload is never read.
        if not delivered.all():
            keep = np.flatnonzero(delivered)
            edge, receivers, r_slots = edge[keep], receivers[keep], r_slots[keep]
        m = len(edge)
        if m == 0:
            return 0, 0
        pv = np.take(fv.reshape(-1, 2 * d), edge, axis=0).reshape(-1, d)  # row = msg * 2 + role
        pw = np.take(fwf.reshape(-1, 2), edge, axis=0).reshape(-1)
        pc = cf[edge].astype(np.int64)
        pr = rf[edge]

        # Phase 3: deliveries. Receiver (node, slot) pairs are unique, so
        # per-edge updates are data-parallel; only phi accumulations can
        # collide and those go through ordered np.add.at.
        redge = receivers * md + r_slots
        lc = cf[redge].astype(np.int64)
        lr = rf[redge]

        # (adopt) peer swapped first: take over its role assignment. Only
        # role-consistent messages (e) touch the edge; the rest leave it
        # untouched and add a zero phi delta.
        lc = np.where((lc != pc) & (lr == pr), pc, lc)
        e_idx = np.flatnonzero(lc == pc)
        redge = redge[e_idx]
        ae = lc[e_idx]
        ra = redge * 2 + ae  # receiver's active row
        rp = ra + 1 - 2 * ae  # receiver's passive row
        ga = e_idx * 2 + ae  # payload's active row
        gp = ga + 1 - 2 * ae

        # Active-slot PF repair. The combined phi delta per message
        # (active repair + optional passive repair) starts from zero and
        # is applied once in sender order — the object engine's single
        # phi update per received message.
        ga_val = np.take(pv, ga, axis=0)
        ga_w = pw[ga]
        de_val = 0.0 - (np.take(fv, ra, axis=0) + ga_val)
        de_w = 0.0 - (fwf[ra] + ga_w)
        fvr[ra] = _rows(-ga_val)
        fwf[ra] = -ga_w

        # Passive-slot handshake.
        f_p_val = np.take(fv, rp, axis=0)
        f_p_w = fwf[rp]
        g_p_val = np.take(pv, gp, axis=0)
        g_p_w = pw[gp]
        lre = lr[e_idx]
        pre = pr[e_idx]

        conserved = _all_rows(g_p_val == -f_p_val) & (g_p_w == -f_p_w)
        peer_zero = _all_rows(g_p_val == 0.0) & (g_p_w == 0.0)
        cancel = conserved & (lre == pre)
        swap = ~cancel & peer_zero & (lre + 1 == pre)
        repair = np.flatnonzero(~cancel & ~swap & (lre <= pre))

        # (cancel)/(swap): zero the passive copy, advance the era; the
        # value stays absorbed in phi (no delta). Swap additionally flips
        # roles.
        zero = cancel | swap
        z = rp[zero]
        fvr[z] = _rows(np.zeros((len(z), d)))
        fwf[z] = 0.0
        cf[redge] = np.where(swap, 1 - ae, ae).astype(np.int8)
        rf[redge] = lre + zero.astype(np.int64)

        # (repair): conservation violated — treat the passive like an
        # active.
        if len(repair):
            gr_val = np.take(g_p_val, repair, axis=0)
            gr_w = g_p_w[repair]
            _rows(de_val)[repair] = _rows(
                np.take(de_val, repair, axis=0)
                - (np.take(f_p_val, repair, axis=0) + gr_val)
            )
            de_w[repair] -= f_p_w[repair] + gr_w
            fvr[rp[repair]] = _rows(-gr_val)
            fwf[rp[repair]] = -gr_w

        # Accumulate phi in sender order.
        if len(e_idx) == m:
            delta_val, delta_w = de_val, de_w
        else:
            delta_val = np.zeros((m, d))
            delta_w = np.zeros(m)
            _rows(delta_val)[e_idx] = _rows(de_val)
            delta_w[e_idx] = de_w
        _add_rows_at(phi_val, receivers, delta_val)
        np.add.at(phi_w, receivers, delta_w)
        return int(np.count_nonzero(cancel)), int(np.count_nonzero(swap))

    def pcf_hardened_round(
        self,
        fval,
        fw,
        r,
        frozen_val,
        frozen_w,
        initiator,
        phi_val,
        phi_w,
        est_val,
        est_w,
        senders,
        slots,
        receivers,
        r_slots,
        delivered,
    ) -> Tuple[int, int]:
        _require_contiguous(fval, fw, r, frozen_val, frozen_w, phi_val, phi_w)
        md, d = r.shape[1], phi_val.shape[1]
        fv = fval.reshape(-1, d)  # row = edge * 2 + role
        fvr = _rows(fv)
        fwf = fw.reshape(-1)
        rf = r.reshape(-1)  # index = edge
        zv = frozen_val.reshape(-1, d)
        zw = frozen_w.reshape(-1)

        # Phase 1: virtual sends into the era-derived active slot.
        edge = senders * md + slots
        act = edge * 2 + rf[edge] % 2
        half_val, half_w = _send_halves(est_val, est_w, phi_val, phi_w, senders)
        fvr[act] = _rows(np.take(fv, act, axis=0) + half_val)
        fwf[act] += half_w

        # Phase 2: snapshots of the delivered payloads.
        if not delivered.all():
            keep = np.flatnonzero(delivered)
            edge, receivers, r_slots = edge[keep], receivers[keep], r_slots[keep]
        m = len(edge)
        if m == 0:
            return 0, 0
        pv = np.take(fv.reshape(-1, 2 * d), edge, axis=0).reshape(-1, d)  # row = msg * 2 + role
        pw = np.take(fwf.reshape(-1, 2), edge, axis=0).reshape(-1)
        pr = rf[edge]
        pfv = np.take(zv, edge, axis=0)
        pfw = zw[edge]

        # Phase 3: deliveries at unique (receiver, slot) pairs. Each
        # message's phi delta starts from zero and is applied once, in
        # sender order.
        redge = receivers * md + r_slots
        lr = rf[redge]
        ini = initiator.reshape(-1)[redge]
        delta_val = np.zeros((m, d))
        delta_w = np.zeros(m)

        in_window = (pr >= lr - 1) & (pr <= lr + 1)

        # --- boundary refresh (peer one era behind, at the initiator) ----
        b_idx = np.flatnonzero(in_window & (pr == lr - 1) & ini)
        if len(b_idx):
            pb = 1 - lr[b_idx] % 2  # local passive == peer's stale active
            rb = redge[b_idx] * 2 + pb
            gb = b_idx * 2 + pb
            gb_val = np.take(pv, gb, axis=0)
            gb_w = pw[gb]
            _rows(delta_val)[b_idx] = _rows(0.0 - (np.take(fv, rb, axis=0) + gb_val))
            delta_w[b_idx] = 0.0 - (fwf[rb] + gb_w)
            fvr[rb] = _rows(-gb_val)
            fwf[rb] = -gb_w

        # --- frozen-verified catch-up (peer ahead, at the follower) ------
        catch = in_window & (pr == lr + 1) & ~ini
        c_idx = np.flatnonzero(catch)
        catch_ups = len(c_idx)
        if catch_ups:
            rc = redge[c_idx] * 2 + 1 - lr[c_idx] % 2
            fz_val = np.take(pfv, c_idx, axis=0)
            fz_w = pfw[c_idx]
            _rows(delta_val)[c_idx] = _rows(0.0 - (np.take(fv, rc, axis=0) + fz_val))
            delta_w[c_idx] = 0.0 - (fwf[rc] + fz_w)
            _rows(zv)[redge[c_idx]] = _rows(-fz_val)
            zw[redge[c_idx]] = -fz_w
            fvr[rc] = _rows(np.zeros((catch_ups, d)))
            fwf[rc] = 0.0
            lr[c_idx] += 1

        # --- era-equal processing (includes just-caught-up messages) -----
        cancels = 0
        e_idx = np.flatnonzero(in_window & ((pr == lr) | catch))
        if len(e_idx):
            ae = lr[e_idx] % 2
            ra = redge[e_idx] * 2 + ae  # receiver's active row
            rp = ra + 1 - 2 * ae  # receiver's passive row
            ga = e_idx * 2 + ae  # payload's active row
            gp = ga + 1 - 2 * ae
            # Active-slot PF repair.
            ga_val = np.take(pv, ga, axis=0)
            ga_w = pw[ga]
            de_val = np.take(delta_val, e_idx, axis=0) - (np.take(fv, ra, axis=0) + ga_val)
            de_w = delta_w[e_idx] - (fwf[ra] + ga_w)
            fvr[ra] = _rows(-ga_val)
            fwf[ra] = -ga_w

            gp_val = np.take(pv, gp, axis=0)
            gp_w = pw[gp]
            f_p_val = np.take(fv, rp, axis=0)
            f_p_w = fwf[rp]
            ini_e = ini[e_idx]

            # Initiator: cancel when the follower mirrors exactly.
            conserved = _all_rows(gp_val == -f_p_val) & (gp_w == -f_p_w)
            z = np.flatnonzero(ini_e & conserved)
            cancels = len(z)
            if cancels:
                ez = redge[e_idx[z]]
                _rows(zv)[ez] = _rows(np.take(f_p_val, z, axis=0))
                zw[ez] = f_p_w[z]
                fvr[rp[z]] = _rows(np.zeros((cancels, d)))
                fwf[rp[z]] = 0.0
                lr[e_idx[z]] += 1

            # Follower: track the initiator's reference copy.
            f = np.flatnonzero(~ini_e)
            if len(f):
                gf_val = np.take(gp_val, f, axis=0)
                gf_w = gp_w[f]
                _rows(de_val)[f] = _rows(
                    np.take(de_val, f, axis=0) - (np.take(f_p_val, f, axis=0) + gf_val)
                )
                de_w[f] -= f_p_w[f] + gf_w
                fvr[rp[f]] = _rows(-gf_val)
                fwf[rp[f]] = -gf_w
            _rows(delta_val)[e_idx] = _rows(de_val)
            delta_w[e_idx] = de_w

        # Write back eras; accumulate phi in sender order.
        rf[redge] = lr
        _add_rows_at(phi_val, receivers, delta_val)
        np.add.at(phi_w, receivers, delta_w)
        return cancels, catch_ups
