"""Optional numba-jitted fused round kernels.

The kernels here are sequential per-message loops written in
nopython-compatible style. They implement exactly the semantics of
:class:`repro.vectorized.backends.numpy_backend.NumpyKernels` — same
phase separation, same pre-round estimate pair taken as an argument,
same ascending message order for colliding receiver updates — so in
interpreted mode (``NumbaKernels(jit=False)``, used when numba is not
installed) they are *bit-for-bit* identical to the NumPy reference.
Under ``@njit`` the only permitted deviation is instruction-level
rounding (e.g. FMA contraction by LLVM), which the close-tolerance
parity suite bounds; ``fastmath`` is deliberately left off so no
reassociation is allowed.

Two parity-relevant scalar details, preserved from the NumPy reference:

- Flow writes that mirror a payload use unary negation (``-g``), exactly
  like ``fval[...] = -sent``.
- Phi deltas are accumulated by *subtraction from a zero-initialised
  accumulator* (``delta = delta - (f + g)``), never by negating a sum —
  ``0.0 - x`` and ``-x`` differ for ``x == +0.0`` and NumPy's ``-=``
  computes the former.
- The phi accumulator is updated for **every** delivered message, even
  when the delta is identically zero (``np.add.at`` adds the zero rows
  too, and ``-0.0 + 0.0 == +0.0`` makes that observable).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.vectorized.backends.base import KernelBackend

try:  # pragma: no cover - exercised via the CI backend-parity matrix
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False


# --------------------------------------------------------------------------
# Loop kernels (module-level so numba can compile them once per dtype set).
# --------------------------------------------------------------------------


def _push_sum_round(val, w, senders, receivers, delivered):
    k = senders.shape[0]
    d = val.shape[1]
    half_val = np.empty((k, d), dtype=val.dtype)
    half_w = np.empty(k, dtype=w.dtype)
    # Phase 1: halve sender mass (senders are unique; each loop iteration
    # touches only its own sender's row, so fusing read/halve/store is
    # identical to the two-step whole-array version).
    for m in range(k):
        s = senders[m]
        for cc in range(d):
            hv = val[s, cc] * 0.5
            half_val[m, cc] = hv
            val[s, cc] = hv
        hw = w[s] * 0.5
        half_w[m] = hw
        w[s] = hw
    # Phase 2: deliveries in ascending message order (np.add.at order).
    for m in range(k):
        if delivered[m]:
            rcv = receivers[m]
            for cc in range(d):
                val[rcv, cc] += half_val[m, cc]
            w[rcv] += half_w[m]


def _push_flow_round(fval, fw, est_val, est_w, senders, slots, receivers, r_slots, delivered):
    d = fval.shape[2]
    k = senders.shape[0]
    sent_val = np.empty((k, d), dtype=fval.dtype)
    sent_w = np.empty(k, dtype=fw.dtype)
    # Phase 1 + 2: virtual send of half the pre-round estimate, payload
    # snapshot. Sender rows are disjoint, so interleaving per sender
    # equals compute-all-then-send-all.
    for m in range(k):
        i = senders[m]
        sl = slots[m]
        for cc in range(d):
            fval[i, sl, cc] += est_val[i, cc] * 0.5
            sent_val[m, cc] = fval[i, sl, cc]
        fw[i, sl] += est_w[i] * 0.5
        sent_w[m] = fw[i, sl]
    # Phase 3: deliveries at unique (receiver, slot) pairs — must run
    # after every snapshot (message crossing writes a slot that another
    # message snapshotted).
    for m in range(k):
        if delivered[m]:
            j = receivers[m]
            t = r_slots[m]
            for cc in range(d):
                fval[j, t, cc] = -sent_val[m, cc]
            fw[j, t] = -sent_w[m]


def _pcf_round(
    fval, fw, c, r, phi_val, phi_w, est_val, est_w, senders, slots, receivers, r_slots, delivered
):
    d = fval.shape[3]
    k = senders.shape[0]
    g_val = np.empty((k, 2, d), dtype=fval.dtype)
    g_w = np.empty((k, 2), dtype=fw.dtype)
    g_c = np.empty(k, dtype=np.int64)
    g_r = np.empty(k, dtype=np.int64)
    # Phase 1 + 2: virtual send into the active slot, incremental phi,
    # payload snapshot (both slots + control variables).
    for m in range(k):
        i = senders[m]
        sl = slots[m]
        act = c[i, sl]
        for cc in range(d):
            hv = est_val[i, cc] * 0.5
            fval[i, sl, act, cc] += hv
            phi_val[i, cc] += hv
        hw = est_w[i] * 0.5
        fw[i, sl, act] += hw
        phi_w[i] += hw
        for sslot in range(2):
            for cc in range(d):
                g_val[m, sslot, cc] = fval[i, sl, sslot, cc]
            g_w[m, sslot] = fw[i, sl, sslot]
        g_c[m] = c[i, sl]
        g_r[m] = r[i, sl]
    # Phase 3: per-message delivery processing in ascending order. Edge
    # state at unique (receiver, slot) pairs is collision-free; phi
    # accumulation follows message order like np.add.at.
    cancels = 0
    swaps = 0
    delta_val = np.empty(d, dtype=phi_val.dtype)
    for m in range(k):
        if not delivered[m]:
            continue
        j = receivers[m]
        t = r_slots[m]
        pc = g_c[m]
        pr = g_r[m]
        lc = int(c[j, t])
        lr = r[j, t]
        for cc in range(d):
            delta_val[cc] = 0.0
        delta_w = 0.0
        # (adopt) peer swapped first: take over its role assignment.
        if lc != pc and lr == pr:
            lc = pc
        if lc == pc:
            a = lc
            p = 1 - lc
            # Active-slot PF repair.
            for cc in range(d):
                ga = g_val[m, a, cc]
                delta_val[cc] = delta_val[cc] - (fval[j, t, a, cc] + ga)
                fval[j, t, a, cc] = -ga
            ga_w = g_w[m, a]
            delta_w = delta_w - (fw[j, t, a] + ga_w)
            fw[j, t, a] = -ga_w
            # Passive-slot handshake.
            conserved = g_w[m, p] == -fw[j, t, p]
            if conserved:
                for cc in range(d):
                    if g_val[m, p, cc] != -fval[j, t, p, cc]:
                        conserved = False
                        break
            peer_zero = g_w[m, p] == 0.0
            if peer_zero:
                for cc in range(d):
                    if g_val[m, p, cc] != 0.0:
                        peer_zero = False
                        break
            cancel = conserved and lr == pr
            swap = (not cancel) and peer_zero and (lr + 1 == pr)
            if cancel or swap:
                # Zero the passive copy, advance the era; the value stays
                # absorbed in phi (no delta). Swap additionally flips roles.
                for cc in range(d):
                    fval[j, t, p, cc] = 0.0
                fw[j, t, p] = 0.0
                lr += 1
                if swap:
                    lc = p
                    swaps += 1
                else:
                    cancels += 1
            elif lr <= pr:
                # (repair): conservation violated — treat the passive like
                # an active.
                for cc in range(d):
                    gp = g_val[m, p, cc]
                    delta_val[cc] = delta_val[cc] - (fval[j, t, p, cc] + gp)
                    fval[j, t, p, cc] = -gp
                gp_w = g_w[m, p]
                delta_w = delta_w - (fw[j, t, p] + gp_w)
                fw[j, t, p] = -gp_w
        c[j, t] = lc
        r[j, t] = lr
        # Applied even when the delta is zero — matches np.add.at.
        for cc in range(d):
            phi_val[j, cc] += delta_val[cc]
        phi_w[j] += delta_w
    return cancels, swaps


def _pcf_hardened_round(
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
):
    d = fval.shape[3]
    k = senders.shape[0]
    g_val = np.empty((k, 2, d), dtype=fval.dtype)
    g_w = np.empty((k, 2), dtype=fw.dtype)
    g_r = np.empty(k, dtype=np.int64)
    g_frozen_val = np.empty((k, d), dtype=frozen_val.dtype)
    g_frozen_w = np.empty(k, dtype=frozen_w.dtype)
    # Phase 1 + 2: send into the era-derived active slot, snapshot
    # payloads including the frozen reference copy.
    for m in range(k):
        i = senders[m]
        sl = slots[m]
        act = r[i, sl] % 2
        for cc in range(d):
            hv = est_val[i, cc] * 0.5
            fval[i, sl, act, cc] += hv
            phi_val[i, cc] += hv
        hw = est_w[i] * 0.5
        fw[i, sl, act] += hw
        phi_w[i] += hw
        for sslot in range(2):
            for cc in range(d):
                g_val[m, sslot, cc] = fval[i, sl, sslot, cc]
            g_w[m, sslot] = fw[i, sl, sslot]
        g_r[m] = r[i, sl]
        for cc in range(d):
            g_frozen_val[m, cc] = frozen_val[i, sl, cc]
        g_frozen_w[m] = frozen_w[i, sl]
    # Phase 3: per-message delivery processing.
    cancels = 0
    catch_ups = 0
    delta_val = np.empty(d, dtype=phi_val.dtype)
    for m in range(k):
        if not delivered[m]:
            continue
        j = receivers[m]
        t = r_slots[m]
        pr = g_r[m]
        lr = r[j, t]
        ini = initiator[j, t]
        for cc in range(d):
            delta_val[cc] = 0.0
        delta_w = 0.0
        if pr >= lr - 1 and pr <= lr + 1:
            catch = False
            if pr == lr - 1 and ini:
                # Boundary refresh: local passive == peer's stale active.
                pb = 1 - lr % 2
                for cc in range(d):
                    gb = g_val[m, pb, cc]
                    delta_val[cc] = delta_val[cc] - (fval[j, t, pb, cc] + gb)
                    fval[j, t, pb, cc] = -gb
                gb_w = g_w[m, pb]
                delta_w = delta_w - (fw[j, t, pb] + gb_w)
                fw[j, t, pb] = -gb_w
            elif pr == lr + 1 and not ini:
                # Frozen-verified catch-up at the follower.
                catch = True
                pc = 1 - lr % 2
                for cc in range(d):
                    fz = g_frozen_val[m, cc]
                    delta_val[cc] = delta_val[cc] - (fval[j, t, pc, cc] + fz)
                    frozen_val[j, t, cc] = -fz
                    fval[j, t, pc, cc] = 0.0
                fz_w = g_frozen_w[m]
                delta_w = delta_w - (fw[j, t, pc] + fz_w)
                frozen_w[j, t] = -fz_w
                fw[j, t, pc] = 0.0
                lr += 1
                catch_ups += 1
            if pr == lr or catch:
                # Era-equal processing (includes just-caught-up messages).
                ae = lr % 2
                pe = 1 - ae
                for cc in range(d):
                    ga = g_val[m, ae, cc]
                    delta_val[cc] = delta_val[cc] - (fval[j, t, ae, cc] + ga)
                    fval[j, t, ae, cc] = -ga
                ga_w = g_w[m, ae]
                delta_w = delta_w - (fw[j, t, ae] + ga_w)
                fw[j, t, ae] = -ga_w
                if ini:
                    # Initiator: cancel when the follower mirrors exactly.
                    conserved = g_w[m, pe] == -fw[j, t, pe]
                    if conserved:
                        for cc in range(d):
                            if g_val[m, pe, cc] != -fval[j, t, pe, cc]:
                                conserved = False
                                break
                    if conserved:
                        for cc in range(d):
                            frozen_val[j, t, cc] = fval[j, t, pe, cc]
                            fval[j, t, pe, cc] = 0.0
                        frozen_w[j, t] = fw[j, t, pe]
                        fw[j, t, pe] = 0.0
                        lr += 1
                        cancels += 1
                else:
                    # Follower: track the initiator's reference copy.
                    for cc in range(d):
                        gf = g_val[m, pe, cc]
                        delta_val[cc] = delta_val[cc] - (fval[j, t, pe, cc] + gf)
                        fval[j, t, pe, cc] = -gf
                    gf_w = g_w[m, pe]
                    delta_w = delta_w - (fw[j, t, pe] + gf_w)
                    fw[j, t, pe] = -gf_w
        r[j, t] = lr
        # Applied even when the delta is zero — matches np.add.at.
        for cc in range(d):
            phi_val[j, cc] += delta_val[cc]
        phi_w[j] += delta_w
    return cancels, catch_ups


_PY_KERNELS = {
    "push_sum": _push_sum_round,
    "push_flow": _push_flow_round,
    "pcf": _pcf_round,
    "pcf_hardened": _pcf_hardened_round,
}

_jit_cache: dict = {}


def _jitted(name):
    """Compile (once per process) and return the njit'ed kernel."""
    fn = _jit_cache.get(name)
    if fn is None:
        # nogil so multiprocess/threaded group runners are not serialized;
        # fastmath stays off — reassociation would break close-tolerance
        # parity guarantees.
        fn = numba.njit(cache=False, nogil=True, fastmath=False)(_PY_KERNELS[name])
        _jit_cache[name] = fn
    return fn


class NumbaKernels(KernelBackend):
    """Fused loop kernels, JIT-compiled when numba is installed.

    ``jit=False`` runs the identical loop functions interpreted — slow,
    but bit-for-bit equal to the NumPy reference, which is how the
    kernel logic stays testable on machines without numba.
    """

    name = "numba"

    def __init__(self, jit: bool | None = None) -> None:
        if jit is None:
            jit = HAVE_NUMBA
        if jit and not HAVE_NUMBA:
            raise RuntimeError(
                "NumbaKernels(jit=True) requires numba; install the "
                "'numba' extra (pip install -e '.[numba]')"
            )
        self.compiled = bool(jit)

    def _kernel(self, name):
        if self.compiled:
            return _jitted(name)
        return _PY_KERNELS[name]

    def push_sum_round(self, val, w, senders, receivers, delivered) -> None:
        self._kernel("push_sum")(val, w, senders, receivers, delivered)

    def push_flow_round(
        self, fval, fw, est_val, est_w, senders, slots, receivers, r_slots, delivered
    ) -> None:
        self._kernel("push_flow")(
            fval, fw, est_val, est_w, senders, slots, receivers, r_slots, delivered
        )

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
        cancels, swaps = self._kernel("pcf")(
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
        )
        return int(cancels), int(swaps)

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
        cancels, catch_ups = self._kernel("pcf_hardened")(
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
        )
        return int(cancels), int(catch_ups)
