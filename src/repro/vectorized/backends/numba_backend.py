"""Optional numba-jitted fused round kernels.

The kernels here are sequential per-message loops written in
nopython-compatible style. They implement exactly the semantics of
:class:`repro.vectorized.backends.numpy_backend.NumpyKernels` — same
fused ``(…, d + 1)`` mass rows (values, then the weight), same phase
separation, same pre-round estimate taken as an argument, same ascending
message order for colliding receiver updates — so in interpreted mode
(``NumbaKernels(jit=False)``, used when numba is not installed) they are
*bit-for-bit* identical to the NumPy reference. Under ``@njit`` the only
permitted deviation is instruction-level rounding (e.g. FMA contraction
by LLVM), which the close-tolerance parity suite bounds; ``fastmath`` is
deliberately left off so no reassociation is allowed.

Three parity-relevant scalar details, preserved from the NumPy reference:

- Flow writes that mirror a payload use unary negation (``-g``), exactly
  like ``flow[...] = -sent``.
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
# Every mass row has k = d + 1 columns: the values, then the weight.
# --------------------------------------------------------------------------


def _push_sum_round(mass, senders, receivers, delivered):
    n_msg = senders.shape[0]
    k = mass.shape[1]
    half = np.empty((n_msg, k), dtype=mass.dtype)
    # Phase 1: halve sender mass (senders are unique; each loop iteration
    # touches only its own sender's row, so fusing read/halve/store is
    # identical to the two-step whole-array version).
    for m in range(n_msg):
        s = senders[m]
        for cc in range(k):
            h = mass[s, cc] * 0.5
            half[m, cc] = h
            mass[s, cc] = h
    # Phase 2: deliveries in ascending message order (np.add.at order).
    for m in range(n_msg):
        if delivered[m]:
            rcv = receivers[m]
            for cc in range(k):
                mass[rcv, cc] += half[m, cc]


def _push_flow_round(flow, est, senders, slots, receivers, r_slots, delivered):
    k = flow.shape[2]
    n_msg = senders.shape[0]
    sent = np.empty((n_msg, k), dtype=flow.dtype)
    # Phase 1 + 2: virtual send of half the pre-round estimate, payload
    # snapshot. Sender rows are disjoint, so interleaving per sender
    # equals compute-all-then-send-all.
    for m in range(n_msg):
        i = senders[m]
        sl = slots[m]
        for cc in range(k):
            flow[i, sl, cc] += est[i, cc] * 0.5
            sent[m, cc] = flow[i, sl, cc]
    # Phase 3: deliveries at unique (receiver, slot) pairs — must run
    # after every snapshot (message crossing writes a slot that another
    # message snapshotted).
    for m in range(n_msg):
        if delivered[m]:
            j = receivers[m]
            t = r_slots[m]
            for cc in range(k):
                flow[j, t, cc] = -sent[m, cc]


def _pcf_round(flow, c, r, phi, est, senders, slots, receivers, r_slots, delivered):
    k = flow.shape[3]
    n_msg = senders.shape[0]
    g = np.empty((n_msg, 2, k), dtype=flow.dtype)
    g_c = np.empty(n_msg, dtype=np.int64)
    g_r = np.empty(n_msg, dtype=np.int64)
    # Phase 1 + 2: virtual send into the active slot, incremental phi,
    # payload snapshot (both slots + control variables).
    for m in range(n_msg):
        i = senders[m]
        sl = slots[m]
        act = c[i, sl]
        for cc in range(k):
            h = est[i, cc] * 0.5
            flow[i, sl, act, cc] += h
            phi[i, cc] += h
        for sslot in range(2):
            for cc in range(k):
                g[m, sslot, cc] = flow[i, sl, sslot, cc]
        g_c[m] = c[i, sl]
        g_r[m] = r[i, sl]
    # Phase 3: per-message delivery processing in ascending order. Edge
    # state at unique (receiver, slot) pairs is collision-free; phi
    # accumulation follows message order like np.add.at.
    cancels = 0
    swaps = 0
    delta = np.empty(k, dtype=phi.dtype)
    for m in range(n_msg):
        if not delivered[m]:
            continue
        j = receivers[m]
        t = r_slots[m]
        pc = g_c[m]
        pr = g_r[m]
        lc = int(c[j, t])
        lr = r[j, t]
        for cc in range(k):
            delta[cc] = 0.0
        # (adopt) peer swapped first: take over its role assignment.
        if lc != pc and lr == pr:
            lc = pc
        if lc == pc:
            a = lc
            p = 1 - lc
            # Active-slot PF repair.
            for cc in range(k):
                ga = g[m, a, cc]
                delta[cc] = delta[cc] - (flow[j, t, a, cc] + ga)
                flow[j, t, a, cc] = -ga
            # Passive-slot handshake.
            conserved = True
            for cc in range(k):
                if g[m, p, cc] != -flow[j, t, p, cc]:
                    conserved = False
                    break
            peer_zero = True
            for cc in range(k):
                if g[m, p, cc] != 0.0:
                    peer_zero = False
                    break
            cancel = conserved and lr == pr
            swap = (not cancel) and peer_zero and (lr + 1 == pr)
            if cancel or swap:
                # Zero the passive copy, advance the era; the value stays
                # absorbed in phi (no delta). Swap additionally flips roles.
                for cc in range(k):
                    flow[j, t, p, cc] = 0.0
                lr += 1
                if swap:
                    lc = p
                    swaps += 1
                else:
                    cancels += 1
            elif lr <= pr:
                # (repair): conservation violated — treat the passive like
                # an active.
                for cc in range(k):
                    gp = g[m, p, cc]
                    delta[cc] = delta[cc] - (flow[j, t, p, cc] + gp)
                    flow[j, t, p, cc] = -gp
        c[j, t] = lc
        r[j, t] = lr
        # Applied even when the delta is zero — matches np.add.at.
        for cc in range(k):
            phi[j, cc] += delta[cc]
    return cancels, swaps


def _pcf_hardened_round(
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
):
    k = flow.shape[3]
    n_msg = senders.shape[0]
    g = np.empty((n_msg, 2, k), dtype=flow.dtype)
    g_r = np.empty(n_msg, dtype=np.int64)
    g_frozen = np.empty((n_msg, k), dtype=frozen.dtype)
    # Phase 1 + 2: send into the era-derived active slot, snapshot
    # payloads including the frozen reference copy.
    for m in range(n_msg):
        i = senders[m]
        sl = slots[m]
        act = r[i, sl] % 2
        for cc in range(k):
            h = est[i, cc] * 0.5
            flow[i, sl, act, cc] += h
            phi[i, cc] += h
        for sslot in range(2):
            for cc in range(k):
                g[m, sslot, cc] = flow[i, sl, sslot, cc]
        g_r[m] = r[i, sl]
        for cc in range(k):
            g_frozen[m, cc] = frozen[i, sl, cc]
    # Phase 3: per-message delivery processing.
    cancels = 0
    catch_ups = 0
    delta = np.empty(k, dtype=phi.dtype)
    for m in range(n_msg):
        if not delivered[m]:
            continue
        j = receivers[m]
        t = r_slots[m]
        pr = g_r[m]
        lr = r[j, t]
        ini = initiator[j, t]
        for cc in range(k):
            delta[cc] = 0.0
        if pr >= lr - 1 and pr <= lr + 1:
            catch = False
            if pr == lr - 1 and ini:
                # Boundary refresh: local passive == peer's stale active.
                pb = 1 - lr % 2
                for cc in range(k):
                    gb = g[m, pb, cc]
                    delta[cc] = delta[cc] - (flow[j, t, pb, cc] + gb)
                    flow[j, t, pb, cc] = -gb
            elif pr == lr + 1 and not ini:
                # Frozen-verified catch-up at the follower.
                catch = True
                pc = 1 - lr % 2
                for cc in range(k):
                    fz = g_frozen[m, cc]
                    delta[cc] = delta[cc] - (flow[j, t, pc, cc] + fz)
                    frozen[j, t, cc] = -fz
                    flow[j, t, pc, cc] = 0.0
                lr += 1
                catch_ups += 1
            if pr == lr or catch:
                # Era-equal processing (includes just-caught-up messages).
                ae = lr % 2
                pe = 1 - ae
                for cc in range(k):
                    ga = g[m, ae, cc]
                    delta[cc] = delta[cc] - (flow[j, t, ae, cc] + ga)
                    flow[j, t, ae, cc] = -ga
                if ini:
                    # Initiator: cancel when the follower mirrors exactly.
                    conserved = True
                    for cc in range(k):
                        if g[m, pe, cc] != -flow[j, t, pe, cc]:
                            conserved = False
                            break
                    if conserved:
                        for cc in range(k):
                            frozen[j, t, cc] = flow[j, t, pe, cc]
                            flow[j, t, pe, cc] = 0.0
                        lr += 1
                        cancels += 1
                else:
                    # Follower: track the initiator's reference copy.
                    for cc in range(k):
                        gf = g[m, pe, cc]
                        delta[cc] = delta[cc] - (flow[j, t, pe, cc] + gf)
                        flow[j, t, pe, cc] = -gf
        r[j, t] = lr
        # Applied even when the delta is zero — matches np.add.at.
        for cc in range(k):
            phi[j, cc] += delta[cc]
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

    def push_sum_round(self, mass, senders, receivers, delivered) -> None:
        self._kernel("push_sum")(mass, senders, receivers, delivered)

    def push_flow_round(
        self, flow, est, senders, slots, receivers, r_slots, delivered
    ) -> None:
        self._kernel("push_flow")(
            flow, est, senders, slots, receivers, r_slots, delivered
        )

    def pcf_round(
        self, flow, c, r, phi, est, senders, slots, receivers, r_slots, delivered
    ) -> Tuple[int, int]:
        cancels, swaps = self._kernel("pcf")(
            flow, c, r, phi, est, senders, slots, receivers, r_slots, delivered
        )
        return int(cancels), int(swaps)

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
        cancels, catch_ups = self._kernel("pcf_hardened")(
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
        )
        return int(cancels), int(catch_ups)
