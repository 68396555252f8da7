"""Per-message loop kernels: the test oracle for ``NumpyKernels``.

Each method runs one round of one algorithm as a plain Python loop over
the messages, with the signature and the fused ``(…, d + 1)`` mass rows
(values, then the weight) of the same method of
:class:`repro.vectorized.backends.numpy_backend.NumpyKernels`: the same
phase separation, the same pre-round estimate taken as an argument and
the same ascending message order for colliding receiver updates. They
share no code with the whole-array kernels, so equal bits mean equal
semantics. ``TestKernelParity`` and ``TestArbitraryStateParity``
(``tests/unit/test_backends.py``) demand that equality bit for bit.

Three parity-relevant scalar details, preserved from the NumPy kernels:

- Flow writes that mirror a payload use unary negation (``-g``), exactly
  like ``flow[...] = -sent``.
- Phi deltas are accumulated by *subtraction from a zero-initialised
  accumulator* (``delta = delta - (f + g)``), never by negating a sum —
  ``0.0 - x`` and ``-x`` differ for ``x == +0.0`` and NumPy's ``-=``
  computes the former.
- The phi accumulator is updated for **every** delivered message, even
  when the delta is identically zero (``np.add.at`` adds the zero rows
  too, and ``-0.0 + 0.0 == +0.0`` makes that observable).

A test swaps these in for an engine's kernels after construction::

    engine._kernels = LoopKernels()
"""

from __future__ import annotations

import numpy as np


class LoopKernels:
    """The four round kernels as sequential per-message loops."""

    def push_sum_round(self, mass, senders, receivers, delivered):
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

    def push_flow_round(
        self, flow, est, senders, slots, receivers, r_slots, delivered
    ):
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

    def pcf_round(
        self, flow, c, r, phi, est, senders, slots, receivers, r_slots, delivered
    ):
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
