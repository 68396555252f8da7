"""Unit tests for the round kernels (``repro.vectorized.backends``).

Covers kernel resolution and, most importantly, bit-for-bit parity
between the whole-array numpy kernels and the per-message loop kernels
of ``tests/loop_kernels.py``, which share no code with them.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology import hypercube
from repro.topology.random_graphs import erdos_renyi
from repro.vectorized.backends import NumpyKernels, resolve_backend
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.engines import VectorPushSum
from repro.vectorized.parity import vector_engine_for
from repro.vectorized.topology_arrays import TopologyArrays
from tests.loop_kernels import LoopKernels

ALGORITHMS = (
    "push_sum",
    "push_flow",
    "push_cancel_flow",
    "push_cancel_flow_hardened",
)


class TestResolveBackend:
    def test_default_is_numpy(self):
        kernels = resolve_backend(None)
        assert isinstance(kernels, NumpyKernels)
        assert kernels.name == "numpy"
        assert isinstance(resolve_backend("numpy"), NumpyKernels)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'cuda'"):
            resolve_backend("cuda")
        with pytest.raises(ConfigurationError, match="numpy"):
            resolve_backend("NUMPY")  # names are case-sensitive
        # A removed backend fails loudly instead of running numpy.
        with pytest.raises(ConfigurationError, match="unknown backend 'numba'"):
            resolve_backend("numba")


class TestEngineBackendAxis:
    def test_backend_properties(self):
        engine = VectorPushSum(hypercube(3), np.ones(8), np.ones(8))
        assert engine.backend_name == "numpy"
        assert isinstance(engine._kernels, NumpyKernels)

    def test_batched_engine_backend_name(self):
        engine = BatchedEngine(
            "push_sum",
            [
                BatchedRun(
                    topology=hypercube(3),
                    values=np.ones(8),
                    weights=np.ones(8),
                    rng=1,
                )
            ],
        )
        assert engine.backend_name == "numpy"


def _run_engine(algorithm, kernels, rounds=60):
    topo = hypercube(4)
    rng = np.random.default_rng(123)
    values = rng.normal(size=(topo.n, 3))
    weights = np.ones(topo.n)
    cls = vector_engine_for(algorithm)
    engine = cls(topo, values, weights, loss_probability=0.15, seed=7)
    engine._kernels = kernels
    engine.run(rounds)
    return engine


class TestKernelParity:
    """numpy kernels vs the loop kernels, bit-for-bit."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_estimates_bit_for_bit(self, algorithm):
        ref = _run_engine(algorithm, NumpyKernels())
        alt = _run_engine(algorithm, LoopKernels())
        a, b = ref.estimates(), alt.estimates()
        assert a.tobytes() == b.tobytes()  # incl. signed zeros / NaN bits
        assert ref.messages_sent == alt.messages_sent
        assert ref.messages_delivered == alt.messages_delivered

    def test_pcf_handshake_counters_match(self):
        ref = _run_engine("push_cancel_flow", NumpyKernels())
        alt = _run_engine("push_cancel_flow", LoopKernels())
        assert (ref.cancellations, ref.swaps) == (alt.cancellations, alt.swaps)
        assert ref.cancellations > 0  # the run actually exercised handshakes

    def test_hardened_counters_match(self):
        ref = _run_engine("push_cancel_flow_hardened", NumpyKernels())
        alt = _run_engine("push_cancel_flow_hardened", LoopKernels())
        assert (ref.cancellations, ref.catch_ups) == (
            alt.cancellations,
            alt.catch_ups,
        )


def _arbitrary_round(seed):
    """Kernel state that need not be reachable, plus one round of messages.

    Random role bits and eras, exact and signed zeros, passive copies that
    mirror the peer exactly, idle senders and dropped messages: every
    branch of the flow kernels (adopt, cancel, swap, repair, role
    mismatch, boundary refresh, catch-up) gets inputs.
    """
    rng = np.random.default_rng(seed)
    arrays = TopologyArrays.from_topology(erdos_renyi(12, 0.4, seed=seed))
    n, md, d = arrays.n, arrays.max_degree, 2
    nbr, slot_of = arrays.nbr, arrays.slot_of

    def floats(*shape):
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.05] = -0.0
        return x

    fval, fw = floats(n, md, 2, d), floats(n, md, 2)
    for i in range(n):
        for s in range(arrays.degree[i]):
            if rng.random() < 0.3:
                j, t = nbr[i, s], slot_of[i, s]
                fval[j, t], fw[j, t] = -fval[i, s], -fw[i, s]
    senders = np.flatnonzero(rng.random(n) < 0.8)
    slots = (rng.random(len(senders)) * arrays.degree[senders]).astype(np.int64)
    messages = (
        senders,
        slots,
        nbr[senders, slots].astype(np.int64),
        slot_of[senders, slots].astype(np.int64),
        rng.random(len(senders)) >= 0.2,
    )
    state = {
        "fval": fval,
        "fw": fw,
        "c": rng.integers(0, 2, (n, md)).astype(np.int8),
        "r": rng.integers(0, 4, (n, md)),
        "frozen_val": floats(n, md, d),
        "frozen_w": floats(n, md),
        "initiator": (np.arange(n)[:, None] < nbr) & (nbr >= 0),
        "phi_val": floats(n, d),
        "phi_w": floats(n),
        "v0": floats(n, d),
        "w0": np.abs(floats(n)) + 1.0,
        "flow_val": floats(n, md, d),
        "flow_w": floats(n, md),
        "val": floats(n, d),
        "w": np.abs(floats(n)),
    }
    return state, messages


_KERNEL_STATE = {
    "push_sum_round": (("val", "w"),),
    "push_flow_round": (("flow_val", "flow_w"), ("v0", "w0")),
    "pcf_round": (("fval", "fw"), "c", "r", ("phi_val", "phi_w"), ("v0", "w0")),
    "pcf_hardened_round": (
        ("fval", "fw"),
        "r",
        ("frozen_val", "frozen_w"),
        "initiator",
        ("phi_val", "phi_w"),
        ("v0", "w0"),
    ),
}


def _argument(state, name):
    """A kernel argument: a copy of one state array, or a (values,
    weights) pair fused into one ``(..., d + 1)`` mass array."""
    if isinstance(name, tuple):
        values, weights = state[name[0]], state[name[1]]
        return np.concatenate((values, weights[..., None]), axis=-1)
    return state[name].copy()


class TestArbitraryStateParity:
    """The flat-index numpy kernels against the loop kernels, one round
    from arbitrary state, bit for bit."""

    @pytest.mark.parametrize("kernel", sorted(_KERNEL_STATE))
    def test_one_round_bit_for_bit(self, kernel):
        for seed in range(25):
            state, messages = _arbitrary_round(seed)
            if kernel == "push_sum_round":
                messages = (messages[0], messages[2], messages[4])
            outcomes = []
            for kernels in (NumpyKernels(), LoopKernels()):
                args = [_argument(state, name) for name in _KERNEL_STATE[kernel]]
                returned = getattr(kernels, kernel)(*args, *messages)
                outcomes.append((returned, [a.tobytes() for a in args]))
            assert outcomes[0] == outcomes[1], (kernel, seed)


class TestContiguityGuard:
    """The numpy kernels write per-edge state through flat views; a view
    of a non-contiguous array would be a copy and swallow every write."""

    @pytest.mark.parametrize(
        "algorithm",
        ["push_flow", "push_cancel_flow", "push_cancel_flow_hardened"],
    )
    def test_strided_flow_state_is_refused_before_any_write(self, algorithm):
        engine = vector_engine_for(algorithm)(
            hypercube(3), np.arange(8.0), np.ones(8), seed=3
        )
        engine.run(4)
        # Same values, every other element of a wider buffer.
        wide = np.zeros(engine._flow.shape[:-1] + (2 * (engine.dimension + 1),))
        strided = wide[..., ::2]
        strided[...] = engine._flow
        engine._flow = strided
        before = engine.estimate_pairs()
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            engine.step()
        after = engine.estimate_pairs()
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()

    def test_strided_push_sum_state_is_refused(self):
        mass = np.zeros((8, 4))[:, ::2]
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            NumpyKernels().push_sum_round(
                mass,
                np.arange(8),
                np.roll(np.arange(8), 1),
                np.ones(8, dtype=bool),
            )
