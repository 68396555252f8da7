"""Unit tests for the kernel-backend seam (``repro.vectorized.backends``).

Covers backend resolution (defaults, unknown names, the numba-absent
fallback warning), the engine-level ``backend`` axis, and — most
importantly — bit-for-bit parity between the numpy reference kernels and
the numba loop kernels run in plain-Python mode (``jit=False``), which
exercises the exact code numba compiles without requiring numba.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology import hypercube
from repro.topology.random_graphs import erdos_renyi
from repro.vectorized import backends as backends_mod
from repro.vectorized.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    NUMBA_AVAILABLE,
    KernelBackend,
    NumbaKernels,
    NumpyKernels,
    available_backends,
    resolve_backend,
)
from repro.vectorized.batched import BatchedEngine, BatchedRun
from repro.vectorized.engines import VectorPushSum
from repro.vectorized.parity import vector_engine_for
from repro.vectorized.topology_arrays import TopologyArrays

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
        assert kernels.compiled is False
        assert DEFAULT_BACKEND == "numpy"

    def test_instance_passthrough(self):
        kernels = NumpyKernels()
        assert resolve_backend(kernels) is kernels

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'cuda'"):
            resolve_backend("cuda")
        with pytest.raises(ConfigurationError, match="numpy"):
            resolve_backend("NUMPY")  # names are case-sensitive

    def test_numba_absent_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "NUMBA_AVAILABLE", False)
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            kernels = resolve_backend("numba")
        assert isinstance(kernels, NumpyKernels)
        assert kernels.name == "numpy"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_present_resolves_jitted(self):
        kernels = resolve_backend("numba")
        assert isinstance(kernels, NumbaKernels)
        assert kernels.compiled is True

    def test_available_backends_consistent(self):
        avail = available_backends()
        assert "numpy" in avail
        assert set(avail) <= set(BACKEND_NAMES)
        assert ("numba" in avail) == NUMBA_AVAILABLE


class TestNumbaKernelsConstruction:
    def test_python_mode_always_available(self):
        kernels = NumbaKernels(jit=False)
        assert isinstance(kernels, KernelBackend)
        assert kernels.name == "numba"
        assert kernels.compiled is False

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_jit_without_numba_raises(self):
        with pytest.raises(RuntimeError, match=r"\.\[numba\]"):
            NumbaKernels(jit=True)

    def test_default_jit_tracks_availability(self):
        kernels = NumbaKernels()
        assert kernels.compiled is NUMBA_AVAILABLE


class TestEngineBackendAxis:
    def test_backend_properties(self):
        engine = VectorPushSum(hypercube(3), np.ones(8), np.ones(8))
        assert engine.backend_name == "numpy"
        assert isinstance(engine.backend, NumpyKernels)

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            VectorPushSum(
                hypercube(3), np.ones(8), np.ones(8), backend="fortran"
            )

    def test_engine_accepts_backend_instance(self):
        kernels = NumbaKernels(jit=False)
        engine = VectorPushSum(
            hypercube(3), np.ones(8), np.ones(8), backend=kernels
        )
        assert engine.backend is kernels
        assert engine.backend_name == "numba"

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


def _run_engine(algorithm, backend, rounds=60):
    topo = hypercube(4)
    rng = np.random.default_rng(123)
    values = rng.normal(size=(topo.n, 3))
    weights = np.ones(topo.n)
    cls = vector_engine_for(algorithm)
    engine = cls(
        topo,
        values,
        weights,
        loss_probability=0.15,
        seed=7,
        backend=backend,
    )
    engine.run(rounds)
    return engine


class TestKernelParity:
    """numpy kernels vs numba loop kernels (python mode), bit-for-bit."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_estimates_bit_for_bit(self, algorithm):
        ref = _run_engine(algorithm, NumpyKernels())
        alt = _run_engine(algorithm, NumbaKernels(jit=False))
        a, b = ref.estimates(), alt.estimates()
        assert a.tobytes() == b.tobytes()  # incl. signed zeros / NaN bits
        assert ref.messages_sent == alt.messages_sent
        assert ref.messages_delivered == alt.messages_delivered

    def test_pcf_handshake_counters_match(self):
        ref = _run_engine("push_cancel_flow", NumpyKernels())
        alt = _run_engine("push_cancel_flow", NumbaKernels(jit=False))
        assert (ref.cancellations, ref.swaps) == (alt.cancellations, alt.swaps)
        assert ref.cancellations > 0  # the run actually exercised handshakes

    def test_hardened_counters_match(self):
        ref = _run_engine("push_cancel_flow_hardened", NumpyKernels())
        alt = _run_engine("push_cancel_flow_hardened", NumbaKernels(jit=False))
        assert (ref.cancellations, ref.catch_ups) == (
            alt.cancellations,
            alt.catch_ups,
        )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_jitted_close_to_numpy(self, algorithm):
        # Jitted kernels may contract FMAs, so the acceptance bar is
        # close-tolerance, not bit-for-bit (see DESIGN.md).
        ref = _run_engine(algorithm, NumpyKernels())
        jit = _run_engine(algorithm, NumbaKernels(jit=True))
        np.testing.assert_allclose(
            ref.estimates(), jit.estimates(), rtol=1e-12, atol=1e-12
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
    """The flat-index numpy kernels against the numba loop kernels in
    Python mode, one round from arbitrary state, bit for bit."""

    @pytest.mark.parametrize("kernel", sorted(_KERNEL_STATE))
    def test_one_round_bit_for_bit(self, kernel):
        for seed in range(25):
            state, messages = _arbitrary_round(seed)
            if kernel == "push_sum_round":
                messages = (messages[0], messages[2], messages[4])
            outcomes = []
            for backend in (NumpyKernels(), NumbaKernels(jit=False)):
                args = [_argument(state, name) for name in _KERNEL_STATE[kernel]]
                returned = getattr(backend, kernel)(*args, *messages)
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


class TestFallbackEndToEnd:
    def test_engine_numba_spec_runs_without_numba(self, monkeypatch):
        """A spec saying backend='numba' must run on a numba-less box."""
        monkeypatch.setattr(backends_mod, "NUMBA_AVAILABLE", False)
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            engine = VectorPushSum(
                hypercube(3), np.ones(8), np.ones(8), backend="numba"
            )
        assert engine.backend_name == "numpy"
        engine.run(5)
        assert engine.round == 5
