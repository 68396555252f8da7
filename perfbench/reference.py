"""The fixed reference loop and the clock that normalizes against it.

The benchmark box is a shared 2-vCPU machine: the same work runs up to
twice as slow from one two-second window to the next, so raw seconds
mostly measure the neighbours. The reference loop is a fixed piece of
work of the same shape as the engines' rounds (interpreter overhead plus
small gathers, ``np.add.at`` scatters and subtractions on a 1024x4
array). It runs on the pinned CPU between operations, never while one is
in flight, and an operation of raw duration ``d`` counts as
``d * R_NOMINAL_S / mean(reference before, reference after)``.

This module imports only the standard library and NumPy, never
``repro``: the yardstick must not move when the program does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Iterator, List

import numpy as np

#: The reference loop's nominal duration. A normalized second is a
#: second on a machine where the reference loop takes exactly this long.
R_NOMINAL_S = 0.030

#: Work between two reference loops: about 10% overhead at ~30 ms each.
INTERVAL_S = 0.3

_INTERPRETER_ITERATIONS = 40_000
_ARRAY_ROUNDS = 200
_ROWS, _COLS = 1024, 4

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((_ROWS, _COLS))
_GATHER = _rng.integers(0, _ROWS, size=_ROWS)
_SCATTER = _rng.permutation(_ROWS)


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time (s)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_INTERPRETER_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    y = np.zeros((_ROWS, _COLS))
    for _ in range(_ARRAY_ROUNDS):
        g = _X[_GATHER]
        np.add.at(y, _SCATTER, g)
        y -= 0.5 * g
    elapsed = time.perf_counter() - t0
    if not np.isfinite(y).all() or acc < 0:  # keep the work observable
        raise RuntimeError("reference loop produced a non-finite result")
    return elapsed


@dataclasses.dataclass
class Chunk:
    """Work between two reference loops."""

    ref_before: float
    start: float  # perf_counter when the chunk's work began
    ref_after: float = float("nan")
    work_s: float = 0.0  # raw seconds, excluded blocks subtracted

    @property
    def factor(self) -> float:
        """Multiplier turning this chunk's raw seconds into normalized ones."""
        return R_NOMINAL_S / (0.5 * (self.ref_before + self.ref_after))


class Clock:
    """Runs the reference loop between operations and keeps the chunks.

    Call :meth:`start`, then :meth:`between_operations` whenever no
    operation is in flight, and :meth:`stop` at the end. Benchmark-side
    work that is not the program's (correctness checks) goes inside
    :meth:`excluded` so it counts toward no chunk. ``on_reference`` lets
    the tracer record each reference loop as a span.
    """

    def __init__(self, on_reference=None) -> None:
        self.chunks: List[Chunk] = []
        self._on_reference = on_reference
        self._excluded = 0.0
        self._running = False

    @property
    def current(self) -> int:
        """Index of the chunk now accumulating work."""
        return len(self.chunks) - 1

    @property
    def references(self) -> List[float]:
        if not self.chunks:
            return []
        return [c.ref_before for c in self.chunks] + [self.chunks[-1].ref_after]

    def _reference(self) -> float:
        t0 = time.perf_counter()
        d = reference_loop()
        if self._on_reference is not None:
            self._on_reference(t0, t0 + d)
        return d

    def start(self) -> None:
        ref = self._reference()
        self.chunks.append(Chunk(ref_before=ref, start=time.perf_counter()))
        self._excluded = 0.0
        self._running = True

    def _close(self) -> float:
        chunk = self.chunks[-1]
        chunk.work_s = time.perf_counter() - chunk.start - self._excluded
        chunk.ref_after = self._reference()
        return chunk.ref_after

    def between_operations(self) -> None:
        """Close the chunk and run the reference once INTERVAL_S passed."""
        if not self._running:
            return
        if time.perf_counter() - self.chunks[-1].start >= INTERVAL_S:
            ref = self._close()
            self.chunks.append(Chunk(ref_before=ref, start=time.perf_counter()))
            self._excluded = 0.0

    def stop(self) -> None:
        if self._running:
            self._close()
            self._running = False

    @contextlib.contextmanager
    def excluded(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0
