"""Phase profiling: where do gossip rounds spend their wall-clock time?

:class:`PhaseTimer` aggregates the ``on_phase_end`` hook every engine emits
(synchronous engine: ``send`` / ``transport`` / ``deliver`` / ``handle``
per round; async engine: ``send`` / ``deliver`` per event; vectorized
engines: ``send`` / ``deliver`` per round) into per-phase totals and — when
given a registry — the ``repro_phase_seconds{engine=,phase=}`` histogram.

It can also time arbitrary code blocks outside an engine via
:meth:`PhaseTimer.time`, which is built on the repo's stopwatch
:class:`repro.util.timer.Timer`.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.simulation.observers import Observer
from repro.telemetry.registry import LabelKey, MetricsRegistry, _label_key
from repro.telemetry.sampling import RoundSampler, resolve_sampler
from repro.util.timer import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.engine import SynchronousEngine


class PhaseTimer(Observer):
    """Collects phase wall-times from engine hooks (or manual blocks).

    ``sampler`` thins the profile: the timer requests engine phase timing
    (via ``wants_detail``) only on sampled rounds, so a sampled profile
    costs a fraction of a full one. Default is every round, the
    historical behavior.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        engine_kind: Optional[str] = None,
        sampler: Optional[RoundSampler] = None,
        metric: str = "repro_phase_seconds",
        help: str = "Engine phase wall time",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self._kind = engine_kind
        self._sampler = resolve_sampler(sampler)
        self._labels = dict(labels or {})
        self._hist = (
            registry.histogram(metric, help) if registry is not None else None
        )
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.maxima: Dict[str, float] = {}
        # Histogram label key per (engine kind, phase), built on first use.
        self._keys: Dict[Tuple[str, str], LabelKey] = {}

    def _record(self, engine_kind: str, phase: str, seconds: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1
        if seconds > self.maxima.get(phase, 0.0):
            self.maxima[phase] = seconds
        if self._hist is not None:
            key = self._keys.get((engine_kind, phase))
            if key is None:
                key = self._keys[engine_kind, phase] = _label_key(
                    dict(self._labels, engine=engine_kind, phase=phase)
                )
            self._hist.observe_key(key, seconds)

    def record(
        self, phase: str, seconds: float, *, engine_kind: Optional[str] = None
    ) -> None:
        """Record an externally measured duration as a named phase."""
        self._record(engine_kind or self._kind or "manual", phase, seconds)

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def wants_detail(self, round_index: int) -> bool:
        return self._sampler.sample(round_index)

    def on_phase_end(
        self, engine: "SynchronousEngine", phase: str, seconds: float
    ) -> None:
        self._record(self._kind or type(engine).__name__, phase, seconds)

    # ------------------------------------------------------------------
    # Manual instrumentation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def time(self, phase: str, *, engine_kind: str = "manual") -> Iterator[Timer]:
        """Time a code block as a named phase (outside any engine)."""
        with Timer() as timer:
            yield timer
        self._record(engine_kind, phase, timer.elapsed)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> List[Tuple[str, float, int, float, float]]:
        """Rows ``(phase, total_s, count, mean_s, max_s)``, slowest first."""
        rows = []
        for phase, total in self.totals.items():
            count = self.counts[phase]
            rows.append(
                (phase, total, count, total / count, self.maxima[phase])
            )
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows
