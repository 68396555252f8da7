"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` replaces a layer's public function or method with a
wrapper that records one span per call: name, start, end, the span that
was open when it was called (its parent), the id of the benchmark
operation it belongs to, and optional count attributes taken from the
call's arguments or result. Spans stay in memory. Worker processes
forked while the wrappers are installed inherit them; each worker
records a ``worker.process`` root span covering its life and writes its
spans to its own file when it exits, and :meth:`Tracer.collect` merges
those files with the parent's spans.

A boundary names its target as ``"module:attribute"`` or
``"module:Class.method"``. A module-level function is replaced in every
``repro`` module that imported it by name, so callers that did
``from x import f`` see the wrapper too.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import multiprocessing.util
import os
import pathlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

AttrsFn = Callable[[tuple, dict, Any], Dict[str, float]]

WORKER_SPAN = "worker.process"
REFERENCE_SPAN = "bench.reference"


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One traced call: the span name and the callable it wraps."""

    span: str
    target: str
    attrs: Optional[AttrsFn] = None


def _resolve(target: str) -> Tuple[object, str]:
    """``"mod:Cls.meth"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"trace boundary {target!r} does not exist")
    return owner, parts[-1]


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        #: The benchmark operation now in progress; forked workers inherit it.
        self.op = -1
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False
        self._worker_root: Optional[int] = None
        self._worker_start = 0.0
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, t0, t1, attrs) -> None:
        self.spans.append(
            {
                "pid": self.pid,
                "id": sid,
                "parent": parent,
                "name": name,
                "start": t0,
                "end": t1,
                "op": self.op,
                "attrs": attrs,
            }
        )

    def add_span(self, name: str, t0: float, t1: float) -> None:
        """Record a span the benchmark timed itself (reference loop, checks)."""
        stack = self._stack()
        self._record(next(self._ids), stack[-1] if stack else None, name, t0, t1, None)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, func: Callable, attrs: Optional[AttrsFn]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, parent, name, t0, t1, {"error": 1})
                raise
            t1 = time.perf_counter()
            stack.pop()
            tracer._record(
                sid, parent, name, t0, t1, attrs(args, kwargs, result) if attrs else None
            )
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def install(self, boundaries: Sequence[Boundary]) -> None:
        for b in boundaries:
            owner, attr = _resolve(b.target)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(owner, type) and raw is None:
                raise AttributeError(f"{b.target!r} is inherited; name the defining class")
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(b.span, raw.__func__, b.attrs))
                self._patch(owner, attr, raw, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, attr, raw, self.wrap(b.span, raw, b.attrs))
            else:
                original = getattr(owner, attr)
                wrapped = self.wrap(b.span, original, b.attrs)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if not name.startswith(("repro", "perfbench")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapped)
        self._installed = True

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked worker: start a fresh span list under a root span."""
        if not self._installed:
            return
        self.spans = []
        self.counters = {}
        self.pid = os.getpid()
        self._local = threading.local()
        self._worker_root = next(self._ids)
        self._local.stack = [self._worker_root]
        self._worker_start = time.perf_counter()
        # Finalizers with a priority run in the child's exit path
        # (multiprocessing's _exit_function), before os._exit.
        multiprocessing.util.Finalize(self, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        self._record(
            self._worker_root, None, WORKER_SPAN, self._worker_start, time.perf_counter(), None
        )
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> List[Dict[str, Any]]:
        """The parent's spans plus every worker's, worker files removed."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return spans
