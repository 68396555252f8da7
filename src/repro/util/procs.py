"""Worker processes: one call, one child process, one pipe.

Campaign sweeps and the reduction daemon run work in child processes
the same way. An :class:`Attempt` runs ``fn(*args)`` in a fresh process
(fork on Linux, spawn elsewhere) with a one-way pipe back; the child
sends ``("ok", result)`` or ``("error", text)`` and exits. The parent
waits on the pipe and the process sentinel together (:func:`wait_any`),
reads the pipe before it joins the child — a result larger than the
pipe buffer blocks the child until it is read — and terminates the
child at its deadline. Results travel as pickle, which round-trips
float64 arrays exactly. :func:`call` gives the same outcome for a call
made in this process, so callers settle inline and worker attempts with
one piece of code.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from multiprocessing import connection
from typing import Callable, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: ``("ok", result)``, ``("error", text)`` or ``("timeout", None)``.
Outcome = Tuple[str, object]


def mp_context(start_method: Optional[str] = None):
    """Explicit multiprocessing context selection.

    ``fork`` on Linux (cheap, inherits the imported NumPy), ``spawn``
    everywhere else, where forking a threaded Python is unsafe. Pass
    ``start_method`` to force one — e.g. ``spawn`` on Linux to mirror
    macOS/Windows behavior in tests.
    """
    if start_method is None:
        start_method = "fork" if sys.platform.startswith("linux") else "spawn"
    available = multiprocessing.get_all_start_methods()
    if start_method not in available:
        raise ConfigurationError(
            f"multiprocessing start method {start_method!r} is not "
            f"available on this platform; available: {available}"
        )
    return multiprocessing.get_context(start_method)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def call(fn: Callable[..., object], *args, **kwargs) -> Outcome:
    """Run ``fn`` in this process: ``("ok", result)`` or ``("error", text)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the outcome carries it
        return ("error", _describe(exc))


def _child(fn: Callable[..., object], args: Tuple[object, ...], conn) -> None:
    """Worker body: run the call and send its outcome home."""
    outcome = call(fn, *args)
    try:
        conn.send(outcome)
    except Exception as exc:  # noqa: BLE001 - e.g. a result that does not pickle
        conn.send(("error", _describe(exc)))


class Attempt:
    """``fn(*args)`` running in a child process, its outcome on a pipe."""

    def __init__(
        self,
        ctx,
        fn: Callable[..., object],
        args: Sequence[object],
        deadline: Optional[float] = None,
    ) -> None:
        #: ``time.monotonic()`` past which the child is terminated.
        self.deadline = deadline
        self.reader, writer = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child, args=(fn, tuple(args), writer), daemon=True
        )
        self.process.start()
        writer.close()  # the child holds the only write end now

    def outcome(self) -> Optional[Outcome]:
        """The attempt's outcome, or None while the child still runs.

        A child that exits without reporting yields
        ``("error", "worker crashed (exit code N)")``. A landed result
        wins over an expired deadline (the work is done either way), and
        liveness is sampled before the pipe, so a child that reported and
        exited is never mistaken for a crash. A settled attempt is reaped
        and its pipe closed.
        """
        proc = self.process
        alive = proc.is_alive()
        outcome: Optional[Outcome] = None
        if self.reader.poll():
            try:
                outcome = self.reader.recv()
            except EOFError:  # died before (or while) reporting
                pass
            proc.join()  # a child that reported may still be exiting
        elif alive:
            if self.deadline is None or time.monotonic() <= self.deadline:
                return None
            outcome = ("timeout", None)
        self.close()
        if outcome is None:
            outcome = ("error", f"worker crashed (exit code {proc.exitcode})")
        return outcome

    def close(self) -> None:
        """Terminate the child if it still runs, reap it, close the pipe."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.reader.close()


def wait_any(attempts: Sequence[Attempt]) -> None:
    """Block until an attempt reports, exits or reaches the nearest deadline."""
    deadlines = [a.deadline for a in attempts if a.deadline is not None]
    timeout = (
        max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
    )
    connection.wait(
        [a.reader for a in attempts] + [a.process.sentinel for a in attempts],
        timeout,
    )


def run(
    ctx,
    fn: Callable[..., object],
    args: Sequence[object],
    deadline: Optional[float] = None,
) -> Outcome:
    """One attempt, start to outcome: :class:`Attempt` plus the wait."""
    attempt = Attempt(ctx, fn, args, deadline)
    try:
        while True:
            wait_any([attempt])
            outcome = attempt.outcome()
            if outcome is not None:
                return outcome
    finally:
        attempt.close()
