"""Fail CI when the vectorized engine's relative speed regresses.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py current.json \
        --baseline BENCH_engine.json --max-regression 0.30 \
        --max-sampled-slowdown 1.5

Wall-clock rounds/sec is machine-dependent, so comparing a CI runner's
absolute numbers against the committed ``BENCH_engine.json`` (measured on a
different box) would flag hardware, not code. Instead we compare the
**vector/sync throughput ratio** per problem size: both engines run the same
rounds on the same machine in the same process, so their ratio cancels the
hardware term and isolates "did the vectorized engine get slower relative
to the object engine". A ratio drop beyond ``--max-regression`` (default
30%) exits 1.

The second gate is the sampled-telemetry overhead budget: each vectorized
entry's ``overhead_sampled.slowdown`` (plain vs default-sampled telemetry
throughput, also a same-machine ratio) must stay at or below
``--max-sampled-slowdown`` (default 1.5). This is the promise that keeps
default-on observability affordable; the full-detail ``overhead`` numbers
are informational only.

The third gate is the batched-campaign throughput ratio: the ``batched``
bench entry's ``speedup_vs_sequential_sync`` (one whole-array program for
a 16-run seed axis vs the same runs sequentially on the object engine,
again a same-machine ratio) must stay at or above
``--min-batched-speedup`` (default 5).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional


def load_ratios(path: str) -> Dict[int, float]:
    """Map n -> (vector rounds/sec) / (sync rounds/sec) from a bench JSON."""
    with open(path) as fh:
        payload = json.load(fh)
    by_engine: Dict[str, Dict[int, float]] = {}
    for entry in payload.get("entries", []):
        engine = entry.get("engine")
        n = entry.get("n")
        rps = entry.get("rounds_per_sec")
        if engine not in ("sync", "vector") or n is None or not rps:
            continue
        by_engine.setdefault(engine, {})[int(n)] = float(rps)
    sync = by_engine.get("sync", {})
    vector = by_engine.get("vector", {})
    return {
        n: vector[n] / sync[n] for n in sorted(sync) if n in vector and sync[n] > 0
    }


def load_sampled_slowdowns(path: str) -> Dict[int, float]:
    """Map n -> vectorized ``overhead_sampled.slowdown`` from a bench JSON."""
    with open(path) as fh:
        payload = json.load(fh)
    slowdowns: Dict[int, float] = {}
    for entry in payload.get("entries", []):
        if entry.get("engine") != "vector":
            continue
        sampled = entry.get("overhead_sampled") or {}
        n = entry.get("n")
        slowdown = sampled.get("slowdown")
        if n is not None and slowdown is not None:
            slowdowns[int(n)] = float(slowdown)
    return slowdowns


def load_batched_speedups(path: str) -> Dict[int, float]:
    """Map n -> ``speedup_vs_sequential_sync`` of batched bench entries.

    The multiprocess ``batched-groups`` entry is informational — its
    ratio tracks the runner's core count, not this repo's kernels.
    """
    with open(path) as fh:
        payload = json.load(fh)
    speedups: Dict[int, float] = {}
    for entry in payload.get("entries", []):
        if entry.get("engine") != "batched":
            continue
        n = entry.get("n")
        speedup = entry.get("speedup_vs_sequential_sync")
        if n is not None and speedup is not None:
            speedups[int(n)] = float(speedup)
    return speedups


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Compare vector/sync throughput ratios against a baseline."
    )
    parser.add_argument("current", help="bench JSON from this checkout")
    parser.add_argument(
        "--baseline",
        default="BENCH_engine.json",
        help="committed baseline JSON (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="allowed fractional ratio drop before failing (default: 0.30)",
    )
    parser.add_argument(
        "--max-sampled-slowdown",
        type=float,
        default=1.5,
        metavar="X",
        help=(
            "budget for the vectorized engine's default-sampled telemetry "
            "slowdown; 0 disables the gate (default: 1.5)"
        ),
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=5.0,
        metavar="X",
        help=(
            "required speedup of the batched seed-axis program over "
            "sequential object-engine execution; 0 disables the gate "
            "(default: 5)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        current = load_ratios(args.current)
        baseline = load_ratios(args.baseline)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    common = sorted(set(current) & set(baseline))
    if not common:
        print(
            "error: no common problem sizes between "
            f"{args.current} ({sorted(current)}) and "
            f"{args.baseline} ({sorted(baseline)})",
            file=sys.stderr,
        )
        return 1

    failures = []
    print(f"{'n':>6}  {'baseline':>10}  {'current':>10}  {'change':>8}  verdict")
    for n in common:
        base, cur = baseline[n], current[n]
        change = cur / base - 1.0
        regressed = change < -args.max_regression
        verdict = "FAIL" if regressed else "ok"
        print(f"{n:>6}  {base:>10.2f}  {cur:>10.2f}  {change:>+7.1%}  {verdict}")
        if regressed:
            failures.append(n)

    if failures:
        print(
            f"error: vector/sync ratio regressed more than "
            f"{args.max_regression:.0%} at n={failures} — the vectorized "
            "engine got slower relative to the object engine.",
            file=sys.stderr,
        )
        return 1
    print(f"ratios within {args.max_regression:.0%} of baseline for n={common}")

    if args.max_sampled_slowdown > 0:
        slowdowns = load_sampled_slowdowns(args.current)
        if not slowdowns:
            print(
                "error: current bench JSON carries no vectorized "
                "overhead_sampled entries to gate on",
                file=sys.stderr,
            )
            return 1
        over = {
            n: s for n, s in slowdowns.items() if s > args.max_sampled_slowdown
        }
        for n in sorted(slowdowns):
            verdict = "FAIL" if n in over else "ok"
            print(
                f"sampled-telemetry slowdown n={n}: {slowdowns[n]:.2f}x "
                f"(budget {args.max_sampled_slowdown:.2f}x) {verdict}"
            )
        if over:
            print(
                "error: default-sampled telemetry exceeds the "
                f"{args.max_sampled_slowdown:.2f}x budget at "
                f"n={sorted(over)} — the sampling fast path regressed.",
                file=sys.stderr,
            )
            return 1

    if args.min_batched_speedup > 0:
        speedups = load_batched_speedups(args.current)
        if not speedups:
            print(
                "error: current bench JSON carries no batched entries "
                "to gate on",
                file=sys.stderr,
            )
            return 1
        under = {
            n: s for n, s in speedups.items() if s < args.min_batched_speedup
        }
        for n in sorted(speedups):
            verdict = "FAIL" if n in under else "ok"
            print(
                f"batched axis speedup n={n}: {speedups[n]:.1f}x "
                f"(floor {args.min_batched_speedup:.1f}x) {verdict}"
            )
        if under:
            print(
                "error: batched seed-axis execution fell below the "
                f"{args.min_batched_speedup:.1f}x floor over sequential "
                f"object-engine cells at n={sorted(under)}.",
                file=sys.stderr,
            )
            return 1

    return 0


if __name__ == "__main__":
    sys.exit(main())
