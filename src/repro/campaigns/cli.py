"""CLI for campaign sweeps: ``python -m repro.experiments campaign <spec>``.

``<spec>`` is a builtin name (``fig4-recovery``, ``smoke``, ``loss-grid``)
or a TOML/JSON spec file; results land in ``--out`` (default
``results/campaigns/<name>``) as a resumable ``results.jsonl``, and the
scenario summary prints at the end. Re-invoking the same command resumes:
already-recorded cells are skipped.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.exceptions import ConfigurationError
from repro.campaigns.report import render_report
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import load_spec


def build_parser() -> argparse.ArgumentParser:
    from repro.campaigns.builtin import BUILTIN_SPECS

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments campaign",
        description="Run a declarative fault-injection campaign sweep.",
    )
    parser.add_argument(
        "spec",
        help=(
            "campaign spec: a .toml/.json file or a builtin name "
            f"({', '.join(sorted(BUILTIN_SPECS))})"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="result directory (default: results/campaigns/<spec name>)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel worker processes; 0 = run in-process (default)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-run timeout in seconds, enforced in worker mode (default: 300)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per cell after a failed/timed-out attempt (default: 1)",
    )
    parser.add_argument(
        "--engine",
        choices=("object", "vectorized", "batched"),
        default=None,
        help=(
            "override the spec's execution engine; the default output "
            "directory gains a -<engine> suffix so the runs don't collide"
        ),
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help=(
            "multiprocessing start method for --workers > 0 "
            "(default: fork on Linux, spawn elsewhere)"
        ),
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing results.jsonl instead of resuming",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    parser.add_argument(
        "--no-report",
        action="store_true",
        help="skip the scenario summary after the sweep",
    )
    parser.add_argument(
        "--metrics-every",
        type=int,
        metavar="N",
        default=0,
        help=(
            "re-export campaign aggregates to <out>/metrics/ "
            "(Prometheus/JSONL/CSV) after every N recorded cells, for "
            "in-flight observability; 0 disables (default)"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        default=None,
        help=(
            "serve live /metrics, /healthz, /progress, /alerts and "
            "/dashboard over HTTP for the duration of the sweep; 0 binds "
            "an ephemeral port (logged, and written to <out>/server.json "
            "either way); omit to open no socket at all (default)"
        ),
    )
    parser.add_argument(
        "--strict-alerts",
        action="store_true",
        help=(
            "exit nonzero when any anomaly-detector alert fired during "
            "the sweep (implies the post-sweep report)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
        if args.engine is not None and args.engine != spec.engine:
            from repro.campaigns.spec import CampaignSpec

            spec = CampaignSpec.from_dict({**spec.to_dict(), "engine": args.engine})
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    default_out = f"results/campaigns/{spec.name}"
    if args.engine is not None and args.engine != "object":
        default_out += f"-{args.engine}"
    out_dir = pathlib.Path(args.out or default_out)
    log = (lambda _msg: None) if args.quiet else print
    try:
        run = run_campaign(
            spec,
            out_dir,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            resume=not args.fresh,
            log=log,
            metrics_every=args.metrics_every,
            start_method=args.start_method,
            metrics_port=args.metrics_port,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"campaign {spec.name!r}: {run.total_cells} cells — "
        f"{run.skipped} skipped (already done), {run.ok} ok, "
        f"{run.failed} failed, {run.retries_used} retries "
        f"-> {run.results_path}"
    )
    if not args.no_report or args.strict_alerts:
        text, _problems = render_report(out_dir)
        if not args.no_report:
            print()
            print(text)
    if args.strict_alerts:
        from repro.campaigns.report import total_alerts

        alerts = total_alerts(out_dir)
        if alerts:
            print(f"error: {alerts} anomaly alert(s) fired", file=sys.stderr)
            return 1
    return 1 if run.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
