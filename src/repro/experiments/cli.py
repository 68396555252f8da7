"""Command-line entry point: ``python -m repro.experiments <figure>``.

Runs one of the paper's experiments and prints its table; ``--save`` writes
the result JSON next to the console output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import figures
from repro.experiments.io import save_result

_EXPERIMENTS: Dict[str, Callable[..., figures.FigureResult]] = {
    "fig2": figures.fig2_bus_flows,
    "fig3": figures.fig3_pf_accuracy,
    "fig4": figures.fig4_pf_failure,
    "fig6": figures.fig6_pcf_accuracy,
    "fig7": figures.fig7_pcf_failure,
    "fig8": figures.fig8_qr,
    "equivalence": figures.equivalence_experiment,
    "ablation-pf-variants": figures.ablation_pf_variants,
    "ablation-bit-flips": figures.ablation_state_bit_flips,
    "ablation-message-loss": figures.ablation_message_loss,
    "ablation-data-distribution": figures.ablation_data_distribution,
    "scaling-rounds": figures.scaling_rounds,
    "finding-crossing-deadlock": figures.finding_crossing_deadlock,
}

_SCALED = {"fig2": False, "fig3": True, "fig6": True, "fig8": True}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures as tables.",
        epilog=(
            "Scenario sweeps: 'python -m repro.experiments campaign <spec>' "
            "runs a fault-injection campaign grid (see repro.campaigns; "
            "'campaign --help' for options, including the execution "
            "--engine: object, vectorized or batched). Causal tracing: "
            "'python -m "
            "repro.experiments trace run|diff|query|validate' (see "
            "repro.tracing; 'trace --help' for options). Campaign "
            "analytics: 'python -m repro.experiments analyze <dir>' "
            "regenerates registry figures and writes an HTML dashboard "
            "(see repro.analysis.campaigns; 'analyze --help'). Live "
            "observability: 'python -m repro.experiments serve <dir>' "
            "serves a campaign's /metrics, /progress, /alerts and "
            "/dashboard over HTTP (see repro.telemetry.server; "
            "'serve --help'; campaigns expose the same endpoints "
            "in-flight via 'campaign ... --metrics-port'). Reduction "
            "service: 'python -m repro.experiments serve-reductions' "
            "runs the persistent multi-tenant aggregation daemon with "
            "live /metrics, /healthz and /jobs (see repro.service; "
            "'serve-reductions --help')."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        choices=["small", "medium", "paper"],
        default="small",
        help="parameter range for the scaling experiments (default: small)",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the result as JSON to PATH (directory for 'all')",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render recorded error series as ASCII log plots",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "capture metrics + per-round trace for every engine the "
            "experiment runs and dump them (JSONL/CSV/Prometheus) to PATH; "
            "summarize with 'python -m repro.telemetry.report PATH'"
        ),
    )
    parser.add_argument(
        "--telemetry-every",
        metavar="N",
        type=int,
        default=None,
        help=(
            "record per-round telemetry every N rounds (default: 8; "
            "sampling keeps default-on overhead low — message totals stay "
            "exact, per-message detail and phase timing are thinned)"
        ),
    )
    parser.add_argument(
        "--telemetry-sample-rate",
        metavar="RATE",
        type=float,
        default=None,
        help=(
            "alternative to --telemetry-every: sample fraction in (0, 1], "
            "e.g. 0.125 records one round in 8"
        ),
    )
    return parser


def run_experiment(name: str, scale: str) -> figures.FigureResult:
    func = _EXPERIMENTS[name]
    if _SCALED.get(name, False):
        return func(scale=scale)
    return func()


def _run_and_report(args: argparse.Namespace, names: List[str]) -> None:
    for name in names:
        result = run_experiment(name, args.scale)
        print(result.render())
        print()
        if args.plot and result.series:
            from repro.experiments.plotting import ascii_log_plot

            print(
                ascii_log_plot(
                    result.series, title=f"{result.figure} — error series"
                )
            )
            print()
        if args.save:
            target = (
                f"{args.save.rstrip('/')}/{name}.json"
                if args.experiment == "all"
                else args.save
            )
            save_result(result, target)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        # Campaign sweeps have their own axes/options; dispatch before the
        # figure parser so 'campaign' composes with the figure subcommands.
        from repro.campaigns.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.tracing.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.analysis.campaigns.cli import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.telemetry.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "serve-reductions":
        from repro.service.cli import main as service_main

        return service_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.telemetry_every is not None and args.telemetry_every < 1:
        parser.error(f"--telemetry-every must be >= 1, got {args.telemetry_every}")
    if args.telemetry_every is not None and args.telemetry_sample_rate is not None:
        parser.error(
            "--telemetry-every and --telemetry-sample-rate are mutually "
            "exclusive"
        )
    if args.telemetry_sample_rate is not None and not (
        0.0 < args.telemetry_sample_rate <= 1.0
    ):
        parser.error(
            f"--telemetry-sample-rate must be in (0, 1], got "
            f"{args.telemetry_sample_rate}"
        )
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.telemetry:
        from repro.telemetry import capture

        with capture(
            args.telemetry,
            sample_every=args.telemetry_every,
            sample_rate=args.telemetry_sample_rate,
        ):
            _run_and_report(args, names)
        print(
            f"telemetry dumped to {args.telemetry} "
            f"(summarize: python -m repro.telemetry.report {args.telemetry})"
        )
    else:
        _run_and_report(args, names)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
