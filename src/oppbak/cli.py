"""Command-line front end: run scenarios, batch replications, or query the estimator.

Exit codes are a stable contract: 0 on success, 1 on a runtime failure,
2 on a usage or scenario-parse failure. Only the JSON and CSV output
formats are meant for machine consumption.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence, TextIO, Union

from .model import UsageError
from .reliability import ReliabilityTable
from .scenario import ConfigError, load_scenario
from .sim import BatchReport, MetricsReport, run, run_batch


def _write_json(report: Union[MetricsReport, BatchReport], out: TextIO) -> None:
    # `json.dump` writes the encoder's chunks as they come, with no whole-document string
    json.dump(report.to_json_dict(), out, sort_keys=True, indent=2)
    out.write("\n")


def _write_csv(report: Union[MetricsReport, BatchReport], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(report, MetricsReport):
        writer.writerow(["metric", "value"])
        for name in MetricsReport.scalar_metrics:
            writer.writerow([name, getattr(report, name)])
        for band in sorted(report.loss_ratio_by_band):
            writer.writerow([f"loss_ratio[{band}]", report.loss_ratio_by_band[band]])
    else:
        writer.writerow(["metric", "mean", "stdev", "ci_low", "ci_high"])
        for name in sorted(report.metrics):
            stats = report.metrics[name]
            writer.writerow(
                [name, stats["mean"], stats["stdev"], stats["ci_low"], stats["ci_high"]]
            )


def _write_human(report: Union[MetricsReport, BatchReport], out: TextIO) -> None:
    lines = []
    if isinstance(report, MetricsReport):
        lines.append(f"run seed={report.seed} horizon={report.horizon_s:.0f}s")
        lines.append(f"  {'items produced':<24}{report.items_produced}")
        lines.append(f"  {'items measured':<24}{report.items_measured}")
        lines.append(f"  {'loss ratio':<24}{report.loss_ratio:.4f}")
        for band in sorted(report.loss_ratio_by_band):
            lines.append(f"    priority {band}     {report.loss_ratio_by_band[band]:.4f}")
        counts: dict[str, int] = {}
        for outcome in report.outcomes.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        for name in sorted(counts):
            lines.append(f"  {name:<24}{counts[name]}")
        lines.append(f"  {'fragments saved':<24}{report.fragments_saved}")
        lines.append(f"  {'bytes to peers':<24}{report.bytes_to_peers}")
        lines.append(f"  {'bytes to server':<24}{report.bytes_to_server}")
        lines.append(f"  {'conflicts':<24}{report.conflict_count}")
        lines.append(f"  {'restore episodes':<24}{len(report.calibration_episodes)}")
    else:
        lines.append(f"batch seed={report.seed} replications={report.replications}")
        for name in sorted(report.metrics):
            stats = report.metrics[name]
            lines.append(
                f"  {name:<24}{stats['mean']:>14.4f}  "
                f"[{stats['ci_low']:.4f}, {stats['ci_high']:.4f}]"
            )
        lines.append(f"  pooled restore episodes {len(report.calibration_episodes)}")
    out.write("\n".join(lines) + "\n")


_FORMATTERS = {"json": _write_json, "csv": _write_csv, "human": _write_human}


def _write_report(report: Union[MetricsReport, BatchReport], args: argparse.Namespace) -> None:
    """Write the report in the chosen format to `--output`, opened only now, or stdout."""
    write = _FORMATTERS[args.format]
    if args.output:
        with open(args.output, "w") as handle:
            write(report, handle)
    else:
        write(report, sys.stdout)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario, seed_override=args.seed)
    if args.trace:  # opened before the run, so a bad path fails first; lines go out as emitted
        with open(args.trace, "w") as trace:
            report = run(config, trace=lambda line: trace.write(line + "\n"))
    else:
        report = run(config)
    _write_report(report, args)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario, seed_override=args.seed)
    _write_report(run_batch(config, args.replications), args)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    table = ReliabilityTable.fresh(args.k)
    for p in args.probs:
        table = table.add_fragment(p)
    value = table.success
    for dep in args.dep or []:
        if not 0.0 <= dep <= 1.0:
            raise UsageError(f"dependency factor must be in [0, 1], got {dep}")
        value *= dep
    sys.stdout.write(f"{value:.12f}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppbak",
        description="Opportunistic peer backup simulator and estimator tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and report metrics")
    p_run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--format", choices=sorted(_FORMATTERS), default="human")
    p_run.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_run.add_argument("--trace", default=None, help="write a line-per-event trace log here")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run replicated seeds and aggregate")
    p_batch.add_argument("--scenario", required=True)
    p_batch.add_argument("--replications", type=int, required=True)
    p_batch.add_argument("--seed", type=int, default=None)
    p_batch.add_argument("--format", choices=sorted(_FORMATTERS), default="human")
    p_batch.add_argument("--output", default=None)
    p_batch.set_defaults(func=_cmd_batch)

    p_est = sub.add_parser(
        "estimate", help="restore probability after a given sequence of saves"
    )
    p_est.add_argument("--k", type=int, required=True, help="fragments needed to rebuild")
    p_est.add_argument(
        "--probs", type=float, nargs="+", required=True,
        help="retrieval probability of each saved fragment, in save order",
    )
    p_est.add_argument(
        "--dep", type=float, action="append", default=None,
        help="restore probability of a dependency (repeatable)",
    )
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: runtime failures exit 1
        sys.stderr.write(f"runtime error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
