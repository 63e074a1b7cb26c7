"""Command-line interface.

Three subcommands:

* ``run`` — execute a full study from a config file and write the report.
* ``histogram`` — dump the scenario distribution of one (event, window)
  as fixed-bin CSV counts, for plotting or eyeballing.
* ``verify-table3`` — replay the decision rule over a published results
  fixture and report any disagreement.

Exit codes: 0 success, 1 partial or data failure or an output that cannot
be written, 2 configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import report as report_mod
from .bootstrap import percentile_of
from .config import load_run_config
from .errors import ConfigError, EventStudyError
from .inference import event_scenario_distribution, parse_window_label
from .ingest import load_event_registry, load_price_series

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventstudy",
        description="Measure the stock-price impact of dated announcements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full study and write its report")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    _add_overrides(run_p)
    run_p.add_argument("--out", help="report path (overrides the config file)")
    run_p.add_argument("--format", choices=("csv", "json"), help="report format")

    hist_p = sub.add_parser(
        "histogram", help="write one (event, window) scenario distribution as CSV"
    )
    hist_p.add_argument("--config", required=True, help="path to a key=value config file")
    hist_p.add_argument(
        "--event", required=True,
        help="event to inspect: instrument_id or instrument_id@YYYY-MM-DD",
    )
    hist_p.add_argument("--window", required=True, help="event window label, e.g. '[-1,5]'")
    hist_p.add_argument("--out", required=True, help="histogram CSV path")
    hist_p.add_argument("--bins", type=int, default=200, help="number of bins (default 200)")
    _add_overrides(hist_p)

    verify_p = sub.add_parser(
        "verify-table3",
        help="replay the decision rule over a published-results fixture",
    )
    verify_p.add_argument("--fixtures", required=True, help="fixture CSV path")
    return parser


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="root seed (overrides the config file)")
    parser.add_argument("--mode", choices=("iid", "block"), help="resampling mode")
    parser.add_argument("--scenarios", type=int, help="scenarios per distribution")
    parser.add_argument(
        "--workers", type=int, help="generation threads; results are identical for any value"
    )


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    mapping = {
        "seed": args.seed,
        "mode": args.mode,
        "n_scenarios": args.scenarios,
        "workers": args.workers,
        "output": getattr(args, "out", None) if args.command == "run" else None,
        "format": getattr(args, "format", None),
    }
    return {key: value for key, value in mapping.items() if value is not None}


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _overrides(args))
    outcome = report_mod.run(config)
    print(f"wrote {outcome.report_path} ({len(outcome.rows)} rows)")
    for key, message in outcome.errors:
        print(f"failed {key}: {message}", file=sys.stderr)
    return 1 if outcome.errors else 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _overrides(args))
    config.check_inputs()
    try:
        window = parse_window_label(args.window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")

    events = load_event_registry(config.events_file)
    matches = [
        event for event in events
        if event.key == args.event or event.instrument_id == args.event
    ]
    if not matches:
        raise ConfigError(f"no event matching {args.event!r} in {config.events_file}")
    if len(matches) > 1:
        keys = ", ".join(event.key for event in matches)
        raise ConfigError(f"{args.event!r} is ambiguous; matches: {keys}")
    event = matches[0]
    report_mod.check_writable(Path(args.out))

    market = load_price_series(config.market_file)
    stock = load_price_series(
        config.price_file(event.instrument_id), instrument_id=event.instrument_id
    )
    distribution, car = event_scenario_distribution(
        event, stock, market, window, config.settings, histogram_bins=args.bins
    )
    out = report_mod.emit_histogram(distribution, Path(args.out))
    percentile = percentile_of(distribution, car)
    print(
        f"wrote {out} ({distribution.histogram.counts.size} bins, "
        f"n={distribution.n}); car={car:.9f} percentile={percentile:.5f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fixtures = Path(args.fixtures)
    if not fixtures.is_file():
        raise ConfigError(f"fixture file {fixtures} does not exist")
    total, mismatches = report_mod.verify_decision_fixture(fixtures)
    print(f"checked {total} rows: {len(mismatches)} mismatches")
    for mismatch in mismatches:
        print(mismatch, file=sys.stderr)
    return 0 if not mismatches else 1


def main(argv: list[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
        )
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "histogram": _cmd_histogram, "verify-table3": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (EventStudyError, OSError) as exc:
        # Reading an input turns an OSError into an EventStudyError, so one
        # that reaches here is an output that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
