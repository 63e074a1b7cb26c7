"""Run orchestration and report rendering.

One run walks the event registry in file order, judges each event over the
five standard windows, and writes a single report.  Events fail
independently: a missing price file or thin history for one event is
recorded in the returned :class:`RunOutcome`, and the run moves on.  If
anything failed, the report is written with a ``.partial`` suffix so
downstream consumers can never mistake an incomplete report for a complete
one.  The write is atomic, and each run removes the other kind of report an
earlier run left behind, so ``<output>`` and ``<output>.partial`` never both
exist after a run.

Report bytes are a pure function of inputs and configuration — the run's
timing lives in the returned :class:`RunOutcome`, never in the report
itself — so re-running a study is expected to reproduce the file bit for
bit.  This module prints and logs nothing: the outcome is the one record
of a run, and the CLI prints from it.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .bootstrap import GENERATOR, ScenarioDistribution
from .config import RunConfig
from .errors import ConfigError, DataFormatError, EventStudyError
from .inference import DEFAULT_ESTIMATION_DAYS, EventResult, classify_impact, run_event_study
from .ingest import EventRecord, PriceSeries, load_event_registry, load_price_series, read_csv_rows

__all__ = [
    "REPORT_COLUMNS",
    "ReportRow",
    "RunOutcome",
    "run",
    "render_csv",
    "render_json",
    "emit_histogram",
    "check_writable",
    "verify_decision_fixture",
]

class ReportRow(NamedTuple):
    """One (event, window) line of the report, ready to render."""

    company: str
    event_period: str
    car: float
    car_percentile: float
    impact: str
    car_additive: float
    instrument_id: str
    announcement_date: str
    seed: int
    mode: str
    n_scenarios: int
    estimation_days: int
    generator: str
    flags: str

    @classmethod
    def from_result(cls, result: EventResult) -> ReportRow:
        event, settings = result.event, result.settings
        return cls(
            company=event.label or event.instrument_id,
            event_period=result.window.label,
            car=result.car,
            car_percentile=result.percentile,
            impact=result.impact.value,
            car_additive=result.car_additive,
            instrument_id=event.instrument_id,
            announcement_date=event.announcement_date.isoformat(),
            seed=settings.seed,
            mode=settings.mode,
            n_scenarios=settings.n_scenarios,
            estimation_days=settings.estimation_days,
            generator=GENERATOR,
            flags=(
                "nonstandard_estimation"
                if settings.estimation_days != DEFAULT_ESTIMATION_DAYS
                else ""
            ),
        )


#: Column order of every report, CSV and JSON alike.
REPORT_COLUMNS = ReportRow._fields


def _csv_text(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """The CSV text of a header and its rows, each line ending in a newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def render_csv(rows: list[ReportRow]) -> str:
    """Render rows as CSV: CARs to 9 decimals, percentiles to 5."""
    return _csv_text(REPORT_COLUMNS, (
        row._replace(
            car=f"{row.car:.9f}",
            car_percentile=f"{row.car_percentile:.5f}",
            car_additive=f"{row.car_additive:.9f}",
        )
        for row in rows
    ))


def render_json(rows: list[ReportRow]) -> str:
    """Render rows as JSON, keeping floats at full precision.

    The bytes are those of ``json.dumps({"rows": [...]}, indent=2)`` plus a
    final newline.  A row is flat, so the C encoder with the indent written
    into its item separator gives the indented row, and one join builds the
    report around the rows.
    """
    import json  # only JSON reports need the encoder

    if not rows:
        return '{\n  "rows": []\n}\n'
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    pieces = ['{\n  "rows": [']
    for row in rows:
        pieces += ("\n    {\n      ", encode(row._asdict())[1:-1], "\n    },")
    pieces[-1] = "\n    }\n  ]\n}\n"  # the last row takes no comma and closes the report
    return "".join(pieces)


@dataclass
class RunOutcome:
    """The one record of a run: what it wrote, what failed and how long it took.

    ``rows`` are the report's rows, five per judged event; ``errors`` holds
    ``(event key, message)`` for each failed event, in registry order, and
    makes the report ``.partial``.  No rows and no errors means the registry
    was empty.  ``elapsed_seconds`` is never written into the report.
    """

    rows: list[ReportRow]
    errors: list[tuple[str, str]]
    report_path: Path
    elapsed_seconds: float


def _write_atomically(path: Path, content: str) -> None:
    """Write through a temporary file in the same directory, then rename it into place.

    Readers see either the previous file or the complete new one, never a
    half-written report.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_text(content, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def check_writable(path: Path, reads: Iterable[Path]) -> None:
    """Raise unless an output could be written or removed at ``path``; create nothing.

    :class:`ConfigError` if ``path`` names one of the input files ``reads``
    (compared after :meth:`Path.resolve`, so ``..`` and links count), since
    writing or removing it would destroy that input.  :class:`OSError` if
    ``path`` is a directory, or the nearest existing ancestor of its
    directory is not a writable directory: :func:`_write_atomically` makes
    the missing ones.
    """
    resolved = path.resolve()
    for read in reads:
        if read.resolve() == resolved:
            raise ConfigError(f"output {path} would destroy the input file {read}")
    if path.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    directory = path.parent
    while not directory.exists() and directory != directory.parent:
        directory = directory.parent
    if not (directory.is_dir() and os.access(directory, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {directory} is not a writable directory")


def _judge_events(
    config: RunConfig, events: list[EventRecord], market: PriceSeries
) -> tuple[list[ReportRow], list[tuple[str, str]]]:
    """Judge every event in registry order; a failed event is recorded, not raised.

    Each price file is read once: ``stocks`` holds the loaded series, or the
    message of the error loading raised (not the error, whose traceback
    would keep the failed parse's frames alive), so a bad file fails every
    event of its instrument with the same message.  The histories are
    released on return, before the report is rendered.
    """
    rows: list[ReportRow] = []
    errors: list[tuple[str, str]] = []
    stocks: dict[str, PriceSeries | str] = {}
    for event in events:
        instrument = event.instrument_id
        try:
            stock = stocks.get(instrument)
            if stock is None:
                stock = load_price_series(config.price_file(instrument), instrument_id=instrument)
                stocks[instrument] = stock
            elif isinstance(stock, str):  # the file failed to load for an earlier event
                raise EventStudyError(stock)
            results = run_event_study(event, stock, market, config.settings)
        except EventStudyError as exc:
            stocks.setdefault(instrument, str(exc))  # no-op unless the load itself failed
            errors.append((event.key, str(exc)))
            continue
        rows.extend(ReportRow.from_result(result) for result in results)
    return rows, errors


def run(config: RunConfig) -> RunOutcome:
    """Execute a full study run and write its report.

    Raises :class:`ConfigError` when referenced inputs are missing or
    writing ``<output>`` or ``<output>.partial`` would destroy one of them,
    :class:`OSError` when the output cannot be written (both checked before
    any event is judged), and :class:`DataFormatError` when the market file
    itself is unusable; a broken *event* (bad price file, thin history,
    degenerate fit) is recorded in the outcome instead and flips the report
    to ``.partial``.
    """
    started = time.perf_counter()
    config.check_inputs()
    events = load_event_registry(config.events_file)
    partial_path = Path(f"{config.output}.partial")
    reads = {config.market_file, config.events_file}
    reads.update(config.price_file(event.instrument_id) for event in events)
    for path in (config.output, partial_path):
        check_writable(path, reads)

    market = load_price_series(config.market_file)
    rows, errors = _judge_events(config, events, market)

    report_path, stale_path = (
        (partial_path, config.output) if errors else (config.output, partial_path)
    )
    content = render_csv(rows) if config.format == "csv" else render_json(rows)
    _write_atomically(report_path, content)
    stale_path.unlink(missing_ok=True)

    return RunOutcome(
        rows=rows,
        errors=errors,
        report_path=report_path,
        elapsed_seconds=time.perf_counter() - started,
    )


def emit_histogram(distribution: ScenarioDistribution, path: str | Path) -> Path:
    """Write a distribution's histogram as ``bin_low,bin_high,count`` CSV."""
    if distribution.histogram is None:
        raise ValueError(
            "distribution carries no histogram; generate it with histogram_bins set"
        )
    edges = distribution.histogram.edges.tolist()
    counts = distribution.histogram.counts.tolist()
    path = Path(path)
    _write_atomically(path, _csv_text(
        ("bin_low", "bin_high", "count"),
        ((repr(lo), repr(hi), count) for lo, hi, count in zip(edges, edges[1:], counts)),
    ))
    return path


def verify_decision_fixture(path: str | Path) -> tuple[int, list[str]]:
    """Re-derive the impact label of every fixture row from its CAR and percentile.

    The fixture CSV needs columns ``company``, ``event_period``, ``car``,
    ``percentile``, ``impact``.  Returns the number of rows checked and a
    list of human-readable mismatch descriptions (empty when the decision
    rule reproduces every published label).
    """
    path = Path(path)
    rows = read_csv_rows(path, ("company", "event_period", "car", "percentile", "impact"))
    valid_labels = {"Negative", "None", "Positive"}
    mismatches: list[str] = []
    checked = 0
    for line, (company, event_period, raw_car, raw_percentile, raw_impact) in rows:
        checked += 1
        expected = (raw_impact or "").strip()
        if expected not in valid_labels:
            raise DataFormatError(
                f"{path}: row {line}: impact must be one of {sorted(valid_labels)}, "
                f"got {expected!r}"
            )
        try:
            car = float(raw_car)
            percentile = float(raw_percentile)
            computed = classify_impact(car, percentile).value
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: row {line}: bad car or percentile ({exc})") from exc
        if computed != expected:
            mismatches.append(
                f"row {line}: {company} {event_period}: "
                f"published {expected}, computed {computed} "
                f"(car={car}, percentile={percentile})"
            )
    return checked, mismatches
