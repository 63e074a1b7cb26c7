"""Output check: every report row against a reference that shares no code with ``src/``.

The reference re-reads the generated CSV files with the standard library,
aligns them on shared dates, fits both market models with scalar loops and
recomputes each window's CAR.  Percentiles are judged against an
independent no-impact distribution:

* ``block`` mode has only ``m - k + 1`` equally likely scenarios, so the
  reference enumerates them and gets the exact percentile;
* ``iid`` mode is resampled with ``numpy.random.default_rng``, a different
  generator from the program's.

A reported percentile passes when it lies on the midrank grid
``100 / (2n)`` and within ``Z_LIMIT`` binomial standard errors of the
reference.  Every check is per event: an event fails when any of its rows
does, and an event the workload expects to be rejected passes only when
the run rejects it and writes no row for it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ESTIMATION_DAYS, SHOCK_DECIDES, Workload

#: Binomial standard errors a percentile may stray from its reference.
Z_LIMIT = 5.0

#: Reference resample size per iid row; the histogram reference uses more.
IID_REFERENCE_SCENARIOS = 20_000
HISTOGRAM_REFERENCE_SCENARIOS = 400_000

COLUMNS = (
    "company", "event_period", "car", "car_percentile", "impact", "car_additive",
    "instrument_id", "announcement_date", "seed", "mode", "n_scenarios",
    "estimation_days", "generator", "flags",
)

_WINDOW = re.compile(r"\[(-?\d+),(-?\d+)\]")


@dataclass
class Verdict:
    """Per-event outcome of one check, plus the reasons for each failure."""

    attempted: int
    failures: dict[str, list[str]] = field(default_factory=dict)
    generator: str | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, []).append(reason)


# --- scalar reference -------------------------------------------------------

def _read_prices(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as handle:
        return {row["date"]: float(row["close"]) for row in csv.DictReader(handle)}


@dataclass(frozen=True)
class EventReference:
    """Everything the reference knows about one accepted event."""

    pool_gross: list[float]  # 1 + abnormal return over the estimation window
    cars: dict[str, float]
    cars_additive: dict[str, float]


def _window_offsets(label: str) -> tuple[int, int]:
    match = _WINDOW.fullmatch(label)
    if match is None:
        raise ValueError(f"bad window label {label!r}")
    return int(match.group(1)), int(match.group(2))


def _window_days(label: str) -> int:
    start, end = _window_offsets(label)
    return end - start + 1


def reference_event(stock: dict[str, float], market: dict[str, float], announced: str,
                    windows: tuple[str, ...]) -> EventReference | None:
    """Scalar re-derivation of one event; ``None`` when its history is too thin."""
    common = sorted(set(stock) & set(market))  # ISO dates sort chronologically
    stock_r = [stock[b] / stock[a] - 1.0 for a, b in zip(common, common[1:])]
    market_r = [market[b] / market[a] - 1.0 for a, b in zip(common, common[1:])]
    calendar = common[1:]
    index = bisect_left(calendar, announced)
    last_offset = max(_window_offsets(w)[1] for w in windows)
    if (index >= len(calendar) or index < ESTIMATION_DAYS + 1
            or len(calendar) - 1 - index < last_offset):
        return None
    est = range(index - ESTIMATION_DAYS - 1, index - 1)
    n = len(est)

    x = [math.log1p(market_r[i]) for i in est]
    y = [math.log1p(stock_r[i]) for i in est]
    x_bar, y_bar = sum(x) / n, sum(y) / n
    beta = (sum((xi - x_bar) * (yi - y_bar) for xi, yi in zip(x, y))
            / sum((xi - x_bar) ** 2 for xi in x))
    alpha = (sum(1.0 + stock_r[i] for i in est)
             / sum((1.0 + market_r[i]) ** beta for i in est))

    def gross_ar(i: int) -> float:
        return (1.0 + stock_r[i]) / (alpha * (1.0 + market_r[i]) ** beta)

    xa = [market_r[i] for i in est]
    ya = [stock_r[i] for i in est]
    xa_bar, ya_bar = sum(xa) / n, sum(ya) / n
    beta_add = (sum((xi - xa_bar) * (yi - ya_bar) for xi, yi in zip(xa, ya))
                / sum((xi - xa_bar) ** 2 for xi in xa))
    alpha_add = ya_bar - beta_add * xa_bar

    cars: dict[str, float] = {}
    cars_add: dict[str, float] = {}
    for label in windows:
        lo, hi = _window_offsets(label)
        product = 1.0
        total = 0.0
        for i in range(index + lo, index + hi + 1):
            product *= gross_ar(i)
            total += stock_r[i] - (alpha_add + beta_add * market_r[i])
        cars[label] = product - 1.0
        cars_add[label] = total
    return EventReference([gross_ar(i) for i in est], cars, cars_add)


def rule(car: float, percentile: float) -> str:
    """The paper's two-sided 10/90 decision rule, strict on both sides."""
    if car < 0.0 and percentile < 10.0:
        return "Negative"
    if car > 0.0 and percentile > 90.0:
        return "Positive"
    return "None"


def _midrank(below: int, equal: int, n: int) -> float:
    return 100.0 * (below + 0.5 * equal) / n


def reference_percentile(pool_gross: list[float], k: int, car: float, mode: str,
                         rng: np.random.Generator, n_ref: int) -> tuple[float, int | None]:
    """Reference percentile of ``car`` and the reference sample size (``None`` = exact)."""
    gross = np.asarray(pool_gross)
    if mode == "block":
        cars = [math.prod(pool_gross[s:s + k]) - 1.0 for s in range(len(pool_gross) - k + 1)]
        below = sum(1 for c in cars if c < car)
        equal = sum(1 for c in cars if c == car)
        return _midrank(below, equal, len(cars)), None
    cars_arr = gross[rng.integers(0, gross.size, size=(n_ref, k))].prod(axis=1) - 1.0
    return _midrank(int((cars_arr < car).sum()), int((cars_arr == car).sum()), n_ref), n_ref


def percentile_tolerance(p_prog: float, p_ref: float, n_prog: int, n_ref: int | None) -> float:
    """``Z_LIMIT`` binomial SEs of the difference, plus one grid step each side.

    The variance uses whichever estimate lies nearer 50%, and never a tail
    share below one scenario of the smaller sample: deep in a tail the
    reference may have seen almost no scenarios, and its own estimate would
    then understate the error.
    """
    floor = 1.0 / min(n_prog, n_ref or n_prog)
    q = max(min(p, 100.0 - p) / 100.0 for p in (p_prog, p_ref))
    q = min(max(q, floor), 0.5)
    inverse_n = 1.0 / n_prog + (1.0 / n_ref if n_ref else 0.0)
    return 100.0 * (Z_LIMIT * math.sqrt(q * (1.0 - q) * inverse_n) + inverse_n)


def on_midrank_grid(percentile: float, n: int, decimals: int | None) -> bool:
    """Whether ``percentile`` is ``100 j / (2n)`` for an integer ``j``, up to print rounding."""
    steps = percentile * 2 * n / 100.0
    slack = 1e-6 if decimals is None else 0.5 * 10.0 ** -decimals * 2 * n / 100.0 + 1e-6
    return abs(steps - round(steps)) <= slack


def _close(reported: float, reference: float, decimals: int | None) -> bool:
    slack = 1e-11 if decimals is None else 0.5 * 10.0 ** -decimals + 1e-11
    return abs(reported - reference) <= slack + 1e-11 * abs(reference)


# --- report parsing ---------------------------------------------------------

def parse_report(text: str, fmt: str) -> list[dict[str, str]]:
    """Rows of a CSV or JSON report as column -> text, in file order."""
    if fmt == "json":
        payload = json.loads(text)
        if list(payload) != ["rows"]:
            raise ValueError("JSON report must hold exactly one key, 'rows'")
        rows = []
        for raw in payload["rows"]:
            if tuple(raw) != COLUMNS:
                raise ValueError(f"JSON row keys {tuple(raw)} != {COLUMNS}")
            rows.append({key: value if isinstance(value, str) else repr(value)
                         for key, value in raw.items()})
        return rows
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != COLUMNS:
        raise ValueError(f"CSV header {reader.fieldnames} != {COLUMNS}")
    return list(reader)


def _failed_keys(stderr: str) -> set[str]:
    return {m.group(1) for m in re.finditer(r"^failed (\S+): ", stderr, re.MULTILINE)}


# --- the check --------------------------------------------------------------

class Reference:
    """Lazily computed scalar references for a workload's events."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._prices: dict[str, dict[str, float]] = {}
        self.market = _read_prices(workload.directory / "market.csv")
        self.rng = np.random.default_rng([workload.seed, 0x5EED])

    def event(self, instrument: str, announced: str) -> EventReference | None:
        if instrument not in self._prices:
            self._prices[instrument] = _read_prices(
                self.workload.directory / "prices" / f"{instrument}.csv")
        return reference_event(self._prices[instrument], self.market, announced,
                               self.workload.windows)


def check_run_report(workload: Workload, report_text: str, stderr: str,
                     exit_code: int) -> Verdict:
    """Check an ``eventstudy run`` report row by row; one operation per event."""
    verdict = Verdict(attempted=len(workload.events))
    everyone = [event.key for event in workload.events]
    if exit_code != workload.expected_exit:
        for key in everyone:
            verdict.fail(key, f"exit code {exit_code}, expected {workload.expected_exit}")
        return verdict
    decimals = 9 if workload.report_format == "csv" else None
    pct_decimals = 5 if workload.report_format == "csv" else None
    try:
        rows = parse_report(report_text, workload.report_format)
    except (ValueError, KeyError) as exc:
        for key in everyone:
            verdict.fail(key, f"unreadable report: {exc}")
        return verdict

    reference = Reference(workload)
    rejected = _failed_keys(stderr)
    by_event: dict[str, list[dict[str, str]]] = {}
    order: list[str] = []
    for row in rows:
        key = f"{row['instrument_id']}@{row['announcement_date']}"
        if key not in by_event:
            order.append(key)
        by_event.setdefault(key, []).append(row)
    expected_order = [e.key for e in workload.events if not e.rejected]
    if order != expected_order:
        # A row for an unknown event or a reordering cannot be pinned on one event.
        for key in everyone:
            verdict.fail(key, "report events are not the accepted events in registry order")

    generators = {row["generator"] for row in rows}
    if len(generators) > 1 or "" in generators:
        for key in everyone:
            verdict.fail(key, f"generator column must hold one non-empty tag, got {generators}")
    verdict.generator = next(iter(generators), None)

    for event in workload.events:
        key = event.key
        event_rows = by_event.get(key, [])
        ref = reference.event(event.instrument_id, event.date)
        if event.rejected or ref is None:
            if not event.rejected:
                verdict.fail(key, "reference finds too little history for an accepted event")
            if key not in rejected or event_rows:
                verdict.fail(key, "thin-history event was not rejected")
            continue
        if key in rejected:
            verdict.fail(key, "event was rejected")
        if [row["event_period"] for row in event_rows] != list(workload.windows):
            verdict.fail(key, f"windows {[r['event_period'] for r in event_rows]}")
            continue
        for row in event_rows:
            for reason in _row_problems(workload, event, row, ref, reference.rng,
                                        decimals, pct_decimals):
                verdict.fail(key, f"{row['event_period']}: {reason}")
    return verdict


def _row_problems(workload: Workload, event, row: dict[str, str], ref: EventReference,
                  rng: np.random.Generator, decimals: int | None,
                  pct_decimals: int | None) -> list[str]:
    problems: list[str] = []
    window = row["event_period"]
    expected_text = {
        "company": event.label or event.instrument_id,
        "seed": str(workload.study_seed),
        "mode": workload.mode,
        "n_scenarios": str(workload.n_scenarios),
        "estimation_days": str(ESTIMATION_DAYS),
        "flags": "",
    }
    for column, expected in expected_text.items():
        if row[column] != expected:
            problems.append(f"{column}={row[column]!r}, expected {expected!r}")
    try:
        car = float(row["car"])
        car_add = float(row["car_additive"])
        pct = float(row["car_percentile"])
    except (TypeError, ValueError) as exc:
        return problems + [f"unparsable number: {exc}"]
    if not _close(car, ref.cars[window], decimals):
        problems.append(f"car {car!r} != reference {ref.cars[window]!r}")
    if not _close(car_add, ref.cars_additive[window], decimals):
        problems.append(f"car_additive {car_add!r} != reference {ref.cars_additive[window]!r}")
    if not 0.0 <= pct <= 100.0 or not on_midrank_grid(pct, workload.n_scenarios, pct_decimals):
        problems.append(f"percentile {pct!r} is off the midrank grid for n={workload.n_scenarios}")
    if row["impact"] != rule(car, pct):
        problems.append(f"impact {row['impact']!r} breaks the 10/90 rule ({car}, {pct})")
    if event.shocked and window in SHOCK_DECIDES and row["impact"] != "Negative":
        problems.append(f"shocked event labelled {row['impact']!r}, expected 'Negative'")
    k = _window_days(window)
    p_ref, n_ref = reference_percentile(ref.pool_gross, k, ref.cars[window], workload.mode,
                                        rng, IID_REFERENCE_SCENARIOS)
    tol = percentile_tolerance(pct, p_ref, workload.n_scenarios, n_ref)
    if abs(pct - p_ref) > tol + (0.5 * 10.0 ** -pct_decimals if pct_decimals else 0.0):
        problems.append(f"percentile {pct} is {abs(pct - p_ref):.4g} from reference {p_ref:.4f}"
                        f" (tolerance {tol:.4g})")
    return problems


_HIST_LINE = re.compile(r"^wrote .* \((\d+) bins, n=(\d+)\); car=(\S+) percentile=(\S+)$",
                        re.MULTILINE)


def check_histogram(workload: Workload, histogram_text: str, stdout: str,
                    exit_code: int) -> Verdict:
    """Check ``eventstudy histogram`` output: its summary line and every bin."""
    event = workload.events[0]
    verdict = Verdict(attempted=1)
    if exit_code != workload.expected_exit:
        verdict.fail(event.key, f"exit code {exit_code}, expected {workload.expected_exit}")
        return verdict
    match = _HIST_LINE.search(stdout)
    if match is None:
        verdict.fail(event.key, "no summary line on stdout")
        return verdict
    bins, n = int(match.group(1)), int(match.group(2))
    car, pct = float(match.group(3)), float(match.group(4))
    window = workload.windows[0]
    ref = Reference(workload)
    event_ref = ref.event(event.instrument_id, event.date)
    if event_ref is None:
        verdict.fail(event.key, "reference finds too little history")
        return verdict
    ref_car = event_ref.cars[window]
    if bins != workload.bins or n != workload.n_scenarios:
        verdict.fail(event.key, f"summary reports {bins} bins, n={n}")
    if not _close(car, ref_car, 9):
        verdict.fail(event.key, f"car {car!r} != reference {ref_car!r}")
    if not on_midrank_grid(pct, n, 5):
        verdict.fail(event.key, f"percentile {pct} off the midrank grid")

    try:
        records = list(csv.reader(io.StringIO(histogram_text)))
        if records[0] != ["bin_low", "bin_high", "count"]:
            raise ValueError(f"header {records[0]}")
        lows = [float(r[0]) for r in records[1:]]
        highs = [float(r[1]) for r in records[1:]]
        counts = [int(r[2]) for r in records[1:]]
    except (ValueError, IndexError) as exc:
        verdict.fail(event.key, f"unreadable histogram: {exc}")
        return verdict
    if len(counts) != workload.bins or sum(counts) != n or min(counts) < 0:
        verdict.fail(event.key, f"{len(counts)} bins holding {sum(counts)} scenarios")
        return verdict
    if any(hi != lo for hi, lo in zip(highs, lows[1:])) or any(
            lo >= hi for lo, hi in zip(lows, highs)):
        verdict.fail(event.key, "bin edges are not contiguous and increasing")
        return verdict
    k = _window_days(window)
    smallest = min(event_ref.pool_gross) ** k - 1.0
    largest = max(event_ref.pool_gross) ** k - 1.0
    if lows[0] < smallest - 1e-12 or highs[-1] > largest + 1e-12:
        verdict.fail(event.key, "histogram range exceeds the pool's extreme scenarios")

    # The reported percentile must be consistent with the bins around the CAR.
    cumulative = np.concatenate(([0], np.cumsum(counts)))
    if lows[0] <= car <= highs[-1]:
        b = min(bisect_left(highs, car), len(counts) - 1)
        lo_pct, hi_pct = 100.0 * cumulative[b] / n, 100.0 * cumulative[b + 1] / n
        if not lo_pct - 1e-5 <= pct <= hi_pct + 1e-5:
            verdict.fail(event.key, f"percentile {pct} outside its bin [{lo_pct}, {hi_pct}]")

    # Percentile and the histogram's CDF against an independent resample.
    gross = np.asarray(event_ref.pool_gross)
    n_ref = HISTOGRAM_REFERENCE_SCENARIOS
    cars = np.sort(gross[ref.rng.integers(0, gross.size, size=(n_ref, k))].prod(axis=1) - 1.0)
    p_ref = _midrank(int(np.searchsorted(cars, ref_car, "left")),
                     int(np.searchsorted(cars, ref_car, "right")
                         - np.searchsorted(cars, ref_car, "left")), n_ref)
    if abs(pct - p_ref) > percentile_tolerance(pct, p_ref, n, n_ref) + 5e-6:
        verdict.fail(event.key, f"percentile {pct} far from reference {p_ref:.4f}")
    for b in range(10, len(counts), 10):
        edge = lows[b]
        f_prog = 100.0 * cumulative[b] / n
        f_ref = 100.0 * np.searchsorted(cars, edge, "left") / n_ref
        if abs(f_prog - f_ref) > percentile_tolerance(f_prog, f_ref, n, n_ref):
            verdict.fail(event.key, f"CDF at bin {b}: {f_prog:.4f}% vs reference {f_ref:.4f}%")
    return verdict  # the histogram output names no generator; it stays None


def check(workload: Workload, output_text: str, stdout: str, stderr: str,
          exit_code: int) -> Verdict:
    """Dispatch on the workload's command."""
    if workload.report_format == "histogram":
        return check_histogram(workload, output_text, stdout, exit_code)
    return check_run_report(workload, output_text, stderr, exit_code)
