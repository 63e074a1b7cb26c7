"""Load daily price files, build aligned return series, and place events.

Input files are plain CSV.  A price file needs a ``date`` column (ISO
``YYYY-MM-DD``) and a ``close`` column (positive adjusted close); an event
registry needs ``instrument_id`` and ``date`` columns plus an optional
free-text ``label``.  All validation failures name the offending file and
row so a bad line in a 10-year price history is findable.

Returns are simple daily returns ``p[t] / p[t-1] - 1`` computed only on
the trading days both series share, so a stock and its market index stay
in lockstep even when one exchange closes and the other does not.

A calendar (``PriceSeries.dates``, ``AlignedReturns.dates``) is one
``datetime64[D]`` array, so a multi-year history holds no Python object
per day; ``dates[i].item()`` gives the ``datetime.date``.  An event's
``announcement_date`` stays a ``datetime.date``.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import date
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataFormatError, HistoryError

__all__ = [
    "PriceSeries",
    "EventRecord",
    "AlignedReturns",
    "read_csv_rows",
    "load_price_series",
    "load_event_registry",
    "align",
    "resolve_event_day",
]


def _owned(values: object, dtype: object) -> np.ndarray:
    """A read-only copy of ``values``, so that no caller can change a record after validation."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A daily close-price history for one instrument.

    ``dates`` are strictly increasing trading days, held as one
    ``datetime64[D]`` array (any sequence of :class:`datetime.date` is
    converted); ``prices`` are the matching positive closes.  Instances are
    immutable and validated on construction, and hold read-only copies of
    both arrays, so everything downstream can assume a clean series.
    """

    instrument_id: str
    dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        dates = _owned(self.dates, "datetime64[D]")
        object.__setattr__(self, "dates", dates)
        prices = _owned(self.prices, np.float64)
        object.__setattr__(self, "prices", prices)
        if not self.instrument_id:
            raise ValueError("instrument_id must be non-empty")
        if len(self.dates) != prices.size:
            raise ValueError(
                f"{self.instrument_id}: {len(self.dates)} dates but {prices.size} prices"
            )
        if len(self.dates) < 2:
            raise ValueError(
                f"{self.instrument_id}: need at least 2 price points, got {len(self.dates)}"
            )
        # Written as "not later" so that a missing day (NaT) fails it too.
        backwards = np.flatnonzero(~(dates[1:] > dates[:-1]))
        if backwards.size:
            prev, cur = dates[backwards[0]], dates[backwards[0] + 1]
            raise ValueError(
                f"{self.instrument_id}: dates must be strictly increasing "
                f"({prev} followed by {cur})"
            )
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError(f"{self.instrument_id}: prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class EventRecord:
    """One dated announcement for one instrument."""

    instrument_id: str
    announcement_date: date
    label: str = ""

    def __post_init__(self) -> None:
        if not self.instrument_id:
            raise ValueError("instrument_id must be non-empty")
        if not isinstance(self.announcement_date, date):
            raise ValueError("announcement_date must be a datetime.date")

    @property
    def key(self) -> str:
        """Stable identifier used in reports, logs, and seed derivation."""
        return f"{self.instrument_id}@{self.announcement_date.isoformat()}"


@dataclass(frozen=True, eq=False)
class AlignedReturns:
    """Stock and market daily returns on a shared trading calendar.

    ``dates[i]`` is the day the ``i``-th return accrues (the second day of
    each price pair), held as one ``datetime64[D]`` array.  Both return
    arrays are the same length as ``dates`` and every gross return ``1 + r``
    is positive, which the multiplicative model downstream relies on.  All
    three arrays are read-only copies, so no caller can break that later.
    """

    dates: np.ndarray
    stock_returns: np.ndarray = field(repr=False)
    market_returns: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", _owned(self.dates, "datetime64[D]"))
        stock = _owned(self.stock_returns, np.float64)
        market = _owned(self.market_returns, np.float64)
        object.__setattr__(self, "stock_returns", stock)
        object.__setattr__(self, "market_returns", market)
        if not (len(self.dates) == stock.size == market.size):
            raise ValueError(
                f"length mismatch: {len(self.dates)} dates, "
                f"{stock.size} stock returns, {market.size} market returns"
            )
        for name, arr in (("stock", stock), ("market", market)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= -1.0):
                raise ValueError(f"{name} returns must be finite and greater than -1")

    def __len__(self) -> int:
        return len(self.dates)


def read_csv_rows(
    path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Read a CSV file, yielding ``(line_number, fields)`` pairs as the rows are read.

    ``fields`` holds the row's values in the columns ``required + optional``
    (at least two), in that order; a value the row lacks, or an optional
    column the header lacks, reads as ``None``.  Blank lines are skipped, and
    so is a leading UTF-8 byte-order mark (Excel's "CSV UTF-8").  Raises
    :class:`DataFormatError`, when the first row is asked for, if the file is
    unreadable or the header is missing any of ``required``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: file is empty (no header row)")
            position = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            missing = [col for col in required if col not in position]
            if missing:
                raise DataFormatError(
                    f"{path}: header is missing required column(s) {', '.join(missing)}"
                )
            n_columns = len(header)
            # Each row is cut or padded with None to the header's width, plus
            # one None slot past it that an absent optional column reads.
            pick = itemgetter(*(position.get(col, n_columns) for col in required + optional))
            padding = [None] * n_columns
            for row in reader:
                if not row:
                    continue
                if len(row) != n_columns:
                    row = (row + padding)[:n_columns]
                row.append(None)
                yield reader.line_num, pick(row)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file ({exc})") from exc


#: The day number of 1970-01-01, day 0 of ``datetime64[D]``.
_EPOCH = date(1970, 1, 1).toordinal()


def _parse_iso_date(raw: str, path: Path, line_num: int) -> date:
    text = raw.strip()
    try:
        # Python 3.11 and later also read basic and week forms such as
        # 20150105 and 2015-W02-1; only YYYY-MM-DD is a date here.
        if len(text) != 10 or text[4] != "-" or text[7] != "-":
            raise ValueError("not YYYY-MM-DD")
        return date.fromisoformat(text)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: row {line_num}: unparsable date {raw!r} (expected YYYY-MM-DD)"
        ) from exc


def load_price_series(path: str | Path, *, instrument_id: str | None = None) -> PriceSeries:
    """Load one instrument's price history from a CSV file.

    Rows may appear in any order; the result is sorted by date.  Unparsable
    dates and prices, non-positive or non-finite prices, and duplicate dates
    raise :class:`DataFormatError` naming the file and row.  A file with
    several faults reports the first unparsable field, else the first bad
    price, else the first repeated date.  ``instrument_id`` defaults to the
    file's stem.
    """
    path = Path(path)
    if instrument_id is None:
        instrument_id = path.stem

    days: list[date] = []
    closes: list[float] = []
    lines: list[int] = []
    bad_price: str | None = None  # the first, reported once every field has parsed
    for line_num, (raw_day, raw_close) in read_csv_rows(path, ("date", "close")):
        days.append(_parse_iso_date(raw_day or "", path, line_num))
        raw_price = (raw_close or "").strip()
        try:
            price = float(raw_price)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: row {line_num}: unparsable price {raw_price!r}"
            ) from exc
        # Written as "not inside" so that NaN fails it too.
        if bad_price is None and not 0.0 < price < math.inf:
            bad_price = f"row {line_num}: price must be positive and finite, got {raw_price}"
        closes.append(price)
        lines.append(line_num)
    if bad_price is not None:
        raise DataFormatError(f"{path}: {bad_price}")
    if len(set(days)) < len(days):
        first_row: dict[date, int] = {}
        for line_num, day in zip(lines, days):
            seen_at = first_row.setdefault(day, line_num)
            if seen_at != line_num:
                raise DataFormatError(
                    f"{path}: row {line_num}: duplicate date {day.isoformat()} "
                    f"(first seen at row {seen_at})"
                )
    if len(days) < 2:
        raise DataFormatError(
            f"{path}: need at least 2 price rows to form a return, got {len(days)}"
        )
    day_numbers = np.fromiter((day.toordinal() - _EPOCH for day in days), np.int64, len(days))
    order = np.argsort(day_numbers, kind="stable")
    return PriceSeries(
        instrument_id=instrument_id,
        dates=day_numbers[order].view("datetime64[D]"),
        prices=np.array(closes, dtype=np.float64)[order],
    )


def load_event_registry(path: str | Path) -> list[EventRecord]:
    """Load the event registry: one announcement per row, in file order.

    An event (instrument and date) listed twice raises
    :class:`DataFormatError` naming both rows.
    """
    path = Path(path)
    events: list[EventRecord] = []
    first_row: dict[str, int] = {}
    for line_num, (raw_instrument, raw_day, raw_label) in read_csv_rows(
        path, ("instrument_id", "date"), ("label",)
    ):
        instrument = (raw_instrument or "").strip()
        if not instrument:
            raise DataFormatError(f"{path}: row {line_num}: empty instrument_id")
        day = _parse_iso_date(raw_day or "", path, line_num)
        label = (raw_label or "").strip()
        event = EventRecord(instrument_id=instrument, announcement_date=day, label=label)
        seen_at = first_row.setdefault(event.key, line_num)
        if seen_at != line_num:
            raise DataFormatError(
                f"{path}: row {line_num}: duplicate event {event.key} "
                f"(first seen at row {seen_at})"
            )
        events.append(event)
    return events


def align(stock: PriceSeries, market: PriceSeries) -> AlignedReturns:
    """Compute daily returns on the trading days both series share.

    Prices on days only one series has are dropped before differencing, so
    each return spans consecutive *shared* days for both legs.  Raises
    :class:`AlignmentError` if fewer than two shared days remain, or if a
    price ratio is so extreme that a return is not finite or not above -1.
    """
    dates, stock_at, market_at = np.intersect1d(
        stock.dates, market.dates, assume_unique=True, return_indices=True
    )
    if dates.size < 2:
        raise AlignmentError(
            f"insufficient overlap between {stock.instrument_id!r} and "
            f"{market.instrument_id!r}: need at least 2 shared trading days, "
            f"got {dates.size}"
        )
    returns = []
    for series, at in ((stock, stock_at), (market, market_at)):
        prices = series.prices[at]
        with np.errstate(over="ignore"):
            leg = prices[1:] / prices[:-1] - 1.0
        bad = np.flatnonzero(~np.isfinite(leg) | (leg <= -1.0))
        if bad.size:
            raise AlignmentError(
                f"{series.instrument_id!r}: the return on {dates[bad[0] + 1]} "
                f"is {leg[bad[0]]}; a price ratio that extreme leaves no usable gross return"
            )
        returns.append(leg)
    return AlignedReturns(dates=dates[1:], stock_returns=returns[0], market_returns=returns[1])


def resolve_event_day(event: EventRecord, calendar: np.ndarray) -> int:
    """Map an announcement date to its index on a trading calendar.

    ``calendar`` is a strictly increasing ``datetime64[D]`` array, such as
    :attr:`AlignedReturns.dates`.

    An announcement on a non-trading day (weekend, holiday) takes effect on
    the next trading day, since that is the first day the market can react.
    Raises :class:`HistoryError` when the calendar is empty or the
    announcement falls after its last day.  The history on either side is
    checked by the code that cuts those days: the days before by
    :func:`~eventstudy.model.estimation_window`, the days after by the
    pipeline in :mod:`eventstudy.inference`.
    """
    if not calendar.size:
        raise HistoryError(f"{event.key}: empty trading calendar")
    index = int(np.searchsorted(calendar, np.datetime64(event.announcement_date, "D")))
    if index == calendar.size:
        raise HistoryError(f"announcement falls after the last trading day ({calendar[-1]})")
    return index
