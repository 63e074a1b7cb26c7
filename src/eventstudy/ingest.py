"""Load daily price files, build aligned return series, and place events.

Input files are plain CSV.  A price file needs a ``date`` column (ISO
``YYYY-MM-DD``) and a ``close`` column (positive adjusted close); an event
registry needs ``instrument_id`` and ``date`` columns plus an optional
free-text ``label``.  All validation failures name the offending file and
row so a bad line in a 10-year price history is findable.

Returns are simple daily returns ``p[t] / p[t-1] - 1`` computed only on
the trading days both series share, so a stock and its market index stay
in lockstep even when one exchange closes and the other does not.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date
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


@dataclass(frozen=True)
class PriceSeries:
    """A daily close-price history for one instrument.

    ``dates`` are strictly increasing trading days; ``prices`` are the
    matching positive closes; ``ordinals`` are the dates'
    :meth:`~datetime.date.toordinal` values as ``int64``, derived once so
    that :func:`align` works on integers.  Instances are immutable and
    validated on construction, so everything downstream can assume a clean
    series.
    """

    instrument_id: str
    dates: tuple[date, ...]
    prices: np.ndarray
    ordinals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        prices = np.asarray(self.prices, dtype=np.float64)
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
        ordinals = np.fromiter(
            (day.toordinal() for day in self.dates), dtype=np.int64, count=len(self.dates)
        )
        backwards = np.flatnonzero(np.diff(ordinals) <= 0)
        if backwards.size:
            prev, cur = self.dates[backwards[0]], self.dates[backwards[0] + 1]
            raise ValueError(
                f"{self.instrument_id}: dates must be strictly increasing "
                f"({prev.isoformat()} followed by {cur.isoformat()})"
            )
        object.__setattr__(self, "ordinals", ordinals)
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


@dataclass(frozen=True)
class AlignedReturns:
    """Stock and market daily returns on a shared trading calendar.

    ``dates[i]`` is the day the ``i``-th return accrues (the second day of
    each price pair).  Both return arrays are the same length as ``dates``
    and every gross return ``1 + r`` is positive, which the multiplicative
    model downstream relies on.
    """

    dates: tuple[date, ...]
    stock_returns: np.ndarray = field(repr=False)
    market_returns: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        stock = np.asarray(self.stock_returns, dtype=np.float64)
        market = np.asarray(self.market_returns, dtype=np.float64)
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


def read_csv_rows(path: Path, required: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """Read a CSV file and return ``(line_number, row)`` pairs.

    Raises :class:`DataFormatError` if the file is unreadable or the header
    is missing any of ``required``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise DataFormatError(f"{path}: file is empty (no header row)")
            missing = [col for col in required if col not in reader.fieldnames]
            if missing:
                raise DataFormatError(
                    f"{path}: header is missing required column(s) {', '.join(missing)}"
                )
            return [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file ({exc})") from exc


def _parse_iso_date(raw: str, path: Path, line_num: int) -> date:
    try:
        return date.fromisoformat(raw.strip())
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
    rows = read_csv_rows(path, ("date", "close"))
    if instrument_id is None:
        instrument_id = path.stem

    days: list[date] = []
    closes: list[float] = []
    for line_num, row in rows:
        days.append(_parse_iso_date(row["date"] or "", path, line_num))
        raw_price = (row["close"] or "").strip()
        try:
            closes.append(float(raw_price))
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: row {line_num}: unparsable price {raw_price!r}"
            ) from exc
    prices = np.array(closes, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(prices) | (prices <= 0.0))
    if bad.size:
        line_num, row = rows[bad[0]]
        raise DataFormatError(
            f"{path}: row {line_num}: price must be positive and finite, "
            f"got {row['close'].strip()}"
        )
    if len(set(days)) < len(days):
        first_row: dict[date, int] = {}
        for (line_num, _), day in zip(rows, days):
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
    order = sorted(range(len(days)), key=days.__getitem__)
    return PriceSeries(
        instrument_id=instrument_id,
        dates=tuple(map(days.__getitem__, order)),
        prices=prices[order],
    )


def load_event_registry(path: str | Path) -> list[EventRecord]:
    """Load the event registry: one announcement per row, in file order."""
    path = Path(path)
    rows = read_csv_rows(path, ("instrument_id", "date"))
    events: list[EventRecord] = []
    for line_num, row in rows:
        instrument = (row["instrument_id"] or "").strip()
        if not instrument:
            raise DataFormatError(f"{path}: row {line_num}: empty instrument_id")
        day = _parse_iso_date(row["date"] or "", path, line_num)
        label = (row.get("label") or "").strip()
        events.append(EventRecord(instrument_id=instrument, announcement_date=day, label=label))
    return events


def align(stock: PriceSeries, market: PriceSeries) -> AlignedReturns:
    """Compute daily returns on the trading days both series share.

    Prices on days only one series has are dropped before differencing, so
    each return spans consecutive *shared* days for both legs.  Raises
    :class:`AlignmentError` if fewer than two shared days remain, or if a
    price ratio is so extreme that a return is not finite or not above -1.
    """
    common, stock_at, market_at = np.intersect1d(
        stock.ordinals, market.ordinals, assume_unique=True, return_indices=True
    )
    if common.size < 2:
        raise AlignmentError(
            f"insufficient overlap between {stock.instrument_id!r} and "
            f"{market.instrument_id!r}: need at least 2 shared trading days, "
            f"got {common.size}"
        )
    dates = tuple(map(stock.dates.__getitem__, stock_at.tolist()))
    returns = []
    for series, at in ((stock, stock_at), (market, market_at)):
        prices = series.prices[at]
        with np.errstate(over="ignore"):
            leg = prices[1:] / prices[:-1] - 1.0
        bad = np.flatnonzero(~np.isfinite(leg) | (leg <= -1.0))
        if bad.size:
            raise AlignmentError(
                f"{series.instrument_id!r}: the return on {dates[bad[0] + 1].isoformat()} "
                f"is {leg[bad[0]]}; a price ratio that extreme leaves no usable gross return"
            )
        returns.append(leg)
    return AlignedReturns(dates=dates[1:], stock_returns=returns[0], market_returns=returns[1])


def resolve_event_day(
    event: EventRecord,
    calendar: tuple[date, ...],
    *,
    min_prior_days: int,
    min_following_days: int,
) -> int:
    """Map an announcement date to its index on a trading calendar.

    An announcement on a non-trading day (weekend, holiday) takes effect on
    the next trading day, since that is the first day the market can react.
    Raises :class:`HistoryError` when the announcement falls after the last
    calendar day, or when fewer than ``min_prior_days`` trading days precede
    the resolved day or fewer than ``min_following_days`` follow it.
    """
    if not calendar:
        raise HistoryError(f"{event.key}: empty trading calendar")
    index = bisect_left(calendar, event.announcement_date)
    if index == len(calendar):
        raise HistoryError(
            f"{event.key}: announcement falls after the last trading day "
            f"({calendar[-1].isoformat()})"
        )
    prior = index
    following = len(calendar) - 1 - index
    if prior < min_prior_days:
        raise HistoryError(
            f"{event.key}: insufficient history before the event: "
            f"{prior} trading days, need {min_prior_days}"
        )
    if following < min_following_days:
        raise HistoryError(
            f"{event.key}: insufficient history after the event: "
            f"{following} trading days, need {min_following_days}"
        )
    return index
