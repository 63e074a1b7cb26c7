"""Shared builders for synthetic markets, stocks, and on-disk universes."""

from __future__ import annotations

import csv
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from eventstudy.ingest import PriceSeries

# Property tests draw the same examples on every run and remember none, so a
# green suite stays green until the code changes.  An exploratory pass that
# draws fresh examples selects another profile on the command line, e.g.
# ``pytest --hypothesis-profile=default``.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def trading_calendar(start: date, n: int) -> tuple[date, ...]:
    """``n`` consecutive weekdays, beginning at the first weekday >= start."""
    days: list[date] = []
    day = start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return tuple(days)


def synthetic_market(
    n_prices: int = 300,
    seed: int = 7,
    start: date = date(2014, 1, 6),
    drift: float = 0.0003,
    vol: float = 0.01,
    instrument_id: str = "market-index",
) -> PriceSeries:
    """A geometric random walk standing in for a market index."""
    rng = np.random.default_rng(seed)
    returns = drift + vol * rng.standard_normal(n_prices - 1)
    prices = 100.0 * np.cumprod(np.concatenate(([1.0], 1.0 + returns)))
    return PriceSeries(instrument_id, trading_calendar(start, n_prices), prices)


def stock_from_market(
    market: PriceSeries,
    alpha: float = 1.0002,
    beta: float = 1.1,
    noise: float = 0.008,
    seed: int = 11,
    shocks: dict[int, float] | None = None,
    instrument_id: str = "stock",
) -> PriceSeries:
    """A stock whose gross returns follow ``alpha * (1 + r_m) ** beta`` times noise.

    ``shocks`` maps a return-day index to an extra abnormal return injected
    multiplicatively on that day — the ground truth an event study should
    recover.  ``noise=0`` gives data the model fits exactly.
    """
    market_returns = market.prices[1:] / market.prices[:-1] - 1.0
    # libm's pow, one day at a time: numpy's power would make the prices
    # depend on the CPU's SIMD level, and the golden hashes with them.
    gross = alpha * np.array([math.pow(1.0 + r, beta) for r in market_returns.tolist()])
    if noise:
        rng = np.random.default_rng(seed)
        gross = gross * (1.0 + noise * rng.standard_normal(market_returns.size))
    if shocks:
        for index, shock in shocks.items():
            gross[index] *= 1.0 + shock
    prices = 100.0 * np.cumprod(np.concatenate(([1.0], gross)))
    return PriceSeries(instrument_id, market.dates, prices)


def write_price_csv(path: Path, series: PriceSeries) -> Path:
    """Write a price series as a loadable CSV; ``repr`` keeps floats exact."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("date", "close"))
        for day, price in zip(series.dates, series.prices.tolist()):
            writer.writerow((str(day), repr(price)))
    return path


def write_events_csv(path: Path, rows: list[tuple[str, str, str]]) -> Path:
    """Write an event registry CSV from (instrument_id, date, label) rows."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("instrument_id", "date", "label"))
        writer.writerows(rows)
    return path


@pytest.fixture()
def market() -> PriceSeries:
    return synthetic_market()


FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"
