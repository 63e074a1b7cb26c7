"""Whole-run properties: what one report row may depend on, and a printed
report that re-derives its own labels.

A row depends only on its event, that instrument's price file, the market
file and the settings.  So the registry's order, its other events, and days
that ``align`` drops cannot change a row's bytes, and neither can scaling a
price file by a power of two, since that leaves every price ratio exact.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from eventstudy.config import load_run_config
from eventstudy.inference import classify_impact
from eventstudy.ingest import PriceSeries, align
from eventstudy.report import run

from .conftest import stock_from_market, synthetic_market, write_events_csv, write_price_csv

#: (instrument, aligned event-day index) in registry order; acme is shocked on day 230.
EVENTS = [("acme", 205), ("bravo", 215), ("acme", 230), ("carol", 240), ("bravo", 255),
          ("acme", 270)]


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Three instruments on one market, six events, a small scenario count."""
    root = tmp_path_factory.mktemp("whole_run")
    market = synthetic_market()
    stocks = {
        "acme": stock_from_market(market, seed=5, instrument_id="acme", shocks={230: 0.09}),
        "bravo": stock_from_market(market, seed=6, beta=0.8, instrument_id="bravo"),
        "carol": stock_from_market(market, seed=8, noise=0.012, instrument_id="carol"),
    }
    calendar = align(market, market).dates
    events = [(name, calendar[index].item().isoformat(), name.title()) for name, index in EVENTS]
    return root, market, stocks, events


def _universe(directory: Path, market: PriceSeries, stocks: dict[str, PriceSeries],
              events: list[tuple[str, str, str]]) -> Path:
    """Write a study directory and return its config."""
    (directory / "prices").mkdir(parents=True)
    for name, series in stocks.items():
        write_price_csv(directory / "prices" / f"{name}.csv", series)
    write_price_csv(directory / "market.csv", market)
    write_events_csv(directory / "events.csv", events)
    config = directory / "study.conf"
    config.write_text(
        "price_dir = prices\nmarket_file = market.csv\nevents_file = events.csv\n"
        "output = report.csv\nn_scenarios = 3000\nseed = 77\n",
        encoding="utf-8",
    )
    return config


def _report(directory: Path, market: PriceSeries, stocks: dict[str, PriceSeries],
            events: list[tuple[str, str, str]]) -> tuple[str, list[list[str]]]:
    """Run a study; return the report's header and its lines in groups of one event's five."""
    outcome = run(load_run_config(_universe(directory, market, stocks, events)))
    assert outcome.errors == []
    header, *lines = outcome.report_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5 * len(events)
    return header, [lines[i : i + 5] for i in range(0, len(lines), 5)]


@pytest.fixture(scope="module")
def baseline(study):
    root, market, stocks, events = study
    return _report(root / "baseline", market, stocks, events)


def _scaled(series: PriceSeries, factor: float) -> PriceSeries:
    return PriceSeries(series.instrument_id, series.dates, series.prices * factor)


def _with_extra_day(series: PriceSeries, index: int) -> PriceSeries:
    """``series`` with one more day: the first weekend day after price day ``index``."""
    while series.dates[index + 1] - series.dates[index] == 1:
        index += 1
    dates = [*series.dates[: index + 1], series.dates[index] + 1, *series.dates[index + 1 :]]
    prices = [*series.prices[: index + 1], 1.5 * series.prices[index], *series.prices[index + 1 :]]
    return PriceSeries(series.instrument_id, dates, prices)


def test_permuting_the_registry_permutes_the_rows(study, baseline, tmp_path):
    _, market, stocks, events = study
    order = [3, 0, 5, 1, 4, 2]
    header, groups = _report(tmp_path, market, stocks, [events[i] for i in order])
    assert header == baseline[0]
    assert groups == [baseline[1][i] for i in order]


@pytest.mark.parametrize("dropped", [0, 2, 5])
def test_dropping_an_event_drops_only_its_rows(study, baseline, tmp_path, dropped):
    _, market, stocks, events = study
    header, groups = _report(tmp_path, market, stocks, events[:dropped] + events[dropped + 1 :])
    assert header == baseline[0]
    assert groups == baseline[1][:dropped] + baseline[1][dropped + 1 :]


def test_two_halves_join_to_one_run(study, baseline, tmp_path):
    _, market, stocks, events = study
    first = _report(tmp_path / "first", market, stocks, events[:3])
    second = _report(tmp_path / "second", market, stocks, events[3:])
    assert first[0] == second[0] == baseline[0]
    assert first[1] + second[1] == baseline[1]


@pytest.mark.parametrize("factor", [0.25, 8.0])
@pytest.mark.parametrize("scaled", ["market", "acme"])
def test_scaling_a_file_by_a_power_of_two_changes_nothing(study, baseline, tmp_path, scaled,
                                                          factor):
    _, market, stocks, events = study
    if scaled == "market":
        market = _scaled(market, factor)
    else:
        stocks = {**stocks, scaled: _scaled(stocks[scaled], factor)}
    assert _report(tmp_path, market, stocks, events) == baseline


# Price day 100 lies in acme@230's estimation window, 231 in its event window.
@pytest.mark.parametrize("index", [100, 231])
@pytest.mark.parametrize("extended", ["market", "acme"])
def test_a_day_only_one_series_has_changes_nothing(study, baseline, tmp_path, extended, index):
    _, market, stocks, events = study
    if extended == "market":
        market = _with_extra_day(market, index)
    else:
        stocks = {**stocks, extended: _with_extra_day(stocks[extended], index)}
    assert _report(tmp_path, market, stocks, events) == baseline


def assert_printed_labels_rederive(report: Path) -> None:
    """Every CSV row's printed CAR and percentile give its printed label."""
    with open(report, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            impact = classify_impact(float(row["car"]), float(row["car_percentile"]))
            assert impact.value == row["impact"], row


def test_printed_rows_rederive_their_labels(baseline, study):
    root = study[0]
    assert_printed_labels_rederive(root / "baseline" / "report.csv")


def test_a_stock_at_a_fixed_multiple_of_the_market_is_judged_none(tmp_path):
    # Its abnormal returns are rounding noise of a few 1e-16.  Ranked in a
    # pool of the same noise, their CARs got labels whose sign the printed
    # 9-digit CAR lost; a CAR within 64 ulps of zero is None at any rank.
    market = synthetic_market()
    twin = PriceSeries("twin", market.dates, 3.0 * market.prices)
    calendar = align(twin, market).dates
    events = [("twin", calendar[i].item().isoformat(), "Twin") for i in range(201, 261)]
    config = _universe(tmp_path, market, {"twin": twin}, events)
    outcome = run(load_run_config(config, {"n_scenarios": "20000"}))
    assert outcome.errors == []
    assert_printed_labels_rederive(outcome.report_path)
    assert {row.impact for row in outcome.rows} == {"None"}
