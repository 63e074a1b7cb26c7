"""Loading, validation, alignment, and event placement."""

from __future__ import annotations

import csv
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstudy import load_event_registry, load_price_series
from eventstudy.errors import AlignmentError, DataFormatError, HistoryError
from eventstudy.ingest import AlignedReturns, EventRecord, PriceSeries, align, resolve_event_day

from .conftest import synthetic_market, trading_calendar, write_price_csv


def _write_rows(path, rows, header=("date", "close")):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestLoadPriceSeries:
    def test_round_trip_is_exact(self, tmp_path):
        series = synthetic_market(n_prices=40, seed=3)
        loaded = load_price_series(write_price_csv(tmp_path / "m.csv", series))
        assert loaded.dates == series.dates
        assert np.array_equal(loaded.prices, series.prices)
        assert loaded.instrument_id == "m"

    def test_unsorted_input_is_sorted(self, tmp_path):
        rows = [("2014-01-08", "102.0"), ("2014-01-06", "100.0"), ("2014-01-07", "101.0")]
        series = load_price_series(_write_rows(tmp_path / "x.csv", rows))
        assert series.dates == (date(2014, 1, 6), date(2014, 1, 7), date(2014, 1, 8))
        assert series.prices.tolist() == [100.0, 101.0, 102.0]

    def test_missing_column_names_it(self, tmp_path):
        path = _write_rows(tmp_path / "x.csv", [("2014-01-06", "1.0")], header=("date", "px"))
        with pytest.raises(DataFormatError, match="close"):
            load_price_series(path)

    def test_bad_date_names_row(self, tmp_path):
        rows = [("2014-01-06", "100.0"), ("06/01/2014", "101.0")]
        with pytest.raises(DataFormatError, match=r"row 3.*06/01/2014"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_bad_price_names_row(self, tmp_path):
        rows = [("2014-01-06", "100.0"), ("2014-01-07", "n/a")]
        with pytest.raises(DataFormatError, match=r"row 3.*'n/a'"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    @pytest.mark.parametrize("bad", ["0.0", "-3.5", "inf", "nan"])
    def test_nonpositive_or_nonfinite_price_rejected(self, tmp_path, bad):
        rows = [("2014-01-06", "100.0"), ("2014-01-07", bad)]
        with pytest.raises(DataFormatError, match="row 3"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_duplicate_date_rejected(self, tmp_path):
        rows = [("2014-01-06", "100.0"), ("2014-01-07", "101.0"), ("2014-01-06", "99.0")]
        with pytest.raises(DataFormatError, match="duplicate date 2014-01-06"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_duplicate_date_names_first_repeat_in_file_order(self, tmp_path):
        rows = [
            ("2014-01-08", "100.0"),
            ("2014-01-06", "101.0"),
            ("2014-01-08", "102.0"),
            ("2014-01-06", "103.0"),
        ]
        with pytest.raises(
            DataFormatError, match=r"row 4: duplicate date 2014-01-08 \(first seen at row 2\)"
        ):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_too_few_rows(self, tmp_path):
        with pytest.raises(DataFormatError, match="at least 2"):
            load_price_series(_write_rows(tmp_path / "x.csv", [("2014-01-06", "100.0")]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_price_series(tmp_path / "absent.csv")

    @settings(max_examples=30, deadline=None)
    @given(
        prices=st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False).map(float),
            min_size=2,
            max_size=60,
        )
    )
    def test_any_positive_prices_round_trip(self, tmp_path_factory, prices):
        tmp = tmp_path_factory.mktemp("prices")
        series = PriceSeries(
            "x", trading_calendar(date(2013, 1, 7), len(prices)), np.array(prices)
        )
        loaded = load_price_series(write_price_csv(tmp / "x.csv", series))
        assert np.array_equal(loaded.prices, series.prices)


class TestPriceSeriesValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            PriceSeries("x", (date(2014, 1, 6),), np.array([1.0]))

    def test_dates_strictly_increasing(self):
        days = (date(2014, 1, 7), date(2014, 1, 7))
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries("x", days, np.array([1.0, 2.0]))

    def test_first_backward_step_is_named(self):
        days = (date(2014, 1, 6), date(2014, 1, 8), date(2014, 1, 7), date(2014, 1, 7),
                date(2014, 1, 3))
        with pytest.raises(ValueError, match=r"\(2014-01-08 followed by 2014-01-07\)$"):
            PriceSeries("x", days, np.ones(5))

    def test_prices_positive(self):
        days = trading_calendar(date(2014, 1, 6), 2)
        with pytest.raises(ValueError, match="positive"):
            PriceSeries("x", days, np.array([1.0, -2.0]))

    def test_length_mismatch(self):
        days = trading_calendar(date(2014, 1, 6), 3)
        with pytest.raises(ValueError, match="3 dates but 2 prices"):
            PriceSeries("x", days, np.array([1.0, 2.0]))


class TestEventRegistry:
    def test_load_in_file_order(self, tmp_path):
        path = _write_rows(
            tmp_path / "events.csv",
            [("acme", "2014-05-02", "Acme Corp"), ("beta", "2014-05-07", "")],
            header=("instrument_id", "date", "label"),
        )
        events = load_event_registry(path)
        assert [e.key for e in events] == ["acme@2014-05-02", "beta@2014-05-07"]
        assert events[0].label == "Acme Corp"
        assert events[1].label == ""

    def test_empty_registry_is_valid(self, tmp_path):
        path = _write_rows(tmp_path / "events.csv", [], header=("instrument_id", "date"))
        assert load_event_registry(path) == []

    def test_empty_instrument_rejected(self, tmp_path):
        path = _write_rows(
            tmp_path / "events.csv", [("", "2014-05-02")], header=("instrument_id", "date")
        )
        with pytest.raises(DataFormatError, match="row 2.*empty instrument_id"):
            load_event_registry(path)

    def test_event_key(self):
        event = EventRecord("acme", date(2014, 5, 2))
        assert event.key == "acme@2014-05-02"


class TestAlign:
    def test_full_overlap_recovers_simple_returns(self):
        market = synthetic_market(n_prices=10, seed=5)
        aligned = align(market, market)
        assert len(aligned) == 9
        assert aligned.dates == market.dates[1:]
        expected = market.prices[1:] / market.prices[:-1] - 1.0
        assert np.array_equal(aligned.stock_returns, expected)
        assert np.array_equal(aligned.market_returns, expected)

    def test_unshared_day_is_dropped_and_bridged(self):
        days = trading_calendar(date(2014, 1, 6), 4)
        stock = PriceSeries("s", days, np.array([100.0, 110.0, 121.0, 133.1]))
        market = PriceSeries(
            "m", (days[0], days[2], days[3]), np.array([50.0, 55.0, 66.0])
        )
        aligned = align(stock, market)
        assert aligned.dates == (days[2], days[3])
        # The stock return across the dropped day spans two of its own days.
        assert aligned.stock_returns == pytest.approx([121.0 / 100.0 - 1, 0.1], abs=1e-15)
        assert aligned.market_returns == pytest.approx([0.1, 0.2], abs=1e-15)

    def test_insufficient_overlap(self):
        days = trading_calendar(date(2014, 1, 6), 4)
        stock = PriceSeries("s", days[:2], np.array([1.0, 2.0]))
        market = PriceSeries("m", days[2:], np.array([1.0, 2.0]))
        with pytest.raises(AlignmentError, match="insufficient overlap"):
            align(stock, market)

    def test_aligned_returns_validation(self):
        days = trading_calendar(date(2014, 1, 6), 2)
        with pytest.raises(ValueError, match="length mismatch"):
            AlignedReturns(days, np.array([0.1]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="greater than -1"):
            AlignedReturns(days, np.array([0.1, -1.0]), np.array([0.1, 0.2]))


def _reference_align(stock, market):
    """The set-and-dict alignment ``align`` replaced, kept as its oracle."""
    common = sorted(set(stock.dates) & set(market.dates))
    if len(common) < 2:
        raise AlignmentError(
            f"insufficient overlap between {stock.instrument_id!r} and "
            f"{market.instrument_id!r}: need at least 2 shared trading days, "
            f"got {len(common)}"
        )
    returns = []
    for series in (stock, market):
        by_day = dict(zip(series.dates, series.prices.tolist()))
        prices = np.array([by_day[day] for day in common], dtype=np.float64)
        with np.errstate(over="ignore"):
            leg = prices[1:] / prices[:-1] - 1.0
        bad = np.flatnonzero(~np.isfinite(leg) | (leg <= -1.0))
        if bad.size:
            raise AlignmentError(
                f"{series.instrument_id!r}: the return on {common[bad[0] + 1].isoformat()} "
                f"is {leg[bad[0]]}; a price ratio that extreme leaves no usable gross return"
            )
        returns.append(leg)
    return tuple(common[1:]), returns[0], returns[1]


_CALENDAR = trading_calendar(date(2014, 1, 6), 40)
_PRICE = st.one_of(
    st.floats(min_value=1.0, max_value=1e3),
    st.floats(min_value=1e-310, max_value=1e308, allow_subnormal=True),
)


@st.composite
def _gappy_series(draw, instrument_id):
    """A price series on a random subset of one shared 40-day calendar."""
    days = draw(st.lists(st.sampled_from(_CALENDAR), min_size=2, max_size=40, unique=True))
    prices = draw(st.lists(_PRICE, min_size=len(days), max_size=len(days)))
    return PriceSeries(instrument_id, sorted(days), np.array(prices))


class TestAlignMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(stock=_gappy_series("s"), market=_gappy_series("m"))
    def test_bit_identical_to_set_and_dict_alignment(self, stock, market):
        try:
            expected = _reference_align(stock, market)
        except AlignmentError as exc:
            with pytest.raises(AlignmentError) as raised:
                align(stock, market)
            assert str(raised.value) == str(exc)
            return
        aligned = align(stock, market)
        assert aligned.dates == expected[0]
        assert aligned.stock_returns.tobytes() == expected[1].tobytes()
        assert aligned.market_returns.tobytes() == expected[2].tobytes()


class TestResolveEventDay:
    def _calendar(self, n=250):
        return trading_calendar(date(2013, 1, 7), n)

    def test_trading_day_maps_to_itself(self):
        calendar = self._calendar()
        index = resolve_event_day(
            EventRecord("x", calendar[210]), calendar, min_prior_days=201, min_following_days=10
        )
        assert index == 210

    def test_weekend_rolls_to_next_trading_day(self):
        calendar = self._calendar()
        monday = calendar[210]
        assert monday.weekday() == 0
        saturday = monday.fromordinal(monday.toordinal() - 2)
        assert saturday.weekday() == 5
        index = resolve_event_day(
            EventRecord("x", saturday), calendar, min_prior_days=201, min_following_days=10
        )
        assert index == 210

    def test_after_last_day_raises(self):
        calendar = self._calendar(10)
        event = EventRecord("x", date(2099, 1, 1))
        with pytest.raises(HistoryError, match="after the last trading day"):
            resolve_event_day(event, calendar, min_prior_days=1, min_following_days=0)

    def test_insufficient_prior_history(self):
        calendar = self._calendar()
        with pytest.raises(HistoryError, match="before the event: 200 trading days, need 201"):
            resolve_event_day(
                EventRecord("x", calendar[200]), calendar,
                min_prior_days=201, min_following_days=10,
            )

    def test_insufficient_following_history(self):
        calendar = self._calendar()
        with pytest.raises(HistoryError, match="after the event"):
            resolve_event_day(
                EventRecord("x", calendar[-3]), calendar,
                min_prior_days=201, min_following_days=10,
            )

    def test_boundary_day_is_accepted(self):
        calendar = self._calendar(212)  # exactly 201 before, 10 after index 201
        index = resolve_event_day(
            EventRecord("x", calendar[201]), calendar, min_prior_days=201, min_following_days=10
        )
        assert index == 201
