"""Loading, validation, alignment, and event placement."""

from __future__ import annotations

import csv
import re
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstudy import load_event_registry, load_price_series
from eventstudy.errors import AlignmentError, DataFormatError, HistoryError
from eventstudy.ingest import (
    AlignedReturns,
    EventRecord,
    PriceSeries,
    align,
    read_csv_rows,
)
from eventstudy.inference import resolve_event_day

from .conftest import synthetic_market, trading_calendar, write_price_csv


def _write_rows(path, rows, header=("date", "close")):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _with_bom(path):
    """A copy of ``path`` that opens with a UTF-8 byte-order mark, as Excel's
    "CSV UTF-8" writes it."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


class TestLoadPriceSeries:
    def test_round_trip_is_exact(self, tmp_path):
        series = synthetic_market(n_prices=40, seed=3)
        loaded = load_price_series(write_price_csv(tmp_path / "m.csv", series))
        assert loaded.dates.tolist() == series.dates.tolist()
        assert np.array_equal(loaded.prices, series.prices)
        assert loaded.instrument_id == "m"

    def test_loaded_history_is_two_flat_arrays(self, tmp_path):
        series = load_price_series(
            write_price_csv(tmp_path / "m.csv", synthetic_market(n_prices=40, seed=3))
        )
        assert series.dates.dtype == np.dtype("datetime64[D]")
        assert series.dates.nbytes + series.prices.nbytes == 16 * len(series)
        assert not hasattr(series, "ordinals")

    def test_unsorted_input_is_sorted(self, tmp_path):
        rows = [("2014-01-08", "102.0"), ("2014-01-06", "100.0"), ("2014-01-07", "101.0")]
        series = load_price_series(_write_rows(tmp_path / "x.csv", rows))
        assert series.dates.tolist() == [date(2014, 1, 6), date(2014, 1, 7), date(2014, 1, 8)]
        assert series.prices.tolist() == [100.0, 101.0, 102.0]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain = write_price_csv(tmp_path / "m.csv", synthetic_market(n_prices=40, seed=3))
        expected = load_price_series(plain, instrument_id="m")
        loaded = load_price_series(_with_bom(plain), instrument_id="m")
        assert (loaded.instrument_id, loaded.dates.tolist()) == (
            expected.instrument_id, expected.dates.tolist()
        )
        assert np.array_equal(loaded.prices, expected.prices)

    def test_missing_column_names_it(self, tmp_path):
        path = _write_rows(tmp_path / "x.csv", [("2014-01-06", "1.0")], header=("date", "px"))
        with pytest.raises(DataFormatError, match="close"):
            load_price_series(path)

    def test_bad_date_names_row(self, tmp_path):
        rows = [("2014-01-06", "100.0"), ("06/01/2014", "101.0")]
        with pytest.raises(DataFormatError, match=r"row 3.*06/01/2014"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    @pytest.mark.parametrize("raw", ["20150105", "2015W021", "2015-W02-1"])
    def test_only_dashed_calendar_dates(self, tmp_path, raw):
        # Python 3.11 and later read these through date.fromisoformat; 3.10 does not.
        rows = [("2015-01-02", "100.0"), (raw, "101.0")]
        with pytest.raises(
            DataFormatError, match=rf"row 3: unparsable date '{raw}' \(expected YYYY-MM-DD\)"
        ):
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

    def test_bad_price_before_a_later_unparsable_field(self, tmp_path):
        rows = [("2014-01-06", "-1.0"), ("2014-01-07", "101.0"), ("2014-01-08", "n/a")]
        with pytest.raises(DataFormatError, match=r"row 4: unparsable price 'n/a'"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    @pytest.mark.parametrize(
        "row, message",
        [(("2014-01-07", "n/a"), "unparsable price 'n/a'"),
         (("2014-13-07", "102.0"), "unparsable date '2014-13-07'")],
    )
    def test_unparsable_field_before_an_earlier_duplicate_date(self, tmp_path, row, message):
        rows = [("2014-01-06", "100.0"), ("2014-01-06", "101.0"), row]
        with pytest.raises(DataFormatError, match=rf"row 4: {message}"):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_first_bad_price_before_an_earlier_duplicate_date(self, tmp_path):
        rows = [
            ("2014-01-06", "100.0"),
            ("2014-01-06", "101.0"),
            ("2014-01-07", " 0 "),
            ("2014-01-08", "nan"),
        ]
        with pytest.raises(
            DataFormatError, match=r"row 4: price must be positive and finite, got 0$"
        ):
            load_price_series(_write_rows(tmp_path / "x.csv", rows))

    def test_parse_peak_memory_per_row(self, tmp_path):
        # Rows are parsed as they are read, so no per-row list of the file's
        # fields is held; traced allocations, not RSS, so the figure repeats.
        n_rows = 20_000
        days = np.datetime64("1990-01-01") + np.arange(n_rows)
        rows = [(str(day), f"{100.0 + (i % 97) * 0.37:.4f}") for i, day in enumerate(days)]
        np.random.default_rng(7).shuffle(rows)
        path = _write_rows(tmp_path / "long.csv", rows)
        load_price_series(path)  # warm: first-call imports and caches are not per row
        tracemalloc.start()
        try:
            series = load_price_series(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == n_rows
        assert peak / n_rows < 300

    def test_oversized_field_names_the_file_and_row(self, tmp_path):
        rows = [("2014-01-06", "100.0"), ("2014-01-07", "1" * 200_000), ("2014-01-08", "102.0")]
        path = _write_rows(tmp_path / "x.csv", rows)
        message = f"{path}: row 3: field larger than field limit"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_price_series(path)

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

    def test_missing_day_rejected(self):
        # ``None`` converts to NaT, which compares false with every day.
        days = (date(2014, 1, 6), None, date(2014, 1, 8))
        with pytest.raises(ValueError, match=r"\(2014-01-06 followed by NaT\)$"):
            PriceSeries("x", days, np.ones(3))

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

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain = _write_rows(
            tmp_path / "events.csv",
            [("acme", "2014-05-02", "Acme Corp"), ("beta", "2014-05-07", "")],
            header=("instrument_id", "date", "label"),
        )
        assert load_event_registry(_with_bom(plain)) == load_event_registry(plain)

    def test_empty_registry_is_valid(self, tmp_path):
        path = _write_rows(tmp_path / "events.csv", [], header=("instrument_id", "date"))
        assert load_event_registry(path) == []

    def test_empty_instrument_rejected(self, tmp_path):
        path = _write_rows(
            tmp_path / "events.csv", [("", "2014-05-02")], header=("instrument_id", "date")
        )
        with pytest.raises(DataFormatError, match="row 2.*empty instrument_id"):
            load_event_registry(path)

    @pytest.mark.parametrize("raw", ["20150105", "2015W021", "2015-W02-1"])
    def test_only_dashed_calendar_dates(self, tmp_path, raw):
        path = _write_rows(
            tmp_path / "events.csv",
            [("acme", "2015-01-02"), ("beta", raw)],
            header=("instrument_id", "date"),
        )
        with pytest.raises(
            DataFormatError, match=rf"row 3: unparsable date '{raw}' \(expected YYYY-MM-DD\)"
        ):
            load_event_registry(path)

    def test_repeated_event_rejected(self, tmp_path):
        # The label does not tell events apart: the key is instrument and date.
        path = _write_rows(
            tmp_path / "events.csv",
            [("acme", "2014-05-02", "Acme"), ("beta", "2014-05-02", ""),
             ("acme", "2014-05-05", ""), ("acme", "2014-05-02", "Acme Corp")],
            header=("instrument_id", "date", "label"),
        )
        with pytest.raises(
            DataFormatError,
            match=r"row 5: duplicate event acme@2014-05-02 \(first seen at row 2\)$",
        ):
            load_event_registry(path)

    def test_event_key(self):
        event = EventRecord("acme", date(2014, 5, 2))
        assert event.key == "acme@2014-05-02"


class TestAlign:
    def test_full_overlap_recovers_simple_returns(self):
        market = synthetic_market(n_prices=10, seed=5)
        aligned = align(market, market)
        assert len(aligned) == 9
        assert aligned.dates.tolist() == market.dates[1:].tolist()
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
        assert aligned.dates.tolist() == [days[2], days[3]]
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

    def test_records_hold_read_only_copies(self):
        days = trading_calendar(date(2014, 1, 6), 3)
        d = np.array(days, dtype="datetime64[D]")
        p = np.array([1.0, 2.0, 3.0])
        r = np.array([0.1, 0.2])
        series = PriceSeries("x", d, p)
        aligned = AlignedReturns(d[1:], r, np.array([0.3, 0.4]))
        d[2] = d[0] - np.timedelta64(1, "D")
        p[1] = -5.0
        r[0] = -3.0
        assert series.dates.tolist() == list(days)
        assert series.prices.tolist() == [1.0, 2.0, 3.0]
        assert aligned.dates.tolist() == list(days[1:])
        assert aligned.stock_returns.tolist() == [0.1, 0.2]
        for arr in (series.prices, series.dates, aligned.stock_returns):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]


def _reference_align(stock, market):
    """The set-and-dict alignment ``align`` replaced, kept as its oracle."""
    common = sorted(set(stock.dates.tolist()) & set(market.dates.tolist()))
    if len(common) < 2:
        raise AlignmentError(
            f"insufficient overlap between {stock.instrument_id!r} and "
            f"{market.instrument_id!r}: need at least 2 shared trading days, "
            f"got {len(common)}"
        )
    returns = []
    for series in (stock, market):
        by_day = dict(zip(series.dates.tolist(), series.prices.tolist()))
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
    return common[1:], returns[0], returns[1]


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
        assert aligned.dates.tolist() == expected[0]
        assert aligned.stock_returns.tobytes() == expected[1].tobytes()
        assert aligned.market_returns.tobytes() == expected[2].tobytes()


def _reference_read_csv_rows(path, required, optional):
    """The ``csv.DictReader`` reading ``read_csv_rows`` replaced, kept as its oracle."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: file is empty (no header row)")
        missing = [col for col in required if col not in reader.fieldnames]
        if missing:
            raise DataFormatError(
                f"{path}: header is missing required column(s) {', '.join(missing)}"
            )
        return [
            (reader.line_num, tuple(row.get(col) for col in required + optional))
            for row in reader
        ]


_FIELD = st.text(alphabet='ab1 ,"\n', max_size=4)


class TestReadCsvRowsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.none() | st.lists(st.sampled_from(["date", "close", "label", "x"]), max_size=5),
        body=st.lists(st.lists(_FIELD, max_size=6), max_size=8),
    )
    def test_same_fields_line_numbers_and_errors_as_dictreader(
        self, tmp_path_factory, header, body
    ):
        # Blank lines, short and long rows, repeated column names, an absent
        # optional column and quoted fields spanning lines all read as before.
        path = tmp_path_factory.getbasetemp() / "read_csv_rows.csv"  # rewritten per example
        with open(path, "w", newline="", encoding="utf-8") as handle:
            if header is not None:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(body)
        columns = ("date", "close"), ("label",)
        try:
            expected = _reference_read_csv_rows(path, *columns)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as raised:
                list(read_csv_rows(path, *columns))
            assert str(raised.value) == str(exc)
            return
        assert list(read_csv_rows(path, *columns)) == expected


class TestResolveEventDay:
    def _calendar(self, n=250):
        return trading_calendar(date(2013, 1, 7), n)

    def test_trading_day_maps_to_itself(self):
        calendar = self._calendar()
        index = resolve_event_day(
            EventRecord("x", calendar[210]), np.array(calendar, "datetime64[D]")
        )
        assert index == 210

    def test_weekend_rolls_to_next_trading_day(self):
        calendar = self._calendar()
        monday = calendar[210]
        assert monday.weekday() == 0
        saturday = monday.fromordinal(monday.toordinal() - 2)
        assert saturday.weekday() == 5
        index = resolve_event_day(EventRecord("x", saturday), np.array(calendar, "datetime64[D]"))
        assert index == 210

    def test_after_last_day_raises(self):
        calendar = self._calendar(10)
        event = EventRecord("x", date(2099, 1, 1))
        with pytest.raises(HistoryError, match="after the last trading day"):
            resolve_event_day(event, np.array(calendar, "datetime64[D]"))

    def test_boundary_day_is_accepted(self):
        # The last trading day is the latest an announcement can be placed;
        # whether enough days follow it is for the pipeline to judge.
        calendar = self._calendar(212)
        index = resolve_event_day(
            EventRecord("x", calendar[-1]), np.array(calendar, "datetime64[D]")
        )
        assert index == 211


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: PriceSeries("", trading_calendar(date(2014, 1, 6), 2), np.ones(2)),
         ValueError, "instrument_id must be non-empty"),
        (lambda: EventRecord("", date(2014, 5, 2)), ValueError, "instrument_id must be non-empty"),
        (lambda: EventRecord("acme", "2014-05-02"), ValueError, "must be a datetime.date"),
        (lambda: resolve_event_day(
            EventRecord("acme", date(2014, 5, 2)), np.array([], dtype="datetime64[D]"),
        ), HistoryError, "acme@2014-05-02: empty trading calendar"),
        (lambda: PriceSeries("acme", trading_calendar(date(2014, 1, 6), 2), np.array([1.0, 0.0])),
         ValueError, "acme: prices must be positive and finite"),
    ],
    ids=["series-without-instrument", "event-without-instrument", "event-date-as-text",
         "empty-calendar", "series-with-zero-price"],
)
def test_unusable_input_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "make",
    [
        lambda: PriceSeries("x", trading_calendar(date(2014, 1, 6), 3), np.array([1.0, 2.0, 3.0])),
        lambda: AlignedReturns(
            trading_calendar(date(2014, 1, 6), 3), np.array([0.01, 0.0, -0.01]), np.zeros(3)
        ),
    ],
    ids=["PriceSeries", "AlignedReturns"],
)
def test_records_holding_arrays_compare_by_identity(make):
    # A generated __eq__ would compare the arrays and raise on their truth value.
    a, b = make(), make()
    assert (a == b) is False
    assert a == a
    hash(a)
