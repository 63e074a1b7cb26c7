"""Decision rule, event windows, and the single-event pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from eventstudy import StudySettings, event_scenario_distribution, run_event_study
from eventstudy.bootstrap import GENERATOR, MAX_POOL_DAYS, percentile_of
from eventstudy.errors import HistoryError
from eventstudy.inference import (
    STANDARD_WINDOWS,
    EventWindow,
    Impact,
    classify_impact,
    parse_window_label,
)
from eventstudy.ingest import EventRecord, PriceSeries, align
from eventstudy.report import ReportRow

from .conftest import stock_from_market, synthetic_market

EVENT_INDEX = 230  # return-day index with ample history on both sides
FAST = StudySettings(n_scenarios=4_000, seed=42)


def _event_for(market, index=EVENT_INDEX):
    return EventRecord("stock", align(market, market).dates[index].item(), label="Stock Co")


class TestClassifyImpact:
    # (car, percentile, expected) triples taken from published results the
    # fixture file replays in full; these pin the edges in unit-test form.
    @pytest.mark.parametrize(
        "car,percentile,expected",
        [
            (-0.040441177, 9.26076, Impact.NEGATIVE),
            (-0.026102614, 10.94388, Impact.NONE),  # low tail, but not past 10
            (0.014332099, 89.90238, Impact.NONE),  # high tail, but not past 90
            (0.031340549, 90.29374, Impact.POSITIVE),
            (0.023281975, 91.56936, Impact.POSITIVE),
            (-0.174724652, 0.0002, Impact.NEGATIVE),
            (0.135604103, 97.36842, Impact.POSITIVE),
            (0.000824461, 51.7293, Impact.NONE),
        ],
        ids=lambda value: getattr(value, "value", None),  # an Impact by its label
    )
    def test_published_triples(self, car, percentile, expected):
        assert classify_impact(car, percentile) is expected

    def test_thresholds_are_strict(self):
        assert classify_impact(-0.05, 10.0) is Impact.NONE
        assert classify_impact(0.05, 90.0) is Impact.NONE
        assert classify_impact(-0.05, 9.99999) is Impact.NEGATIVE
        assert classify_impact(0.05, 90.00001) is Impact.POSITIVE

    def test_sign_must_agree_with_tail(self):
        assert classify_impact(0.01, 5.0) is Impact.NONE  # positive CAR, low tail
        assert classify_impact(-0.01, 95.0) is Impact.NONE  # negative CAR, high tail
        assert classify_impact(0.0, 95.0) is Impact.NONE  # zero CAR is never an impact
        assert classify_impact(0.0, 5.0) is Impact.NONE

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_car_within_64_ulps_of_zero_has_no_sign(self, sign):
        floor = 64 * np.finfo(np.float64).eps
        tail = 0.0 if sign < 0 else 100.0
        assert classify_impact(sign * floor, tail) is Impact.NONE
        above = classify_impact(sign * np.nextafter(floor, 1.0), tail)
        assert above is (Impact.NEGATIVE if sign < 0 else Impact.POSITIVE)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="percentile"):
            classify_impact(0.0, 101.0)


class TestEventWindow:
    def test_standard_windows_and_draw_counts(self):
        assert tuple(w.label for w in STANDARD_WINDOWS) == (
            "[-1,0]", "[-1,1]", "[-1,3]", "[-1,5]", "[-1,10]"
        )
        assert tuple(w.n_days for w in STANDARD_WINDOWS) == (2, 3, 5, 7, 12)

    def test_start_is_pinned_to_minus_one(self):
        with pytest.raises(ValueError, match="unknown window label"):
            parse_window_label("[0,5]")

    def test_end_cannot_precede_start(self):
        # The five windows are closed: no other end offset, before or after
        # -1, makes a window.
        for end_offset in (-2, -1, 2, 4, 11):
            with pytest.raises(ValueError, match=f"^{end_offset} is not a valid EventWindow$"):
                EventWindow(end_offset)

    def test_label_round_trip(self):
        for window in STANDARD_WINDOWS:
            assert parse_window_label(window.label) == window
        assert parse_window_label(" [ -1 , 10 ] ") == EventWindow(10)

    def test_unparsable_label(self):
        with pytest.raises(ValueError, match=r"unknown window label .*\[-1,0\], .*\[-1,10\]\)"):
            parse_window_label("-1..5")


class TestStudySettings:
    def test_defaults_are_standard(self):
        settings = StudySettings()
        assert settings.n_scenarios == 5_000_000
        assert settings.estimation_days == 200
        assert settings.mode == "iid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_scenarios": 0},
            {"mode": "jackknife"},
            {"estimation_days": 2},
            {"estimation_days": MAX_POOL_DAYS + 1},
            {"workers": 0},
            {"mode": "block", "estimation_days": 8},
            {"mode": "block", "estimation_days": 11},  # one short of [-1,10]
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ValueError):
            StudySettings(**kwargs)

    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_longest_pool_accepted(self, mode):
        assert MAX_POOL_DAYS == 512
        StudySettings(mode=mode, estimation_days=512)  # and 513 is refused above

    @pytest.mark.parametrize(
        "kwargs", [{"estimation_days": 3}, {"mode": "block", "estimation_days": 12}]
    )
    def test_shortest_pool_accepted(self, kwargs):
        # One day fewer is refused above: 2, and 11 in block mode.
        assert StudySettings(**kwargs).estimation_days == kwargs["estimation_days"]


class TestRunEventStudy:
    def test_five_windows_in_order(self, market):
        stock = stock_from_market(market)
        results = run_event_study(_event_for(market), stock, market, FAST)
        assert [r.window.label for r in results] == [w.label for w in STANDARD_WINDOWS]
        for result in results:
            assert 0.0 <= result.percentile <= 100.0
            assert isinstance(result.impact, Impact)
            assert result.settings == FAST
            assert result.settings.mode == "iid"
            assert result.settings.estimation_days == 200
            row = ReportRow.from_result(result)
            assert row.generator == GENERATOR
            assert row.flags == ""

    def test_rerun_is_bit_identical(self, market):
        stock = stock_from_market(market)
        event = _event_for(market)
        first = run_event_study(event, stock, market, FAST)
        second = run_event_study(event, stock, market, FAST)
        assert [(r.car, r.percentile, r.impact) for r in first] == [
            (r.car, r.percentile, r.impact) for r in second
        ]

    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_each_window_alone_reproduces_the_run(self, market, mode):
        # Each window alone reproduces exactly the numbers of the full run:
        # it reads the same prefix of the event's one stream.
        settings = replace(FAST, mode=mode)
        stock = stock_from_market(market)
        event = _event_for(market)
        full = run_event_study(event, stock, market, settings)
        for result in full:
            dist, car = event_scenario_distribution(event, stock, market, result.window, settings)
            assert (car, percentile_of(dist, car)) == (result.car, result.percentile)

    def test_negative_shock_is_flagged(self, market):
        stock = stock_from_market(
            market, noise=0.004, shocks={EVENT_INDEX: -0.08, EVENT_INDEX + 1: -0.04}
        )
        results = run_event_study(_event_for(market), stock, market, FAST)
        by_label = {r.window.label: r for r in results}
        assert by_label["[-1,1]"].impact is Impact.NEGATIVE
        assert by_label["[-1,1]"].car < -0.1
        assert by_label["[-1,1]"].percentile < 10.0

    def test_positive_shock_is_flagged(self, market):
        stock = stock_from_market(market, noise=0.004, shocks={EVENT_INDEX: 0.12})
        results = run_event_study(_event_for(market), stock, market, FAST)
        by_label = {r.window.label: r for r in results}
        assert by_label["[-1,0]"].impact is Impact.POSITIVE
        assert by_label["[-1,0]"].percentile > 90.0

    def test_footnote_pair_diverges_from_additive_baseline(self, market):
        # Estimation days mirror the market exactly (beta = alpha = 1 by
        # construction); the event days move +10% then -10% against a flat
        # market, so the multiplicative CAR is -1% while the additive CAR
        # cancels to zero.  The pool is rounding noise, which a real move
        # lies below: the window is Negative.
        flat = market.prices.copy()
        flat[EVENT_INDEX + 1] = flat[EVENT_INDEX]  # market flat on day 0
        flat[EVENT_INDEX + 2] = flat[EVENT_INDEX]  # and on day +1
        market_flat = PriceSeries("market-index", market.dates, flat)
        stock_prices = flat * 0.5  # exact halving keeps estimation returns bitwise equal
        stock_prices[EVENT_INDEX + 1] = stock_prices[EVENT_INDEX] * 1.1
        stock_prices[EVENT_INDEX + 2] = stock_prices[EVENT_INDEX + 1] * 0.9
        stock = PriceSeries("stock", market.dates, stock_prices)
        results = run_event_study(_event_for(market_flat), stock, market_flat, FAST)
        result = next(r for r in results if r.window == EventWindow(1))
        assert result.car == pytest.approx(-0.01, abs=1e-9)
        assert result.car_additive == pytest.approx(0.0, abs=1e-9)
        assert result.percentile == 0.0 and result.impact is Impact.NEGATIVE

    def test_insufficient_history_raises_before_any_result(self, market):
        stock = stock_from_market(market)
        aligned = align(stock, market)
        late_event = EventRecord("stock", aligned.dates[-3].item())  # only 2 days follow
        with pytest.raises(HistoryError, match="after the event"):
            run_event_study(late_event, stock, market, FAST)

    def test_ten_following_days_are_enough(self, market):
        stock = stock_from_market(market)
        event = EventRecord("stock", align(stock, market).dates[-11].item())
        assert len(run_event_study(event, stock, market, FAST)) == len(STANDARD_WINDOWS)

    def test_nine_following_days_are_refused(self, market):
        stock = stock_from_market(market)
        event = EventRecord("stock", align(stock, market).dates[-10].item())
        with pytest.raises(HistoryError, match="after the event: 9 trading days, need 10"):
            run_event_study(event, stock, market, FAST)

    def test_fixed_multiple_of_the_market_is_judged_none(self, market):
        # Every CAR is rounding noise of a few 1e-16, and so is the pool it
        # is ranked in; the rank is not a move, so each window is None.
        twin = PriceSeries("stock", market.dates, 3.0 * market.prices)
        event = _event_for(market)
        results = run_event_study(event, twin, market, FAST)
        assert all(abs(r.car) <= 64 * np.finfo(np.float64).eps for r in results)
        assert [r.impact for r in results] == [Impact.NONE] * len(STANDARD_WINDOWS)
        dist, _ = event_scenario_distribution(
            event, twin, market, STANDARD_WINDOWS[0], FAST, histogram_bins=10
        )
        assert int(dist.histogram.counts.sum()) == FAST.n_scenarios

    def test_nonstandard_settings_are_flagged(self, market):
        stock = stock_from_market(market)
        settings = StudySettings(n_scenarios=4_000, seed=1, estimation_days=150)
        results = run_event_study(_event_for(market), stock, market, settings)
        assert {ReportRow.from_result(r).flags for r in results} == {"nonstandard_estimation"}


class TestEventScenarioDistribution:
    def test_consistent_with_study_run(self, market):
        stock = stock_from_market(market)
        event = _event_for(market)
        results = run_event_study(event, stock, market, FAST)
        window = STANDARD_WINDOWS[3]
        dist, car = event_scenario_distribution(event, stock, market, window, FAST)
        assert car == results[3].car
        assert percentile_of(dist, car) == results[3].percentile

    def test_needs_the_history_the_study_needs(self, market):
        # Three following days would cover [-1,1] alone, but the study
        # rejects the event, so the distribution it never used is refused too.
        stock = stock_from_market(market)
        late_event = EventRecord("stock", align(stock, market).dates[-4].item())
        with pytest.raises(HistoryError) as study:
            run_event_study(late_event, stock, market, FAST)
        with pytest.raises(HistoryError) as alone:
            event_scenario_distribution(late_event, stock, market, EventWindow(1), FAST)
        assert str(alone.value) == str(study.value)
        assert "after the event: 3 trading days, need 10" in str(alone.value)

    def test_nonstandard_window_rejected(self, market):
        with pytest.raises(ValueError, match="^2 is not a valid EventWindow$"):
            event_scenario_distribution(
                _event_for(market), stock_from_market(market), market, EventWindow(2), FAST
            )

    def test_histogram_attached_on_request(self, market):
        stock = stock_from_market(market)
        dist, _ = event_scenario_distribution(
            _event_for(market), stock, market, STANDARD_WINDOWS[0], FAST, histogram_bins=25
        )
        assert dist.histogram is not None
        assert int(dist.histogram.counts.sum()) == FAST.n_scenarios
