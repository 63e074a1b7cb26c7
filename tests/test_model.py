"""Market-model fitting: closed-form OLS, level identity, abnormal returns."""

from __future__ import annotations

import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstudy.errors import DegenerateModelError, HistoryError
from eventstudy.ingest import AlignedReturns, align
from eventstudy.inference import estimation_window
from eventstudy.model import (
    abnormal_return,
    additive_abnormal_return,
    fit_additive_model,
    fit_market_model,
)

from .conftest import synthetic_market, trading_calendar


def _window(stock_returns, market_returns):
    n = len(stock_returns)
    return AlignedReturns(
        trading_calendar(date(2013, 1, 7), n),
        np.asarray(stock_returns, dtype=float),
        np.asarray(market_returns, dtype=float),
    )


def _random_window(seed, n=200, alpha=1.0004, beta=1.2, noise=0.01):
    rng = np.random.default_rng(seed)
    market = 0.0002 + 0.012 * rng.standard_normal(n)
    log_noise = noise * rng.standard_normal(n)
    stock = alpha * np.power(1.0 + market, beta) * np.exp(log_noise) - 1.0
    return _window(stock, market)


class TestFitMarketModel:
    def test_stock_equal_to_market_fits_identity(self):
        market = synthetic_market(n_prices=60, seed=9)
        returns = market.prices[1:] / market.prices[:-1] - 1.0
        fit = fit_market_model(_window(returns, returns))
        assert fit.beta == pytest.approx(1.0, abs=1e-14)
        assert fit.log_alpha == pytest.approx(0.0, abs=1e-14)
        assert fit.alpha == 1.0  # ratio of identical sums

    def test_noiseless_recovery_is_near_exact(self):
        window = _random_window(seed=21, alpha=1.001, beta=1.3, noise=0.0)
        fit = fit_market_model(window)
        assert fit.beta == pytest.approx(1.3, abs=1e-12)
        assert fit.alpha == pytest.approx(1.001, rel=1e-12)
        assert fit.log_alpha == pytest.approx(np.log(1.001), abs=1e-12)

    def test_matches_independent_least_squares(self):
        window = _random_window(seed=4)
        fit = fit_market_model(window)
        x = np.log1p(window.market_returns)
        y = np.log1p(window.stock_returns)
        design = np.column_stack((np.ones_like(x), x))
        (intercept, slope), residual_ss, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert fit.beta == pytest.approx(slope, abs=1e-10)
        assert fit.log_alpha == pytest.approx(intercept, abs=1e-10)
        # Standard error from the covariance matrix route.
        sigma2 = float(residual_ss[0]) / (len(window) - 2)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        assert fit.beta_stderr == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-10)

    def test_normal_equations_hold(self):
        for seed in range(5):
            window = _random_window(seed=seed)
            fit = fit_market_model(window)
            x = np.log1p(window.market_returns)
            residuals = np.log1p(window.stock_returns) - (fit.log_alpha + fit.beta * x)
            assert abs(residuals.sum()) < 1e-10
            assert abs(residuals @ x) < 1e-10

    def test_level_identity_holds(self):
        # The re-estimated level makes fitted and observed gross returns
        # agree in total, not just in log-mean.
        for seed in range(5):
            window = _random_window(seed=100 + seed)
            fit = fit_market_model(window)
            fitted = fit.alpha * np.power(1.0 + window.market_returns, fit.beta)
            observed = (1.0 + window.stock_returns).sum()
            assert fitted.sum() == pytest.approx(observed, rel=1e-12)

    def test_constant_market_is_degenerate(self):
        window = _window([0.01, -0.02, 0.005, 0.01], [0.002, 0.002, 0.002, 0.002])
        with pytest.raises(DegenerateModelError, match="degenerate regressor"):
            fit_market_model(window)

    def test_total_loss_return_is_invalid(self):
        with pytest.raises(ValueError, match="greater than -1"):
            _window([0.01, -1.0, 0.005], [0.002, -0.001, 0.003])

    def test_three_days_are_enough(self):
        # Three points identify the line; noiseless returns recover it.
        market = np.array([0.01, -0.02, 0.005])
        window = _window(1.001 * (1.0 + market) ** 1.3 - 1.0, market)
        fit = fit_market_model(window)
        assert (fit.alpha, fit.beta) == pytest.approx((1.001, 1.3), rel=1e-9)

    def test_too_short_window(self):
        window = _window([0.01, 0.02], [0.002, 0.003])
        with pytest.raises(DegenerateModelError, match="at least 3"):
            fit_market_model(window)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    def test_beta_invariant_to_market_rescaling(self, scale):
        # Multiplying every gross market return by a constant shifts the
        # log regressor; the slope must not move.
        window = _random_window(seed=13)
        scaled = _window(
            window.stock_returns, scale * (1.0 + window.market_returns) - 1.0
        )
        fit = fit_market_model(window)
        fit_scaled = fit_market_model(scaled)
        assert fit_scaled.beta == pytest.approx(fit.beta, abs=1e-9)


class TestAdditiveFit:
    def test_matches_polyfit(self):
        window = _random_window(seed=5)
        fit = fit_additive_model(window)
        slope, intercept = np.polyfit(window.market_returns, window.stock_returns, 1)
        assert fit.beta == pytest.approx(slope, abs=1e-12)
        assert fit.alpha == pytest.approx(intercept, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_days_is_degenerate(self, n):
        window = _window([0.01, -0.02][:n], [0.002, 0.004][:n])
        message = f"need at least 3 estimation days to fit, got {n}"
        with pytest.raises(DegenerateModelError, match=message):
            fit_additive_model(window)

    def test_constant_market_is_degenerate(self):
        window = _window([0.01, -0.02, 0.005], [0.002, 0.002, 0.002])
        with pytest.raises(DegenerateModelError, match="degenerate regressor"):
            fit_additive_model(window)

    def test_overflowing_sum_of_squares_is_degenerate(self):
        # One market return of 1e298 overflows x_dev @ x_dev to infinity;
        # the slope must not come out as finite / inf == 0.
        window = _random_window(seed=7)
        market = window.market_returns.copy()
        market[50] = 1e298
        with pytest.raises(DegenerateModelError, match="additive fit overflows"):
            fit_additive_model(_window(window.stock_returns, market))

    def test_abnormal_returns_sum_to_zero_in_sample(self):
        window = _random_window(seed=6)
        fit = fit_additive_model(window)
        ars = additive_abnormal_return(window.stock_returns, window.market_returns, fit)
        assert abs(ars.sum()) < 1e-10  # OLS residuals through the intercept


class TestAbnormalReturn:
    def test_prediction_has_zero_abnormal_return(self):
        window = _random_window(seed=30, noise=0.0, alpha=1.0007, beta=0.9)
        fit = fit_market_model(window)
        predicted = fit.alpha * np.power(1.0 + window.market_returns, fit.beta) - 1.0
        ars = abnormal_return(predicted, window.market_returns, fit)
        assert np.max(np.abs(ars)) < 1e-14

    def test_scalar_in_scalar_out(self):
        window = _random_window(seed=31)
        fit = fit_market_model(window)
        value = abnormal_return(0.02, 0.01, fit)
        assert isinstance(value, float)
        expected = 1.02 / (fit.alpha * (1.01) ** fit.beta) - 1.0
        assert value == pytest.approx(expected, abs=1e-15)

    def test_rejects_total_loss(self):
        fit = fit_market_model(_random_window(seed=32))
        with pytest.raises(DegenerateModelError, match="cannot price"):
            abnormal_return(-1.0, 0.01, fit)

    def test_overflowing_prediction_is_degenerate(self):
        # (1 + r_m) ** beta overflows to infinity: the predicted gross return
        # is unusable, so the day cannot be priced.
        fit = fit_market_model(_random_window(seed=34))
        assert fit.beta > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow itself stays silent
            with pytest.raises(DegenerateModelError, match="cannot price"):
                abnormal_return(np.array([0.01, 0.02]), np.array([0.01, 1e300]), fit)

    def test_gross_abnormal_return_stays_positive(self):
        window = _random_window(seed=33, noise=0.05)
        fit = fit_market_model(window)
        pool = abnormal_return(window.stock_returns, window.market_returns, fit)
        assert np.all(pool > -1.0)


class TestEstimationWindow:
    def test_slice_ends_two_days_before_event(self):
        market = synthetic_market(n_prices=260, seed=2)
        aligned = align(market, market)
        event_index = 230
        window = estimation_window(aligned, event_index, days=200)
        assert len(window) == 200
        assert window.dates[-1] == aligned.dates[event_index - 2]
        assert window.dates[0] == aligned.dates[event_index - 201]

    def test_insufficient_history_raises(self):
        market = synthetic_market(n_prices=150, seed=2)
        aligned = align(market, market)
        with pytest.raises(HistoryError, match="insufficient history"):
            estimation_window(aligned, 120, days=200)

    def test_exactly_enough_history_is_accepted(self):
        # The window's first day is then the calendar's first return day.
        market = synthetic_market(n_prices=260, seed=2)
        aligned = align(market, market)
        window = estimation_window(aligned, 201, days=200)
        assert window.dates[0] == aligned.dates[0]
        assert len(window) == 200

    def test_one_day_short_of_history_is_refused(self):
        market = synthetic_market(n_prices=260, seed=2)
        aligned = align(market, market)
        with pytest.raises(HistoryError, match="before the event: 200 trading days, need 201"):
            estimation_window(aligned, 200, days=200)

    def test_three_days_are_enough(self):
        market = synthetic_market(n_prices=50, seed=2)
        aligned = align(market, market)
        window = estimation_window(aligned, 30, days=3)
        assert window.dates.tolist() == aligned.dates[26:29].tolist()

    def test_rejects_tiny_day_count(self):
        market = synthetic_market(n_prices=50, seed=2)
        aligned = align(market, market)
        with pytest.raises(ValueError, match="at least 3"):
            estimation_window(aligned, 30, days=2)
