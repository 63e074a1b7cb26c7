"""Market-model fits, and the daily abnormal returns they price.

The primary model is multiplicative: a stock's gross daily return is
``alpha * (1 + market_return) ** beta``.  Taking logs turns that into a
straight line, so ``beta`` comes from a closed-form least-squares fit of
log gross stock returns on log gross market returns.  The level ``alpha``
is then re-estimated on the original scale as a ratio of sums, which makes
the fitted gross returns average out to the observed ones exactly — the
property the whole pipeline leans on when it treats estimation-period
abnormal returns as mean-one noise.

An additive fit (ordinary least squares on plain returns) is also provided
as a comparison baseline.  It is deliberately kept as a separate code path
with its own arithmetic; the two models are supposed to disagree on
multi-day windows, and collapsing them would hide exactly the effect the
multiplicative model exists to capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import DegenerateModelError
from .ingest import AlignedReturns

__all__ = [
    "ModelFit",
    "AdditiveFit",
    "fit_market_model",
    "fit_additive_model",
    "abnormal_return",
    "additive_abnormal_return",
]

@dataclass(frozen=True)
class ModelFit:
    """A fitted multiplicative market model."""

    alpha: float
    beta: float
    log_alpha: float
    beta_stderr: float


@dataclass(frozen=True)
class AdditiveFit:
    """An ordinary least-squares fit of plain returns: ``r_i = a + b * r_m``."""

    alpha: float
    beta: float


def fit_market_model(window: AlignedReturns) -> ModelFit:
    """Fit the multiplicative model on an estimation window.

    Raises :class:`DegenerateModelError` for windows shorter than 3 days or
    a market leg with zero variance (the slope is unidentifiable).  Every
    gross return is positive, so its log is defined: :class:`AlignedReturns`
    rejects any return <= -1 when it is built.
    """
    if len(window) < 3:
        raise DegenerateModelError(
            f"need at least 3 estimation days to fit, got {len(window)}"
        )

    x = np.log1p(window.market_returns)
    y = np.log1p(window.stock_returns)
    x_dev = x - x.mean()
    s_xx = float(x_dev @ x_dev)
    if s_xx == 0.0:
        raise DegenerateModelError(
            "degenerate regressor: market returns are constant over the estimation window"
        )
    beta = float(x_dev @ (y - y.mean())) / s_xx
    log_alpha = float(y.mean() - beta * x.mean())

    # Level estimate on the original scale: with this alpha the fitted gross
    # returns sum to the observed gross returns exactly.
    gross_market_pow = np.power(1.0 + window.market_returns, beta)
    alpha = float((1.0 + window.stock_returns).sum() / gross_market_pow.sum())

    residuals = y - (log_alpha + beta * x)
    dof = len(window) - 2
    beta_stderr = sqrt(float(residuals @ residuals) / dof / s_xx)
    return ModelFit(alpha=alpha, beta=beta, log_alpha=log_alpha, beta_stderr=beta_stderr)


def fit_additive_model(window: AlignedReturns) -> AdditiveFit:
    """Fit the additive comparison model on the same window.

    Raises :class:`DegenerateModelError` for windows shorter than 3 days, a
    market leg with zero variance, or returns so large that the sums of
    squares overflow: a slope of ``finite / inf`` would read as exactly 0.
    """
    if len(window) < 3:
        raise DegenerateModelError(
            f"need at least 3 estimation days to fit, got {len(window)}"
        )
    x = window.market_returns
    y = window.stock_returns
    # Overflow shows up as a non-finite result, checked right after.
    with np.errstate(all="ignore"):
        x_dev = x - x.mean()
        s_xx = float(x_dev @ x_dev)
        if s_xx == 0.0:
            raise DegenerateModelError(
                "degenerate regressor: market returns are constant over the estimation window"
            )
        beta = float(x_dev @ (y - y.mean())) / s_xx
        alpha = float(y.mean() - beta * x.mean())
    if not (isfinite(s_xx) and isfinite(beta) and isfinite(alpha)):
        raise DegenerateModelError(
            f"the additive fit overflows (s_xx={s_xx!r}, beta={beta!r}, alpha={alpha!r}): "
            f"estimation-window returns too large to regress"
        )
    return AdditiveFit(alpha=alpha, beta=beta)


def abnormal_return(
    stock_returns: float | np.ndarray,
    market_returns: float | np.ndarray,
    fit: ModelFit,
) -> float | np.ndarray:
    """One-day abnormal return(s) under a multiplicative fit: the one definition.

    The realised gross return is divided by the model's predicted gross
    return; the abnormal return is that ratio minus one.  Accepts scalars
    or arrays (elementwise).  A result that is not finite or not above -1
    (a total loss, an ``alpha`` of 0 or infinity, an overflowing
    ``(1 + r_m) ** beta``) is a day the fitted model cannot price, and
    raises :class:`DegenerateModelError`.
    """
    stock = np.asarray(stock_returns, dtype=np.float64)
    market = np.asarray(market_returns, dtype=np.float64)
    with np.errstate(all="ignore"):
        abnormal = (1.0 + stock) / (fit.alpha * np.power(1.0 + market, fit.beta)) - 1.0
    usable = np.isfinite(abnormal) & (abnormal > -1.0)
    if not usable.all():
        raise DegenerateModelError(
            f"the fitted model (alpha={fit.alpha!r}, beta={fit.beta!r}) cannot price a day: "
            f"abnormal return {np.asarray(abnormal)[~usable][0]!r} is not a finite value above -1"
        )
    return abnormal


def additive_abnormal_return(
    stock_returns: float | np.ndarray,
    market_returns: float | np.ndarray,
    fit: AdditiveFit,
) -> float | np.ndarray:
    """One-day abnormal return(s) under the additive comparison fit."""
    stock = np.asarray(stock_returns, dtype=np.float64)
    market = np.asarray(market_returns, dtype=np.float64)
    return stock - (fit.alpha + fit.beta * market)
