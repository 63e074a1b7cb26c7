"""Where an event's days lie, the percentile decision rule, and the per-event pipeline.

This module places an event, cuts its days and judges it.  The announcement
falls on the first trading day on or after its date.  An event window
always opens one trading day before it (to catch leakage) and closes 0, 1,
3, 5, or 10 days after it; these five are the only members of
:class:`EventWindow`.  The estimation window therefore stops two days before
the announcement.  Both history checks live here: the days before the event
are checked where the estimation window is cut, the days after it where the
event windows are.  For each window the pipeline compares the observed
cumulative abnormal return against a resampled no-impact distribution of
the same length and classifies the event:

* ``Negative`` — the CAR is below zero *and* sits below the 10th percentile.
* ``Positive`` — the CAR is above zero *and* sits above the 90th percentile.
* ``None`` — everything else; the move is within the ordinary noise.

Both conditions are strict: landing exactly on a threshold is not enough.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    DEFAULT_N_SCENARIOS,
    MAX_POOL_DAYS,
    ScenarioDistribution,
    ScenarioSpec,
    cumulative_abnormal_return,
    derive_seed,
    generate_distribution,
    percentile_of,
)
from .errors import HistoryError
from .ingest import AlignedReturns, EventRecord, PriceSeries, align
from .model import (
    abnormal_return,
    additive_abnormal_return,
    fit_additive_model,
    fit_market_model,
)

__all__ = [
    "Impact",
    "EventWindow",
    "STANDARD_WINDOWS",
    "DEFAULT_ESTIMATION_DAYS",
    "resolve_event_day",
    "estimation_window",
    "parse_window_label",
    "classify_impact",
    "StudySettings",
    "EventResult",
    "run_event_study",
    "event_scenario_distribution",
]


#: Trading days in a standard estimation window.
DEFAULT_ESTIMATION_DAYS = 200

#: Largest |CAR| that is only the rounding of forming it: each day's
#: abnormal return rounds about five times near 1.0, and compounding adds
#: one more rounding per day.
_NOISE_FLOOR = 64 * np.finfo(np.float64).eps


class Impact(enum.Enum):
    """Classification of one event window."""

    NEGATIVE = "Negative"
    NONE = "None"
    POSITIVE = "Positive"


class EventWindow(enum.Enum):
    """One of the paper's five event windows, valued by its end offset.

    Offset 0 is the announcement's trading day.  Every window opens at
    offset -1: the day before the announcement is always included.  The
    members are in report order.  ``EventWindow(10)`` is ``[-1,10]``; any
    other end offset raises ``ValueError``.
    """

    END_0 = 0
    END_1 = 1
    END_3 = 3
    END_5 = 5
    END_10 = 10

    @property
    def end_offset(self) -> int:
        return self.value

    @property
    def n_days(self) -> int:
        """Trading days in the window — also the draws per scenario."""
        return self.value + 2

    @property
    def label(self) -> str:
        return f"[-1,{self.value}]"


#: The five standard event windows: 2, 3, 5, 7, and 12 trading days.
STANDARD_WINDOWS: tuple[EventWindow, ...] = tuple(EventWindow)


def parse_window_label(label: str) -> EventWindow:
    """The standard window labelled ``label``, ignoring whitespace."""
    windows = {window.label: window for window in STANDARD_WINDOWS}
    try:
        return windows["".join(label.split())]
    except KeyError:
        raise ValueError(
            f"unknown window label {label!r} (expected one of {', '.join(windows)})"
        ) from None


def resolve_event_day(event: EventRecord, calendar: np.ndarray) -> int:
    """Map an announcement date to its index on a trading calendar.

    ``calendar`` is a strictly increasing ``datetime64[D]`` array, such as
    :attr:`AlignedReturns.dates`.

    An announcement on a non-trading day (weekend, holiday) takes effect on
    the next trading day, since that is the first day the market can react.
    Raises :class:`HistoryError` when the calendar is empty or the
    announcement falls after its last day.  The history on either side is
    checked where those days are cut: the days before by
    :func:`estimation_window`, the days after by :func:`_measure`.
    """
    if not calendar.size:
        raise HistoryError(f"{event.key}: empty trading calendar")
    index = int(np.searchsorted(calendar, np.datetime64(event.announcement_date, "D")))
    if index == calendar.size:
        raise HistoryError(f"announcement falls after the last trading day ({calendar[-1]})")
    return index


def estimation_window(
    aligned: AlignedReturns, event_index: int, days: int
) -> AlignedReturns:
    """Cut the ``days`` return days ending two days before the event.

    The window deliberately stops at offset -2 so the day immediately
    before the announcement — where information can leak — stays out of
    the fit and inside the event windows instead.  Raises
    :class:`HistoryError` when fewer than ``days + 1`` days precede the event.
    """
    if days < 3:
        raise ValueError(f"estimation window needs at least 3 days, got {days}")
    start = event_index - (days + 1)
    stop = event_index - 2  # inclusive
    if start < 0:
        raise HistoryError(
            f"insufficient history before the event: {event_index} trading days, "
            f"need {days + 1}"
        )
    return AlignedReturns(
        dates=aligned.dates[start : stop + 1],
        stock_returns=aligned.stock_returns[start : stop + 1],
        market_returns=aligned.market_returns[start : stop + 1],
    )


def classify_impact(car: float, percentile: float) -> Impact:
    """Apply the two-sided 10th/90th percentile decision rule to one window.

    Sign and rank must agree: a negative CAR below the 10th percentile is
    ``Negative``, a positive CAR above the 90th is ``Positive``, anything
    else — including ties with a cut — is ``None``.  A CAR within 64 ulps of
    zero (``_NOISE_FLOOR``) has no sign: it is the rounding of a window in
    which the stock moved exactly with the market, so it is ``None`` at any
    rank.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    if car < -_NOISE_FLOOR and percentile < 10.0:
        return Impact.NEGATIVE
    if car > _NOISE_FLOOR and percentile > 90.0:
        return Impact.POSITIVE
    return Impact.NONE


@dataclass(frozen=True)
class StudySettings:
    """Tunable knobs of a study, with standard-run defaults."""

    n_scenarios: int = DEFAULT_N_SCENARIOS
    seed: int = 0
    mode: str = "iid"
    estimation_days: int = DEFAULT_ESTIMATION_DAYS
    workers: int = 1

    def __post_init__(self) -> None:
        # ScenarioSpec re-validates n_scenarios/seed/mode later; checking here
        # means a bad setting fails at construction, not mid-run.
        ScenarioSpec(draws_k=1, n_scenarios=self.n_scenarios, seed=self.seed, mode=self.mode)
        if not 3 <= self.estimation_days <= MAX_POOL_DAYS:
            raise ValueError(
                f"estimation_days must be in [3, {MAX_POOL_DAYS}], got {self.estimation_days}"
            )
        longest = STANDARD_WINDOWS[-1].n_days
        if self.mode == "block" and self.estimation_days < longest:
            raise ValueError(
                f"block mode resamples runs of {longest} consecutive estimation days, "
                f"but estimation_days is {self.estimation_days}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EventResult:
    """One event judged over one window, with the settings that judged it."""

    event: EventRecord
    window: EventWindow
    car: float
    percentile: float
    impact: Impact
    car_additive: float
    settings: StudySettings


def _measure(
    event: EventRecord,
    stock: PriceSeries,
    market: PriceSeries,
    settings: StudySettings,
    windows: tuple[EventWindow, ...],
    histogram_bins: int | None = None,
) -> tuple[dict[EventWindow, float], dict[EventWindow, ScenarioDistribution], np.ndarray]:
    """Align, place the event, fit both models, and generate each window's distribution.

    Returns the CAR of every standard window, the no-impact distribution of
    each of ``windows`` with its CAR registered, and the additive abnormal
    returns of the longest window.  Whatever ``windows`` are asked for, the
    event needs the longest window's history and five CARs that compound to
    finite values, and each window reads a prefix of the event's one stream
    of 12-day scenarios.
    """
    longest = STANDARD_WINDOWS[-1]
    aligned = align(stock, market)
    event_index = resolve_event_day(event, aligned.dates)
    estimation = estimation_window(aligned, event_index, settings.estimation_days)
    following = len(aligned) - 1 - event_index
    if following < longest.end_offset:
        raise HistoryError(
            f"insufficient history after the event: {following} trading days, "
            f"need {longest.end_offset}"
        )
    fit = fit_market_model(estimation)
    pool = abnormal_return(estimation.stock_returns, estimation.market_returns, fit)
    days = slice(event_index - 1, event_index + longest.end_offset + 1)
    stock_returns, market_returns = aligned.stock_returns[days], aligned.market_returns[days]
    abnormal = abnormal_return(stock_returns, market_returns, fit)
    additive = additive_abnormal_return(
        stock_returns, market_returns, fit_additive_model(estimation)
    )
    cars = {
        window: cumulative_abnormal_return(abnormal[: window.n_days])
        for window in STANDARD_WINDOWS
    }
    spec = ScenarioSpec(
        draws_k=longest.n_days,
        n_scenarios=settings.n_scenarios,
        seed=derive_seed(settings.seed, event.key),
        mode=settings.mode,
    )
    by_length = generate_distribution(
        pool,
        spec,
        references={window.n_days: (cars[window],) for window in windows},
        histogram_bins=histogram_bins,
        workers=settings.workers,
    )
    return cars, {window: by_length[window.n_days] for window in windows}, additive


def run_event_study(
    event: EventRecord,
    stock: PriceSeries,
    market: PriceSeries,
    settings: StudySettings = StudySettings(),
) -> list[EventResult]:
    """Judge one event over the five standard windows; all results or an exception.

    One stream, seeded from (root seed, event key), gives 12-day scenarios
    whose first ``window.n_days`` days are each window's no-impact scenario,
    all from one generation pass.  The five percentiles are therefore
    common-random-numbers estimates: each has its window's exact law, and
    only their Monte Carlo errors are correlated, which no result relies on.
    A window's numbers depend only on the event and that window, so
    :func:`event_scenario_distribution` reproduces any one of them on its
    own.  Any failure raises — a partial result list is never returned.
    """
    cars, distributions, additive = _measure(event, stock, market, settings, STANDARD_WINDOWS)
    results: list[EventResult] = []
    for window, car in cars.items():
        percentile = percentile_of(distributions[window], car)
        results.append(
            EventResult(
                event=event,
                window=window,
                car=car,
                percentile=percentile,
                impact=classify_impact(car, percentile),
                car_additive=float(additive[: window.n_days].sum()),
                settings=settings,
            )
        )
    return results


def event_scenario_distribution(
    event: EventRecord,
    stock: PriceSeries,
    market: PriceSeries,
    window: EventWindow,
    settings: StudySettings = StudySettings(),
    *,
    histogram_bins: int | None = None,
) -> tuple[ScenarioDistribution, float]:
    """The scenario distribution and observed CAR for one (event, window).

    Reads the same stream and scenarios as :func:`run_event_study`, so the
    distribution examined here is the one the study actually used; only
    this window's scenarios are counted.  The event needs the study's
    history and its five finite CARs, so an event the study refuses is
    refused here with the same error.
    """
    cars, distributions, _ = _measure(event, stock, market, settings, (window,), histogram_bins)
    return distributions[window], cars[window]
