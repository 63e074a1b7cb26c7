"""Event windows, the percentile decision rule, and the per-event pipeline.

An event window always opens one trading day before the announcement (to
catch leakage) and closes 0, 1, 3, 5, or 10 days after it; these five are
the only members of :class:`EventWindow`.  For each window the pipeline
compares the observed cumulative abnormal return against a resampled
no-impact distribution of the same length and classifies the event:

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
from .ingest import EventRecord, PriceSeries, align, resolve_event_day
from .model import (
    DEFAULT_ESTIMATION_DAYS,
    abnormal_return,
    additive_abnormal_return,
    estimation_window,
    fit_additive_model,
    fit_market_model,
)

__all__ = [
    "Impact",
    "EventWindow",
    "STANDARD_WINDOWS",
    "parse_window_label",
    "classify_impact",
    "StudySettings",
    "EventResult",
    "run_event_study",
    "event_scenario_distribution",
]


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

    Returns the CAR of each of ``windows``, its no-impact distribution with
    that CAR registered, and the additive abnormal returns of the longest
    window.  Whatever ``windows`` are asked for, the event needs the
    longest window's history, and each window reads a prefix of the event's
    one stream of 12-day scenarios.
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
    cars = {window: cumulative_abnormal_return(abnormal[: window.n_days]) for window in windows}
    spec = ScenarioSpec(
        draws_k=longest.n_days,
        n_scenarios=settings.n_scenarios,
        seed=derive_seed(settings.seed, event.key),
        mode=settings.mode,
    )
    by_length = generate_distribution(
        pool,
        spec,
        references={window.n_days: (car,) for window, car in cars.items()},
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
    this window is compounded.  The event needs the study's history, so an
    event the study refuses is refused here with the same error.
    """
    cars, distributions, _ = _measure(event, stock, market, settings, (window,), histogram_bins)
    return distributions[window], cars[window]
