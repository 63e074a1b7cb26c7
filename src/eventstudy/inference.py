"""Event windows, the percentile decision rule, and the per-event pipeline.

An event window always opens one trading day before the announcement (to
catch leakage) and closes 0, 1, 3, 5, or 10 days after it.  For each
window the pipeline compares the observed cumulative abnormal return
against a resampled no-impact distribution of the same length and
classifies the event:

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


class Impact(enum.Enum):
    """Classification of one event window."""

    NEGATIVE = "Negative"
    NONE = "None"
    POSITIVE = "Positive"


@dataclass(frozen=True)
class EventWindow:
    """A window of trading days around the announcement, in day offsets.

    Offset 0 is the announcement's trading day.  Every window opens at
    offset -1: the day before the announcement is always included.
    """

    end_offset: int

    def __post_init__(self) -> None:
        if self.end_offset < -1:
            raise ValueError(
                f"end_offset {self.end_offset} precedes the window's start at -1"
            )

    @property
    def n_days(self) -> int:
        """Trading days in the window — also the draws per scenario."""
        return self.end_offset + 2

    @property
    def label(self) -> str:
        return f"[-1,{self.end_offset}]"


#: The five standard event windows: 2, 3, 5, 7, and 12 trading days.
STANDARD_WINDOWS: tuple[EventWindow, ...] = (
    EventWindow(0),
    EventWindow(1),
    EventWindow(3),
    EventWindow(5),
    EventWindow(10),
)


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
    else — including ties with a cut — is ``None``.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    if car < 0.0 and percentile < 10.0:
        return Impact.NEGATIVE
    if car > 0.0 and percentile > 90.0:
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


def _prepare_event(
    event: EventRecord,
    stock: PriceSeries,
    market: PriceSeries,
    settings: StudySettings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align, place the event, and fit both models for every standard window.

    Returns the estimation pool and both models' abnormal returns from
    offset -1 to the end of the longest window; a window's returns are the
    first ``window.n_days`` of these.
    """
    longest = STANDARD_WINDOWS[-1]
    aligned = align(stock, market)
    event_index = resolve_event_day(
        event,
        aligned.dates,
        min_prior_days=settings.estimation_days + 1,
        min_following_days=longest.end_offset,
    )
    estimation = estimation_window(aligned, event_index, settings.estimation_days)
    fit = fit_market_model(estimation)
    days = slice(event_index - 1, event_index + longest.end_offset + 1)
    stock_returns, market_returns = aligned.stock_returns[days], aligned.market_returns[days]
    return (
        abnormal_return(estimation.stock_returns, estimation.market_returns, fit),
        abnormal_return(stock_returns, market_returns, fit),
        additive_abnormal_return(stock_returns, market_returns, fit_additive_model(estimation)),
    )


def _event_distributions(
    pool: np.ndarray,
    cars: dict[int, float],
    event: EventRecord,
    settings: StudySettings,
    histogram_bins: int | None = None,
) -> dict[int, ScenarioDistribution]:
    """The no-impact distribution of each window length in ``cars``, its CAR registered.

    Every window reads a prefix of the same 12-day scenarios, drawn from the
    event's one stream.
    """
    spec = ScenarioSpec(
        draws_k=STANDARD_WINDOWS[-1].n_days,
        n_scenarios=settings.n_scenarios,
        seed=derive_seed(settings.seed, event.key),
        mode=settings.mode,
    )
    return generate_distribution(
        pool,
        spec,
        references={n_days: (car,) for n_days, car in cars.items()},
        histogram_bins=histogram_bins,
        workers=settings.workers,
    )


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
    pool, abnormal, additive = _prepare_event(event, stock, market, settings)
    cars = {
        window.n_days: cumulative_abnormal_return(abnormal[: window.n_days])
        for window in STANDARD_WINDOWS
    }
    distributions = _event_distributions(pool, cars, event, settings)
    results: list[EventResult] = []
    for window in STANDARD_WINDOWS:
        car = cars[window.n_days]
        percentile = percentile_of(distributions[window.n_days], car)
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
    this window is compounded.  The event needs the study's history, and
    ``window`` must be one of ``STANDARD_WINDOWS`` (else ``ValueError``).
    """
    if window not in STANDARD_WINDOWS:
        raise ValueError(f"{window.label} is not a standard event window")
    pool, abnormal, _ = _prepare_event(event, stock, market, settings)
    car = cumulative_abnormal_return(abnormal[: window.n_days])
    distributions = _event_distributions(
        pool, {window.n_days: car}, event, settings, histogram_bins
    )
    return distributions[window.n_days], car
