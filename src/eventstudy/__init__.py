"""Event-impact analysis of dated announcements on stock prices.

The pipeline: align a stock's daily closes with its market index, fit a
multiplicative market model on the 200 trading days ending two days before
the announcement, compound the model's abnormal returns over event windows
opening one day before the announcement, and judge each window's
cumulative abnormal return against millions of resampled no-impact
scenarios.  Extreme percentile plus matching sign is called an impact;
everything else is noise.
"""

from __future__ import annotations

from .inference import StudySettings, event_scenario_distribution, run_event_study
from .ingest import load_event_registry, load_price_series

__version__ = "0.1.0"

__all__ = [
    "StudySettings",
    "event_scenario_distribution",
    "load_event_registry",
    "load_price_series",
    "run_event_study",
]
