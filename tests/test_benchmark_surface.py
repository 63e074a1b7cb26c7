"""The program surface the traced benchmark run patches and calls.

``benchmark/traced_cli.py`` replaces the functions listed in its
``WRAPPED`` table at the names their callers look up and counts one
``bootstrap.generate`` span per call, and ``benchmark/speedup.py`` calls
``generate_distribution`` with a plain references tuple and ``workers``.
Every workload config takes its ``estimation_days`` from
``benchmark/workloads.py``.  A rename, a changed call shape or a tighter
pool limit in ``src/`` would break those runs without failing any other
test.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import eventstudy.inference as inference
from eventstudy import StudySettings, event_scenario_distribution, run_event_study
from eventstudy.bootstrap import (
    MAX_POOL_DAYS,
    ScenarioDistribution,
    ScenarioSpec,
    generate_distribution,
)
from eventstudy.ingest import EventRecord, align, load_price_series
from eventstudy.report import ReportRow, render_csv, render_json

from .conftest import stock_from_market, write_price_csv

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _benchmark_module(name):
    """Load ``benchmark/<name>.py`` from its file."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up while it is defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _wrapped():
    return _benchmark_module("traced_cli").WRAPPED


@pytest.mark.parametrize(
    "module_name,attribute",
    [(module_name, attribute) for module_name, attribute, _ in _wrapped()],
    ids=lambda value: value,
)
def test_wrapped_attribute_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


def test_workload_pool_within_the_limit():
    """Every workload config sets ``estimation_days = ESTIMATION_DAYS``; a
    longer pool would fail each workload before judging an event."""
    assert _benchmark_module("workloads").ESTIMATION_DAYS <= MAX_POOL_DAYS


def test_workload_window_labels_are_the_standard_windows():
    """The workloads name windows by label and share no code with ``src/``;
    the ``histogram`` workload passes ``HISTOGRAM_WINDOW`` to ``--window``."""
    workloads = _benchmark_module("workloads")
    assert workloads.STANDARD_WINDOWS == tuple(w.label for w in inference.STANDARD_WINDOWS)
    assert inference.parse_window_label(workloads.HISTOGRAM_WINDOW).label == (
        workloads.HISTOGRAM_WINDOW
    )


def test_loaded_series_has_a_length(market, tmp_path):
    """The tracer records ``len()`` of each loaded file's result as its
    ``ingest.rows``, a price series included."""
    path = write_price_csv(tmp_path / "market.csv", market)
    assert len(load_price_series(path)) == len(market.dates)


def test_renderers_return_the_whole_report(market):
    """The tracer records ``len(result.encode("utf-8"))`` of each render as
    ``report.bytes``, so a renderer that streamed to a file would break the
    traced run."""
    event = EventRecord("stock", align(market, market).dates[230].item())
    stock = stock_from_market(market)
    results = run_event_study(event, stock, market, StudySettings(n_scenarios=500))
    rows = [ReportRow.from_result(result) for result in results]
    for render in (render_csv, render_json):
        assert isinstance(render(rows), str)


def test_generate_distribution_keeps_operational_keywords():
    parameters = inspect.signature(generate_distribution).parameters
    assert parameters["workers"].kind is inspect.Parameter.KEYWORD_ONLY


def test_generate_call_shape_seen_by_the_tracer(market, monkeypatch):
    """The tracer reads the spec as the second positional argument and
    ``histogram_bins`` as a keyword."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return generate_distribution(*args, **kwargs)

    monkeypatch.setattr(inference, "generate_distribution", recording)
    event = EventRecord("stock", align(market, market).dates[230].item())
    event_scenario_distribution(
        event, stock_from_market(market), market, inference.STANDARD_WINDOWS[0],
        StudySettings(n_scenarios=500, workers=2), histogram_bins=7,
    )
    (args, kwargs), = calls
    assert isinstance(args[1], ScenarioSpec)
    assert kwargs["histogram_bins"] == 7
    assert kwargs["workers"] == 2


def test_one_twelve_day_generate_call_per_event(market, monkeypatch):
    """``bootstrap.calls`` counts events: every window of an event comes from
    one call whose spec, the tracer's second positional argument, spans the
    longest window."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return generate_distribution(*args, **kwargs)

    monkeypatch.setattr(inference, "generate_distribution", recording)
    event = EventRecord("stock", align(market, market).dates[230].item())
    stock = stock_from_market(market)
    results = run_event_study(event, stock, market, StudySettings(n_scenarios=500))
    assert len(results) == len(inference.STANDARD_WINDOWS)
    (args,) = calls
    assert args[1].draws_k == 12


def test_speedup_call_shape_returns_one_distribution():
    """``benchmark/speedup.py`` passes plain references and compares the
    summaries of ``workers`` 1 and 2."""
    rng = np.random.default_rng([77, 12])
    pool = 0.01 * rng.standard_normal(200)
    reference = float(np.prod(1.0 + pool[:12]) - 1.0)
    spec = ScenarioSpec(draws_k=12, n_scenarios=300_000, seed=77, mode="iid")
    summaries = []
    for workers in (1, 2):
        d = generate_distribution(pool, spec, references=(reference,), workers=workers)
        assert isinstance(d, ScenarioDistribution)
        summaries.append((d.min_car, d.max_car, dict(d.references)))
    assert summaries[0] == summaries[1]
    assert set(summaries[0][2]) == {reference}
