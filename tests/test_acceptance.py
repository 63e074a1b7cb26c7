"""Acceptance gate: nine criteria, one test (and one pass/fail line) each.

Each test prints a single ``criterion N PASS`` line with its measured
numbers when it succeeds; a failure reads out as the test's FAILED line.
Tolerances are pinned in the asserts, not configurable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from eventstudy import StudySettings, run_event_study
from eventstudy.bootstrap import (
    ScenarioDistribution,
    ScenarioSpec,
    cumulative_abnormal_return,
    generate_distribution,
    percentile_of,
)
from eventstudy.config import load_run_config
from eventstudy.inference import Impact
from eventstudy.ingest import AlignedReturns, EventRecord, align
from eventstudy.model import fit_market_model
from eventstudy.report import run, verify_decision_fixture

from .conftest import (
    FIXTURES_DIR,
    stock_from_market,
    synthetic_market,
    trading_calendar,
    write_events_csv,
    write_price_csv,
)

EVENT_INDEX = 230


@pytest.fixture(scope="module")
def standard_run():
    """One event judged over the five standard windows at full scale (5M)."""
    market = synthetic_market(seed=101)
    stock = stock_from_market(market, seed=202, shocks={EVENT_INDEX: -0.06})
    event = EventRecord("stock", align(market, market).dates[EVENT_INDEX].item(), label="Target")
    started = time.perf_counter()
    results = run_event_study(event, stock, market, StudySettings(seed=7))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_1_decision_rule_reproduces_published_labels():
    started = time.perf_counter()
    total, mismatches = verify_decision_fixture(FIXTURES_DIR / "table3_decision_rule.csv")
    elapsed = time.perf_counter() - started
    assert total == 175
    assert mismatches == []
    assert elapsed < 1.0
    print(f"criterion 1 PASS — 175/175 published labels reproduced in {elapsed:.3f}s")


def test_criterion_2_multiplicative_vs_additive_footnote():
    multiplicative = cumulative_abnormal_return([0.10, -0.10])
    additive = 0.10 + (-0.10)
    assert abs(multiplicative - (-0.01)) < 1e-15
    assert abs(additive - 0.0) < 1e-15
    print(
        f"criterion 2 PASS — [+10%, -10%] compounds to {multiplicative:.17f} "
        f"(additive {additive:.1f})"
    )


def test_criterion_3_two_point_pool_matches_enumeration():
    low, high = -0.1, 0.1
    gross_low, gross_high = 1.0 + low, 1.0 + high
    expected = {
        gross_high * gross_high - 1.0: 0.25,  # 0.21
        gross_low * gross_high - 1.0: 0.50,  # -0.01
        gross_low * gross_low - 1.0: 0.25,  # -0.19
    }
    spec = ScenarioSpec(draws_k=2, n_scenarios=1_000_000, seed=2024)
    started = time.perf_counter()
    dist = generate_distribution(np.array([low, high]), spec, references=tuple(expected))
    elapsed = time.perf_counter() - started
    observed = {}
    for value, probability in expected.items():
        count = dist.count_equal(value)
        observed[round(value, 2)] = count
        sigma = np.sqrt(spec.n_scenarios * probability * (1.0 - probability))
        assert abs(count - probability * spec.n_scenarios) < 4.0 * sigma
    assert sum(observed.values()) == spec.n_scenarios
    assert elapsed < 5.0
    print(
        f"criterion 3 PASS — counts {observed} within 4 sigma of "
        f"(250k, 500k, 250k) in {elapsed:.2f}s"
    )


def _forward_window(seed, alpha, beta, n=200, log_noise_sigma=0.0):
    rng = np.random.default_rng(seed)
    market = 0.0002 + 0.012 * rng.standard_normal(n)
    log_stock = np.log(alpha) + beta * np.log1p(market)
    if log_noise_sigma:
        log_stock = log_stock + log_noise_sigma * rng.standard_normal(n)
    from datetime import date

    return AlignedReturns(
        trading_calendar(date(2013, 1, 7), n), np.expm1(log_stock), market
    )


def test_criterion_4_ols_recovery():
    fit = fit_market_model(_forward_window(seed=55, alpha=1.001, beta=1.3))
    beta_err = abs(fit.beta - 1.3)
    alpha_err = abs(fit.alpha - 1.001)
    assert beta_err < 1e-10
    assert alpha_err < 1e-10

    within = 0
    trials = 100
    for seed in range(trials):
        noisy = fit_market_model(
            _forward_window(seed=1000 + seed, alpha=1.001, beta=1.3, log_noise_sigma=0.01)
        )
        if abs(noisy.beta - 1.3) <= 5.0 * noisy.beta_stderr:
            within += 1
    assert within >= 99
    print(
        f"criterion 4 PASS — noiseless |dbeta|={beta_err:.2e}, |dalpha|={alpha_err:.2e}; "
        f"noisy beta within 5 SE in {within}/{trials} trials"
    )


def test_criterion_5_level_identity_for_every_fit():
    worst = 0.0
    rng = np.random.default_rng(9)
    for trial in range(100):
        window = _forward_window(
            seed=3000 + trial,
            alpha=float(rng.uniform(0.995, 1.005)),
            beta=float(rng.uniform(0.3, 2.0)),
            log_noise_sigma=float(rng.uniform(0.0, 0.03)),
        )
        fit = fit_market_model(window)
        fitted_total = fit.alpha * np.power(1.0 + window.market_returns, fit.beta).sum()
        observed_total = (1.0 + window.stock_returns).sum()
        relative = abs(fitted_total - observed_total) / observed_total
        worst = max(worst, relative)
        assert relative < 1e-12
    print(f"criterion 5 PASS — level identity holds over 100 fits, worst rel err {worst:.2e}")


def test_criterion_6_byte_identical_reports_and_worker_invariance(tmp_path):
    market = synthetic_market()
    stock = stock_from_market(market, seed=5, instrument_id="acme")
    price_dir = tmp_path / "prices"
    price_dir.mkdir()
    write_price_csv(price_dir / "acme.csv", stock)
    write_price_csv(tmp_path / "market.csv", market)
    event_day = align(stock, market).dates[EVENT_INDEX].item().isoformat()
    write_events_csv(tmp_path / "events.csv", [("acme", event_day, "Acme Corp")])
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "price_dir = prices\nmarket_file = market.csv\nevents_file = events.csv\n"
        "output = report.csv\nn_scenarios = 2000\nseed = 6\n",
        encoding="utf-8",
    )
    config = load_run_config(config_path)
    run(config)
    first = config.output.read_bytes()
    run(config)
    assert config.output.read_bytes() == first

    pool = 0.02 * np.random.default_rng(17).standard_normal(200)
    spec = ScenarioSpec(draws_k=5, n_scenarios=200_000, seed=77)
    refs = tuple(np.linspace(-0.05, 0.05, 7))
    serial = generate_distribution(pool, spec, references=refs, histogram_bins=50)
    threaded = generate_distribution(
        pool, spec, references=refs, histogram_bins=50, workers=8
    )
    assert serial.references == threaded.references
    assert (serial.min_car, serial.max_car) == (threaded.min_car, threaded.max_car)
    assert np.array_equal(serial.histogram.counts, threaded.histogram.counts)
    print(
        "criterion 6 PASS — identical config gives byte-identical report; "
        "counts equal for 1 vs 8 workers"
    )


def test_criterion_7_percentile_granularity(standard_run):
    results, _ = standard_run
    n = 5_000_000
    for result in results:
        assert result.settings.n_scenarios == n
        scaled = result.percentile * 1e5  # midrank steps: 100 / (2n) = 1e-5
        assert result.percentile == round(scaled) / 1e5
        assert float(f"{result.percentile:.5f}") == result.percentile

    smallest = ScenarioDistribution(
        n=n,
        min_car=-0.5,
        max_car=0.5,
        references={-0.4: (10, 0)},
    )
    assert percentile_of(smallest, -0.4) == 0.0002
    print(
        "criterion 7 PASS — all five 5M-scenario percentiles are multiples of 1e-5; "
        "0.0002 representable exactly"
    )


def test_criterion_8_no_effect_calibration():
    fixtures = 500
    settings = StudySettings(n_scenarios=100_000, seed=2024)
    non_none: dict[str, int] = {}
    started = time.perf_counter()
    for i in range(fixtures):
        market = synthetic_market(seed=10_000 + i)
        stock = stock_from_market(
            market, seed=50_000 + i, instrument_id=f"firm{i:03d}", noise=0.01
        )
        event = EventRecord(f"firm{i:03d}", align(market, market).dates[EVENT_INDEX].item())
        for result in run_event_study(event, stock, market, settings):
            if result.impact is not Impact.NONE:
                label = result.window.label
                non_none[label] = non_none.get(label, 0) + 1
    elapsed = time.perf_counter() - started
    rates = {label: count / fixtures for label, count in sorted(non_none.items())}
    for label in ("[-1,0]", "[-1,1]", "[-1,3]", "[-1,5]", "[-1,10]"):
        rate = non_none.get(label, 0) / fixtures
        assert 0.15 <= rate <= 0.25, f"window {label}: non-None rate {rate:.3f}"
    assert elapsed < 600.0
    print(
        f"criterion 8 PASS — per-window non-None rates {rates} "
        f"(target 0.20 +/- 0.05) over {fixtures} null fixtures in {elapsed:.0f}s"
    )


def test_criterion_9_full_scale_performance(standard_run):
    results, elapsed = standard_run
    assert len(results) == 5
    assert elapsed < 60.0
    scenarios = 5 * 5_000_000
    print(
        f"criterion 9 PASS — 5 windows x 5M scenarios in {elapsed:.2f}s "
        f"({scenarios / elapsed:,.0f} scenarios/s)"
    )
