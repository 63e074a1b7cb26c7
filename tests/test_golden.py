"""Golden report bytes: a fixed universe must keep producing the same files.

Every report is a pure function of its inputs and settings, so its SHA-256
pins the whole pipeline — fit, seed derivation, generator stream, midrank
percentile and rendering — at once.  A change that alters any of these
must bump ``bootstrap.GENERATOR`` and update the hashes below on purpose.

The scenario count spans two generator chunks, so ``workers=2`` really runs
chunks on both threads.
"""

from __future__ import annotations

import hashlib

import pytest

from eventstudy.cli import main
from eventstudy.config import load_run_config
from eventstudy.ingest import align
from eventstudy.report import run

from .conftest import stock_from_market, synthetic_market, write_events_csv, write_price_csv

EVENT_INDEX = 230
N_SCENARIOS = 150_000

REPORT_SHA256 = {
    ("iid", "csv"): "6eed4822128b82980b616ff00b7bfb8d537f857a52a6b41f30b9df9a098ccf67",
    ("iid", "json"): "9b4a16e8a9fc6a9e466478a803a3d8e96338f581aa5fdca64aaf4083ae7a38d0",
    ("block", "csv"): "be5a220f60763022526fda678a34d3b37574b75a860cac4f99e446f6da351ef6",
    ("block", "json"): "87fba522f70f97ad8b80ee5955ce96b78eb65e53459b5c2695bba070d5b5fd43",
}
HISTOGRAM_SHA256 = "4c9dba08f12b459900d82ef59c4f59f2f3f8f89599e1a0789405e3e3364240e7"


@pytest.fixture(scope="module")
def golden_universe(tmp_path_factory):
    """Two events on one market: one shocked on its event day, one quiet."""
    root = tmp_path_factory.mktemp("golden")
    market = synthetic_market()
    acme = stock_from_market(market, seed=5, instrument_id="acme", shocks={EVENT_INDEX: 0.09})
    bravo = stock_from_market(market, seed=6, beta=0.8, instrument_id="bravo")
    (root / "prices").mkdir()
    write_price_csv(root / "prices" / "acme.csv", acme)
    write_price_csv(root / "prices" / "bravo.csv", bravo)
    write_price_csv(root / "market.csv", market)
    event_day = align(acme, market).dates[EVENT_INDEX].isoformat()
    write_events_csv(
        root / "events.csv",
        [("acme", event_day, "Acme Corp"), ("bravo", event_day, "Bravo Inc")],
    )
    config = root / "study.conf"
    config.write_text(
        "price_dir = prices\n"
        "market_file = market.csv\n"
        "events_file = events.csv\n"
        f"n_scenarios = {N_SCENARIOS}\n"
        "seed = 2018\n",
        encoding="utf-8",
    )
    return root, config, event_day


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode,fmt", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(golden_universe, mode, fmt, workers):
    root, config, _ = golden_universe
    output = root / f"report-{mode}-w{workers}.{fmt}"
    outcome = run(load_run_config(config, {
        "mode": mode, "format": fmt, "workers": str(workers), "output": str(output),
    }))
    assert outcome.errors == []
    assert {row.generator for row in outcome.rows} == {"philox4x64-u32"}
    assert _sha256(output) == REPORT_SHA256[mode, fmt]


@pytest.mark.parametrize("workers", [1, 2])
def test_histogram_bytes_are_pinned(golden_universe, workers):
    root, config, event_day = golden_universe
    output = root / f"hist-w{workers}.csv"
    assert main([
        "histogram", "--config", str(config), "--event", f"acme@{event_day}",
        "--window", "[-1,10]", "--bins", "50", "--workers", str(workers),
        "--out", str(output),
    ]) == 0
    assert _sha256(output) == HISTOGRAM_SHA256
