"""Golden report bytes: a fixed universe must keep producing the same files.

Every report is a pure function of its inputs and settings, so its SHA-256
pins the whole pipeline — fit, seed derivation, generator stream, midrank
percentile and rendering — at once.  A change that alters any of these
must bump ``bootstrap.GENERATOR`` and update the hashes below on purpose.
The histogram's bin edges are not part of the stream, so a change to them
alone updates ``HISTOGRAM_SHA256`` alone.

The scenario count spans 19 slabs, so ``workers=2`` splits it into two runs
and really generates on two threads.
"""

from __future__ import annotations

import hashlib

import pytest

from eventstudy.bootstrap import _SLAB_ROWS, _runs
from eventstudy.cli import main
from eventstudy.config import load_run_config
from eventstudy.ingest import align
from eventstudy.report import run

from .conftest import stock_from_market, synthetic_market, write_events_csv, write_price_csv

EVENT_INDEX = 230
N_SCENARIOS = 150_000

REPORT_SHA256 = {
    ("iid", "csv"): "672633f17504852ba1d3a22356c9fced6ba77a2a93128b6318668b276982f200",
    ("iid", "json"): "60ce3e8e72a6b0f5daadea20c8ecf053085f53976457a45db03d632058793168",
    ("block", "csv"): "d7b8bc973516d986b6c0930f3bfc5560767479e15efdc622d17cbbaf3f14b15d",
    ("block", "json"): "9f116f86794a4b6b1cd808828c4256c23fcf687b53f2f7a29b211f3df7cc12a0",
}
HISTOGRAM_SHA256 = "85c25d40d9359fb1e2cc89842e6ee2ede77bb5cfd2abddb86eb37057023582a8"


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
    event_day = align(acme, market).dates[EVENT_INDEX].item().isoformat()
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


def test_two_workers_run_two_threads():
    assert -(-N_SCENARIOS // _SLAB_ROWS) == 19
    assert len(_runs(N_SCENARIOS, 2)) == 2


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
    assert {row.generator for row in outcome.rows} == {"splitmix64-u32-mulshift-event"}
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
