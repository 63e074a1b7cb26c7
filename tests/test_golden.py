"""Golden report bytes: a fixed universe must keep producing the same files.

Every report is a pure function of its inputs and settings, so its SHA-256
pins the whole pipeline — fit, seed derivation, generator stream, midrank
percentile and rendering — at once.  A change that alters any of these
must bump ``bootstrap.GENERATOR`` and update the hashes below on purpose.
The histogram's bin edges are not part of the stream, so a change to them
alone updates ``HISTOGRAM_SHA256`` alone.

The bytes depend on the platform libm, which prices every fitted day and
builds the universe's stock prices (``conftest.stock_from_market``), but not
on numpy's SIMD level or the BLAS kernel: no run, and no fixture here, calls
a transcendental numpy ufunc or BLAS.  A child interpreter with numpy's
AVX-512 kernels and OpenBLAS's newer kernels switched off must write the same
files.  glibc's FMA and non-FMA builds of ``log1p`` and ``pow`` differ on a
few calls in ten thousand; this universe's outputs are the same under both.

The scenario count spans 19 slabs, so ``workers=2`` splits it into two runs
and really generates on two threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    ("iid", "csv"): "6ebc54c11177b0c51c2a5251821b276f98d9df6eda4f2e92372f616e9eba7b42",
    ("iid", "json"): "f09783e3036d1bfe8db864c2992cf8347058c1bf1e2f490d7a61dff97abcc377",
    ("block", "csv"): "1706676e8b44c034f52f5e17f9681ca5a5baf3b7013d2348e59dd99a7fd68f6e",
    ("block", "json"): "1bdd7a1431090eee939bd9283999827fab3073a8742f561d01f338e794c2b83a",
}
HISTOGRAM_SHA256 = "9a3a917cd4b02915b8b933c826a15cb2b671e98e780e1ff52dbe5e8b713d7043"

#: What an AVX2-only machine runs: numpy without its AVX-512 kernels and
#: OpenBLAS on its Haswell kernels.  numpy ignores a named feature the CPU
#: lacks, so on such a machine the child is an ordinary run.
AVX2_DISPATCH = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Haswell",
}

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
    assert {row.generator for row in outcome.rows} == {"splitmix64-u32-mulshift-event-libm"}
    assert _sha256(output) == REPORT_SHA256[mode, fmt]


def _histogram_argv(config, event_day, output, workers: int) -> list[str]:
    return [
        "histogram", "--config", str(config), "--event", f"acme@{event_day}",
        "--window", "[-1,10]", "--bins", "50", "--workers", str(workers),
        "--out", str(output),
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_histogram_bytes_are_pinned(golden_universe, workers):
    root, config, event_day = golden_universe
    output = root / f"hist-w{workers}.csv"
    assert main(_histogram_argv(config, event_day, output, workers)) == 0
    assert _sha256(output) == HISTOGRAM_SHA256


def test_bytes_do_not_depend_on_simd_level_or_blas_kernel(golden_universe):
    root, config, event_day = golden_universe
    reports = {key: root / f"avx2-{key[0]}.{key[1]}" for key in REPORT_SHA256}
    histogram = root / "avx2-hist.csv"
    commands = [
        ["run", "--config", str(config), "--mode", mode, "--format", fmt, "--out", str(path)]
        for (mode, fmt), path in reports.items()
    ]
    commands.append(_histogram_argv(config, event_day, histogram, workers=1))
    child = (  # one interpreter runs every command line, and fails if any does
        "import json, sys\n"
        "from eventstudy.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    env = dict(os.environ, **AVX2_DISPATCH)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert {key: _sha256(path) for key, path in reports.items()} == REPORT_SHA256
    assert _sha256(histogram) == HISTOGRAM_SHA256
