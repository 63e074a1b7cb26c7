"""Config parsing, run orchestration, report rendering, and the CLI."""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import fields, replace
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import pytest

import eventstudy.cli as cli_module
import eventstudy.report as report_module
from eventstudy import StudySettings
from eventstudy.cli import main
from eventstudy.config import load_run_config
from eventstudy.errors import ConfigError, DataFormatError
from eventstudy.inference import STANDARD_WINDOWS, EventResult, Impact, classify_impact
from eventstudy.ingest import EventRecord, PriceSeries, align, load_price_series
from eventstudy.bootstrap import GENERATOR, MAX_POOL_DAYS, ScenarioSpec, generate_distribution
from eventstudy.report import REPORT_COLUMNS, ReportRow, emit_histogram, render_json, run

from .conftest import (
    FIXTURES_DIR,
    stock_from_market,
    synthetic_market,
    write_events_csv,
    write_price_csv,
)

EVENT_INDEX = 230


@pytest.fixture()
def universe(tmp_path):
    """A small on-disk study: two instruments, one market, one config."""
    market = synthetic_market()
    acme = stock_from_market(
        market, seed=5, instrument_id="acme", shocks={EVENT_INDEX: 0.09}
    )
    bravo = stock_from_market(market, seed=6, beta=0.8, instrument_id="bravo")
    price_dir = tmp_path / "prices"
    price_dir.mkdir()
    write_price_csv(price_dir / "acme.csv", acme)
    write_price_csv(price_dir / "bravo.csv", bravo)
    market_file = write_price_csv(tmp_path / "market.csv", market)
    event_day = align(acme, market).dates[EVENT_INDEX].item().isoformat()
    events_file = write_events_csv(
        tmp_path / "events.csv",
        [("acme", event_day, "Acme Corp"), ("bravo", event_day, "Bravo Inc")],
    )
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "# study configuration\n"
        "price_dir = prices\n"
        "market_file = market.csv\n"
        "events_file = events.csv\n"
        "output = report.csv\n"
        "n_scenarios = 2000\n"
        "seed = 9\n",
        encoding="utf-8",
    )
    return SimpleNamespace(
        tmp=tmp_path,
        config=config_path,
        price_dir=price_dir,
        market_file=market_file,
        events_file=events_file,
        event_day=event_day,
    )


#: Report columns computed from an event's prices rather than copied from
#: its settings.
RESULT_COLUMNS = ("car", "car_percentile", "impact", "car_additive")

#: A non-default, valid config value for every study setting.
SETTING_SAMPLES = {
    "n_scenarios": ("1234", 1234),
    "seed": ("42", 42),
    "mode": ("block", "block"),
    "estimation_days": ("150", 150),
    "workers": ("3", 3),
}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _give_acme_a_tiny_close(universe):
    """Set one acme close to 1e-310: positive and finite, but its price ratios overflow."""
    path = universe.price_dir / "acme.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    day = lines[100].split(",")[0]
    lines[100] = f"{day},1e-310"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return day


def _lift_the_market_inside_bravos_windows(universe):
    """Move bravo's event to aligned day 260 and multiply every market close
    from aligned day 262 on by 1e298.

    Every price stays positive and finite, so alignment succeeds, but the
    market return on aligned day 262 is about 1e298: bravo's fitted model
    cannot price that day.  Acme's event stays on aligned day 230.
    """
    market = synthetic_market()
    prices = market.prices.copy()
    prices[263:] *= 1e298  # aligned day i is price day i + 1
    write_price_csv(universe.market_file, PriceSeries("market", market.dates, prices))
    bravo_day = market.dates[261].item().isoformat()
    write_events_csv(
        universe.events_file,
        [("acme", universe.event_day, "Acme Corp"), ("bravo", bravo_day, "Bravo Inc")],
    )
    return bravo_day


def _lift_the_market_inside_acmes_estimation(universe):
    """Multiply every market close from aligned day 41 on by 1e298 and move
    bravo's event to aligned day 288.

    The market return on aligned day 40 is then about 1e298.  That day is
    inside acme's estimation window (days 29 to 228) but not bravo's (days
    87 to 286).  Every price stays positive and finite, so alignment and the
    multiplicative fit succeed.
    """
    market = synthetic_market()
    prices = market.prices.copy()
    prices[41:] *= 1e298  # aligned day i is price day i + 1
    write_price_csv(universe.market_file, PriceSeries("market", market.dates, prices))
    write_events_csv(
        universe.events_file,
        [("acme", universe.event_day, "Acme Corp"),
         ("bravo", market.dates[289].item().isoformat(), "Bravo Inc")],
    )


def _event_days(*aligned_days):
    market = synthetic_market()
    return [market.dates[day + 1].item().isoformat() for day in aligned_days]


class TestLoadRunConfig:
    def test_relative_paths_resolve_against_config_dir(self, universe):
        config = load_run_config(universe.config)
        assert config.price_dir == universe.price_dir
        assert config.market_file == universe.market_file
        assert config.output == universe.tmp / "report.csv"
        assert config.settings.n_scenarios == 2000
        assert config.settings.seed == 9

    def test_overrides_win(self, universe):
        config = load_run_config(
            universe.config, {"seed": "77", "n_scenarios": "500", "mode": "block"}
        )
        settings = config.settings
        assert (settings.seed, settings.n_scenarios, settings.mode) == (77, 500, "block")

    @pytest.mark.parametrize("field", fields(StudySettings), ids=lambda f: f.name)
    @pytest.mark.parametrize("source", ["file", "override"])
    def test_every_setting_is_a_typed_key(self, universe, field, source):
        raw, expected = SETTING_SAMPLES[field.name]
        overrides = None
        if source == "file":
            lines = universe.config.read_text(encoding="utf-8").splitlines()
            kept = [line for line in lines if not line.startswith(f"{field.name} =")]
            kept.append(f"{field.name} = {raw}")
            universe.config.write_text("\n".join(kept) + "\n", encoding="utf-8")
        else:
            overrides = {field.name: raw}
        value = getattr(load_run_config(universe.config, overrides).settings, field.name)
        assert value == expected
        assert type(value) is type(field.default)

    def test_byte_order_mark_is_ignored(self, universe):
        expected = load_run_config(universe.config)
        universe.config.write_bytes(b"\xef\xbb\xbf" + universe.config.read_bytes())
        assert load_run_config(universe.config) == expected

    def test_unknown_key_rejected(self, universe):
        universe.config.write_text("price_dir = p\nwhatever = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'whatever'"):
            load_run_config(universe.config)

    @pytest.mark.parametrize("key", ["threshold_lo", "scenarios", "Seed"])
    def test_unknown_override_rejected(self, universe, key):
        with pytest.raises(ConfigError, match=f"unknown override '{key}'"):
            load_run_config(universe.config, {key: "1"})

    def test_duplicate_key_rejected(self, universe):
        universe.config.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            load_run_config(universe.config)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("seed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required key"):
            load_run_config(path)

    def test_bad_integer(self, universe):
        with pytest.raises(ConfigError, match="n_scenarios: expected an integer"):
            load_run_config(universe.config, {"n_scenarios": "many"})

    def test_bad_format(self, universe):
        with pytest.raises(ConfigError, match="format"):
            load_run_config(universe.config, {"format": "xml"})

    def test_garbled_line(self, universe):
        universe.config.write_text("price_dir\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            load_run_config(universe.config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.conf")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        path = tmp_path / "study.conf"
        path.write_text(block, encoding="utf-8")
        config = load_run_config(path)
        assert config.price_dir == tmp_path / "prices"
        assert config.events_file == tmp_path / "events.csv"
        assert config.format == "csv"
        assert config.settings == StudySettings()


class TestRun:
    def test_writes_complete_csv_report(self, universe):
        outcome = run(load_run_config(universe.config))
        assert outcome.errors == []
        assert outcome.report_path == universe.tmp / "report.csv"
        rows = _read_csv(outcome.report_path)
        assert len(rows) == 10  # 2 events x 5 windows
        assert list(rows[0].keys()) == list(REPORT_COLUMNS)
        assert [r["company"] for r in rows[:5]] == ["Acme Corp"] * 5
        assert [r["event_period"] for r in rows[:5]] == [
            "[-1,0]", "[-1,1]", "[-1,3]", "[-1,5]", "[-1,10]"
        ]
        assert {r["seed"] for r in rows} == {"9"}
        assert {r["n_scenarios"] for r in rows} == {"2000"}
        assert {r["generator"] for r in rows} == {GENERATOR}

    def test_csv_number_formatting(self, universe):
        outcome = run(load_run_config(universe.config))
        for row in _read_csv(outcome.report_path):
            assert re.fullmatch(r"-?\d+\.\d{9}", row["car"])
            assert re.fullmatch(r"-?\d+\.\d{9}", row["car_additive"])
            assert re.fullmatch(r"\d+\.\d{5}", row["car_percentile"])

    def test_report_rows_self_consistent(self, universe):
        outcome = run(load_run_config(universe.config))
        for row in _read_csv(outcome.report_path):
            recomputed = classify_impact(float(row["car"]), float(row["car_percentile"]))
            assert row["impact"] == recomputed.value

    def test_rerun_is_byte_identical(self, universe):
        config = load_run_config(universe.config)
        run(config)
        first = config.output.read_bytes()
        run(config)
        assert config.output.read_bytes() == first

    def test_shocked_event_reported_positive(self, universe):
        outcome = run(load_run_config(universe.config))
        rows = _read_csv(outcome.report_path)
        acme_day0 = next(
            r for r in rows if r["instrument_id"] == "acme" and r["event_period"] == "[-1,0]"
        )
        assert acme_day0["impact"] == "Positive"

    def test_broken_event_isolates_and_marks_partial(self, universe):
        rows = [
            ("acme", universe.event_day, "Acme Corp"),
            ("ghost", universe.event_day, "Ghost Ltd"),
            ("bravo", universe.event_day, "Bravo Inc"),
        ]
        write_events_csv(universe.events_file, rows)
        outcome = run(load_run_config(universe.config))
        assert outcome.report_path == universe.tmp / "report.csv.partial"
        assert len(outcome.rows) == 10  # the two good events still complete
        assert len(outcome.errors) == 1
        key, message = outcome.errors[0]
        assert key == f"ghost@{universe.event_day}"
        assert "ghost.csv" in message

    def test_each_price_file_is_read_once(self, universe, monkeypatch):
        calls = []

        def counting_load(path, **kwargs):
            calls.append(Path(path).name)
            return load_price_series(path, **kwargs)

        monkeypatch.setattr("eventstudy.report.load_price_series", counting_load)
        day1, day2, day3 = _event_days(230, 240, 250)
        registry = [("acme", day1, ""), ("bravo", day1, ""), ("acme", day2, ""),
                    ("bravo", day2, ""), ("acme", day3, "")]
        write_events_csv(universe.events_file, registry)
        outcome = run(load_run_config(universe.config))
        assert sorted(calls) == ["acme.csv", "bravo.csv", "market.csv"]
        assert not outcome.errors
        assert [(r.instrument_id, r.announcement_date) for r in outcome.rows[::5]] == [
            (instrument, day) for instrument, day, _ in registry
        ]

    def test_bad_price_file_fails_every_event_of_its_instrument(self, universe):
        (universe.price_dir / "broken.csv").write_text(
            "date,close\n2014-01-06,100.0\n2014-01-07,n/a\n", encoding="utf-8"
        )
        day1, day2 = _event_days(230, 240)
        registry = [("acme", day1), ("ghost", day1), ("bravo", day1), ("broken", day1),
                    ("ghost", day2), ("acme", day2), ("broken", day2)]
        write_events_csv(universe.events_file, [(i, d, "") for i, d in registry])
        outcome = run(load_run_config(universe.config))

        assert outcome.report_path == universe.tmp / "report.csv.partial"
        assert outcome.report_path.exists()
        assert not (universe.tmp / "report.csv").exists()
        assert [key for key, _ in outcome.errors] == [
            f"{i}@{d}" for i, d in registry if i in ("ghost", "broken")
        ]
        messages = dict(outcome.errors)
        for instrument in ("ghost", "broken"):
            with pytest.raises(DataFormatError) as direct:
                load_price_series(universe.price_dir / f"{instrument}.csv")
            assert messages[f"{instrument}@{day1}"] == str(direct.value)
            assert messages[f"{instrument}@{day2}"] == str(direct.value)
        assert [(r.instrument_id, r.announcement_date) for r in outcome.rows[::5]] == [
            (i, d) for i, d in registry if i in ("acme", "bravo")
        ]
        assert len(outcome.rows) == 15

    def test_stored_load_error_is_not_re_raised(self, universe, monkeypatch):
        # One load error serves every event of its instrument; raising it
        # again for each would add one traceback entry per event.
        stored = DataFormatError("broken prices")
        load_market = report_module.load_price_series

        def load(path, instrument_id=None):
            if instrument_id is None:
                return load_market(path)
            raise stored

        monkeypatch.setattr(report_module, "load_price_series", load)
        days = _event_days(230, 240, 250)
        write_events_csv(universe.events_file, [("acme", day, "") for day in days])
        outcome = run(load_run_config(universe.config))
        assert outcome.errors == [(f"acme@{day}", "broken prices") for day in days]
        assert len(traceback.extract_tb(stored.__traceback__)) == 2  # load, _judge_events

    def test_each_run_removes_the_other_report(self, universe):
        config = load_run_config(universe.config)
        complete, partial = universe.tmp / "report.csv", universe.tmp / "report.csv.partial"
        good_events = universe.events_file.read_text(encoding="utf-8")

        run(config)
        assert complete.exists() and not partial.exists()
        write_events_csv(universe.events_file, [("ghost", universe.event_day, "Ghost Ltd")])
        run(config)
        assert partial.exists() and not complete.exists()
        universe.events_file.write_text(good_events, encoding="utf-8")
        run(config)
        assert complete.exists() and not partial.exists()
        assert not list(universe.tmp.glob(".*.tmp"))  # no temporary file left over

    def test_empty_registry_writes_header_only(self, universe, caplog):
        write_events_csv(universe.events_file, [])
        with caplog.at_level("WARNING"):
            outcome = run(load_run_config(universe.config))
        assert outcome.rows == [] and outcome.errors == []
        content = outcome.report_path.read_text(encoding="utf-8")
        assert content == ",".join(REPORT_COLUMNS) + "\n"
        assert any("empty" in record.message for record in caplog.records)

    def test_empty_registry_json_report(self, universe):
        write_events_csv(universe.events_file, [])
        outcome = run(load_run_config(universe.config, {"format": "json"}))
        content = outcome.report_path.read_text(encoding="utf-8")
        assert content == json.dumps({"rows": []}, indent=2) + "\n"

    def test_json_report(self, universe):
        outcome = run(load_run_config(universe.config, {"format": "json"}))
        payload = json.loads(outcome.report_path.read_text(encoding="utf-8"))
        assert len(payload["rows"]) == 10
        first = payload["rows"][0]
        assert list(first.keys()) == list(REPORT_COLUMNS)
        assert isinstance(first["car"], float)  # full precision, not a string
        matching = [r for r in outcome.rows if r.event_period == first["event_period"]]
        assert first["car"] == matching[0].car

    def test_missing_inputs_are_config_errors(self, universe):
        config = load_run_config(universe.config)
        universe.market_file.unlink()
        with pytest.raises(ConfigError, match="market_file"):
            run(config)

    def test_throughput_in_outcome_not_in_report(self, universe):
        started = time.perf_counter()
        outcome = run(load_run_config(universe.config))
        assert 0 < outcome.elapsed_seconds <= time.perf_counter() - started
        assert outcome.scenarios_per_second == pytest.approx(
            len(outcome.rows) * 2000 / outcome.elapsed_seconds, rel=1e-12
        )
        header = outcome.report_path.read_text(encoding="utf-8").splitlines()[0]
        assert "elapsed" not in header and "scenarios_per_second" not in header

    @pytest.mark.parametrize(
        "field", [f for f in fields(StudySettings) if f.name != "workers"], ids=lambda f: f.name
    )
    def test_every_setting_shows_in_the_report(self, field):
        # A setting that can change a result must be readable from the row
        # it produced.  workers cannot: tests/test_golden.py pins its bytes.
        def provenance(settings):
            result = EventResult(
                EventRecord("acme", date(2014, 11, 25)), STANDARD_WINDOWS[0],
                car=0.01, percentile=50.0, impact=Impact.NONE, car_additive=0.01,
                settings=settings,
            )
            row = ReportRow.from_result(result)._asdict()
            return {key: row[key] for key in row if key not in RESULT_COLUMNS}

        sample = replace(StudySettings(), **{field.name: SETTING_SAMPLES[field.name][1]})
        assert provenance(sample) != provenance(StudySettings())


def _report_rows(n):
    """``n`` rows whose first label holds quotes, a comma, a newline and non-ASCII text."""
    labels = ('Acme "Widgets", Inc.\nZürich — Ⅱ', "Bravo Inc", "")
    return [
        ReportRow.from_result(EventResult(
            EventRecord("acme", date(2014, 11, 24 + i), label=labels[i]), STANDARD_WINDOWS[i],
            car=-0.0123456789012345 * (i + 1), percentile=100.0 / 3 * i, impact=Impact.NONE,
            car_additive=1e-17 * i, settings=StudySettings(),
        ))
        for i in range(n)
    ]


class TestRenderJson:
    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_bytes_match_one_dump_of_the_whole_report(self, n_rows):
        rows = _report_rows(n_rows)
        expected = json.dumps({"rows": [row._asdict() for row in rows]}, indent=2) + "\n"
        assert render_json(rows) == expected

    def test_edge_floats_and_escapes_match_one_dump(self):
        # Signed zero, the smallest subnormal, a float past 2**53, a value with
        # no short decimal and the largest float; a company name holding a
        # backslash, a tab, a control character, a quote and a non-BMP character.
        floats = [-0.0, 5e-324, 1e16, 0.1, 1.7976931348623157e308]
        companies = ["back\\slash", "tab\there", "ctrl\x01", 'say "hi"', "clef \U0001d11e"]
        base = _report_rows(1)[0]
        rows = [
            base._replace(company=company, car=value, car_additive=-value)
            for company, value in zip(companies, floats)
        ]
        for chosen in [[row] for row in rows] + [rows]:
            expected = json.dumps({"rows": [row._asdict() for row in chosen]}, indent=2) + "\n"
            assert render_json(chosen) == expected


class TestCli:
    def test_run_success_exit_zero(self, universe, capsys):
        assert main(["run", "--config", str(universe.config)]) == 0
        out = capsys.readouterr().out
        assert "report.csv" in out and "10 rows" in out

    def test_run_partial_exit_one(self, universe, capsys):
        write_events_csv(
            universe.events_file, [("ghost", universe.event_day, "Ghost Ltd")]
        )
        assert main(["run", "--config", str(universe.config)]) == 1
        captured = capsys.readouterr()
        assert "failed ghost@" in captured.err
        assert (universe.tmp / "report.csv.partial").exists()

    def test_run_bad_config_exit_two(self, universe, capsys):
        universe.config.write_text("seed = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(universe.config)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_run_missing_config_exit_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.conf")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_overrides_reach_the_report(self, universe):
        out = universe.tmp / "custom.csv"
        code = main([
            "run", "--config", str(universe.config),
            "--seed", "123", "--scenarios", "1000", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert {r["seed"] for r in rows} == {"123"}
        assert {r["n_scenarios"] for r in rows} == {"1000"}

    def test_format_override_json(self, universe):
        out = universe.tmp / "report.json"
        code = main([
            "run", "--config", str(universe.config), "--format", "json", "--out", str(out)
        ])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["rows"]

    def test_histogram_subcommand(self, universe, capsys):
        out = universe.tmp / "hist.csv"
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", f"acme@{universe.event_day}",
            "--window", "[-1,3]", "--bins", "40", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert list(rows[0].keys()) == ["bin_low", "bin_high", "count"]
        assert sum(int(r["count"]) for r in rows) == 2000
        assert len(rows) == 40
        assert "percentile=" in capsys.readouterr().out

    def test_failed_histogram_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        pool = [-0.02, 0.0, 0.01, 0.03]
        spec = ScenarioSpec(draws_k=2, n_scenarios=500, seed=3)
        out = tmp_path / "hist.csv"
        emit_histogram(generate_distribution(pool, spec, histogram_bins=5), out)
        earlier = out.read_bytes()

        real_write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            emit_histogram(generate_distribution(pool, spec, histogram_bins=9), out)
        assert out.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["hist.csv"]

    def test_histogram_needs_a_histogram(self, tmp_path):
        spec = ScenarioSpec(draws_k=2, n_scenarios=500, seed=3)
        distribution = generate_distribution([-0.02, 0.0, 0.01, 0.03], spec)
        with pytest.raises(ValueError, match="carries no histogram"):
            emit_histogram(distribution, tmp_path / "hist.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "histogram"])
    @pytest.mark.parametrize("target", ["under_a_file", "a_directory"])
    def test_unwritable_output_exit_one(self, universe, capsys, command, target):
        out = universe.events_file / "out.csv" if target == "under_a_file" else universe.price_dir
        before = sorted(universe.tmp.rglob("*"))
        argv = ["--config", str(universe.config), "--out", str(out)]
        if command == "histogram":
            argv += ["--event", "acme", "--window", "[-1,1]"]
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert sorted(universe.tmp.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "histogram"])
    @pytest.mark.parametrize("target", ["under_a_file", "two_below_a_file", "a_directory"])
    def test_unwritable_output_fails_before_any_event(
        self, universe, capsys, monkeypatch, command, target
    ):
        def judge(*args, **kwargs):
            raise AssertionError("an event was judged for an output that cannot be written")

        monkeypatch.setattr(report_module, "run_event_study", judge)
        monkeypatch.setattr(cli_module, "event_scenario_distribution", judge)
        out = {
            "under_a_file": universe.events_file / "out.csv",
            "two_below_a_file": universe.events_file / "missing" / "out.csv",
            "a_directory": universe.price_dir,
        }[target]
        before = sorted(universe.tmp.rglob("*"))
        argv = ["--config", str(universe.config), "--out", str(out)]
        if command == "histogram":
            argv += ["--event", "acme", "--window", "[-1,1]"]
        assert main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
        assert sorted(universe.tmp.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "histogram"])
    def test_missing_output_directories_are_created(self, universe, command):
        out = universe.tmp / "new" / "deeper" / "out.csv"
        argv = ["--config", str(universe.config), "--out", str(out)]
        if command == "histogram":
            argv += ["--event", "acme", "--window", "[-1,1]"]
        assert main([command, *argv]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("command", ["run", "histogram"])
    def test_repeated_registry_event_exit_one(self, universe, capsys, monkeypatch, command):
        def judge(*args, **kwargs):
            raise AssertionError("an event was judged from a registry that repeats one")

        monkeypatch.setattr(report_module, "run_event_study", judge)
        monkeypatch.setattr(cli_module, "event_scenario_distribution", judge)
        write_events_csv(universe.events_file, [
            ("acme", universe.event_day, "Acme Corp"),
            ("bravo", universe.event_day, "Bravo Inc"),
            ("acme", universe.event_day, "Acme Corp"),
        ])
        out = universe.tmp / "out.csv"
        argv = ["--config", str(universe.config), "--out", str(out)]
        if command == "histogram":
            argv += ["--event", f"acme@{universe.event_day}", "--window", "[-1,0]"]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: {universe.events_file}: row 4: duplicate event "
            f"acme@{universe.event_day} (first seen at row 2)\n"
        )
        assert list(universe.tmp.glob("out.csv*")) == []

    def test_histogram_zero_bins_exit_two(self, universe, capsys):
        out = universe.tmp / "h.csv"
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--bins", "0", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: --bins must be >= 1, got 0\n"
        assert not out.exists()

    def test_histogram_of_one_bin(self, universe):
        out = universe.tmp / "h.csv"
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--bins", "1", "--out", str(out),
        ])
        assert code == 0
        assert [int(row["count"]) for row in _read_csv(out)] == [2000]

    def test_histogram_by_bare_instrument_id(self, universe):
        out = universe.tmp / "hist.csv"
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "bravo", "--window", "[-1,0]", "--out", str(out),
        ])
        assert code == 0

    def test_histogram_unknown_event_exit_two(self, universe, capsys):
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "nobody", "--window", "[-1,0]", "--out", "x.csv",
        ])
        assert code == 2
        assert "no event matching" in capsys.readouterr().err

    def test_histogram_ambiguous_event_exit_two(self, universe, capsys):
        second_day = align(
            synthetic_market(), synthetic_market()
        ).dates[EVENT_INDEX + 5].item().isoformat()
        write_events_csv(
            universe.events_file,
            [("acme", universe.event_day, "Acme"), ("acme", second_day, "Acme")],
        )
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--out", "x.csv",
        ])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label", ["week", "[0,5]", "[-1,4]"], ids=["week", "start-0", "nonstandard-end"]
    )
    def test_histogram_bad_window_exit_two(self, universe, capsys, label):
        # Only the five windows a report judges have a histogram to show.
        out = universe.tmp / "h.csv"
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", label, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: unknown window label {label!r}")
        assert not out.exists()

    def test_run_block_mode_short_estimation_fails_every_event(self, universe, capsys):
        # Such a run would fail every event, so both commands refuse the
        # config before any event is judged or any file is written.
        with universe.config.open("a", encoding="utf-8") as handle:
            handle.write("mode = block\nestimation_days = 8\n")
        out = universe.tmp / "out.csv"
        assert main(["run", "--config", str(universe.config), "--out", str(out)]) == 2
        assert main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--out", str(out),
        ]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(
            line.startswith("configuration error: ") and "estimation_days is 8" in line
            for line in errors
        )
        assert list(universe.tmp.glob("out.csv*")) == []

    def test_histogram_block_mode_short_estimation_exit_two(self, universe, capsys):
        with universe.config.open("a", encoding="utf-8") as handle:
            handle.write("mode = block\nestimation_days = 8\n")
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,10]", "--out", str(universe.tmp / "h.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
        assert not (universe.tmp / "h.csv").exists()

    @pytest.mark.parametrize("command", ["run", "histogram"])
    def test_estimation_past_the_longest_pool_exit_two(self, universe, capsys, command):
        # A longer pool would be rejected mid-run by the generator; the
        # setting is refused up front, before any file is written.
        with universe.config.open("a", encoding="utf-8") as handle:
            handle.write(f"estimation_days = {MAX_POOL_DAYS + 1}\n")
        out = universe.tmp / "out.csv"
        argv = ["--config", str(universe.config), "--out", str(out)]
        if command == "histogram":
            argv += ["--event", "acme", "--window", "[-1,0]"]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "estimation_days" in err
        assert list(universe.tmp.glob("out.csv*")) == []

    def test_histogram_refuses_the_event_run_refuses(self, universe, capsys):
        # Three days follow acme's event: enough for [-1,1] alone, not for
        # the study, so histogram fails it with run's message.
        late_day = _event_days(295)[0]
        write_events_csv(universe.events_file, [("acme", late_day, "Acme Corp")])
        assert main(["run", "--config", str(universe.config)]) == 1
        failed = capsys.readouterr().err.splitlines()[-1]
        message = failed.removeprefix(f"failed acme@{late_day}: ")
        assert message != failed and "3 trading days, need 10" in message
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,1]", "--out", str(universe.tmp / "h.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not (universe.tmp / "h.csv").exists()

    def test_each_failure_names_its_event_once(self, universe, capsys, caplog):
        # Too early, too late, and after the last trading day: the CLI line
        # and the log line name the event, and the message does not again.
        early, late = _event_days(100, 295)
        last = _event_days(298)[0]
        write_events_csv(
            universe.events_file,
            [("acme", early, "Acme Corp"), ("acme", late, "Acme Corp"),
             ("acme", "2099-01-02", "Acme Corp")],
        )
        with caplog.at_level("WARNING"):
            assert main(["run", "--config", str(universe.config)]) == 1
        failures = [
            (f"acme@{early}", "insufficient history before the event: 100 trading days, need 201"),
            (f"acme@{late}", "insufficient history after the event: 3 trading days, need 10"),
            ("acme@2099-01-02", f"announcement falls after the last trading day ({last})"),
        ]
        err = capsys.readouterr().err.splitlines()
        assert err == [f"failed {key}: {message}" for key, message in failures]
        skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
        assert skipped == [f"skipping {key}: {message}" for key, message in failures]

    def test_run_extreme_price_fails_only_its_event(self, universe, capsys):
        day = _give_acme_a_tiny_close(universe)
        assert main(["run", "--config", str(universe.config)]) == 1
        rows = _read_csv(universe.tmp / "report.csv.partial")
        assert [r["instrument_id"] for r in rows] == ["bravo"] * 5
        assert not (universe.tmp / "report.csv").exists()
        err = capsys.readouterr().err
        assert f"failed acme@{universe.event_day}: 'acme': the return on {day}" in err

    def test_histogram_extreme_price_exit_one(self, universe, capsys):
        day = _give_acme_a_tiny_close(universe)
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--out", str(universe.tmp / "h.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: 'acme': the return on {day}")
        assert not (universe.tmp / "h.csv").exists()

    def test_run_unpriceable_market_move_fails_only_its_event(self, universe, capsys):
        bravo_day = _lift_the_market_inside_bravos_windows(universe)
        assert main(["run", "--config", str(universe.config)]) == 1
        rows = _read_csv(universe.tmp / "report.csv.partial")
        assert [r["instrument_id"] for r in rows] == ["acme"] * 5
        assert not (universe.tmp / "report.csv").exists()
        err = capsys.readouterr().err
        assert f"failed bravo@{bravo_day}: the fitted model" in err
        assert "cannot price a day" in err

    def test_run_overflowing_additive_fit_fails_only_its_event(self, universe, capsys):
        _lift_the_market_inside_acmes_estimation(universe)
        assert main(["run", "--config", str(universe.config)]) == 1
        rows = _read_csv(universe.tmp / "report.csv.partial")
        assert [r["instrument_id"] for r in rows] == ["bravo"] * 5
        assert not (universe.tmp / "report.csv").exists()
        err = capsys.readouterr().err
        assert f"failed acme@{universe.event_day}: the additive fit overflows" in err

    def test_histogram_unpriceable_market_move_exit_one(self, universe, capsys):
        _lift_the_market_inside_bravos_windows(universe)
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "bravo", "--window", "[-1,10]", "--out", str(universe.tmp / "h.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the fitted model") and "cannot price a day" in err
        assert not (universe.tmp / "h.csv").exists()

    @pytest.mark.parametrize("missing", ["market_file", "events_file", "price_dir"])
    def test_histogram_missing_input_exit_two(self, universe, capsys, missing):
        target = getattr(universe, missing)
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink()
        code = main([
            "histogram", "--config", str(universe.config),
            "--event", "acme", "--window", "[-1,0]", "--out", str(universe.tmp / "h.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {missing} ")
        assert not (universe.tmp / "h.csv").exists()

    def test_verify_published_fixture_passes(self, capsys):
        fixture = FIXTURES_DIR / "table3_decision_rule.csv"
        assert main(["verify-table3", "--fixtures", str(fixture)]) == 0
        assert "checked 175 rows: 0 mismatches" in capsys.readouterr().out

    def test_verify_flags_tampered_fixture(self, tmp_path, capsys):
        source = (FIXTURES_DIR / "table3_decision_rule.csv").read_text(encoding="utf-8")
        tampered = source.replace(
            "Vodafone,2011-10-05,\"[-1,0]\",0.000824461,51.7293,None",
            "Vodafone,2011-10-05,\"[-1,0]\",0.000824461,51.7293,Positive",
        )
        assert tampered != source
        target = tmp_path / "tampered.csv"
        target.write_text(tampered, encoding="utf-8")
        assert main(["verify-table3", "--fixtures", str(target)]) == 1
        captured = capsys.readouterr()
        assert "checked 175 rows: 1 mismatches" in captured.out
        assert "published Positive, computed None" in captured.err

    @pytest.mark.parametrize(
        ("header", "row", "message"),
        [
            ("company,event_period,car,percentile,impact", 'Acme,"[-1,0]",0.01,150,None',
             "row 2: bad car or percentile (percentile must be in [0, 100], got 150.0)"),
            ("company,event_period,car,percentile,impact", 'Acme,"[-1,0]",0.01,nan,None',
             "row 2: bad car or percentile (percentile must be in [0, 100], got nan)"),
            ("company,event_period,car,percentile", 'Acme,"[-1,0]",0.01,50',
             "header is missing required column(s) impact"),
            ("company,event_period,car,percentile,impact", 'Acme,"[-1,0]",0.01,50,Neutral',
             "row 2: impact must be one of ['Negative', 'None', 'Positive'], got 'Neutral'"),
        ],
        ids=["percentile-150", "percentile-nan", "no-impact-column", "unknown-impact"],
    )
    def test_verify_bad_fixture_exit_one(self, tmp_path, capsys, header, row, message):
        target = tmp_path / "bad.csv"
        target.write_text(f"{header}\n{row}\n", encoding="utf-8")
        assert main(["verify-table3", "--fixtures", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {target}: {message}\n"

    def test_verify_missing_fixture_exit_two(self, tmp_path, capsys):
        assert main(["verify-table3", "--fixtures", str(tmp_path / "nope.csv")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Imports the CLI in a fresh interpreter, runs ``main(argv)`` unless ``argv``
#: is empty, and prints which of the modules that only a several-run
#: generation or a JSON report needs the program itself loaded.
_PROBE = """\
import sys
before = set(sys.modules)
from eventstudy.cli import main
if sys.argv[1:] and main(sys.argv[1:]) != 0:
    sys.exit("main failed")
print("loaded:", *[m for m in ("concurrent.futures", "json") if m in set(sys.modules) - before])
"""


class TestLeanImports:
    """A process that needs neither a thread pool nor a JSON encoder never loads them.

    Each case runs in its own interpreter, since pytest itself loads ``json``.
    """

    @staticmethod
    def _loaded(*argv: str) -> set[str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        last = done.stdout.splitlines()[-1]
        assert last.startswith("loaded:"), done.stdout
        return set(last.split()[1:])

    def test_bare_import(self):
        assert self._loaded() == set()

    def test_csv_run_at_one_worker(self, universe):
        assert self._loaded("run", "--config", str(universe.config), "--workers", "1") == set()

    def test_histogram_at_one_worker(self, universe):
        assert self._loaded(
            "histogram", "--config", str(universe.config), "--event",
            f"acme@{universe.event_day}", "--window", "[-1,3]", "--workers", "1",
            "--out", str(universe.tmp / "hist.csv"),
        ) == set()

    def test_json_run_loads_only_the_encoder(self, universe):
        assert self._loaded(
            "run", "--config", str(universe.config), "--format", "json",
            "--out", str(universe.tmp / "report.json"),
        ) == {"json"}

    def test_several_runs_load_the_thread_pool(self, universe):
        # 20,000 scenarios span three slabs, so two workers get a run each.
        assert self._loaded(
            "run", "--config", str(universe.config), "--scenarios", "20000", "--workers", "2",
        ) == {"concurrent.futures"}
