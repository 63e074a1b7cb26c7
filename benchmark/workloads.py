"""Seeded input universes for the benchmark workloads.

Every workload is a directory of plain files the program reads through its
CLI: a config, a market price CSV, one price CSV per instrument and an event
registry.  The files are a pure function of (workload, seed): they come from
``numpy.random.default_rng`` and fixed formatting, never from the program's
own code.  Alongside the files each builder returns what the output check
needs to know beyond them: which events carry a shock, which must be
rejected, and how the CLI is invoked.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

WORKLOADS = ("standard", "block", "registry", "histogram")

#: Window labels of a standard run, in report order.
STANDARD_WINDOWS = ("[-1,0]", "[-1,1]", "[-1,3]", "[-1,5]", "[-1,10]")

#: The size of the known shock, and the windows on which it must decide the label.
SHOCK = -0.06
SHOCK_DECIDES = ("[-1,0]", "[-1,1]")

ESTIMATION_DAYS = 200

# Scenario counts.  standard/block keep the paper's five windows but use
# fewer than its 5M scenarios per window, so that one CLI invocation takes
# about a second and a run holds a dozen samples (see README.md, "Noise").
PAPER_SHAPE_SCENARIOS = 400_000
REGISTRY_SCENARIOS = 1_000
HISTOGRAM_SCENARIOS = 5_000_000
HISTOGRAM_BINS = 200
HISTOGRAM_WINDOW = "[-1,10]"


@dataclass(frozen=True)
class Event:
    instrument_id: str
    date: str  # ISO date as written to the registry
    label: str
    shocked: bool = False
    rejected: bool = False  # too little history: the run must reject it

    @property
    def key(self) -> str:
        return f"{self.instrument_id}@{self.date}"


@dataclass(frozen=True)
class Workload:
    """One generated universe and how to run the CLI on it."""

    name: str
    seed: int
    directory: Path
    config: Path
    output: Path  # the report (or histogram) the CLI writes
    cli_args: tuple[str, ...]
    events: tuple[Event, ...]
    study_seed: int
    mode: str
    n_scenarios: int
    report_format: str
    windows: tuple[str, ...] = STANDARD_WINDOWS
    bins: int | None = None
    expected_exit: int = 0
    files: tuple[Path, ...] = ()

    @property
    def scenarios_per_invocation(self) -> int:
        accepted = sum(1 for event in self.events if not event.rejected)
        return accepted * len(self.windows) * self.n_scenarios


def _weekdays(start: date, n: int) -> list[date]:
    days: list[date] = []
    day = start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def _write_prices(path: Path, dates: list[date], prices: np.ndarray) -> Path:
    lines = ["date,close"]
    lines += [f"{d.isoformat()},{p!r}" for d, p in zip(dates, prices.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_events(path: Path, events: list[Event]) -> Path:
    lines = ["instrument_id,date,label"]
    lines += [f"{e.instrument_id},{e.date},{e.label}" for e in events]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_config(path: Path, *, n_scenarios: int, seed: int, mode: str, fmt: str) -> Path:
    output = "report.json" if fmt == "json" else "report.csv"
    path.write_text(
        "price_dir = prices\n"
        "market_file = market.csv\n"
        "events_file = events.csv\n"
        f"output = {output}\n"
        f"format = {fmt}\n"
        f"n_scenarios = {n_scenarios}\n"
        f"seed = {seed}\n"
        f"mode = {mode}\n"
        f"estimation_days = {ESTIMATION_DAYS}\n"
        "workers = 1\n",
        encoding="utf-8",
    )
    return path


def _market_returns(rng: np.random.Generator, n: int) -> np.ndarray:
    return 0.0003 + 0.01 * rng.standard_normal(n)


def _stock_gross(rng: np.random.Generator, market_returns: np.ndarray) -> np.ndarray:
    alpha = rng.uniform(0.9998, 1.0004)
    beta = rng.uniform(0.6, 1.4)
    noise = 0.008 * rng.standard_normal(market_returns.size)
    return alpha * np.power(1.0 + market_returns, beta) * (1.0 + noise)


def _prices(gross: np.ndarray) -> np.ndarray:
    return 100.0 * np.cumprod(np.concatenate(([1.0], gross)))


def _short_history(name: str, seed: int, directory: Path, *, n_events: int,
                   mode: str, n_scenarios: int, shocked: tuple[int, ...]) -> Workload:
    """A few instruments with about a year (260 days) of prices, one event each.

    The market and every stock share one weekday calendar.  Event ``i``
    sits on return day ``e_i`` (chosen so 200 prior and 10 following days
    exist); a stock in ``shocked`` loses a further 6% on that day.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    n_prices = 260
    dates = _weekdays(date(2015, 1, 5), n_prices)
    market_returns = _market_returns(rng, n_prices - 1)
    prices_dir = directory / "prices"
    prices_dir.mkdir(parents=True)
    files = [_write_prices(directory / "market.csv", dates, _prices(1.0 + market_returns))]
    events: list[Event] = []
    for i in range(n_events):
        instrument = f"firm{i}"
        gross = _stock_gross(rng, market_returns)
        event_day = int(rng.integers(ESTIMATION_DAYS + 5, n_prices - 1 - 15))
        if i in shocked:
            gross[event_day] *= 1.0 + SHOCK
        files.append(_write_prices(prices_dir / f"{instrument}.csv", dates, _prices(gross)))
        # Return day r accrues on price date r + 1.
        events.append(Event(instrument, dates[event_day + 1].isoformat(), f"Firm {i}",
                            shocked=i in shocked))
    files.append(_write_events(directory / "events.csv", events))
    study_seed = int(rng.integers(0, 2**31))
    config = _write_config(directory / "study.conf", n_scenarios=n_scenarios,
                           seed=study_seed, mode=mode, fmt="csv")
    return Workload(
        name=name, seed=seed, directory=directory, config=config,
        output=directory / "report.csv",
        cli_args=("run", "--config", str(config)),
        events=tuple(events), study_seed=study_seed, mode=mode,
        n_scenarios=n_scenarios, report_format="csv", files=tuple(files + [config]),
    )


def _registry(seed: int, directory: Path) -> Workload:
    """96 events on 12 instruments with six years of gappy history; 4 too thin.

    The market skips about 1% of weekdays (holidays).  Each stock misses
    another 2% of market days and trades on a few of the market's holidays,
    so ``align`` has to drop days on both sides.  Events sit at random
    places in the shared calendar; a quarter of those falling on a Monday
    are announced on the Saturday before, which counts from the Monday.
    Four events are placed where fewer than 201 prior or 10 following
    shared days exist and must be rejected.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("registry")])
    weekdays = _weekdays(date(2009, 1, 5), 1_600)
    open_mask = rng.random(len(weekdays)) >= 0.01
    market_dates = [d for d, is_open in zip(weekdays, open_mask) if is_open]
    market_days = set(market_dates)
    holidays = [d for d, is_open in zip(weekdays, open_mask) if not is_open]
    market_returns = _market_returns(rng, len(market_dates) - 1)
    market_prices = _prices(1.0 + market_returns)
    prices_dir = directory / "prices"
    prices_dir.mkdir(parents=True)
    files = [_write_prices(directory / "market.csv", market_dates, market_prices)]

    n_instruments, n_events, n_thin = 12, 96, 4
    events: list[Event] = []
    keys: set[str] = set()
    per_instrument = np.array_split(np.arange(n_events), n_instruments)
    thin_slots = set(rng.choice(n_events, size=n_thin, replace=False).tolist())
    for i, slots in enumerate(per_instrument):
        instrument = f"co{i:02d}"
        present = rng.random(len(market_dates)) >= 0.02
        present[0] = True
        stock_dates = [d for d, keep in zip(market_dates, present) if keep]
        extra = rng.choice(len(holidays), size=min(3, len(holidays)), replace=False)
        # Stock prices exist on market days it trades; its own returns follow
        # the market model between consecutive market days.
        gross = _stock_gross(rng, market_returns)
        stock_prices_all = _prices(gross)
        stock_series = dict(zip(market_dates, stock_prices_all.tolist()))
        series = {d: stock_series[d] for d in stock_dates}
        for j in sorted(extra.tolist()):
            series[holidays[j]] = float(100.0 * np.exp(rng.normal(0.0, 0.1)))
        ordered = sorted(series)
        # Write the rows in a shuffled order: the loader must sort them.
        order = rng.permutation(len(ordered))
        rows = [ordered[k] for k in order]
        files.append(_write_prices(prices_dir / f"{instrument}.csv", rows,
                                   np.array([series[d] for d in rows])))
        shared = [d for d in ordered if d in market_days]
        calendar = shared[1:]  # the day each shared-day return accrues
        for slot in slots.tolist():
            while True:
                if slot in thin_slots:
                    if rng.random() < 0.5:
                        index = int(rng.integers(5, ESTIMATION_DAYS - 20))
                    else:
                        index = len(calendar) - 1 - int(rng.integers(0, 6))
                else:
                    index = int(rng.integers(ESTIMATION_DAYS + 1, len(calendar) - 11))
                day = calendar[index]
                announced = day
                if rng.random() < 0.25 and day.weekday() == 0:
                    announced = day - timedelta(days=2)  # Saturday: effective Monday
                event = Event(instrument, announced.isoformat(), f"Company {i} #{slot}",
                              rejected=slot in thin_slots)
                if event.key not in keys:
                    break
            keys.add(event.key)
            events.append(event)
    order = rng.permutation(len(events))
    events = [events[k] for k in order]
    files.append(_write_events(directory / "events.csv", events))
    study_seed = int(rng.integers(0, 2**31))
    config = _write_config(directory / "study.conf", n_scenarios=REGISTRY_SCENARIOS,
                           seed=study_seed, mode="iid", fmt="json")
    return Workload(
        name="registry", seed=seed, directory=directory, config=config,
        output=directory / "report.json.partial",
        cli_args=("run", "--config", str(config)),
        events=tuple(events), study_seed=study_seed, mode="iid",
        n_scenarios=REGISTRY_SCENARIOS, report_format="json", expected_exit=1,
        files=tuple(files + [config]),
    )


def _histogram(seed: int, directory: Path) -> Workload:
    """``eventstudy histogram`` on one event's 12-day window, 5M iid scenarios."""
    base = _short_history("histogram", seed, directory, n_events=1, mode="iid",
                          n_scenarios=HISTOGRAM_SCENARIOS, shocked=())
    event = base.events[0]
    output = directory / "hist.csv"
    return Workload(
        name="histogram", seed=seed, directory=directory, config=base.config,
        output=output,
        cli_args=("histogram", "--config", str(base.config), "--event", event.key,
                  "--window", HISTOGRAM_WINDOW, "--out", str(output),
                  "--bins", str(HISTOGRAM_BINS)),
        events=base.events, study_seed=base.study_seed, mode="iid",
        n_scenarios=HISTOGRAM_SCENARIOS, report_format="histogram",
        windows=(HISTOGRAM_WINDOW,), bins=HISTOGRAM_BINS, files=base.files,
    )


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write workload ``name`` for ``seed`` into the empty ``directory``."""
    directory.mkdir(parents=True, exist_ok=False)
    if name == "standard":
        return _short_history("standard", seed, directory, n_events=3, mode="iid",
                              n_scenarios=PAPER_SHAPE_SCENARIOS, shocked=(0,))
    if name == "block":
        return _short_history("block", seed, directory, n_events=3, mode="block",
                              n_scenarios=PAPER_SHAPE_SCENARIOS, shocked=(0,))
    if name == "registry":
        return _registry(seed, directory)
    if name == "histogram":
        return _histogram(seed, directory)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
