"""Benchmark of ``eventstudy run`` and ``eventstudy histogram``, end to end and per layer.

Usage (from the root of a checkout)::

    python3 benchmark/run.py --workload standard --seed 1 --seconds 30 --trace 0

One run builds the workload's input files from ``--seed``, runs the real
CLI once as an untimed warm-up whose output is checked row by row against
an independent reference (``check.py``), and then samples fresh CLI
processes until ``--seconds`` have passed.  Every sample must write the
warm-up's bytes.  Before each CLI sample it times one set-up-only
interpreter (import ``eventstudy.cli`` and load the config), so both see
the same machine conditions.

``--trace 0`` reports the end-to-end metrics: the medians of wall time,
set-up time and peak memory, and the throughputs derived from the wall
time.
``--trace 1`` alternates untraced and traced CLI processes and reports the
per-layer metrics from the traced ones (``traced_cli.py``), plus the
parallel speed-up of the generator (``speedup.py``).

Standard output holds exactly two lines: a run record (machine, versions,
source hash, generator tag, thread settings, every raw sample), then the
result object.  Progress goes to standard error.  The exit code is 0 when
every output passed the check, 1 when one did not, and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import workloads
from check import check

HERE = Path(__file__).resolve().parent

#: Thread pools pinned to one thread in every process the benchmark starts.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Fewest timed samples in a run, even when one sample outlasts ``--seconds``.
MIN_SAMPLES = 5
MIN_TRACED_PAIRS = 2
SPEEDUP_REPEATS = 2

SETUP_SNIPPET = "import sys, eventstudy.cli as c; c.load_run_config(sys.argv[1])"

END_TO_END = (
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("config.load_s", "s"),
    ("ingest.load_s", "s"),
    ("ingest.files", "count"),
    ("ingest.distinct_files", "count"),
    ("ingest.rows", "count"),
    ("ingest.align_s", "s"),
    ("model.fit_s", "s"),
    ("model.fits", "count"),
    ("bootstrap.generate_s", "s"),
    ("bootstrap.calls", "count"),
    ("bootstrap.scenarios", "count"),
    ("bootstrap.days_compounded", "count"),
    ("bootstrap.ns_per_day", "ns"),
    ("bootstrap.speedup_w2", "x"),
    ("inference.self_s", "s"),
    ("report.render_s", "s"),
    ("report.bytes", "B"),
    ("report.self_s", "s"),
    ("report.emit_histogram_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_s", "s"),
)


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Sample:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Launcher:
    """Starts commands through ``spawn.py`` inside the run's work directory."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}

    def __call__(self, argv: list[str]) -> Sample:
        result, out, err = (self.work / name for name in ("spawn.json", "out.txt", "err.txt"))
        subprocess.run(
            [sys.executable, "-S", str(HERE / "spawn.py"), str(result), str(out), str(err),
             "--", *argv],
            env=self.env, cwd=self.work, check=True,
        )
        measured = json.loads(result.read_text(encoding="utf-8"))
        return Sample(measured["wall_s"], measured["peak_rss_kb"] / 1024.0,
                      measured["exit_code"], out.read_text(encoding="utf-8"),
                      err.read_text(encoding="utf-8"))


def _src_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """One benchmark run: inputs, warm-up and check, then timed samples."""

    def __init__(self, root: Path, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.launch = Launcher(root, workload.directory)
        self.cli = [sys.executable, "-m", "eventstudy.cli", *workload.cli_args]
        self.setup = [sys.executable, "-c", SETUP_SNIPPET, str(workload.config)]
        self.expected: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.verdict = None

    def _invoke(self, argv: list[str]) -> Sample:
        """One CLI process; its output must match the warm-up's, byte for byte."""
        for stale in (self.workload.output, Path(f"{self.workload.output}.partial")):
            stale.unlink(missing_ok=True)
        sample = self.launch(argv)
        events = len(self.workload.events)
        self.attempted += events
        output = self.workload.output
        produced = output.read_bytes() if output.is_file() else None
        if self.expected is None:
            self.expected = produced
            self.verdict = check(self.workload,
                                 produced.decode("utf-8") if produced is not None else "",
                                 sample.stdout, sample.stderr, sample.exit_code)
            self.failed += self.verdict.failed
            for key, reasons in self.verdict.failures.items():
                log(f"FAILED {key}: {'; '.join(reasons)}")
        elif produced != self.expected or sample.exit_code != self.workload.expected_exit:
            log(f"sample output differs from the warm-up's (exit {sample.exit_code})")
            self.failed += events
        else:
            self.failed += self.verdict.failed
        return sample

    def _time_left(self, started: float, per_iteration: float) -> bool:
        return time.perf_counter() - started + per_iteration <= self.seconds

    def untraced(self) -> tuple[dict, dict]:
        self._invoke(self.cli)  # warm-up, checked
        self.launch(self.setup)
        walls, rss, setups = [], [], []
        started = time.perf_counter()
        per_iteration = 0.0
        while len(walls) < MIN_SAMPLES or self._time_left(started, per_iteration):
            setups.append(self.launch(self.setup).wall_s)
            sample = self._invoke(self.cli)
            walls.append(sample.wall_s)
            rss.append(sample.peak_rss_mb)
            per_iteration = median(walls) + median(setups)
        log(f"{len(walls)} samples in {time.perf_counter() - started:.1f}s")
        wall = median(walls)
        metrics = {
            "wall_s": wall,
            "scenarios_per_s": self.workload.scenarios_per_invocation / wall,
            "events_per_s": len(self.workload.events) / wall,
            "setup_s": median(setups),
            "peak_rss_mb": median(rss),
        }
        raw = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        return metrics, raw

    def traced(self, seed: int) -> tuple[dict, dict]:
        started = time.perf_counter()
        speedup_ok, speedup, speedup_raw = self._speedup(seed)
        self._invoke(self.cli)  # warm-up, checked
        spans_path = self.workload.directory / "spans.json"
        traced_cli = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                      *self.workload.cli_args]
        untraced_walls, traced_walls, layers, self_times = [], [], [], []
        while len(traced_walls) < MIN_TRACED_PAIRS or self._time_left(
                started, median(untraced_walls) + median(traced_walls)):
            order = ("traced", "plain") if len(traced_walls) % 2 else ("plain", "traced")
            for kind in order:
                if kind == "plain":
                    untraced_walls.append(self._invoke(self.cli).wall_s)
                    continue
                sample = self._invoke(traced_cli)
                traced_walls.append(sample.wall_s)
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
                layers.append(layer_metrics(trace, sample.wall_s))
                self_times.append(layer_self_times(trace["spans"]))
        log(f"{len(traced_walls)} traced/untraced pairs in {time.perf_counter() - started:.1f}s")
        metrics = {name: median([sample[name] for sample in layers])
                   for name in layers[0]}
        for name in COUNTS:
            if len({sample[name] for sample in layers}) != 1:
                log(f"count {name} differs between traced samples")
                self.failed += 1
            metrics[name] = layers[0][name]
        if not speedup_ok:
            log("workers=2 gave a different distribution from workers=1")
            self.failed += 1
        metrics["bootstrap.speedup_w2"] = speedup
        metrics["trace.overhead_pct"] = 100.0 * (
            median(traced_walls) / median(untraced_walls) - 1.0)
        raw = {"untraced_wall_s": untraced_walls, "traced_wall_s": traced_walls,
               "speedup_s": speedup_raw, "layers": layers, "layer_self_s": self_times}
        return metrics, raw

    def _speedup(self, seed: int) -> tuple[bool, float, dict]:
        sample = self.launch([sys.executable, str(HERE / "speedup.py"), str(seed),
                              str(SPEEDUP_REPEATS)])
        result = json.loads(sample.stdout)
        seconds = result["seconds"]
        return (sample.exit_code == 0 and result["equal"],
                median(seconds["1"]) / median(seconds["2"]), seconds)


#: Per-layer metrics that are counts and must repeat exactly.
COUNTS = ("ingest.files", "ingest.distinct_files", "ingest.rows", "model.fits",
          "bootstrap.calls", "bootstrap.scenarios", "bootstrap.days_compounded",
          "report.bytes")


def layer_self_times(spans: list) -> dict[str, float]:
    """Each layer's self time: its spans' durations minus what their children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time: dict[str, float] = {}
    for (name, start, end, _, _), children in zip(spans, covered):
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - children
    return self_time


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced process from its spans."""
    spans = trace["spans"]
    self_time = layer_self_times(spans)

    def named(*names: str) -> list:
        return [span for span in spans if span[0] in names]

    def total(*names: str) -> float:
        return sum(end - start for _, start, end, _, _ in named(*names))

    loads = named("ingest.load")
    generated = named("bootstrap.generate")
    days = sum(info["n"] * info["k"] for *_, info in generated)
    generate_s = total("bootstrap.generate")
    return {
        "cli.import_s": trace["import_s"],
        "config.load_s": total("config.load"),
        "ingest.load_s": total("ingest.load"),
        "ingest.files": len(loads),
        "ingest.distinct_files": len({info["path"] for *_, info in loads}),
        "ingest.rows": sum(info["rows"] for *_, info in loads),
        "ingest.align_s": total("ingest.align"),
        "model.fit_s": total("model.fit"),
        "model.fits": len(named("model.fit")),
        "bootstrap.generate_s": generate_s,
        "bootstrap.calls": len(generated),
        "bootstrap.scenarios": sum(info["n"] for *_, info in generated),
        "bootstrap.days_compounded": days,
        "bootstrap.ns_per_day": 1e9 * generate_s / days if days else 0.0,
        "inference.self_s": self_time.get("inference", 0.0),
        "report.render_s": total("report.render", "report.emit_histogram"),
        "report.bytes": sum(info["bytes"] for *_, info in
                            named("report.render", "report.emit_histogram")),
        "report.self_s": self_time.get("report", 0.0),
        "report.emit_histogram_s": total("report.emit_histogram"),
        "trace.unaccounted_s": wall - trace["import_s"] - sum(self_time.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eventstudy" / "cli.py").is_file():
        print(f"no program to measure: {root / 'src' / 'eventstudy'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, work)
        run = Run(root, workload, args.seconds)
        if args.trace:
            metrics, raw = run.traced(args.seed)
            names = PER_LAYER
        else:
            metrics, raw = run.untraced()
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _src_hash(root),
        "generator": run.verdict.generator if run.verdict else None,
        "thread_env": THREAD_ENV,
        "workers": 1,
        "raw": raw,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
