"""Self-test of the benchmark: its inputs, its output check, and its refusal to run blind.

Usage (from the root of a checkout)::

    python3 benchmark/selftest.py

It runs the real CLI on every workload and then shows that:

* the same seed regenerates byte-identical inputs and another seed does not;
* repeated CLI processes write byte-identical reports;
* the output check accepts each real report, and rejects a copy in which
  one field of one row (or of the histogram) has been corrupted, for every
  kind of corruption listed below;
* ``run.py`` exits non-zero without a result in a directory that holds only
  the benchmark.

The exit code is 0 when every case passes.  Work files live under
``.bench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from check import check  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from workloads import SHOCK_DECIDES, WORKLOADS, build  # noqa: E402

RESULTS: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    RESULTS.append((ok, what))
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def cli(workload) -> tuple[bytes, str, str, int]:
    for stale in (workload.output, Path(f"{workload.output}.partial")):
        stale.unlink(missing_ok=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "eventstudy.cli", *workload.cli_args],
                          cwd=workload.directory, env=env, capture_output=True, text=True,
                          check=False)
    output = workload.output.read_bytes() if workload.output.is_file() else b""
    return output, done.stdout, done.stderr, done.returncode


def snapshot(workload) -> dict[str, bytes]:
    return {str(p.relative_to(workload.directory)): p.read_bytes() for p in workload.files}


def expect_rejected(workload, what: str, text: str, stdout: str, stderr: str,
                    code: int) -> None:
    """The check must fail at least one event; the first reason is shown."""
    verdict = check(workload, text, stdout, stderr, code)
    reasons = [reason for found in verdict.failures.values() for reason in found]
    expect(verdict.failed > 0, f"{workload.name}: the check rejects: {what}"
           + (f" [{reasons[0][:90]}]" if reasons else ""))


# --- corruptions of a CSV or JSON run report -------------------------------

def _rows(text: str, fmt: str) -> tuple[list[str], list[dict]]:
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return list(rows[0]), rows
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames), list(reader)


def _render(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _number(value, fmt: str, digits: int = 0) -> object:
    """``value`` as the report holds it: JSON keeps numbers, CSV prints them."""
    if fmt == "json":
        return value
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def run_report_corruptions(workload, text: str) -> dict[str, str]:
    """One corrupted copy of ``text`` per kind of corruption."""
    fmt = workload.report_format
    columns, rows = _rows(text, fmt)
    n = workload.n_scenarios
    grid = 100.0 / (2 * n)
    # A mid-distribution row, so a moved percentile cannot also flip the label.
    target = next(i for i, r in enumerate(rows) if 30.0 < float(r["car_percentile"]) < 70.0)
    row = rows[target]
    car = float(row["car"])
    pct = float(row["car_percentile"])
    cases: dict[str, list[dict]] = {}

    def variant(name: str, **changes) -> None:
        copy = [dict(r) for r in rows]
        copy[target].update(changes)
        cases[name] = copy

    variant("car off by 1e-6", car=_number(car + 1e-6, fmt, 9))
    variant("car_additive off by 1e-6",
            car_additive=_number(float(row["car_additive"]) + 1e-6, fmt, 9))
    variant("percentile off the midrank grid", car_percentile=_number(pct + grid / 3, fmt, 5))
    variant("percentile on the grid but 15 points away",
            car_percentile=_number(pct + round(15.0 / grid) * grid, fmt, 5))
    variant("impact label flipped",
            impact="Positive" if row["impact"] != "Positive" else "None")
    variant("company renamed", company="Someone Else")
    variant("window relabelled", event_period="[-1,2]")
    variant("seed changed", seed=_number(workload.study_seed + 1, fmt))
    variant("mode changed", mode="block" if workload.mode == "iid" else "iid")
    variant("n_scenarios changed", n_scenarios=_number(n + 1, fmt))
    variant("estimation_days changed", estimation_days=_number(199, fmt))
    variant("generator emptied", generator="")
    variant("flags set", flags="nonstandard_window")
    variant("announcement date moved", announcement_date="1999-01-04")
    cases["row dropped"] = rows[:target] + rows[target + 1:]
    cases["row duplicated"] = rows[:target + 1] + rows[target:]
    swapped = list(rows)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    cases["rows reordered"] = swapped
    shocked = [i for i, r in enumerate(rows) if r["event_period"] in SHOCK_DECIDES
               and any(e.shocked and e.key == f"{r['instrument_id']}@{r['announcement_date']}"
                       for e in workload.events)]
    if shocked:
        copy = [dict(r) for r in rows]
        copy[shocked[0]].update(impact="None",
                                car_percentile=_number(50.0, fmt, 5))
        cases["shocked event labelled None"] = copy
    return {name: _render(columns, case, fmt) for name, case in cases.items()}


def histogram_corruptions(text: str, stdout: str) -> dict[str, tuple[str, str]]:
    """Corrupted (histogram CSV, stdout) pairs."""
    header, *records = [line.split(",") for line in text.splitlines()]
    middle = len(records) // 2

    def render(changed: dict[int, list[str]]) -> str:
        lines = [header] + [changed.get(i, r) for i, r in enumerate(records)]
        return "\n".join(",".join(r) for r in lines) + "\n"

    low, high, count = records[middle]
    first_low, first_high, first_count = records[0]
    car = stdout.split("car=")[1].split()[0]
    pct = stdout.split("percentile=")[1].split()[0]
    return {
        "one count changed": (render({middle: [low, high, str(int(count) + 1)]}), stdout),
        "a bin's mass moved to the first bin": (render({
            0: [first_low, first_high, str(int(first_count) + int(count))],
            middle: [low, high, "0"]}), stdout),
        "bin edge moved": (render({middle: [repr(float(low) * 1.001 + 1e-9), high, count]}),
                           stdout),
        "printed car off by 1e-6": (text, stdout.replace(
            f"car={car}", f"car={float(car) + 1e-6:.9f}")),
        "printed percentile moved 10 points": (text, stdout.replace(
            f"percentile={pct}", f"percentile={float(pct) + 10.0:.5f}")),
    }


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for name in WORKLOADS:
            first = build(name, 7, work / f"{name}-a")
            again = build(name, 7, work / f"{name}-b")
            other = build(name, 8, work / f"{name}-c")
            expect(snapshot(first) == snapshot(again), f"{name}: seed 7 regenerates its inputs")
            expect(snapshot(first) != snapshot(other), f"{name}: seed 8 gives other inputs")

            output, stdout, stderr, code = cli(first)
            repeat = cli(first)[0]
            expect(output != b"" and output == repeat,
                   f"{name}: two CLI processes write byte-identical output")
            verdict = check(first, output.decode("utf-8"), stdout, stderr, code)
            expect(verdict.failed == 0 and verdict.attempted == len(first.events),
                   f"{name}: the check accepts the real output "
                   f"({verdict.attempted} events, {verdict.failed} failed)")
            for key, reasons in verdict.failures.items():
                print(f"      {key}: {reasons}")

            text = output.decode("utf-8")
            expect_rejected(first, "wrong exit code", text, stdout, stderr, 0 if code else 1)
            if name == "histogram":
                for what, (bad, bad_stdout) in histogram_corruptions(text, stdout).items():
                    expect_rejected(first, what, bad, bad_stdout, stderr, code)
                continue
            for what, bad in run_report_corruptions(first, text).items():
                expect_rejected(first, what, bad, stdout, stderr, code)
            thin = [e for e in first.events if e.rejected]
            if thin:
                kept = "\n".join(line for line in stderr.splitlines()
                                 if thin[0].key not in line)
                expect_rejected(first, "a thin-history event not rejected", text, stdout,
                                kept, code)

        bare = work / "bare"
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "standard", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        expect(done.returncode != 0 and done.stdout == "",
               f"run.py without the program exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = sum(1 for ok, _ in RESULTS if not ok)
    print(f"{len(RESULTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
