"""Run every workload in two interleaved sets on the same code and compare them.

Usage (from the root of a checkout)::

    python3 benchmark/steadiness.py

Each of ``ROUNDS`` rounds runs every workload of ``BENCHMARK.json`` for its
``run_seconds``, once in set A and once in set B, flipping which set goes
first from one round to the next; every run gets its own seed, counting
up from ``FIRST_SEED``.  For each end-to-end metric and workload the
command prints the median and quartiles of all runs, their spread
(interquartile range over median), the drift of set B's median from set
A's in the metric's worse direction, and the metric's bound.  A metric is
steady when both its spread and its drift stay within the bound; ``<1/3``
marks a spread below a third of it.  The exit code is 1 when any run
failed its output check or any metric was not steady.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed of the first run; each later run takes the next one.
FIRST_SEED = 9000
#: Runs per set and workload: two sets give ten runs per workload.
ROUNDS = 5


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["elapsed_s"] = time.perf_counter() - started
    result["exit_code"] = done.returncode
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[tuple[str, str], list[dict]] = {}
    seed = FIRST_SEED
    failures = 0
    for round_index in range(ROUNDS):
        sets = ("A", "B") if round_index % 2 == 0 else ("B", "A")
        for workload in workloads:
            for which in sets:
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                seed += 1
                results.setdefault((workload, which), []).append(result)
                ok = result["correct"] and result["exit_code"] == 0
                failures += not ok
                wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
                print(f"# round {round_index} {workload:9s} set {which} seed {result['seed']}:"
                      f" correct={result['correct']} attempted={result.get('attempted')}"
                      f" failed={result.get('failed')} wall_s={wall:.4f}"
                      f" elapsed={result['elapsed_s']:.1f}s", flush=True)

    print(f"\n{'workload':9s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'drift':>7s} {'bound':>6s}  verdict")
    unsteady = 0
    for workload in workloads:
        runs_a, runs_b = results[(workload, "A")], results[(workload, "B")]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]

            def values(runs: list[dict]) -> list[float]:
                return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]

            both = values(runs_a) + values(runs_b)
            if len(both) < 4:
                print(f"{workload:9s} {name:16s} too few results")
                unsteady += 1
                continue
            q1, median, q3 = statistics.quantiles(both, n=4)
            spread = (q3 - q1) / median
            drift = worse_by(statistics.median(values(runs_a)),
                             statistics.median(values(runs_b)), metric["better"])
            steady = spread <= bound and drift <= bound
            unsteady += not steady
            verdict = ("ok" if steady else "NOT STEADY") + (
                "  <1/3" if spread < bound / 3 else "")
            print(f"{workload:9s} {name:16s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {drift:+7.2%} {bound:6.0%}  {verdict}")
        elapsed = [r["elapsed_s"] for r in runs_a + runs_b]
        print(f"{workload:9s} run elapsed: median {statistics.median(elapsed):.1f}s,"
              f" max {max(elapsed):.1f}s")
    print(f"\n{failures} failed runs, {unsteady} unsteady metrics")
    return 1 if failures or unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
