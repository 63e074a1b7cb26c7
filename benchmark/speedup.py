"""Time one 12-day, 5M-scenario distribution at ``workers`` 1 and 2.

Usage: ``python3 speedup.py SEED REPEATS`` with ``src`` on ``PYTHONPATH``.
Prints one JSON object: the per-repeat times at each worker count and
whether every repeat produced the same distribution.  One untimed warm-up
at each worker count comes first, because the first threaded call is
several times slower than the rest.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from eventstudy.bootstrap import ScenarioSpec, generate_distribution


def main() -> int:
    seed, repeats = int(sys.argv[1]), int(sys.argv[2])
    rng = np.random.default_rng([seed, 12])
    pool = 0.01 * rng.standard_normal(200)
    reference = float(np.prod(1.0 + pool[:12]) - 1.0)
    spec = ScenarioSpec(draws_k=12, n_scenarios=5_000_000, seed=seed, mode="iid")

    def summary(workers: int):
        d = generate_distribution(pool, spec, references=(reference,), workers=workers)
        return d.min_car, d.max_car, dict(d.references)

    times: dict[str, list[float]] = {"1": [], "2": []}
    expected = summary(1)
    equal = summary(2) == expected
    for _ in range(repeats):
        for workers in (1, 2):
            start = time.perf_counter()
            result = summary(workers)
            times[str(workers)].append(time.perf_counter() - start)
            equal = equal and result == expected
    print(json.dumps({"seconds": times, "equal": equal}))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
