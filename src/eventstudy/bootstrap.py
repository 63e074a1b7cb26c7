"""Empirical scenario distributions for multi-day cumulative abnormal returns.

The idea: the estimation window leaves a pool of one-day abnormal returns
that are, by construction, plain-vanilla noise.  Resampling ``k`` of them
and compounding gives one synthetic ``k``-day cumulative abnormal return
(CAR); repeating millions of times maps out what "no impact" looks like
for a window of that length.  An observed event-window CAR is then judged
by its percentile inside that distribution.

Two resampling modes are supported:

* ``iid`` — every day of a scenario is an independent pick from the pool
  (with replacement).
* ``block`` — one draw picks a start day and the scenario takes ``k``
  consecutive pool days, preserving short-range dependence.

One scenario serves every window
--------------------------------
A scenario is ``spec.draws_k`` days long, and a window of ``k <= draws_k``
days reads the CAR of the scenario's first ``k`` days.  An event's windows
all open on the same day, so one call with ``draws_k`` set to the longest
window generates each scenario once and reads every window off it.  Each
window's distribution has exactly the law it would have from a stream of
its own; only the estimates of one event's windows become dependent, as
common random numbers (Glasserman 2004, "Monte Carlo Methods in Financial
Engineering").  Each window is judged on its own and no report field
compares or combines windows, so nothing relies on independence across
windows.

Determinism and scale
---------------------
Distributions run to millions of scenarios, so CARs are never stored.
Instead the generator compounds them in slabs of ``_SLAB_ROWS`` rows and
keeps only each window's reductions, slab by slab: exact below/equal counts
for registered reference values, the observed min/max, and (optionally)
fixed-bin histogram counts.  A histogram's bins must be fixed before the
first slab, so they span a range known from the pool alone.  In iid mode it
runs from the CAR of the scenario made only of the pool's lowest day to that
of the scenario made only of its highest day, each compounded in the
engine's own order; rounding a product of positive factors is monotone in
each of them, so no scenario falls outside.  In block mode it runs from the
smallest to the largest entry of the window's run table, which holds every
CAR the window can take.  One pass both counts and bins.

Randomness comes from PCG64DXSM (O'Neill's permuted congruential generator
with the "double xorshift multiply" output), keyed with ``spec.seed`` through
``numpy.random.SeedSequence``.  Its 64-bit words ``w_0, w_1, ...`` give the
32-bit draws ``u_{2p} = w_p & 0xFFFFFFFF`` and ``u_{2p+1} = w_p >> 32``.
Scenario ``i`` uses the ``d`` draws ``u_{i*d} ... u_{i*d+d-1}``; nothing is
padded, so the first ``n`` scenarios are the same for any ``n_scenarios``.
Each of at most ``workers`` threads takes a contiguous run of whole slabs
and ``advance``s its own generator to the run's first word, so the resulting
distributions are a pure function of (pool, spec, references,
histogram_bins) — the worker count cannot change a single bit of them.

Why these streams are independent enough: every event has its own 64-bit
seed (``derive_seed``), and ``SeedSequence`` hashes that seed into both the
128-bit starting state and the increment of the underlying congruential
generator.  Two events share an increment with a chance of about 2**-127,
and even then their streams overlap only if their starts lie within an
event's few tens of millions of words of each other on a period of 2**128.
Streams with different increments are affine images of one another; the
DXSM output permutation is built to hide that relation, which is why numpy
recommends it over PCG64's XSL-RR output for many parallel streams.
``advance(n)`` jumps the congruential state by exactly ``n`` steps in
O(log n) multiplications (Brown's arbitrary-stride method), so a run reads
the very words that one pass over the whole stream would have read.

Each draw ``u`` picks an index below a modulus ``M`` by Lemire's
multiply-shift, ``floor(u * M / 2**32)``, computed as a float64 product with
``M * 2**-32`` truncated to an integer.  That product is exact while
``u * M < 2**53``, that is for ``M <= 2**21``.  A pool longer than
``MAX_POOL_DAYS`` (512 days, in either mode) is rejected, so the largest
modulus, a pair index's ``512**2 = 2**18``, lies well inside that range.

In iid mode, with ``m`` pool days and gross returns ``g = 1 + pool``, the
draws are taken two pool days at a time: ``d = K // 2 + K % 2`` for a
``K``-day scenario (6 for an event's 12 days).  Each draw maps to an index
``p < m**2``, picks the ordered pair ``(a, b) = divmod(p, m)`` and
contributes the pair product ``fl(g[a] * g[b])``, read from a table of all
``m**2`` products (320 KB at ``m = 200``).  An even window ``k`` is the
product of the first ``k // 2`` pair factors.  An odd window multiplies the
first ``k // 2`` pair factors by ``g[floor(u * m / 2**32)]``, where ``u`` is
the next pair's draw.  Because ``floor(floor(u * m**2 / 2**32) / m) ==
floor(u * m / 2**32)``, that day is the next pair's first day ``a``:
uniform, independent of the prefix, and no extra draw.  In block mode ``d =
1``: window ``k`` maps the scenario's one draw to a start below ``m - k +
1`` and compounds the ``k`` consecutive days from there, read from a table
of each start's run product, so each window's start is uniform on its own
range.  The factors are multiplied in draw order, and each draw's modulus is
the size of the table it gathers from (``g``, the pair table or a run
table).  Each run of slabs builds its own tables, so with one run, as at
``workers = 1``, they are built once per generation pass.

Because ``2**32`` is not a multiple of a modulus ``M``, the multiply-shift
gives some indices one more draw value than others, so one index's
probability can exceed another's by a factor of at most ``1 + M / 2**32``:
about 1 + 9.3e-6 for a pair draw on a 200-day pool (7,296 of its 40,000
pairs are that much likelier than the rest) and 1 + 5e-8 for a single draw.
The cap keeps the pair bound at 1 + 6.1e-5 and the table at 2 MB.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateModelError

__all__ = [
    "DEFAULT_N_SCENARIOS",
    "GENERATOR",
    "MAX_POOL_DAYS",
    "ScenarioSpec",
    "Histogram",
    "ScenarioDistribution",
    "cumulative_abnormal_return",
    "generate_distribution",
    "percentile_of",
    "derive_seed",
]

#: Scenario count for a standard run.
DEFAULT_N_SCENARIOS = 5_000_000

#: Names the stream definition above; reports carry it so that a change to
#: the stream shows as a different tag rather than silently different numbers.
GENERATOR = "pcg64dxsm-u32-mulshift-event"

#: Longest pool in either mode: a pair table of at most 2 MB, a pair bias of at
#: most 1 + 6.1e-5, and a largest modulus of 512**2 = 2**18, well inside the
#: 2**21 that ``_indices`` maps exactly.
MAX_POOL_DAYS = 512

_MAX_SEED = 2**64 - 1
# Scenarios are compounded in slabs of this many rows, so that a slab's
# draws and running products stay in cache while its columns are multiplied
# in; a slab's size cannot change any scenario's value.  Even, so that every
# slab, and so every run of slabs, opens on a word's low half.
_SLAB_ROWS = 8192


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a scenario distribution besides the pool."""

    draws_k: int
    n_scenarios: int = DEFAULT_N_SCENARIOS
    seed: int = 0
    mode: str = "iid"

    def __post_init__(self) -> None:
        if self.draws_k < 1:
            raise ValueError(f"draws_k must be >= 1, got {self.draws_k}")
        if self.n_scenarios < 1:
            raise ValueError(f"n_scenarios must be >= 1, got {self.n_scenarios}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.mode not in ("iid", "block"):
            raise ValueError(f"mode must be 'iid' or 'block', got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-bin counts over the generated CARs.

    ``edges`` has one more entry than ``counts``; bin ``i`` spans
    ``[edges[i], edges[i+1])`` with the last bin closed on the right.  The
    edges run from the lowest to the highest CAR the pool can give the
    window, so every generated CAR lands in exactly one bin, and the outer
    bins are often empty.
    """

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.size != counts.size + 1:
            raise ValueError(f"{edges.size} edges for {counts.size} bins")


@dataclass(frozen=True, eq=False)
class ScenarioDistribution:
    """Streaming summary of one generated scenario distribution.

    The raw CARs are gone by the time this object exists; what remains is
    exact: ``n``, the observed ``min_car``/``max_car``, and precise
    below/equal counts for every reference value registered when the
    distribution was generated.  Asking about an unregistered value raises
    ``KeyError`` rather than guessing.
    """

    n: int
    min_car: float
    max_car: float
    references: Mapping[float, tuple[int, int]] = field(repr=False)
    histogram: Histogram | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.min_car <= self.max_car:
            raise ValueError(f"min_car {self.min_car} exceeds max_car {self.max_car}")
        for value, (below, equal) in self.references.items():
            if not 0 <= below <= self.n or not 0 <= equal <= self.n - below:
                raise ValueError(f"impossible counts for reference {value}")

    def count_below(self, value: float) -> int:
        """Exact number of generated CARs strictly below a registered ``value``."""
        return self._registered(value)[0]

    def count_equal(self, value: float) -> int:
        """Exact number of generated CARs equal to a registered ``value``."""
        return self._registered(value)[1]

    def _registered(self, value: float) -> tuple[int, int]:
        if float(value) not in self.references:
            raise KeyError(f"{value!r} was not registered when this distribution was generated")
        return self.references[float(value)]


def cumulative_abnormal_return(abnormal_returns: Iterable[float] | np.ndarray) -> float:
    """Compound one-day abnormal returns into a cumulative abnormal return.

    Gross abnormal returns multiply across days: ``prod(1 + ar) - 1``.
    Compounding +10% with -10% therefore nets -1%, not zero — the whole
    reason the pipeline is multiplicative.
    """
    arr = np.asarray(abnormal_returns, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty window: need at least one abnormal return")
    if not np.all(np.isfinite(arr) & (arr > -1.0)):
        raise ValueError("abnormal returns must be finite; one <= -1 leaves no value to compound")
    return float(np.prod(1.0 + arr) - 1.0)


def derive_seed(root_seed: int, key: str) -> int:
    """Derive a stable 64-bit stream key from a root seed and an event key.

    Hashing (root seed, event key) gives every event its own generator
    stream, which all of its windows read, while keeping the whole run
    reproducible from one root seed.
    """
    payload = f"{int(root_seed)}\x1f{key}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def _indices(draws: np.ndarray, modulus: int) -> np.ndarray:
    """Map 32-bit draws ``u`` to ``floor(u * modulus / 2**32)``, each below ``modulus``.

    Exact for ``modulus <= 2**21``: ``u * modulus`` is then below
    2**53, so the float64 product with the power-of-two scale is not rounded
    and the cast truncates it to the integer part.
    """
    return np.multiply(draws, modulus * 2.0**-32, dtype=np.float64).astype(np.intp)


def _run_products(pool_gross: np.ndarray, longest: int) -> list[np.ndarray]:
    """Block mode's run tables: entry ``s`` of ``products[k - 1]`` is the
    product of the ``k`` pool days from day ``s``, for ``k`` up to ``longest``.

    Every scenario starting at day s multiplies the same k factors in the
    same order, so each start's product is formed once, as the (k - 1)-day
    run times the next day.
    """
    products = [pool_gross]
    for k in range(2, longest + 1):
        products.append(products[-1][:-1] * pool_gross[k - 1 :])
    return products


def _window_cars(
    pool_gross: np.ndarray, spec: ScenarioSpec, windows: Iterable[int], start: int, count: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(window, cars)`` for each of ``windows``, over scenarios
    ``[start, start + count)``, slab by slab, as the module docstring defines them.

    Each call builds the tables it gathers from (block mode's run products,
    iid mode's pair products), so with one run, as at ``workers = 1``, they
    are built once per generation pass.  The run must open on an even draw
    offset ``start * d`` (a word's low half), else ``ValueError``; then any
    partition of the scenario range into such runs yields the same
    per-scenario values.
    """
    m = pool_gross.size
    windows = sorted(set(windows))
    if spec.mode == "block":
        per_scenario = 1
        products = _run_products(pool_gross, windows[-1])
        runs = [(k, products[k - 1]) for k in windows]
    else:
        per_scenario = -(-spec.draws_k // 2)
        # Entry a*m + b of the pair table is g[a] * g[b], so an index below
        # m**2 picks (a, b).
        table = np.multiply.outer(pool_gross, pool_gross).ravel()
    first = start * per_scenario
    if first % 2:
        raise ValueError(f"a run must open on an even draw offset, got {first}")
    gen = np.random.PCG64DXSM(spec.seed)
    gen.advance(first // 2)
    for lo in range(0, count, _SLAB_ROWS):
        rows = min(_SLAB_ROWS, count - lo)
        n_draws = rows * per_scenario
        words = gen.random_raw(-(-n_draws // 2))
        # As little-endian bytes the low half of each word comes first; the
        # ``astype`` is a no-op on little-endian hosts.
        slab = words.astype("<u8", copy=False).view("<u4")[:n_draws].reshape(rows, per_scenario)
        if spec.mode == "block":
            # ``take`` gathers the same values as ``run[...]``, faster.
            for k, run in runs:
                yield k, run.take(_indices(slab[:, 0], run.size)) - 1.0
            continue
        product = 1.0  # the first 2c days' pair factors; times 1.0 is exact
        for c in range(-(-windows[-1] // 2)):
            u = slab[:, c]
            if 2 * c + 1 in windows:
                # The pair's first day, a = floor(u * m / 2**32) exactly.
                value = pool_gross.take(_indices(u, m))
                value *= product  # products commute: bit for bit product * factor
                yield 2 * c + 1, value - 1.0
            if 2 * c + 2 <= windows[-1]:
                value = table.take(_indices(u, m * m))
                value *= product
                product = value
                if 2 * c + 2 in windows:
                    yield 2 * c + 2, product - 1.0


def _runs(n: int, workers: int) -> list[tuple[int, int]]:
    """Split scenarios ``[0, n)`` into at most ``workers`` balanced, non-empty
    runs of whole slabs."""
    slabs = -(-n // _SLAB_ROWS)
    cuts = [min(n, _SLAB_ROWS * (slabs * i // workers)) for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def generate_distribution(
    pool: Iterable[float] | np.ndarray,
    spec: ScenarioSpec,
    *,
    references: Iterable[float] | Mapping[int, Iterable[float]] = (),
    histogram_bins: int | None = None,
    workers: int = 1,
) -> ScenarioDistribution | dict[int, ScenarioDistribution]:
    """Stream ``spec.n_scenarios`` synthetic scenarios into exact per-window summaries.

    ``references`` are the values whose below/equal counts must be exact
    (typically an observed event-window CAR).  Given as plain values, they
    belong to the ``spec.draws_k``-day window and one distribution is
    returned.  Given as a mapping from window length ``k`` (at most
    ``spec.draws_k``) to values, each window reads the first ``k`` days of
    the same scenarios and a dict of one distribution per key is returned.
    ``histogram_bins`` adds to each distribution a fixed-bin histogram
    spanning a range that holds every CAR its window can take (see the module
    docstring), so its edges depend only on the pool, the mode, the window
    and ``histogram_bins``, and the scenarios are binned in the pass that
    counts them; a range that overflows raises
    :class:`~eventstudy.errors.DegenerateModelError`.
    ``workers`` caps the threads: the scenarios' slabs are split into that
    many contiguous runs (fewer when there are fewer slabs), one thread
    each, and a single run stays in the calling thread.  The result is
    bit-for-bit identical for any ``workers``.
    """
    pool_arr = np.asarray(pool, dtype=np.float64)
    if pool_arr.size == 0:
        raise ValueError("empty abnormal-return pool")
    if pool_arr.size > MAX_POOL_DAYS:
        raise ValueError(
            f"pool of {pool_arr.size} days is longer than the {MAX_POOL_DAYS}-day limit"
        )
    if not np.all(np.isfinite(pool_arr) & (pool_arr > -1.0)):
        raise ValueError("abnormal-return pool must be finite with no value <= -1")
    if spec.mode == "block" and pool_arr.size < spec.draws_k:
        raise ValueError(
            f"pool of {pool_arr.size} days is too short for consecutive "
            f"blocks of {spec.draws_k}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if histogram_bins is not None and histogram_bins < 1:
        raise ValueError(f"histogram_bins must be >= 1, got {histogram_bins}")
    by_window = isinstance(references, Mapping)
    requested = references if by_window else {spec.draws_k: references}
    if not requested or not all(1 <= k <= spec.draws_k for k in requested):
        raise ValueError(
            f"windows must be between 1 and {spec.draws_k} days, got {sorted(requested)}"
        )

    refs = {k: tuple(sorted({float(v) for v in values})) for k, values in requested.items()}
    pool_gross = 1.0 + pool_arr
    runs = _runs(spec.n_scenarios, workers)

    edges: dict[int, np.ndarray] = {}
    if histogram_bins is not None:
        with np.errstate(over="ignore"):  # an overflowing bound is refused below
            if spec.mode == "block":
                # Every block CAR is an entry of its window's run table, minus 1.
                products = _run_products(pool_gross, max(refs))
                bounds = {k: (products[k - 1].min() - 1.0, products[k - 1].max() - 1.0)
                          for k in refs}
            else:
                # Rounding a product of positive floats is monotone in each
                # factor, and so is subtracting 1, so no scenario's CAR lies
                # outside those of the scenarios made only of the pool's lowest
                # or only of its highest day, compounded in the engine's own
                # order: a pool of ``draws_k`` equal days gives that scenario
                # whatever its draw.
                lowest, highest = (
                    dict(_window_cars(np.full(spec.draws_k, day), spec, refs, 0, 1))
                    for day in (pool_gross.min(), pool_gross.max())
                )
                bounds = {k: (lowest[k][0], highest[k][0]) for k in refs}
        for k, (lo, hi) in bounds.items():
            if hi == np.inf:
                raise DegenerateModelError(
                    f"the largest {k}-day CAR this pool can give overflows, "
                    f"so no finite histogram range holds every scenario"
                )
            # A constant window gets the one closed bin [c, c], which holds every CAR.
            edges[k] = (
                np.array([lo, hi])
                if lo == hi
                else np.histogram_bin_edges(np.empty(0), bins=histogram_bins, range=(lo, hi))
            )

    def summarize(k: int, cars: np.ndarray) -> tuple:
        # Binning before counting measured about 0.15 MB less peak RSS on a
        # 5M-scenario histogram than the other order (Linux, numpy 2.4).
        binned = np.histogram(cars, bins=edges[k])[0] if edges else None
        # Two compares per reference: on an 8,192-row slab (2-vCPU Xeon,
        # numpy 2.4) a searchsorted + bincount pass costs about 150 us against
        # 11 us for these with one reference, and wins only from about 200.
        below = np.array([np.count_nonzero(cars < v) for v in refs[k]], dtype=np.int64)
        equal = np.array([np.count_nonzero(cars == v) for v in refs[k]], dtype=np.int64)
        return below, equal, float(cars.min()), float(cars.max()), binned

    def combine(a: tuple, b: tuple) -> tuple:
        binned = None if a[4] is None else a[4] + b[4]
        return a[0] + b[0], a[1] + b[1], min(a[2], b[2]), max(a[3], b[3]), binned

    def one_run(bound: tuple[int, int]) -> dict[int, tuple]:
        """Summarize every slab of each window's CARs in one run of slabs as
        it is made, and combine each window's summaries."""
        lo, hi = bound
        totals: dict[int, tuple] = {}
        for k, cars in _window_cars(pool_gross, spec, refs, lo, hi - lo):
            summary = summarize(k, cars)
            totals[k] = combine(totals[k], summary) if k in totals else summary
        return totals

    if len(runs) == 1:  # no executor: the run stays in this thread
        summaries = one_run(runs[0])
    else:
        # Imported here, so that a single-run process never loads the pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(runs)) as pool_exec:
            by_run = list(pool_exec.map(one_run, runs))
        # Every slab yields every window, so every run holds every key.
        summaries = {k: reduce(combine, (totals[k] for totals in by_run)) for k in by_run[0]}

    distributions = {
        k: ScenarioDistribution(
            n=spec.n_scenarios,
            min_car=min_car,
            max_car=max_car,
            references={v: (int(b), int(e)) for v, b, e in zip(refs[k], below, equal)},
            histogram=None if binned is None else Histogram(edges=edges[k], counts=binned),
        )
        for k, (below, equal, min_car, max_car, binned) in summaries.items()
    }
    return distributions if by_window else distributions[spec.draws_k]


def percentile_of(distribution: ScenarioDistribution, value: float) -> float:
    """Midrank percentile of ``value`` inside a generated distribution.

    Counts strictly-below plus half the ties, scaled to 0–100.  With ``n``
    scenarios the result moves in steps of ``100 / (2n)``, so five million
    scenarios resolve one two-hundred-thousandth of a percentile.
    """
    below = distribution.count_below(value)
    equal = distribution.count_equal(value)
    return 100.0 * (below + 0.5 * equal) / distribution.n
