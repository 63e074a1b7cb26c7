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
CAR the window can take.  One pass both counts and bins: a slab that is
binned is sorted once, and its bin counts, reference counts and extremes are
read off it by bisection.

Randomness comes from a counter-based stream (Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3") built from SplitMix64 (Steele, Lea &
Flood 2014, "Fast splittable pseudorandom number generators").  Word ``j`` of
the stream keyed by ``spec.seed`` is ``w_j = mix((seed + (j + 1) * G) mod
2**64)``, where ``G = 0x9E3779B97F4A7C15`` is SplitMix64's odd increment and
``mix`` its output finaliser: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z
>> 27; z *= 0x94D049BB133111EB; z ^= z >> 31``, all mod 2**64.  From seed 0
these are SplitMix64's published outputs, which pass TestU01's BigCrush.  The
64-bit words give the 32-bit draws ``u_{2p} = w_p & 0xFFFFFFFF`` and
``u_{2p+1} = w_p >> 32``.  Scenario ``i`` uses the ``d`` draws ``u_{i*d} ...
u_{i*d+d-1}``; nothing is padded, so the first ``n`` scenarios are the same
for any ``n_scenarios``.  A word is a pure function of ``(seed, j)``, so each
of at most ``workers`` threads takes a contiguous run of whole slabs and
computes its words from the run's first one, with no generator state to carry
or jump: the resulting distributions are a pure function of (pool, spec,
references, histogram_bins) — the worker count cannot change a single bit of
them.

Why these streams are independent enough: every event has its own 64-bit
seed (``derive_seed``, which folds the root seed and the event key through
the same finaliser), and every event's stream is a window of one Weyl
sequence ``seed + (j + 1) * G``, whose cycle has period 2**64 because ``G`` is
odd.  Two events share a word only if their offsets on that cycle lie within
the ~1.5e7 words an event reads (5M scenarios of 6 draws) of each other:
about 2 * 1.5e7 / 2**64, or 1.6e-12, per pair of events.  Seeds a small
multiple of ``G`` apart would give shifted copies of one stream; since
``derive_seed`` mixes its input, two events' seeds fall so with a chance on
the 2**-64 scale.

Each draw ``u`` picks an index below a modulus ``M`` by Lemire's
multiply-shift, ``floor(u * M / 2**32)``, computed exactly in ``uint64`` as
``(u * M) >> 32``: a pool longer than ``MAX_POOL_DAYS`` (512 days, in either
mode) is rejected, so the largest modulus, a pair index's ``512**2 =
2**18``, keeps ``u * M`` below ``2**50``.

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

A slab's words are laid out column by column, in super-rows of ``r``
scenarios: ``r = 1`` when ``d`` is even and ``r = 2`` when it is odd, so
that a super-row holds ``r * d / 2`` whole words.  Word column ``c`` of
super-row ``s`` is word ``w0 + s * (r * d / 2) + c`` of the slab's first word
``w0``, so its Weyl values are one broadcast add of a base per column to a
table per call, and each draw of a scenario is the low or high half of one
contiguous column.

Because ``2**32`` is not a multiple of a modulus ``M``, the multiply-shift
gives some indices one more draw value than others, so one index's
probability can exceed another's by a factor of at most ``1 + M / 2**32``:
about 1 + 9.3e-6 for a pair draw on a 200-day pool (7,296 of its 40,000
pairs are that much likelier than the rest) and 1 + 5e-8 for a single draw.
The cap keeps the pair bound at 1 + 6.1e-5 and the table at 2 MB.
"""

from __future__ import annotations

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

#: Names the stream definition above and the arithmetic of the fit that prices
#: its pool (``-libm``: ``model``'s per-day ``math`` calls); reports carry it so
#: that a change to either shows as a different tag rather than silently
#: different numbers.
GENERATOR = "splitmix64-u32-mulshift-event-libm"

#: Longest pool in either mode: a pair table of at most 2 MB, a pair bias of at
#: most 1 + 6.1e-5, and a largest modulus of 512**2 = 2**18, so that ``u * M``
#: stays below 2**50 in ``uint64``.
MAX_POOL_DAYS = 512

_MAX_SEED = 2**64 - 1
# SplitMix64's Weyl increment and its finaliser's (shift, multiplier) rounds,
# as Python integers for ``derive_seed`` and as ``np.uint64`` for the slab
# words, so that numpy never promotes a word out of ``uint64``.
_GAMMA = 0x9E3779B97F4A7C15
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_LAST_SHIFT = 31
_U64_ROUNDS = tuple((np.uint64(shift), np.uint64(mult)) for shift, mult in _ROUNDS)
_U64_LAST_SHIFT = np.uint64(_LAST_SHIFT)
# A draw is one 32-bit half of a word: ``w & _U64_LOW`` or ``w >> _U64_HALF``.
_U64_LOW = np.uint64(0xFFFFFFFF)
_U64_HALF = np.uint64(32)
# Scenarios are compounded in slabs of this many rows, so that a slab's
# draws and running products stay in cache while its columns are multiplied
# in; a slab's size cannot change any scenario's value.  Even, so that every
# slab, and so every run of slabs, opens on a word's low half and on a whole
# super-row.
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
        if self.edges.size != self.counts.size + 1:
            raise ValueError(f"{self.edges.size} edges for {self.counts.size} bins")


@dataclass(frozen=True, eq=False)
class ScenarioDistribution:
    """Streaming summary of one generated scenario distribution.

    The raw CARs are gone by the time this object exists; what remains is
    exact: ``n``, the observed ``min_car``/``max_car``, and ``references``,
    which maps each value registered when the distribution was generated to
    its (below, equal) counts.  :func:`percentile_of` reads them, and raises
    ``KeyError`` for a value that was not registered rather than guessing.
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


def cumulative_abnormal_return(abnormal_returns: Iterable[float] | np.ndarray) -> float:
    """Compound one-day abnormal returns into a cumulative abnormal return.

    Gross abnormal returns multiply across days: ``prod(1 + ar) - 1``.
    Compounding +10% with -10% therefore nets -1%, not zero — the whole
    reason the pipeline is multiplicative.  Finite days whose product
    overflows raise :class:`~eventstudy.errors.DegenerateModelError`: no
    finite CAR is left to judge.
    """
    arr = np.asarray(abnormal_returns, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty window: need at least one abnormal return")
    if not np.all(np.isfinite(arr) & (arr > -1.0)):
        raise ValueError("abnormal returns must be finite; one <= -1 leaves no value to compound")
    with np.errstate(over="ignore"):  # an overflowing product is refused below
        gross = np.prod(1.0 + arr)
    if gross == np.inf:
        raise DegenerateModelError(f"the {arr.size}-day CAR overflows")
    return float(gross - 1.0)


def derive_seed(root_seed: int, key: str) -> int:
    """Derive a stable 64-bit stream key from a root seed and an event key.

    Mixing (root seed, event key) gives every event its own generator
    stream, which all of its windows read, while keeping the whole run
    reproducible from one root seed.  The UTF-8 payload is folded 8 bytes at
    a time, each block little-endian and zero-padded, as ``h = mix((h ^
    block) + G)`` from ``h`` = the payload's byte length, so payloads that
    differ only by trailing zero bytes still differ.
    """
    payload = f"{int(root_seed)}\x1f{key}".encode("utf-8")
    h = len(payload)
    for i in range(0, len(payload), 8):
        h = _mix((h ^ int.from_bytes(payload[i : i + 8], "little")) + _GAMMA)
    return h


def _mix(z: int) -> int:
    """SplitMix64's finaliser of ``z mod 2**64``, in Python integers."""
    z %= 2**64
    for shift, mult in _ROUNDS:
        z = ((z ^ (z >> shift)) * mult) % 2**64
    return z ^ (z >> _LAST_SHIFT)


def _slab_words(
    seed: int, first: int, column_steps: np.ndarray, lane_steps: np.ndarray,
    out: np.ndarray, scratch: np.ndarray,
) -> None:
    """Write word ``first + s * W + c`` of the stream keyed by ``seed`` into
    ``out[c, s]``, for the ``W`` columns and ``S`` super-rows of ``out``.

    ``column_steps`` must hold ``c * G mod 2**64`` at index ``c`` and
    ``lane_steps`` ``(s * W + 1) * G mod 2**64`` at index ``s``, so that the
    Weyl values are one broadcast add of each column's base ``seed + (first +
    c) * G`` to the lane table.  The finaliser mixes them in place, each shift
    going to ``scratch``, which holds at least ``W * S`` words; both arrays are
    reused slab after slab.
    """
    z = out.reshape(-1)
    shifted = scratch[: z.size]
    # The base stays a Python integer mod 2**64: only arrays wrap silently.
    bases = column_steps + np.uint64((seed + first * _GAMMA) % 2**64)
    np.add(bases[:, None], lane_steps, out=out)
    for shift, mult in _U64_ROUNDS:
        z ^= np.right_shift(z, shift, out=shifted)
        z *= mult
    z ^= np.right_shift(z, _U64_LAST_SHIFT, out=shifted)


def _map_draws(draws: np.ndarray, modulus: np.uint64, out: np.ndarray) -> np.ndarray:
    """Map 32-bit draws ``u``, held as ``uint64``, to ``floor(u * modulus /
    2**32)`` in ``out`` and return it viewed as ``int64`` indices.

    Exact while ``u * modulus < 2**64``: under ``MAX_POOL_DAYS`` a modulus is
    at most ``2**18``, so the product stays below ``2**50``.
    """
    np.multiply(draws, modulus, out=out)
    np.right_shift(out, _U64_HALF, out=out)
    return out.view(np.int64)


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
    per-scenario values.  Each yielded array is fresh, the caller's to keep
    or reorder.
    """
    m = pool_gross.size
    windows = sorted(set(windows))
    if spec.mode == "block":
        d = 1
        products = _run_products(pool_gross, windows[-1])
        runs = [(k, products[k - 1], np.uint64(products[k - 1].size)) for k in windows]
    else:
        d = -(-spec.draws_k // 2)
        # Entry a*m + b of the pair table is g[a] * g[b], so an index below
        # m**2 picks (a, b).
        table = np.multiply.outer(pool_gross, pool_gross).ravel()
        single, pair = np.uint64(m), np.uint64(m * m)
    first = start * d
    if first % 2:
        raise ValueError(f"a run must open on an even draw offset, got {first}")
    # A slab is ``supers`` super-rows of ``r`` scenarios, ``width = r * d / 2``
    # whole words each, laid out column by column; a last partial slab is
    # made whole and cut to its rows.
    r = 1 + d % 2
    width = r * d // 2
    supers = -(-min(count, _SLAB_ROWS) // r)
    column_steps = np.arange(width, dtype=np.uint64) * np.uint64(_GAMMA)
    lane_steps = np.arange(supers, dtype=np.uint64) * np.uint64(width * _GAMMA % 2**64)
    lane_steps += np.uint64(_GAMMA)
    words = np.empty((width, supers), dtype=np.uint64)
    # First the mixing's shifts, then every scenario's current draw and its
    # indices below one modulus.
    scratch = np.empty(max(width, 2 * r) * supers, dtype=np.uint64)
    draws, indices = scratch[: r * supers], scratch[r * supers : 2 * r * supers]
    # Draw t of scenario s * r + h is draw h * d + t of super-row s: the low or
    # high half of one word column.
    halves = ((np.bitwise_and, _U64_LOW), (np.right_shift, _U64_HALF))
    plan = []
    for t in range(d):
        steps = []
        for h in range(r):
            c, high = divmod(h * d + t, 2)
            steps.append((*halves[high], words[c], draws[h::r]))
        plan.append(steps)

    def draw(t: int) -> None:
        for op, operand, column, half in plan[t]:
            op(column, operand, out=half)

    def gather(values: np.ndarray, modulus: np.uint64) -> np.ndarray:
        # ``take`` gathers the same values as ``values[...]``, faster.
        return values.take(_map_draws(draws, modulus, indices))

    for lo in range(0, count, _SLAB_ROWS):
        rows = min(_SLAB_ROWS, count - lo)
        _slab_words(spec.seed, (first + lo * d) // 2, column_steps, lane_steps, words, scratch)
        if spec.mode == "block":
            draw(0)
            for k, run, modulus in runs:
                cars = gather(run, modulus)
                cars -= 1.0
                yield k, cars[:rows]
            continue
        product = 1.0  # the first 2c days' pair factors; times 1.0 is exact
        for c in range(-(-windows[-1] // 2)):
            draw(c)
            if 2 * c + 1 in windows:
                # The pair's first day, a = floor(u * m / 2**32) exactly.
                value = gather(pool_gross, single)
                value *= product  # products commute: bit for bit product * factor
                value -= 1.0
                yield 2 * c + 1, value[:rows]
            if 2 * c + 2 <= windows[-1]:
                value = gather(table, pair)
                value *= product
                product = value
                if 2 * c + 2 in windows:
                    yield 2 * c + 2, product[:rows] - 1.0


def _runs(n: int, workers: int) -> list[tuple[int, int]]:
    """Split scenarios ``[0, n)`` into balanced, non-empty runs of whole slabs:
    one per worker, but no more than there are slabs."""
    slabs = -(-n // _SLAB_ROWS)
    workers = min(workers, slabs)
    cuts = [min(n, _SLAB_ROWS * (slabs * i // workers)) for i in range(workers + 1)]
    return list(zip(cuts, cuts[1:]))


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
    (typically an observed event-window CAR); a NaN one raises
    ``ValueError``.  Given as plain values, they
    belong to the ``spec.draws_k``-day window and one distribution is
    returned.  Given as a mapping from window length ``k`` (at most
    ``spec.draws_k``) to values, each window reads the first ``k`` days of
    the same scenarios and a dict of one distribution per key is returned.
    ``histogram_bins`` adds to each distribution a fixed-bin histogram
    spanning a range that holds every CAR its window can take (see the module
    docstring), so its edges depend only on the pool, the mode, the window
    and ``histogram_bins``, and the scenarios are binned in the pass that
    counts them; a range that overflows raises
    :class:`~eventstudy.errors.DegenerateModelError`, and so does a generated
    CAR that overflows, with no numpy warning.
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
    # NaN equals nothing, so no count of it could be looked up again.
    if any(v != v for values in refs.values() for v in values):
        raise ValueError("a reference value is NaN; no CAR can be compared with it")
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
            # Otherwise these are ``np.histogram_bin_edges``' edges for the range,
            # but a range a few ulps wide keeps its repeated edges (empty bins)
            # where that function refuses to make ``histogram_bins`` of them.
            edges[k] = np.array([lo, hi]) if lo == hi else np.linspace(lo, hi, histogram_bins + 1)

    def summarize(k: int, cars: np.ndarray) -> tuple:
        if edges:
            cars.sort()  # the slab's fresh CARs; NaN sorts last
        highest = float(cars[-1] if edges else cars.max())
        # An overflowing product is inf, or nan once an underflowed prefix
        # meets an infinite pair; either way no finite CAR is left to judge.
        if not highest < np.inf:
            raise DegenerateModelError(f"a {k}-day CAR drawn from this pool overflows")
        if not edges:
            # Without bins, two compares per reference: on an 8,192-row slab
            # (2-vCPU Xeon, numpy 2.4) sorting it costs about 38 us against
            # about 10 us for these with one reference.
            below = np.array([np.count_nonzero(cars < v) for v in refs[k]], dtype=np.int64)
            equal = np.array([np.count_nonzero(cars == v) for v in refs[k]], dtype=np.int64)
            return below, equal, float(cars.min()), highest, None
        # A sorted slab is bisected, the bins by ``np.histogram``'s rule for
        # given edges: each bin is closed on the left, the last also on the right.
        below, upto = (cars.searchsorted(refs[k], side) for side in ("left", "right"))
        cuts = cars.searchsorted(edges[k])
        cuts[-1] = cars.searchsorted(edges[k][-1], "right")
        return below, upto - below, float(cars[0]), highest, cuts[1:] - cuts[:-1]

    def combine(a: tuple, b: tuple) -> tuple:
        binned = None if a[4] is None else a[4] + b[4]
        return a[0] + b[0], a[1] + b[1], min(a[2], b[2]), max(a[3], b[3]), binned

    def one_run(bound: tuple[int, int]) -> dict[int, tuple]:
        """Summarize every slab of each window's CARs in one run of slabs as
        it is made, and combine each window's summaries."""
        lo, hi = bound
        totals: dict[int, tuple] = {}
        # A table or product that overflows is refused by ``summarize``.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, cars in _window_cars(pool_gross, spec, refs, lo, hi - lo):
                summary = summarize(k, cars)
                totals[k] = combine(totals[k], summary) if k in totals else summary
        return totals

    if len(runs) == 1:  # no executor: the run stays in this thread
        by_run = [one_run(runs[0])]
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
    if value not in distribution.references:
        raise KeyError(f"{value!r} was not registered when this distribution was generated")
    below, equal = distribution.references[value]
    return 100.0 * (below + 0.5 * equal) / distribution.n
