"""Scenario generation: determinism, oracle equivalence, streaming counts."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eventstudy import bootstrap
from eventstudy.bootstrap import (
    MAX_POOL_DAYS,
    Histogram,
    ScenarioDistribution,
    ScenarioSpec,
    _map_draws,
    _runs,
    _slab_words,
    _window_cars,
    cumulative_abnormal_return,
    derive_seed,
    generate_distribution,
    percentile_of,
)
from eventstudy.errors import DegenerateModelError
from eventstudy.inference import STANDARD_WINDOWS


def splitmix64_word(seed: int, j: int) -> int:
    """Word ``j`` of the stream keyed by ``seed``, by its definition: SplitMix64's
    finaliser of ``seed + (j + 1) * 0x9E3779B97F4A7C15``, in Python integers."""
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def rederive_cars(pool: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """Independent scalar re-derivation of every window of every scenario.

    Returns an ``(n_scenarios, draws_k)`` array whose column ``k - 1`` holds
    each scenario's ``k``-day CAR, the one window ``k`` reads.  Computes
    each 64-bit word ``j``, from the one holding the scenario's first draw,
    by its definition: SplitMix64's finaliser of ``seed + (j + 1) *
    0x9E3779B97F4A7C15``, in Python integers.  Splits the words into 32-bit
    draws with shifts and masks, maps each draw ``u`` below a modulus ``M``
    as ``(u * M) >> 32`` in Python integers, and multiplies factors one by
    one — no runs, no slabs, no vectorised gather, no reinterpreted memory,
    no float index, no table.

    In iid mode the scenario's days come in pairs: draw ``u`` picks ``(a, b)
    = divmod((u * m*m) >> 32, m)``.  An even prefix is the product of its
    pair products ``g[a] * g[b]``; an odd prefix multiplies the pair products
    before it by ``g[a]`` of the next pair.  In block mode the scenario's one
    draw picks window ``k``'s start below ``m - k + 1`` and the window
    compounds ``k`` consecutive days from there.
    The engine must match this bit for bit.
    """
    gross = [1.0 + float(x) for x in pool]
    pool_len = len(gross)
    days = spec.draws_k
    per_scenario = 1 if spec.mode == "block" else days // 2 + days % 2

    def index(u: int, modulus: int) -> int:
        return (u * modulus) >> 32

    cars = np.empty((spec.n_scenarios, days))
    for i in range(spec.n_scenarios):
        first = i * per_scenario
        skip = first % 2  # one 64-bit word holds two draws
        words = []
        for j in range(first // 2, first // 2 + -(-(skip + per_scenario) // 2)):
            words.append(splitmix64_word(spec.seed, j))
        draws = [
            words[q // 2] >> 32 if q % 2 else words[q // 2] & 0xFFFFFFFF
            for q in range(skip, skip + per_scenario)
        ]
        for k in range(1, days + 1):
            product = 1.0
            if spec.mode == "block":
                start = index(draws[0], pool_len - k + 1)
                for j in range(start, start + k):
                    product *= gross[j]
            else:
                for u in draws[: k // 2]:
                    a, b = divmod(index(u, pool_len * pool_len), pool_len)
                    product *= gross[a] * gross[b]
                if k % 2:
                    a, _ = divmod(index(draws[k // 2], pool_len * pool_len), pool_len)
                    product *= gross[a]
            cars[i, k - 1] = product - 1.0
    return cars


def cars_by_window(pool: np.ndarray, spec: ScenarioSpec, start: int, count: int) -> dict:
    """Each window's CARs of one run, its slabs joined in order."""
    slabs: dict[int, list[np.ndarray]] = {}
    windows = range(1, spec.draws_k + 1)
    for window, cars in _window_cars(1.0 + pool, spec, windows, start, count):
        slabs.setdefault(window, []).append(cars)
    return {window: np.concatenate(parts) for window, parts in slabs.items()}


@pytest.fixture(scope="module")
def pool() -> np.ndarray:
    rng = np.random.default_rng(17)
    return 0.02 * rng.standard_normal(200)


@pytest.fixture
def small_slabs(monkeypatch):
    """Slabs of 34 rows: at ``workers=3`` the oracle checks' 800 or 1,000
    scenarios split into three runs of several slabs, the last one partial."""
    monkeypatch.setattr(bootstrap, "_SLAB_ROWS", 34)


class TestCumulativeAbnormalReturn:
    def test_compounds_multiplicatively(self):
        assert cumulative_abnormal_return([0.1, -0.1]) == 1.1 * 0.9 - 1.0
        assert cumulative_abnormal_return([0.1, -0.1]) == pytest.approx(-0.01, abs=1e-15)

    def test_order_invariant(self):
        assert cumulative_abnormal_return([0.03, -0.02, 0.01]) == pytest.approx(
            cumulative_abnormal_return([0.01, 0.03, -0.02]), rel=1e-12
        )

    def test_single_day_is_identity(self):
        assert cumulative_abnormal_return([0.0123]) == pytest.approx(0.0123, rel=1e-14)

    def test_twelve_equal_days(self):
        assert cumulative_abnormal_return([0.01] * 12) == pytest.approx(
            1.01**12 - 1.0, rel=1e-12
        )

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            cumulative_abnormal_return([])

    def test_total_loss_rejected(self):
        with pytest.raises(ValueError, match="<= -1"):
            cumulative_abnormal_return([0.1, -1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            cumulative_abnormal_return([0.1, float("nan")])

    def test_overflowing_product_refused_without_a_warning(self):
        # Each day is finite; their product is not, and no CAR is left to judge.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModelError, match="the 2-day CAR overflows"):
                cumulative_abnormal_return([1e200, 1e200])

    def test_largest_products_still_compound(self):
        assert cumulative_abnormal_return([1e154, 1e154]) == pytest.approx(1e308, rel=1e-12)


class TestScenarioSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draws_k": 0},
            {"draws_k": 2, "n_scenarios": 0},
            {"draws_k": 2, "seed": -1},
            {"draws_k": 2, "seed": 2**64},
            {"draws_k": 2, "mode": "shuffle"},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_scenarios": 1}, {"n_scenarios": 5, "seed": 2**64 - 1}],
        ids=["one-scenario", "largest-seed"],
    )
    def test_edge_spec_accepted(self, pool, kwargs):
        spec = ScenarioSpec(draws_k=2, **kwargs)
        expected = rederive_cars(pool, spec)[:, 1]
        dist = generate_distribution(pool, spec, references=expected.tolist())
        assert dist.n == spec.n_scenarios
        assert_counts_exact(dist, expected)


def assert_counts_exact(dist: ScenarioDistribution, cars: np.ndarray) -> None:
    """Every distinct CAR, registered as a reference, counts exactly."""
    for value in set(cars.tolist()):
        assert dist.references[value][0] == int((cars < value).sum())
        assert dist.references[value][1] == int((cars == value).sum())
    assert (dist.min_car, dist.max_car) == (cars.min(), cars.max())


def assert_engine_matches(pool: np.ndarray, spec: ScenarioSpec, expected: np.ndarray) -> None:
    """The ``draws_k``-day window, asked for with plain references, matches the oracle."""
    expected = expected[:, spec.draws_k - 1]
    dist = generate_distribution(pool, spec, references=expected.tolist(), workers=3)
    assert_counts_exact(dist, expected)


@pytest.mark.usefixtures("small_slabs")
class TestEngineMatchesScalarOracle:
    @pytest.mark.parametrize(
        "mode,draws",
        [("iid", 1), ("iid", 2), ("iid", 5), ("iid", 12), ("block", 1), ("block", 3), ("block", 7)],
    )
    def test_counts_min_max_bitwise(self, pool, mode, draws):
        spec = ScenarioSpec(draws_k=draws, n_scenarios=800, seed=99, mode=mode)
        assert_engine_matches(pool, spec, rederive_cars(pool, spec))

    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_pool_at_the_limit_bitwise(self, mode):
        # The longest pool either mode accepts, through the same engine loop;
        # its largest modulus, a pair index's (a block start's is smaller),
        # stays inside the exact range of the mapping.
        assert MAX_POOL_DAYS**2 <= 2**21
        long_pool = 0.02 * np.random.default_rng(MAX_POOL_DAYS).standard_normal(MAX_POOL_DAYS)
        spec = ScenarioSpec(draws_k=5, n_scenarios=800, seed=99, mode=mode)
        assert_engine_matches(long_pool, spec, rederive_cars(long_pool, spec))

    @pytest.mark.parametrize("mode,draws", [("iid", 5), ("block", 3)])
    def test_longer_run_extends_a_shorter_one(self, pool, mode, draws):
        # Nothing pads or reorders the draws, so the first 1,000 scenarios
        # of a 5,000-scenario stream are exactly a 1,000-scenario run.
        long_spec = ScenarioSpec(draws_k=draws, n_scenarios=5_000, seed=41, mode=mode)
        short_spec = ScenarioSpec(draws_k=draws, n_scenarios=1_000, seed=41, mode=mode)
        assert_engine_matches(pool, short_spec, rederive_cars(pool, long_spec)[:1_000])

    @pytest.mark.parametrize(
        "mode,pool_len,scenario_days",
        [
            ("iid", 200, 12),  # an event's call: 6 pair draws per scenario
            ("iid", 200, 5),  # 3 draws: only even slabs keep each run on a word boundary
            ("block", 200, 12),  # 1 draw: each window its own modulus
        ],
    )
    def test_every_window_of_one_call_bitwise(self, mode, pool_len, scenario_days):
        # One call reads every window off the same scenarios; each window's
        # counts, min and max must be exactly those of the oracle's prefixes.
        pool_values = 0.02 * np.random.default_rng(pool_len).standard_normal(pool_len)
        spec = ScenarioSpec(draws_k=scenario_days, n_scenarios=800, seed=2018, mode=mode)
        expected = rederive_cars(pool_values, spec)
        windows = range(1, scenario_days + 1)
        references = {k: expected[:, k - 1].tolist() for k in windows}
        dists = generate_distribution(pool_values, spec, references=references, workers=3)
        assert sorted(dists) == list(windows)
        for k in windows:
            assert_counts_exact(dists[k], expected[:, k - 1])


def weyl_tables(width: int, supers: int) -> tuple[np.ndarray, np.ndarray]:
    """``_slab_words``' column and lane tables by their definition, in Python integers."""
    gamma = 0x9E3779B97F4A7C15
    return (
        np.array([c * gamma % 2**64 for c in range(width)], dtype=np.uint64),
        np.array([(s * width + 1) * gamma % 2**64 for s in range(supers)], dtype=np.uint64),
    )


def slab_words(seed: int, first: int, width: int, supers: int) -> np.ndarray:
    """``_slab_words``' ``(width, supers)`` columns from word ``first``."""
    out = np.empty((width, supers), dtype=np.uint64)
    scratch = np.empty(out.size, dtype=np.uint64)
    _slab_words(seed, first, *weyl_tables(width, supers), out, scratch)
    return out


class TestWords:
    def test_seed_zero_gives_splitmix64s_published_outputs(self):
        # Read super-row by super-row, one column of five super-rows and five
        # columns of one are both words 0 to 4.
        for width, supers in [(1, 5), (5, 1)]:
            words = slab_words(0, 0, width, supers)
            assert [f"{w:016x}" for w in words.T.ravel().tolist()] == [
                "e220a8397b1dcdaf", "6e789e6aa1b965f4", "06c45d188009454f",
                "f88bb8a8724c81ec", "1b39896a51a8749b",
            ]

    @pytest.mark.parametrize("lanes,count", [(1, 3), (64, 5), (64, 64), (64, 65), (64, 200)])
    @pytest.mark.parametrize("seed,first", [(0, 0), (2018, 12), (2**64 - 1, 2**61 + 7)])
    def test_rows_of_lanes_give_the_definitions_words(self, seed, first, lanes, count):
        # A slab's words are rows (word columns) of lanes (super-rows): the
        # ``ceil(count / lanes)`` rows that hold ``count`` words, each a
        # contiguous column, and seeds that wrap.
        width = -(-count // lanes)
        words = slab_words(seed, first, width, lanes)
        assert words.tolist() == [
            [splitmix64_word(seed, first + s * width + c) for s in range(lanes)]
            for c in range(width)
        ]

    @pytest.mark.parametrize(
        "d,count",
        [
            (6, 5), (2, 3),  # even d: super-rows of one scenario
            (3, 7), (1, 9),  # odd d, odd count: the last super-row's second scenario is spare
            (1, 8), (5, 4),
        ],
    )
    @pytest.mark.parametrize("seed,first", [(0, 0), (2018, 12), (2**64 - 1, 2**61 + 7)])
    def test_columns_give_the_definitions_draws(self, seed, first, d, count):
        # Super-rows of r scenarios hold r * d / 2 whole words, and draw t of
        # scenario s * r + h is the low or high half of column (h * d + t) // 2
        # of super-row s.
        r = 1 + d % 2
        words = slab_words(seed, first, r * d // 2, -(-count // r))
        for i in range(count):
            s, h = divmod(i, r)
            for t in range(d):
                c, high = divmod(h * d + t, 2)
                j = 2 * first + i * d + t  # the stream's draw index
                defined = splitmix64_word(seed, j // 2) >> 32 * (j % 2) & 0xFFFFFFFF
                assert int(words[c, s]) >> 32 * high & 0xFFFFFFFF == defined

    @pytest.mark.parametrize(
        "mode,draws_k,slab_rows,start,count",
        [
            # Opens at draw 30 (word 15); slabs of 64 rows, then 23.
            ("iid", 12, 64, 5, 87),
            # Opens at draw 6 (word 3), one draw a scenario, an odd count:
            # slabs of 512 rows, then 301, whose last super-row holds one.
            ("block", 3, 512, 6, 813),
            # Opens at draw 12 (word 6); slabs of 2,048 rows, then 52.
            ("iid", 12, 2048, 2, 2100),
            # Fewer scenarios than a slab: 3 from draw 24, 5 block starts
            # from draw 2.
            ("iid", 12, 8192, 4, 3),
            ("block", 5, 8192, 2, 5),
            # Opens at draw 6 (word 3) at six draws a scenario.
            ("iid", 12, 64, 1, 100),
            # Three draws a scenario, odd counts: from draw 18 in slabs of 34
            # rows, then 33; 3 scenarios from draw 6.
            ("iid", 5, 34, 6, 101),
            ("iid", 5, 8192, 2, 3),
            # One draw a scenario in iid mode: 7 from draw 4.
            ("iid", 2, 8192, 4, 7),
        ],
    )
    def test_word_layout_edges_match_the_definition(
        self, pool, mode, draws_k, slab_rows, start, count
    ):
        spec = ScenarioSpec(draws_k=draws_k, n_scenarios=start + count, seed=2**64 - 5, mode=mode)
        expected = rederive_cars(pool, spec)[start:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bootstrap, "_SLAB_ROWS", slab_rows)
            cars = cars_by_window(pool, spec, start, count)
        assert sorted(cars) == list(range(1, draws_k + 1))
        for k, window in cars.items():
            assert np.array_equal(window, expected[:, k - 1])


def map_draws(draws: np.ndarray, modulus: int) -> np.ndarray:
    """``_map_draws`` of a copy of ``draws``, as ``uint64``."""
    draws = np.asarray(draws, dtype=np.uint64)
    return _map_draws(draws, np.uint64(modulus), np.empty_like(draws))


class TestIndexMapping:
    @pytest.mark.parametrize("modulus", [1, 2, 3, 199, 200, 40_000, 512**2, 2**21])
    def test_float_form_is_the_exact_multiply_shift(self, modulus):
        # Index j starts at the cut point ceil(j * 2**32 / M).  At every cut
        # point, the draws either side of it and the largest draw, the integer
        # form maps as the definition does, never reaches M, and agrees with
        # the float form ``floor(u * (M * 2**-32))`` that earlier engines
        # computed (exact for these moduli).  Past the longest pool's 512**2 a
        # sample of cut points is checked.
        if modulus <= 512**2:
            js = np.arange(1, modulus, dtype=np.int64)
        else:
            js = np.random.default_rng(modulus).integers(1, modulus, size=20_000)
        cuts = -(-(js << 32) // modulus)
        draws = np.concatenate([cuts - 1, cuts, cuts + 1, [0, 2**32 - 1]])
        draws = np.unique(draws[(draws >= 0) & (draws < 2**32)])
        mapped = map_draws(draws, modulus)
        assert mapped.dtype == np.int64
        assert mapped.tolist() == [(u * modulus) >> 32 for u in draws.tolist()]
        assert np.array_equal(mapped, np.floor(draws * (modulus * 2.0**-32)))
        assert int(mapped.max()) < modulus

    @pytest.mark.parametrize("m", [3, 199, 200, 250, 512])
    def test_pair_index_over_m_is_the_single_index(self, m):
        # floor(floor(u * m**2 / 2**32) / m) == floor(u * m / 2**32): an odd
        # window's last day, mapped from the next pair's draw with modulus m,
        # is that pair's first day.  Both sides change only at a cut point of
        # the pair mapping (the single mapping's are among them), so checking
        # every one, and the draws either side, checks every draw.
        p = np.arange(1, m * m, dtype=np.int64)
        cuts = -(-(p << 32) // (m * m))
        draws = np.concatenate([cuts - 1, cuts, cuts + 1, [0, 2**32 - 1]])
        draws = np.unique(draws[(draws >= 0) & (draws < 2**32)])
        assert np.array_equal(map_draws(draws, m * m) // m, map_draws(draws, m))


class TestChunkPositioning:
    @settings(max_examples=60, deadline=None)
    @given(
        draws_k=st.sampled_from([2, 3, 5, 12]),  # 1, 2, 3 and 6 draws per scenario
        start=st.integers(min_value=0, max_value=1_500),
        count=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        slab_rows=st.sampled_from([2, 34, 8192]),
    )
    def test_any_chunk_is_a_slice_of_the_whole_range(
        self, pool, draws_k, start, count, seed, slab_rows
    ):
        # A run may open on any even draw offset, not only on a slab boundary.
        spec = ScenarioSpec(draws_k=draws_k, seed=seed)
        assume(start * -(-draws_k // 2) % 2 == 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bootstrap, "_SLAB_ROWS", slab_rows)
            whole = cars_by_window(pool, spec, 0, start + count)
            part = cars_by_window(pool, spec, start, count)
        assert sorted(part) == list(range(1, draws_k + 1))
        for k, cars in part.items():
            assert np.array_equal(cars, whole[k][start:])

    @pytest.mark.parametrize("draws_k", [2, 5])  # 1 and 3 draws per scenario
    def test_odd_draw_offset_rejected(self, pool, draws_k):
        per_scenario = -(-draws_k // 2)
        with pytest.raises(ValueError, match="even draw offset, got 3"):
            cars_by_window(pool, ScenarioSpec(draws_k=draws_k, seed=7), 3 // per_scenario, 10)


class TestDeterminism:
    def test_identical_spec_identical_counts(self, pool):
        spec = ScenarioSpec(draws_k=3, n_scenarios=40_000, seed=5)
        refs = (-0.01, 0.0, 0.01)
        first = generate_distribution(pool, spec, references=refs)
        second = generate_distribution(pool, spec, references=refs)
        assert first.references == second.references
        assert (first.min_car, first.max_car) == (second.min_car, second.max_car)

    @pytest.mark.parametrize("slab_rows", [2, 64, 8192])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_invariant_to_workers_and_slab_rows(self, pool, monkeypatch, mode, workers, slab_rows):
        # 3,001 scenarios are a multiple of no slab size, so the runs are
        # unequal and the last slab is partial.
        spec = ScenarioSpec(draws_k=5, n_scenarios=3_001, seed=11, mode=mode)
        refs = (-0.02, 0.005)
        baseline = generate_distribution(pool, spec, references=refs, histogram_bins=13)
        monkeypatch.setattr(bootstrap, "_SLAB_ROWS", slab_rows)
        other = generate_distribution(
            pool, spec, references=refs, histogram_bins=13, workers=workers
        )
        assert other.references == baseline.references
        assert (other.min_car, other.max_car) == (baseline.min_car, baseline.max_car)
        assert np.array_equal(other.histogram.counts, baseline.histogram.counts)
        assert np.array_equal(other.histogram.edges, baseline.histogram.edges)

    def test_different_seeds_differ(self, pool):
        spec_a = ScenarioSpec(draws_k=3, n_scenarios=10_000, seed=1)
        spec_b = ScenarioSpec(draws_k=3, n_scenarios=10_000, seed=2)
        ref = (0.0,)
        dist_a = generate_distribution(pool, spec_a, references=ref)
        dist_b = generate_distribution(pool, spec_b, references=ref)
        assert dist_a.references[0.0][0] != dist_b.references[0.0][0]


def traced_peak(spec: ScenarioSpec) -> int:
    """Peak traced bytes of one event's call on a 200-day pool, after a warm call;
    traced allocations, not RSS, so the figure repeats."""
    pool_values = 0.02 * np.random.default_rng(200).standard_normal(200)
    references = {window.n_days: (0.01,) for window in STANDARD_WINDOWS}
    generate_distribution(pool_values, spec, references=references)  # warm
    tracemalloc.start()
    try:
        generate_distribution(pool_values, spec, references=references)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_working_set_of_an_event_call(self):
        # One event's call holds a slab's word columns, their shifts, one
        # draw and its indices, the pair table and the running products, and
        # derives its Weyl values from two small tables.  About 962 KB
        # (Python 3.11, numpy 2.4).
        assert traced_peak(ScenarioSpec(draws_k=12, n_scenarios=400_000, seed=11)) < 1_120 * 1024

    def test_working_set_of_a_block_event_call(self):
        # One word column of 4,096 super-rows, one draw and its indices for
        # 8,192 scenarios, the run tables, and a window's CARs, with the
        # window before it still held.  About 346 KB (Python 3.11, numpy 2.4).
        spec = ScenarioSpec(draws_k=12, n_scenarios=400_000, seed=11, mode="block")
        assert traced_peak(spec) < 380 * 1024


class TestRuns:
    def test_more_workers_than_slabs_cost_nothing(self):
        # 400,000 scenarios fill 49 slabs, so a million workers are 49 runs,
        # cut without a list of a million cut points.
        tracemalloc.start()
        try:
            runs = _runs(400_000, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == _runs(400_000, 49)
        assert len(runs) == 49 and runs[0][0] == 0 and runs[-1][1] == 400_000
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("n,workers", [(1, 1), (1, 3), (8_192, 2), (8_193, 2), (40_000, 3)])
    def test_runs_are_balanced_whole_slabs(self, n, workers):
        slab = bootstrap._SLAB_ROWS
        runs = _runs(n, workers)
        assert len(runs) == min(workers, -(-n // slab))
        assert [lo for lo, _ in runs[1:]] == [hi for _, hi in runs[:-1]]
        assert runs[0][0] == 0 and runs[-1][1] == n
        assert all(lo < hi and lo % slab == 0 for lo, hi in runs)


class TestResamplingStatistics:
    def test_two_point_pool_enumerates_exactly(self):
        low, high = -0.1, 0.1
        spec = ScenarioSpec(draws_k=2, n_scenarios=200_000, seed=23)
        gross_low, gross_high = 1.0 + low, 1.0 + high
        outcomes = {
            gross_low * gross_low - 1.0: 0.25,
            gross_low * gross_high - 1.0: 0.50,
            gross_high * gross_high - 1.0: 0.25,
        }
        dist = generate_distribution(
            np.array([low, high]), spec, references=tuple(outcomes)
        )
        total_equal = 0
        for value, probability in outcomes.items():
            count = dist.references[value][1]
            total_equal += count
            sigma = np.sqrt(spec.n_scenarios * probability * (1 - probability))
            assert abs(count - spec.n_scenarios * probability) < 4 * sigma
        assert total_equal == spec.n_scenarios  # no scenario fell elsewhere

    def test_block_mode_only_yields_consecutive_runs(self):
        pool_values = np.array([0.01, 0.02, 0.03, 0.04])
        spec = ScenarioSpec(draws_k=2, n_scenarios=30_000, seed=7, mode="block")
        gross = 1.0 + pool_values
        run_products = [
            float(gross[i] * gross[i + 1]) - 1.0 for i in range(len(pool_values) - 1)
        ]
        dist = generate_distribution(pool_values, spec, references=run_products)
        counts = [dist.references[v][1] for v in run_products]
        assert sum(counts) == spec.n_scenarios
        for count in counts:  # uniform over the three admissible starts
            sigma = np.sqrt(spec.n_scenarios * (1 / 3) * (2 / 3))
            assert abs(count - spec.n_scenarios / 3) < 4 * sigma

    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_every_pool_day_equally_likely(self, mode):
        # One draw per scenario on 199 distinct days: each day's count is
        # binomial(n, 1/199).  A wrong modulus, a skewed mapping or draws
        # that never vary would push some count far outside 5 standard errors.
        pool_values = np.arange(1, 200) / 1000.0
        spec = ScenarioSpec(draws_k=1, n_scenarios=1_000_000, seed=53, mode=mode)
        outcomes = ((1.0 + pool_values) - 1.0).tolist()  # a one-day CAR, as compounded
        dist = generate_distribution(pool_values, spec, references=outcomes)
        counts = np.array([dist.references[v][1] for v in outcomes])
        assert counts.sum() == spec.n_scenarios
        p = 1 / pool_values.size
        sigma = np.sqrt(spec.n_scenarios * p * (1 - p))
        assert np.abs(counts - spec.n_scenarios * p).max() < 5 * sigma

    def test_every_unordered_pair_has_its_exact_probability(self):
        # One pair draw per scenario on 12 days whose 78 unordered pair
        # products are all distinct: cell {a, b} is binomial(n, 2/m**2) off
        # the diagonal and binomial(n, 1/m**2) on it.  A wrong pair mapping,
        # table layout or modulus would push some cell outside 5 SE.
        pool_values = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]) / 1000.0
        gross = 1.0 + pool_values
        m = gross.size
        cells = {
            float(gross[a] * gross[b]) - 1.0: (1 if a == b else 2) / m**2
            for a in range(m)
            for b in range(a, m)
        }
        assert len(cells) == m * (m + 1) // 2
        spec = ScenarioSpec(draws_k=2, n_scenarios=1_000_000, seed=67)
        dist = generate_distribution(pool_values, spec, references=tuple(cells))
        counts = {value: dist.references[value][1] for value in cells}
        assert sum(counts.values()) == spec.n_scenarios
        for value, p in cells.items():
            sigma = np.sqrt(spec.n_scenarios * p * (1 - p))
            assert abs(counts[value] - spec.n_scenarios * p) < 5 * sigma

    def test_iid_mean_matches_theory(self, pool):
        # E[1 + CAR] = (mean gross)^k for iid draws; check via histogram
        # midpoint approximation on a tight-variance pool.
        spec = ScenarioSpec(draws_k=3, n_scenarios=100_000, seed=31)
        dist = generate_distribution(pool, spec, histogram_bins=400)
        mids = (dist.histogram.edges[:-1] + dist.histogram.edges[1:]) / 2
        approx_mean = float((mids * dist.histogram.counts).sum() / dist.n)
        theory = float(np.mean(1.0 + pool) ** 3 - 1.0)
        assert approx_mean == pytest.approx(theory, abs=1e-3)


def exact_midrank_percentile(outcomes: np.ndarray, value: float) -> float:
    """Midrank percentile of ``value`` when every one of ``outcomes`` is equally likely."""
    below = np.count_nonzero(outcomes < value)
    equal = np.count_nonzero(outcomes == value)
    return 100.0 * (below + 0.5 * equal) / outcomes.size


class TestExactLaw:
    """Engine percentiles against the exact resampling law, found by enumeration.

    On a fixed 200-day Student-t(4) pool with gross returns ``g``, a
    scenario's CAR takes one of finitely many equally likely values.  In iid
    mode a 2-day CAR is one of the m**2 ordered pairs' ``fl(g[a] * g[b]) -
    1``, the float product the pair table holds.  In block mode a k-day CAR
    is one of the m - k + 1 start products, multiplied left to right as
    ``_window_cars`` builds its run table (Künsch 1989).  For references near
    each law's 10th, 50th and 90th percentile, the midrank percentile of 1M
    scenarios must lie within 4 binomial standard errors of the exact
    midrank percentile; the midrank's variance is at most the binomial
    ``p(1 - p)``.

    The multiply-shift mapping makes some indices likelier than others by a
    factor of at most ``1 + M / 2**32``: 1 + 9.3e-6 for a pair draw at m =
    200, so it moves a percentile by under 1e-3 points, far below the 0.03
    to 0.05 points of one standard error here.
    """

    N_SCENARIOS = 1_000_000

    @staticmethod
    def _pool() -> np.ndarray:
        return 0.01 * np.random.default_rng(2024).standard_t(4, 200)

    @staticmethod
    def _references(outcomes: np.ndarray) -> tuple[float, ...]:
        ranked = np.sort(outcomes)
        return tuple(float(ranked[int(q * ranked.size)]) for q in (0.1, 0.5, 0.9))

    def _assert_within_4_se(self, dist, outcomes, references) -> None:
        for value in references:
            exact = exact_midrank_percentile(outcomes, value)
            p = exact / 100.0
            se = 100.0 * np.sqrt(p * (1.0 - p) / self.N_SCENARIOS)
            assert abs(percentile_of(dist, value) - exact) < 4 * se, (value, exact)

    def test_iid_two_day_window_matches_all_ordered_pairs(self):
        pool_values = self._pool()
        gross = (1.0 + pool_values).tolist()
        outcomes = np.array([ga * gb for ga in gross for gb in gross]) - 1.0
        references = self._references(outcomes)
        spec = ScenarioSpec(draws_k=2, n_scenarios=self.N_SCENARIOS, seed=3301)
        dist = generate_distribution(pool_values, spec, references=references)
        self._assert_within_4_se(dist, outcomes, references)

    def test_iid_three_day_window_matches_all_ordered_triples(self):
        """On the pool's first m = 100 days, a 3-day CAR is one of the m**3 =
        1,000,000 ordered triples' ``fl(g[c] * fl(g[a] * g[b])) - 1``: the odd
        window multiplies the pair factor by ``g`` at the next pair's first day.

        The multiply-shift bias at m = 100 is at most 1 + 2.3e-6 per pair and
        1 + 2.3e-8 per single day, far below one standard error here.
        """
        pool_values = self._pool()[:100]
        gross = 1.0 + pool_values
        pair_table = np.multiply.outer(gross, gross).ravel()
        outcomes = np.multiply.outer(pair_table, gross).ravel() - 1.0
        references = self._references(outcomes)
        spec = ScenarioSpec(draws_k=3, n_scenarios=self.N_SCENARIOS, seed=3303)
        dist = generate_distribution(pool_values, spec, references=references)
        self._assert_within_4_se(dist, outcomes, references)

    def test_block_mode_matches_every_start_in_each_standard_window(self):
        pool_values = self._pool()
        gross = (1.0 + pool_values).tolist()
        laws = {}
        for k in (window.n_days for window in STANDARD_WINDOWS):
            products = []
            for start in range(len(gross) - k + 1):
                product = gross[start]
                for day in gross[start + 1 : start + k]:
                    product *= day
                products.append(product - 1.0)
            laws[k] = np.array(products)
        references = {k: self._references(law) for k, law in laws.items()}
        spec = ScenarioSpec(draws_k=12, n_scenarios=self.N_SCENARIOS, seed=3302, mode="block")
        dists = generate_distribution(pool_values, spec, references=references)
        for k, law in laws.items():
            self._assert_within_4_se(dists[k], law, references[k])


def multiset_law(gross: np.ndarray, days: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of a product of ``days`` iid uniform picks from ``gross``: one
    product per multiset of days, weighted by the number of ordered picks
    that give it (the weights sum to ``m**days``)."""
    products, weights = [], []
    for picks in combinations_with_replacement(range(gross.size), days):
        repeats = Counter(picks).values()
        weights.append(math.factorial(days) // math.prod(map(math.factorial, repeats)))
        products.append(math.prod(float(gross[i]) for i in picks))
    return np.array(products), np.array(weights, dtype=np.int64)


class TestExactLawMeetInTheMiddle:
    """iid's 5-, 7- and 12-day windows against their exact law, meeting in the middle.

    A ``k``-day iid scenario is ``k`` independent uniform picks from ``m``
    pool days, so its product splits into a left half of ``j`` days and an
    independent right half of ``k - j``.  With each half's law listed as
    weighted products (``multiset_law``), the number of the ``m**k`` ordered
    scenarios whose product lies below ``t`` is the sum over left products
    ``x`` of the weight of right products below ``t / x``: one
    ``searchsorted`` (Horowitz & Sahni 1974).  Small pools keep the lists
    short: m = 50 (2 + 3 days), m = 30 (3 + 4) and m = 12 (6 + 6).

    Two gaps separate this law from the engine's.  The multiply-shift
    mapping makes some pairs likelier by a factor of at most ``1 + m**2 /
    2**32`` (1 + 5.9e-7 at m = 50), far below one standard error.  And the
    halves multiply the days in another order than the engine, so products
    within a few ulps of the cut can fall on either side of it; a small
    pool's law has many such tied atoms, since reordered days give equal
    products.  So the exact midrank count is bracketed by the counts below
    ``t * (1 - 64 eps)`` and below ``t * (1 + 64 eps)``, far wider than the
    at most 11 + 12 roundings of either product; the bracket's width is the
    mass of the atoms at the cut.  The engine's midrank percentile of 1M
    scenarios must lie within 4 binomial standard errors of the bracket, and
    the bracket must be narrower than one standard error.

    The references are engine atoms: CARs of sampled scenarios compounded in
    the engine's order, near each law's 10th, 50th and 90th percentile, so
    the engine counts ties at each of them.
    """

    N_SCENARIOS = 1_000_000

    @pytest.mark.parametrize(
        "m,left,right,seed", [(50, 2, 3, 3305), (30, 3, 4, 3307), (12, 6, 6, 3312)],
        ids=["5-day", "7-day", "12-day"],
    )
    def test_percentiles_within_4_se_of_the_exact_law(self, m, left, right, seed):
        k = left + right
        pool_values = TestExactLaw._pool()[:m]
        gross = 1.0 + pool_values
        lefts, left_weights = multiset_law(gross, left)
        rights, right_weights = multiset_law(gross, right)
        assert left_weights.sum() == m**left and right_weights.sum() == m**right
        order = np.argsort(rights)
        rights = rights[order]
        weight_below = np.concatenate(([0], np.cumsum(right_weights[order])))

        def share_below(t: float) -> float:
            below = weight_below[np.searchsorted(rights, t / lefts)]
            return int(left_weights @ below) / m**k

        # Sampled scenarios in the engine's order: a running product of pair
        # factors, an odd window's last day multiplied in last.
        days = np.random.default_rng(seed).integers(0, m, size=(20_001, k))
        product = np.ones(days.shape[0])
        for c in range(k // 2):
            product = (gross[days[:, 2 * c]] * gross[days[:, 2 * c + 1]]) * product
        if k % 2:
            product = gross[days[:, -1]] * product
        ranked = np.sort(product - 1.0)
        references = tuple(float(ranked[int(q * ranked.size)]) for q in (0.1, 0.5, 0.9))

        spec = ScenarioSpec(draws_k=k, n_scenarios=self.N_SCENARIOS, seed=seed)
        dist = generate_distribution(pool_values, spec, references={k: references})[k]
        slack = 64 * np.finfo(np.float64).eps
        for value in references:
            t = 1.0 + value  # exact: the engine's product itself
            low = 100.0 * share_below(t * (1.0 - slack))
            high = 100.0 * share_below(t * (1.0 + slack))
            p = (low + high) / 200.0
            se = 100.0 * np.sqrt(p * (1.0 - p) / self.N_SCENARIOS)
            assert high - low < se, (value, low, high)
            assert low - 4 * se < percentile_of(dist, value) < high + 4 * se, (value, low, high)


class TestOverflowRefused:
    """A pool whose generated CARs overflow is refused in both modes, with no
    numpy warning, at any worker count.  27,000 scenarios span four slabs."""

    @staticmethod
    def refused(pool, spec: ScenarioSpec, workers: int) -> None:
        message = f"a {spec.draws_k}-day CAR drawn from this pool overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModelError, match=message):
                generate_distribution(pool, spec, references=[0.05], workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iid_overflowing_pair_table(self, workers):
        # (1e200)**2 overflows one pair of the 16, which 27,000 draws pick.
        spec = ScenarioSpec(draws_k=2, n_scenarios=27_000, seed=1)
        self.refused([1e200, 0.0, 0.01, -0.01], spec, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iid_overflowing_product_of_finite_pairs(self, workers):
        # Every pair is 1e200, finite; every product of two pairs overflows.
        spec = ScenarioSpec(draws_k=4, n_scenarios=27_000, seed=1)
        self.refused(np.full(3, 1e100), spec, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_overflowing_run_table(self, workers):
        # Every 4-day run of 1e100 days overflows its run table.
        spec = ScenarioSpec(draws_k=4, n_scenarios=27_000, seed=1, mode="block")
        self.refused(np.full(6, 1e100), spec, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "pool_values,draws_k,mode",
        [([1e200, 0.0, 0.01, -0.01], 2, "iid"), (np.full(3, 1e100), 4, "iid"),
         (np.full(6, 1e100), 4, "block")],
        ids=["pair-table", "product-of-pairs", "run-table"],
    )
    def test_binned_call_refused(self, pool_values, draws_k, mode, workers):
        # The bin range holds every CAR the pool can give, so its own check
        # refuses these pools before a slab is sorted.
        spec = ScenarioSpec(draws_k=draws_k, n_scenarios=27_000, seed=1, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModelError, match=f"{draws_k}-day CAR .* overflows"):
                generate_distribution(
                    pool_values, spec, references=[0.05], histogram_bins=10, workers=workers
                )


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty abnormal-return pool"):
            generate_distribution(np.array([]), ScenarioSpec(draws_k=2, n_scenarios=10))

    def test_total_loss_pool_rejected(self):
        with pytest.raises(ValueError, match="<= -1"):
            generate_distribution(np.array([0.01, -1.0]), ScenarioSpec(draws_k=2, n_scenarios=10))

    def test_block_pool_too_short(self):
        spec = ScenarioSpec(draws_k=5, n_scenarios=10, mode="block")
        with pytest.raises(ValueError, match="too short"):
            generate_distribution(np.array([0.01, 0.02]), spec)

    def test_block_pool_of_one_run_accepted(self):
        # The only run starts on the pool's first day, so every scenario
        # compounds the whole pool.
        pool_values = np.array([0.01, -0.02, 0.03, 0.005, -0.01])
        spec = ScenarioSpec(draws_k=5, n_scenarios=10, mode="block")
        dist = generate_distribution(pool_values, spec)
        assert dist.min_car == dist.max_car == pytest.approx(np.prod(1.0 + pool_values) - 1.0)

    def test_pool_past_the_exact_mapping_rejected(self):
        # The limit keeps the largest modulus, MAX_POOL_DAYS**2, well inside
        # the mapping's exact range; one day more is refused in either mode.
        for mode in ("iid", "block"):
            spec = ScenarioSpec(draws_k=1, n_scenarios=10, mode=mode)
            with pytest.raises(ValueError, match="513 days is longer than the 512-day limit"):
                generate_distribution(np.zeros(MAX_POOL_DAYS + 1), spec)

    @pytest.mark.parametrize("references", [{0: ()}, {3: (), 13: ()}, {}])
    def test_window_outside_the_scenario_rejected(self, references):
        spec = ScenarioSpec(draws_k=12, n_scenarios=10)
        with pytest.raises(ValueError, match="windows must be between 1 and 12 days"):
            generate_distribution(np.array([0.01, 0.02]), spec, references=references)

    @pytest.mark.parametrize(
        "n, min_car, max_car, references, match",
        [
            (0, 0.0, 0.0, {}, "n must be >= 1"),
            (10, 0.1, -0.1, {}, "exceeds max_car"),
            (10, float("nan"), 0.1, {}, "exceeds max_car"),
            (10, -0.1, 0.1, {0.0: (-1, 0)}, "impossible counts"),
            (10, -0.1, 0.1, {0.0: (11, 0)}, "impossible counts"),
            (10, -0.1, 0.1, {0.0: (6, 5)}, "impossible counts"),
        ],
        ids=["no-scenarios", "min-above-max", "nan-min", "negative-below", "below-past-n",
             "below-plus-equal-past-n"],
    )
    def test_inconsistent_summary_rejected(self, n, min_car, max_car, references, match):
        with pytest.raises(ValueError, match=match):
            ScenarioDistribution(n=n, min_car=min_car, max_car=max_car, references=references)

    @pytest.mark.parametrize("references", [(float("nan"),), {1: (0.0,), 2: (0.0, float("nan"))}])
    def test_nan_reference_rejected(self, references):
        # Registered, a NaN would count (0, 0) yet be found again only as
        # the same object: any other NaN is not equal to it.
        spec = ScenarioSpec(draws_k=2, n_scenarios=10)
        with pytest.raises(ValueError, match="reference value is NaN"):
            generate_distribution(np.array([0.01, 0.02]), spec, references=references)

    def test_infinite_references_are_counted(self):
        spec = ScenarioSpec(draws_k=2, n_scenarios=10)
        dist = generate_distribution(np.array([0.01, 0.02]), spec, references=(-np.inf, np.inf))
        assert (percentile_of(dist, -np.inf), percentile_of(dist, np.inf)) == (0.0, 100.0)

    def test_bad_worker_and_bin_counts(self):
        spec = ScenarioSpec(draws_k=2, n_scenarios=10)
        pool_values = np.array([0.01, 0.02])
        with pytest.raises(ValueError, match="workers"):
            generate_distribution(pool_values, spec, workers=0)
        with pytest.raises(ValueError, match="histogram_bins"):
            generate_distribution(pool_values, spec, histogram_bins=0)


class TestDistributionQueries:
    def test_reference_counts_and_extremes(self, pool):
        spec = ScenarioSpec(draws_k=2, n_scenarios=5_000, seed=3)
        ref = 0.001
        dist = generate_distribution(pool, spec, references=(ref,))
        below, equal = dist.references[ref]
        assert percentile_of(dist, ref) == 100.0 * (below + 0.5 * equal) / dist.n

    def test_unregistered_interior_value_raises(self, pool):
        spec = ScenarioSpec(draws_k=2, n_scenarios=5_000, seed=3)
        dist = generate_distribution(pool, spec)
        midpoint = (dist.min_car + dist.max_car) / 2
        with pytest.raises(KeyError, match="not registered"):
            percentile_of(dist, midpoint)
        for outside in (dist.min_car - 1e-9, dist.max_car + 1e-9):
            with pytest.raises(KeyError, match="not registered"):
                percentile_of(dist, outside)

    def test_constant_pool_collapses(self):
        spec = ScenarioSpec(draws_k=3, n_scenarios=1_000, seed=1)
        gross = 1.0 + 0.01
        only = gross * gross * gross - 1.0  # sequential, like the engine
        dist = generate_distribution(np.array([0.01, 0.01]), spec, references=(only,))
        assert dist.min_car == dist.max_car == only
        assert dist.references[only][1] == dist.n
        assert percentile_of(dist, only) == 50.0


class TestPercentile:
    def test_midrank_granularity(self, pool):
        spec = ScenarioSpec(draws_k=2, n_scenarios=5, seed=13)
        value = 0.0
        dist = generate_distribution(pool, spec, references=(value,))
        percentile = percentile_of(dist, value)
        # With n=5 the midrank moves in steps of 100/(2*5) = 10.
        assert percentile == pytest.approx(round(percentile / 10.0) * 10.0, abs=1e-12)

    def test_extremes(self, pool):
        spec = ScenarioSpec(draws_k=2, n_scenarios=1_000, seed=13)
        first = generate_distribution(pool, spec)
        low, high = first.min_car - 1.0, first.max_car + 1.0
        dist = generate_distribution(pool, spec, references=(low, high))
        assert percentile_of(dist, low) == 0.0
        assert percentile_of(dist, high) == 100.0

    def test_monotone_in_value(self, pool):
        spec = ScenarioSpec(draws_k=3, n_scenarios=20_000, seed=29)
        refs = tuple(np.linspace(-0.05, 0.05, 9))
        dist = generate_distribution(pool, spec, references=refs)
        percentiles = [percentile_of(dist, v) for v in refs]
        assert percentiles == sorted(percentiles)


def three_day_extremes(pool: np.ndarray) -> list[float]:
    """The 3-day iid CARs of the pool's lowest and highest day, in engine order:
    the odd window multiplies the pair factor ``g * g`` by ``g``."""
    return [g * (g * g) - 1.0 for g in (1.0 + pool.min(), 1.0 + pool.max())]


class TestHistogram:
    def test_counts_conserved_and_span_the_extreme_day_bracket(self, pool):
        spec = ScenarioSpec(draws_k=3, n_scenarios=20_000, seed=2)
        dist = generate_distribution(pool, spec, histogram_bins=17)
        hist = dist.histogram
        assert int(hist.counts.sum()) == spec.n_scenarios
        assert hist.counts.size == 17
        assert [hist.edges[0], hist.edges[-1]] == three_day_extremes(pool)
        assert hist.edges[0] < dist.min_car and dist.max_car < hist.edges[-1]

    def test_three_cluster_pool(self):
        spec = ScenarioSpec(draws_k=2, n_scenarios=10_000, seed=4)
        dist = generate_distribution(np.array([-0.1, 0.1]), spec, histogram_bins=50)
        assert int((dist.histogram.counts > 0).sum()) == 3
        assert int(dist.histogram.counts.sum()) == spec.n_scenarios

    def test_degenerate_single_bin(self):
        spec = ScenarioSpec(draws_k=1, n_scenarios=500, seed=4)
        dist = generate_distribution(np.array([0.02, 0.02, 0.02]), spec, histogram_bins=10)
        assert dist.histogram.counts.tolist() == [500]
        assert dist.histogram.edges.tolist() == [dist.min_car, dist.max_car]

    def test_one_bin_holds_every_scenario(self, pool):
        spec = ScenarioSpec(draws_k=3, n_scenarios=1_000, seed=2)
        dist = generate_distribution(pool, spec, histogram_bins=1)
        assert dist.histogram.counts.tolist() == [1_000]
        assert dist.histogram.edges.tolist() == three_day_extremes(pool)

    def test_histogram_validation(self):
        with pytest.raises(ValueError, match="edges"):
            Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([5]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_scenario_generated_once(self, pool, monkeypatch, workers):
        # The bracket reads two one-scenario pools of equal days; the
        # resampled pool's scenarios are generated once, counted and binned
        # in the same pass.
        calls = []
        engine = bootstrap._window_cars

        def recording(pool_gross, spec, windows, start, count):
            calls.append((np.ptp(pool_gross) == 0.0, start, count))
            return engine(pool_gross, spec, windows, start, count)

        monkeypatch.setattr(bootstrap, "_SLAB_ROWS", 34)
        monkeypatch.setattr(bootstrap, "_window_cars", recording)
        spec = ScenarioSpec(draws_k=12, n_scenarios=1_001, seed=8)
        generate_distribution(pool, spec, references={2: (), 12: ()}, histogram_bins=9,
                              workers=workers)
        assert [(start, count) for constant, start, count in calls if constant] == [(0, 1)] * 2
        runs = sorted((start, count) for constant, start, count in calls if not constant)
        assert len(runs) == workers
        assert sum(count for _, count in runs) == spec.n_scenarios
        assert all(a + n == b for (a, n), (b, _) in zip(runs, runs[1:]))

    @pytest.mark.usefixtures("small_slabs")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_counts_are_the_histogram_of_every_scenario(self, pool, mode, workers):
        # 1,001 scenarios fill no whole number of 34-row slabs.
        spec = ScenarioSpec(draws_k=12, n_scenarios=1_001, seed=19, mode=mode)
        expected = rederive_cars(pool, spec)
        windows = (2, 3, 5, 7, 12)
        dists = generate_distribution(
            pool, spec, references={k: () for k in windows}, histogram_bins=23, workers=workers
        )
        for k in windows:
            hist = dists[k].histogram
            assert hist.edges[0] <= dists[k].min_car and dists[k].max_car <= hist.edges[-1]
            assert np.array_equal(hist.counts, np.histogram(expected[:, k - 1], hist.edges)[0])
            assert int(hist.counts.sum()) == spec.n_scenarios

    def test_overflowing_bracket_refused(self, pool):
        # 1e30 compounded over 12 days overflows, though no drawn scenario
        # picks it that often: the counts are finite, a histogram range is not.
        extreme = np.append(pool, 1e30)
        spec = ScenarioSpec(draws_k=12, n_scenarios=1_000, seed=8)
        assert generate_distribution(extreme, spec).max_car < np.inf
        with pytest.raises(DegenerateModelError, match="largest 12-day CAR this pool can give"):
            generate_distribution(extreme, spec, histogram_bins=10)
        # In block mode only a run of such days can overflow.
        run = np.concatenate([pool, np.full(12, 1e30)])
        block = ScenarioSpec(draws_k=12, n_scenarios=1_000, seed=8, mode="block")
        with pytest.raises(DegenerateModelError, match="largest 12-day CAR this pool can give"):
            generate_distribution(run, block, histogram_bins=10)

    def test_range_a_few_ulps_wide_keeps_its_bins(self):
        # The two 4-day runs multiply the same four days in other orders, so
        # their CARs lie 2 ulps apart: too close for 7 distinct edges, which
        # np.histogram_bin_edges refuses to make.
        pool = np.array([-0.13516020448709248, 0.0, 0.25, 0.5, -0.13516020448709248])
        spec = ScenarioSpec(draws_k=4, n_scenarios=300, seed=0, mode="block")
        dist = generate_distribution(pool, spec, histogram_bins=7)
        edges = dist.histogram.edges
        assert edges.size == 8 and np.all(np.diff(edges) >= 0)
        assert [edges[0], edges[-1]] == [dist.min_car, dist.max_car]
        assert dist.min_car < dist.max_car
        assert int(dist.histogram.counts.sum()) == 300

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_block_range_is_the_run_tables_extremes(self, pool, k):
        # A block CAR is one of the m - k + 1 start products, multiplied left
        # to right, so the range is exactly theirs; 2,000 draws visit each of
        # a 30-day pool's starts, so the observed CARs reach both ends.
        gross = 1.0 + pool[:30]
        runs = gross[: gross.size - k + 1]
        for day in range(1, k):
            runs = runs * gross[day : day + runs.size]
        spec = ScenarioSpec(draws_k=12, n_scenarios=2_000, seed=3, mode="block")
        dist = generate_distribution(pool[:30], spec, references={k: ()}, histogram_bins=10)[k]
        ends = [dist.histogram.edges[0], dist.histogram.edges[-1]]
        assert ends == [runs.min() - 1.0, runs.max() - 1.0] == [dist.min_car, dist.max_car]

    @pytest.mark.parametrize("mode", ["iid", "block"])
    def test_edges_depend_only_on_pool_window_and_bins(self, pool, mode):
        windows = {k: () for k in (1, 2, 3, 5, 12)}
        runs = [
            generate_distribution(
                pool, ScenarioSpec(draws_k=12, n_scenarios=n, seed=seed, mode=mode),
                references=windows, histogram_bins=40, workers=workers,
            )
            for n, seed, workers in [(1, 0, 1), (9_000, 5, 1), (9_000, 6, 2), (20_000, 5, 3)]
        ]
        for k in windows:
            first = runs[0][k].histogram.edges
            assert first.size == 41
            for other in runs[1:]:
                assert np.array_equal(other[k].histogram.edges, first)


def assert_binned_matches(pool_values, spec: ScenarioSpec, bins: int, references=()) -> None:
    """A binned call's bin counts are ``np.histogram``'s of the oracle's CARs,
    and its counts and extremes are the compares' and those of a call without
    bins; ``references`` may name bin edges by index, as ``("edge", i)``."""
    expected = rederive_cars(pool_values, spec)[:, spec.draws_k - 1]
    edges = generate_distribution(
        pool_values, ScenarioSpec(draws_k=spec.draws_k, n_scenarios=1, mode=spec.mode),
        histogram_bins=bins,
    ).histogram.edges
    values = [edges[v[1]] if isinstance(v, tuple) else v for v in references]
    binned = generate_distribution(pool_values, spec, references=values, histogram_bins=bins)
    plain = generate_distribution(pool_values, spec, references=values)
    assert np.array_equal(binned.histogram.edges, edges)
    assert binned.histogram.counts.tolist() == np.histogram(expected, edges)[0].tolist()
    assert binned.references == plain.references
    assert (binned.min_car, binned.max_car) == (plain.min_car, plain.max_car)
    assert (binned.min_car, binned.max_car) == (expected.min(), expected.max())
    for value in values:
        assert binned.references[value][0] == int((expected < value).sum())
        assert binned.references[value][1] == int((expected == value).sum())


class TestBinnedReductions:
    """A binned slab is sorted and bisected; every figure must be what the
    compares and ``np.histogram`` give."""

    def test_references_on_bin_edges(self):
        # The outer edges are the lowest and highest CARs, each drawn about
        # 2,500 times; the inner ones fall between the three CARs.
        spec = ScenarioSpec(draws_k=2, n_scenarios=10_000, seed=23)
        assert_binned_matches(np.array([-0.1, 0.1]), spec, 4, [("edge", i) for i in range(5)])

    def test_block_references_on_bin_edges(self, pool):
        # 2,000 draws visit each of a 30-day pool's 26 starts, so both outer
        # edges are drawn CARs.
        spec = ScenarioSpec(draws_k=5, n_scenarios=2_000, seed=3, mode="block")
        assert_binned_matches(pool[:30], spec, 10, [("edge", i) for i in (0, 3, 10)])

    def test_two_point_pool_with_many_ties_at_the_reference(self):
        # Half the scenarios take the middle CAR fl(0.9 * 1.1) - 1.
        spec = ScenarioSpec(draws_k=2, n_scenarios=10_000, seed=24)
        middle = 0.9 * 1.1 - 1.0
        assert_binned_matches(np.array([-0.1, 0.1]), spec, 3, [middle, middle + 1e-17, -0.5])

    def test_constant_window_fills_its_one_closed_bin(self):
        spec = ScenarioSpec(draws_k=3, n_scenarios=999, seed=4)
        only = 1.02 * (1.02 * 1.02) - 1.0
        assert_binned_matches(np.full(3, 0.02), spec, 10, [only, ("edge", 0)])

    def test_range_a_few_ulps_wide_with_repeated_edges(self):
        # The two 4-day runs' CARs lie 2 ulps apart, so 7 bins repeat edges.
        pool_values = np.array([-0.13516020448709248, 0.0, 0.25, 0.5, -0.13516020448709248])
        spec = ScenarioSpec(draws_k=4, n_scenarios=301, seed=0, mode="block")
        assert_binned_matches(pool_values, spec, 7, [("edge", i) for i in range(8)])


class TestDeriveSeed:
    def test_stable_and_in_range(self):
        first = derive_seed(0, "acme@2014-05-02")
        assert first == derive_seed(0, "acme@2014-05-02")
        assert 0 <= first < 2**64

    def test_sensitive_to_every_component(self):
        base = derive_seed(0, "acme@2014-05-02")
        assert base != derive_seed(1, "acme@2014-05-02")
        assert base != derive_seed(0, "acme@2014-05-03")

    @settings(max_examples=1_000, deadline=None)
    @given(root_seed=st.integers(min_value=0, max_value=2**64 - 1), key=st.text())
    @example(root_seed=2**64 - 1, key="acme@2014-05-02")
    @example(root_seed=2**64 - 1, key="Société Générale@2014-05-02 — 東京 😀")
    def test_matches_its_definition(self, root_seed, key):
        # Fold each zero-padded 8-byte little-endian block b of the payload
        # as h = mix((h ^ b) + G), from h = the payload's unpadded length.
        payload = f"{root_seed}\x1f{key}".encode("utf-8")
        h = len(payload)
        for i in range(0, len(payload), 8):
            z = (h ^ int.from_bytes(payload[i : i + 8].ljust(8, b"\0"), "little"))
            z = (z + 0x9E3779B97F4A7C15) % 2**64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            h = z ^ (z >> 31)
        assert derive_seed(root_seed, key) == h

    def test_trailing_zero_byte_changes_the_seed(self):
        # Both payloads pad to the same block; only the start value, the
        # unpadded length, tells them apart.
        assert derive_seed(0, "a") != derive_seed(0, "a\x00")

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(2018, f"instrument{i}@2014-05-02") for i in range(100_000)}
        assert len(seeds) == 100_000


class TestPoolInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        raw_pool=st.lists(
            st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=2, max_size=30
        ),
        draws=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["iid", "block"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_cars_bounded_by_extreme_products(self, raw_pool, draws, mode, seed):
        pool_values = np.asarray(raw_pool)
        if mode == "block" and pool_values.size < draws:
            return
        spec = ScenarioSpec(draws_k=draws, n_scenarios=300, seed=seed, mode=mode)
        dist = generate_distribution(pool_values, spec, histogram_bins=7)
        # The histogram's bracket holds every CAR exactly: no slack.
        edges = dist.histogram.edges
        assert edges[0] <= dist.min_car and dist.max_car <= edges[-1]
        assert int(dist.histogram.counts.sum()) == spec.n_scenarios
        gross = 1.0 + pool_values
        lowest = float(min(gross.min() ** draws, gross.max() ** draws, 1e300))
        highest = float(gross.max() ** draws)
        assert dist.min_car > -1.0  # compounding positives never loses everything
        assert dist.min_car >= lowest - 1.0 - 1e-12
        assert dist.max_car <= highest - 1.0 + 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([3, 4])),
        lambda: ScenarioDistribution(
            n=7, min_car=0.0, max_car=2.0, references={1.0: (3, 1)},
            histogram=Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([3, 4])),
        ),
    ],
    ids=["Histogram", "ScenarioDistribution"],
)
def test_records_holding_arrays_compare_by_identity(make):
    # A generated __eq__ would compare the arrays and raise on their truth value.
    a, b = make(), make()
    assert (a == b) is False
    assert a == a
    hash(a)
