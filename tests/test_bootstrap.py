"""Scenario generation: determinism, oracle equivalence, streaming counts."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eventstudy import bootstrap
from eventstudy.bootstrap import (
    MAX_POOL_DAYS,
    Histogram,
    ScenarioDistribution,
    ScenarioSpec,
    _indices,
    _window_cars,
    cumulative_abnormal_return,
    derive_seed,
    generate_distribution,
    percentile_of,
)
from eventstudy.errors import DegenerateModelError
from eventstudy.inference import STANDARD_WINDOWS


def rederive_cars(pool: np.ndarray, spec: ScenarioSpec) -> np.ndarray:
    """Independent scalar re-derivation of every window of every scenario.

    Returns an ``(n_scenarios, draws_k)`` array whose column ``k - 1`` holds
    each scenario's ``k``-day CAR, the one window ``k`` reads.  Advances a
    fresh PCG64DXSM to the 64-bit word holding each scenario's first draw,
    splits the words into 32-bit draws with shifts and masks, maps each draw
    ``u`` below a modulus ``M`` as ``(u * M) >> 32`` in Python integers, and
    multiplies factors one by one — no runs, no slabs, no vectorised
    gather, no reinterpreted memory, no float index, no table.

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
        gen = np.random.PCG64DXSM(spec.seed)
        gen.advance(first // 2)
        words = [int(w) for w in gen.random_raw(-(-(skip + per_scenario) // 2))]
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
        assert dist.count_below(value) == int((cars < value).sum())
        assert dist.count_equal(value) == int((cars == value).sum())
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


class TestIndexMapping:
    @pytest.mark.parametrize("modulus", [1, 2, 3, 199, 200, 40_000, 512**2, 2**21])
    def test_float_form_is_the_exact_multiply_shift(self, modulus):
        # Index j starts at the cut point ceil(j * 2**32 / M); the float form
        # must land every cut point and the draw just below it on the same
        # side as the integer definition, and never reach M.
        if modulus <= 40_000:
            js = np.arange(1, modulus)
        else:
            js = np.random.default_rng(modulus).integers(1, modulus, size=20_000)
        cuts = [-(-(int(j) << 32) // modulus) for j in js]
        draws = sorted({0, 2**32 - 1, *cuts, *(c - 1 for c in cuts)})
        mapped = _indices(np.array(draws, dtype=np.uint32), modulus)
        assert mapped.tolist() == [(u * modulus) >> 32 for u in draws]
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
        draws = np.unique(draws[(draws >= 0) & (draws < 2**32)]).astype(np.uint32)
        assert np.array_equal(_indices(draws, m * m) // m, _indices(draws, m))


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
        assert dist_a.count_below(0.0) != dist_b.count_below(0.0)


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
            count = dist.count_equal(value)
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
        counts = [dist.count_equal(v) for v in run_products]
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
        counts = np.array([dist.count_equal(v) for v in outcomes])
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
        counts = {value: dist.count_equal(value) for value in cells}
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
        assert dist.count_below(ref) == below
        assert dist.count_equal(ref) == equal

    def test_unregistered_interior_value_raises(self, pool):
        spec = ScenarioSpec(draws_k=2, n_scenarios=5_000, seed=3)
        dist = generate_distribution(pool, spec)
        midpoint = (dist.min_car + dist.max_car) / 2
        with pytest.raises(KeyError, match="not registered"):
            dist.count_below(midpoint)
        for outside in (dist.min_car - 1e-9, dist.max_car + 1e-9):
            with pytest.raises(KeyError, match="not registered"):
                dist.count_below(outside)
            with pytest.raises(KeyError, match="not registered"):
                dist.count_equal(outside)

    def test_constant_pool_collapses(self):
        spec = ScenarioSpec(draws_k=3, n_scenarios=1_000, seed=1)
        gross = 1.0 + 0.01
        only = gross * gross * gross - 1.0  # sequential, like the engine
        dist = generate_distribution(np.array([0.01, 0.01]), spec, references=(only,))
        assert dist.min_car == dist.max_car == only
        assert dist.count_equal(only) == dist.n
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


class TestDeriveSeed:
    def test_stable_and_in_range(self):
        first = derive_seed(0, "acme@2014-05-02")
        assert first == derive_seed(0, "acme@2014-05-02")
        assert 0 <= first < 2**64

    def test_sensitive_to_every_component(self):
        base = derive_seed(0, "acme@2014-05-02")
        assert base != derive_seed(1, "acme@2014-05-02")
        assert base != derive_seed(0, "acme@2014-05-03")


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
