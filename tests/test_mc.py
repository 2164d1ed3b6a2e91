import math
import multiprocessing
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import midist.mc as mc
from midist.dist import DistApprox, fit
from midist.errors import ConfigurationError, InputError, InsufficientDataError, ZeroCellError
from midist.mc import (
    CHUNK_DRAWS,
    KS_BLOCK,
    McSummary,
    _chance_draws,
    _chunk_rng,
    _information_of,
    ks_distance,
    sample_mi,
    tail_slope,
)
from midist.moments import mi_moments
from midist.tables import PosteriorCounts

UPPER = PosteriorCounts([[41.0, 11.0], [21.0, 81.0]])
ONES = PosteriorCounts(np.ones((2, 2)))


class TestSampleMi:
    def test_degenerate_1x1(self):
        s = sample_mi(PosteriorCounts([[5.0]]), 1000, seed=0)
        assert np.all(s.samples == 0.0)
        assert s.mean == 0.0 and s.variance == 0.0

    def test_mean_recovers_closed_form(self):
        s = sample_mi(ONES, 100_000, seed=13)
        assert abs(s.mean - 1.0 / 12.0) <= 3.0 * s.mean_std_error

    def test_samples_inside_support_and_sorted(self):
        s = sample_mi(UPPER, 50_000, seed=3)
        assert s.samples[0] >= 0.0 and s.samples[-1] <= s.i_max
        assert np.all(np.diff(s.samples) >= 0)

    def test_std_error_definition(self):
        s = sample_mi(UPPER, 10_000, seed=3)
        assert s.mean_std_error == pytest.approx(np.sqrt(s.variance / s.sample_count))

    def test_bit_identical_for_fixed_seed(self):
        a = sample_mi(UPPER, 70_000, seed=21)
        b = sample_mi(UPPER, 70_000, seed=21)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = sample_mi(UPPER, 5_000, seed=1)
        b = sample_mi(UPPER, 5_000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_two_seeds_agree_within_combined_error(self):
        a = sample_mi(ONES, 100_000, seed=1)
        b = sample_mi(ONES, 100_000, seed=2)
        combined = np.hypot(a.mean_std_error, b.mean_std_error)
        assert abs(a.mean - b.mean) <= 3.0 * combined

    def test_chunks_are_independent_substreams(self):
        # draws of chunk k depend only on (seed, k): a standalone re-draw
        # of chunk 1 reproduces the corresponding slice of the full run
        shapes = np.asarray(UPPER.n).reshape(-1)
        full_chunk0 = _chance_draws(shapes, CHUNK_DRAWS, _chunk_rng(9, 0))
        again = _chance_draws(shapes, CHUNK_DRAWS, _chunk_rng(9, 0))
        other = _chance_draws(shapes, CHUNK_DRAWS, _chunk_rng(9, 1))
        assert np.array_equal(full_chunk0, again)
        assert not np.array_equal(full_chunk0, other)

    def test_simplex_validity_and_posterior_mean_recovery(self):
        shapes = np.asarray(UPPER.n).reshape(-1)
        pi = _chance_draws(shapes, 50_000, _chunk_rng(5, 0))
        assert np.all(pi >= 0.0)
        assert np.max(np.abs(pi.sum(axis=1) - 1.0)) < 1e-12
        expected = shapes / shapes.sum()
        spread = np.sqrt(expected * (1 - expected) / (shapes.sum() + 1) / pi.shape[0])
        assert np.all(np.abs(pi.mean(axis=0) - expected) <= 4.0 * spread)

    def test_cross_checks_analytic_moments_on_3x4_grid(self):
        rng = np.random.default_rng(23)
        pc = PosteriorCounts(rng.integers(2, 40, size=(3, 4)) + 1.0)
        mom = mi_moments(pc)
        s = sample_mi(pc, 200_000, seed=23)
        assert abs(mom.mean - s.mean) <= 4.0 * s.mean_std_error
        assert abs(mom.variance - s.variance) / s.variance <= 0.1

    def test_zero_cell_rejected(self):
        with pytest.raises(ZeroCellError):
            sample_mi(PosteriorCounts([[1.0, 0.0], [1.0, 1.0]]), 100, seed=0)

    def test_sample_count_validation(self):
        with pytest.raises(InputError):
            sample_mi(ONES, 0, seed=0)
        with pytest.raises(ConfigurationError):
            sample_mi(ONES, mc.SAMPLE_BUDGET + 1, seed=0)

    @pytest.mark.parametrize("count", [1000.0, True, "10", None, -5])
    def test_sample_count_must_be_a_positive_integer(self, count):
        with pytest.raises(InputError, match="sample_count must be a positive integer"):
            sample_mi(ONES, count, seed=0)

    def test_numpy_integer_sample_count_is_stored_as_int(self):
        s = sample_mi(ONES, np.int64(50), seed=3)
        assert type(s.sample_count) is int and s.sample_count == 50
        assert np.array_equal(s.samples, sample_mi(ONES, 50, seed=3).samples)

    def test_all_tiny_shapes_give_no_nan_draw(self):
        # an empty 2x2 under a 0.001 prior: all four gammas of a normalised draw can underflow to 0
        s = sample_mi(PosteriorCounts(np.full((2, 2), 0.001)), 10_000, seed=1)
        assert not np.isnan(s.samples).any()
        assert math.isfinite(s.mean) and math.isfinite(s.variance)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            sample_mi(ONES, 100, seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        a = sample_mi(ONES, 100, seed=np.int64(5))
        assert np.array_equal(a.samples, sample_mi(ONES, 100, seed=5).samples)

    def test_histogram_mode_beyond_sorted_budget(self, monkeypatch):
        monkeypatch.setattr(mc, "SORTED_SAMPLE_LIMIT", 1000)
        s = sample_mi(ONES, 5_000, seed=4)
        assert s.samples is None and s.histogram is not None
        counts, edges = s.histogram
        assert counts.sum() == 5_000
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(s.i_max)
        reference = sample_mi(ONES, 5_000, seed=4)  # patched too, same path
        assert s.mean == reference.mean


def _grid(r, s, seed):
    rng = np.random.default_rng(seed)
    return PosteriorCounts(rng.integers(0, 6, size=(r, s)) + 1.0 / (r * s))


SHAPE_CASES = [np.asarray(UPPER.n).reshape(-1), np.linspace(0.01, 3.0, 12), 1.0 + (np.arange(50) % 7 == 0)]


class TestDraws:
    @pytest.mark.parametrize("shapes", SHAPE_CASES)
    def test_dirichlet_is_the_normalised_gamma_stream(self, shapes):
        # shapes below 1 take numpy's rejection sampler; the last is a sparse 10x5 grid of ones and twos
        gamma = _chunk_rng(4, 0).standard_gamma(shapes, size=(5000, shapes.size))
        got = _chance_draws(shapes, 5000, _chunk_rng(4, 0))
        assert np.max(np.abs(got - gamma / gamma.sum(axis=1, keepdims=True))) <= 4.4e-16


class TestBlocks:
    @pytest.mark.parametrize("shapes", [*SHAPE_CASES[:2], np.full(12, 0.05)])
    def test_blocks_continue_the_chunk_stream(self, monkeypatch, shapes):
        # 5000 draws a block split the chunk unevenly; shapes below 1
        # take numpy's rejection sampler, which uses a varying share of the stream,
        # and shapes all below 0.1 its stick-breaking path
        monkeypatch.setattr(mc, "BLOCK_CELLS", 5000 * shapes.size + shapes.size - 1)
        blocks = list(mc._chunk_blocks(shapes, CHUNK_DRAWS, _chunk_rng(9, 0)))
        assert [first for first, _ in blocks] == list(range(0, CHUNK_DRAWS, 5000))
        assert blocks[-1][1].shape == (CHUNK_DRAWS % 5000, shapes.size)
        whole = _chance_draws(shapes, CHUNK_DRAWS, _chunk_rng(9, 0))
        assert np.array_equal(np.vstack([pi for _, pi in blocks]), whole)

    @pytest.mark.parametrize("r, s", [(2, 2), (10, 5), (20, 10)])
    def test_block_size_moves_only_the_last_bits(self, monkeypatch, r, s):
        pc = _grid(r, s, seed=r * s)
        count = CHUNK_DRAWS + 7_000  # one full chunk and one partial chunk
        blocked = sample_mi(pc, count, seed=11)
        monkeypatch.setattr(mc, "BLOCK_CELLS", CHUNK_DRAWS * r * s)  # one block per chunk
        whole = sample_mi(pc, count, seed=11)
        assert np.max(np.abs(blocked.samples - whole.samples)) <= 1e-14
        assert blocked.mean == pytest.approx(whole.mean, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("sorted_limit", [mc.SORTED_SAMPLE_LIMIT, 1000])
    def test_no_block_exceeds_block_cells(self, monkeypatch, sorted_limit):
        monkeypatch.setattr(mc, "SORTED_SAMPLE_LIMIT", sorted_limit)  # 1000: the histogram path
        drawn = []

        def recording(shapes, count, rng):
            drawn.append((count, shapes.size))
            return _chance_draws(shapes, count, rng)

        monkeypatch.setattr(mc, "_chance_draws", recording)
        for r, s in [(2, 2), (10, 5), (20, 10)]:
            drawn.clear()
            sample_mi(_grid(r, s, seed=1), CHUNK_DRAWS + 5, seed=2)
            assert sum(count for count, _ in drawn) == CHUNK_DRAWS + 5
            assert max(count * cells for count, cells in drawn) <= mc.BLOCK_CELLS


def _summary_bytes(summary):
    stored = (summary.samples,) if summary.samples is not None else summary.histogram
    return summary.mean, summary.variance, *(a.tobytes() for a in stored)


def _sample_into(pipe, count):
    pipe.send(_summary_bytes(sample_mi(UPPER, count, seed=8)))
    pipe.close()


class _EagerPool(ThreadPoolExecutor):
    """Returns each task finished, so chunk results pile up as far as the in-flight window lets them."""

    def submit(self, *args, **kwargs):
        task = super().submit(*args, **kwargs)
        assert wait([task], timeout=60).done
        return task


class TestPool:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("r, s", [(2, 2), (10, 5), (20, 10)])
    def test_worker_count_leaves_the_bytes(self, monkeypatch, workers, r, s):
        pc = _grid(r, s, seed=r + s)
        count = 5 * CHUNK_DRAWS + 123
        default = sample_mi(pc, count, seed=4)
        monkeypatch.setattr(mc, "_workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so state shared between chunks would show
        try:
            assert _summary_bytes(sample_mi(pc, count, seed=4)) == _summary_bytes(default)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_leaves_the_histogram(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "SORTED_SAMPLE_LIMIT", 1000)
        count = 4 * 2 * max(workers, mc._workers()) * CHUNK_DRAWS + 5  # more chunks than the in-flight window
        default = sample_mi(ONES, count, seed=6)
        assert default.histogram is not None
        monkeypatch.setattr(mc, "_workers", lambda: workers)
        assert _summary_bytes(sample_mi(ONES, count, seed=6)) == _summary_bytes(default)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("sorted_limit", [mc.SORTED_SAMPLE_LIMIT, 1000])
    def test_at_most_two_chunks_per_worker_alive(self, monkeypatch, workers, sorted_limit):
        monkeypatch.setattr(mc, "SORTED_SAMPLE_LIMIT", sorted_limit)  # 1000: the histogram path
        monkeypatch.setattr(mc, "_workers", lambda: workers)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", _EagerPool)
        monkeypatch.setattr(mc, "_pool", None)  # restored afterwards: later tests get the real pool back
        lock, alive, peak = threading.Lock(), [0], [0]
        original = mc._chunk_information

        def released():
            with lock:
                alive[0] -= 1

        def counted(*args):
            values = original(*args)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(values, released)
            return values

        monkeypatch.setattr(mc, "_chunk_information", counted)
        sample_mi(ONES, 6 * 2 * workers * CHUNK_DRAWS, seed=2)
        assert 1 <= peak[0] <= 2 * workers
        assert alive[0] == 0

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_samples_like_its_parent(self):
        count = 3 * CHUNK_DRAWS
        parent = _summary_bytes(sample_mi(UPPER, count, seed=8))  # the parent's pool now exists
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_sample_into, args=(writer, count))
        child.start()
        writer.close()
        try:
            assert reader.poll(60), "the forked child's sample_mi did not return"
            assert reader.recv() == parent
            child.join(60)
            assert child.exitcode == 0
        finally:
            reader.close()
            if child.is_alive():
                child.kill()
                child.join(60)
            child.close()


def _information_xlogy(pi, r, s):
    """The per-draw information as Σ xlogy over cells, rows and columns."""
    p = pi.reshape(-1, r, s)
    rows = p.sum(axis=2)
    cols = p.sum(axis=1)
    joint = special.xlogy(p, p).sum(axis=(1, 2))
    return joint - special.xlogy(rows, rows).sum(axis=1) - special.xlogy(cols, cols).sum(axis=1)


class TestInformationKernel:
    @pytest.mark.parametrize(
        "r, s, shape",
        [(1, 1, 5.0), (2, 2, 1.0), (2, 2, 0.02), (3, 4, 2.5), (3, 4, 0.02), (10, 5, 0.4), (10, 5, 0.02)],
    )
    def test_matches_the_xlogy_formula(self, r, s, shape):
        shapes = np.full(r * s, shape)
        shapes[::3] += np.arange(shapes[::3].size)  # uneven shapes
        pi = _chance_draws(shapes, 4096, _chunk_rng(17, 0))
        got = _information_of(pi, r, s)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - _information_xlogy(pi, r, s))) <= 1e-14

    def test_exact_zeros_give_finite_values(self):
        pi = _chance_draws(np.full(12, 0.5), 64, _chunk_rng(3, 0))
        pi[0] = 0.0
        pi[0, 5] = 1.0  # all mass in one cell: I = 0
        pi[1, :4] = 0.0  # an empty row of the 3x4 grid
        pi[2, ::4] = 0.0  # an empty column
        pi[1:3] /= pi[1:3].sum(axis=1, keepdims=True)
        got = _information_of(pi, 3, 4)
        assert np.all(np.isfinite(got))
        assert got[0] == 0.0
        assert np.max(np.abs(got - _information_xlogy(pi, 3, 4))) <= 1e-14

    def test_underflowed_draws_stay_finite(self):
        # Perks on an empty 20x10 table: shapes of 1/200 underflow some gamma variates to exactly 0
        pi = _chance_draws(np.full(200, 1 / 200), 4096, _chunk_rng(1, 0))
        assert (pi == 0.0).any()
        got = _information_of(pi, 20, 10)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - _information_xlogy(pi, 20, 10))) <= 1e-14


class TestKsDistance:
    def test_point_mass_against_its_own_point_sample_set(self):
        s = sample_mi(PosteriorCounts([[5.0]]), 1000, seed=0)
        assert ks_distance(s, fit("beta", 0.0, 0.0, 0.0)) == 0.0

    def test_uniform_draws_against_flat_beta(self):
        rng = np.random.default_rng(99)
        u = np.sort(rng.random(1_000_000))
        s = McSummary(
            sample_count=u.size,
            mean=float(u.mean()),
            variance=float(u.var(ddof=1)),
            mean_std_error=float(u.std(ddof=1) / np.sqrt(u.size)),
            seed=99,
            i_max=1.0,
            samples=u,
        )
        assert ks_distance(s, fit("beta", 0.5, 1.0 / 12.0, 1.0)) <= 0.005

    def test_in_unit_interval(self):
        s = sample_mi(UPPER, 20_000, seed=6)
        mom = mi_moments(UPPER)
        for family in ("normal", "gamma", "beta"):
            d = fit(family, mom.mean, mom.variance, s.i_max)
            assert 0.0 <= ks_distance(s, d) <= 1.0

    @pytest.mark.parametrize("family", ["normal", "gamma", "beta"])
    def test_one_cdf_pass_equals_the_two_pass_formula(self, monkeypatch, family):
        s = sample_mi(UPPER, 20_000, seed=6)
        mom = mi_moments(UPPER)
        d = fit(family, mom.mean, mom.variance, s.i_max)
        x, n = s.samples, s.sample_count
        i = np.arange(1, n + 1)
        two_pass = float(max(0.0, (i / n - d.cdf(x)).max(), (d.cdf_left(x) - (i - 1) / n).max()))
        points = {"cdf": 0, "cdf_left": 0}

        def counted(name):
            original = getattr(DistApprox, name)

            def wrapper(self, x):
                points[name] += np.size(x)
                return original(self, x)

            return wrapper

        for name in points:
            monkeypatch.setattr(DistApprox, name, counted(name))
        assert ks_distance(s, d) == two_pass
        assert points["cdf"] < n / 4 and points["cdf_left"] == 0

    @given(
        family=st.sampled_from(["normal", "gamma", "beta", "point_mass"]),
        n=st.sampled_from([1, 2, KS_BLOCK - 1, KS_BLOCK, KS_BLOCK + 1, 20_000]),
        shape=st.sampled_from(["fit", "mirrored", "top"]),
        decimals=st.sampled_from([None, 2, 4]),
        ends=st.booleans(),
        mean=st.floats(0.05, 0.95),
        spread=st.floats(1e-3, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_pruned_pass_equals_the_full_pass(self, family, n, shape, decimals, ends, mean, spread, seed):
        # "fit" draws from the fitted law (many candidate blocks), "top" puts
        # nearly every draw at i_max (KS near 1); rounding makes ties and the
        # clip puts draws at exactly 0 and i_max, as in sample_mi
        i_max = math.log(2.0)
        m = mean * i_max
        variance = 0.0 if family == "point_mass" else spread * m * (i_max - m)
        d = fit("normal" if family == "point_mass" else family, m, variance, i_max)
        rng = np.random.default_rng(seed)
        if family == "gamma":
            x = rng.gamma(d.params["shape"], d.params["scale"], n)
        elif family == "beta":
            x = i_max * rng.beta(d.params["alpha"], d.params["beta"], n)
        else:
            x = rng.normal(m, math.sqrt(variance), n)
        if shape == "mirrored":
            x = i_max - x
        elif shape == "top":
            x[rng.random(n) < 0.99] = i_max
        if decimals is not None:
            x = np.round(x, decimals)
        if ends:
            x[: max(1, n // 10)] = 0.0
            x[-max(1, n // 10) :] = i_max
        x = np.sort(np.clip(x, 0.0, i_max))
        s = McSummary(n, float(x.mean()), 0.0, 0.0, seed, i_max, samples=x)
        i = np.arange(1, n + 1)
        full = float(max(0.0, (i / n - d.cdf(x)).max(), (d.cdf_left(x) - (i - 1) / n).max()))
        assert ks_distance(s, d) == full
        counts, edges = np.histogram(x, bins=np.linspace(0.0, i_max, 1001))
        h = McSummary(n, float(x.mean()), 0.0, 0.0, seed, i_max, histogram=(counts, edges))
        assert ks_distance(h, d) == np.abs(np.cumsum(counts) / n - d.cdf(edges[1:])).max()

    def test_histogram_fallback(self, monkeypatch):
        monkeypatch.setattr(mc, "SORTED_SAMPLE_LIMIT", 1000)
        s = sample_mi(UPPER, 20_000, seed=6)
        mom = mi_moments(UPPER)
        d = fit("beta", mom.mean, mom.variance, s.i_max)
        assert 0.0 <= ks_distance(s, d) <= 1.0


class TestTailSlope:
    def test_window_validation(self):
        s = sample_mi(ONES, 100_000, seed=1)
        with pytest.raises(InputError):
            tail_slope(s, "lower", (0.0, 0.1))
        with pytest.raises(InputError):
            tail_slope(s, "lower", (0.01, 0.5))
        with pytest.raises(InputError):
            tail_slope(s, "middle", (0.01, 0.1))

    @pytest.mark.parametrize("bins", [0, 1])
    def test_bins_below_two_rejected(self, bins):
        s = sample_mi(ONES, 100_000, seed=1)
        with pytest.raises(InputError, match="bins must be at least 2"):
            tail_slope(s, "lower", (0.001, 0.05), bins=bins)

    def test_needs_enough_draws(self):
        s = sample_mi(ONES, 10_000, seed=1)
        with pytest.raises(InsufficientDataError):
            tail_slope(s, "lower", (0.001, 0.05))

    def test_tiny_window_has_too_few_draws(self):
        s = sample_mi(ONES, 100_000, seed=1)
        with pytest.raises(InsufficientDataError):
            tail_slope(s, "lower", (0.0001, 0.0002))

    def test_binary_lower_tail_smoke(self):
        # loose smoke check at 1e5 draws; the pinned bands run at 1e6
        s = sample_mi(ONES, 100_000, seed=1)
        slope = tail_slope(s, "lower", (0.001, 0.05))
        assert -0.9 < slope < -0.1
