import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midist.core import empirical_mi, mi_upper_bound
from midist.errors import ZeroCellError
from midist.moments import MiMoments, mi_mean, mi_moments, moments_batch
from midist.tables import PosteriorCounts, PriorSpec


def positive_grids():
    return (
        st.tuples(st.integers(1, 4), st.integers(1, 4))
        .flatmap(
            lambda rs: st.lists(
                st.lists(st.floats(0.1, 60.0), min_size=rs[1], max_size=rs[1]),
                min_size=rs[0],
                max_size=rs[0],
            )
        )
        .map(np.asarray)
    )


class TestMean:
    def test_degenerate_1x1_is_zero(self):
        assert mi_mean(PosteriorCounts([[9.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_all_ones_is_one_twelfth(self):
        # psi(2) - 2*psi(3) + psi(5) = 1/12 via the integer recurrence
        value = mi_mean(PosteriorCounts([[1, 1], [1, 1]]))
        assert value == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_zero_cell_rejected(self):
        with pytest.raises(ZeroCellError):
            mi_mean(PosteriorCounts([[1, 0], [1, 1]]))

    @given(positive_grids())
    @settings(max_examples=80)
    def test_mean_within_information_range(self, grid):
        pc = PosteriorCounts(grid)
        m = mi_mean(pc)
        assert -1e-12 <= m <= mi_upper_bound(pc.r, pc.s) + 1e-12


class TestVarianceIntermediates:
    def test_all_terms_vanish_on_1x1(self):
        mom = mi_moments(PosteriorCounts([[4.0]]))
        assert mom.variance == 0.0
        assert mom.k_term == mom.j_term == mom.m_term == mom.q_term == 0.0
        assert not mom.variance_clamped

    def test_all_ones_closed_form(self):
        # all log ratios vanish, so K = J = M = 0 and Q = 0; the second
        # term reduces to (1/2) / (5 * 6) = 1/60
        mom = mi_moments(PosteriorCounts([[1, 1], [1, 1]]))
        assert mom.k_term == 0.0 and mom.j_term == 0.0
        assert mom.m_term == pytest.approx(0.0, abs=1e-15)
        assert mom.q_term == pytest.approx(0.0, abs=1e-15)
        assert mom.variance == pytest.approx(1.0 / 60.0, abs=1e-14)

    def test_terms_against_plain_loop_transcription(self):
        grid = np.array([[41.0, 11.0], [21.0, 81.0]])
        rows = grid.sum(axis=1)
        cols = grid.sum(axis=0)
        n = grid.sum()
        k = j = m = q_sum = 0.0
        for i in range(2):
            for jx in range(2):
                ratio = math.log(grid[i, jx] * n / (rows[i] * cols[jx]))
                j += grid[i, jx] / n * ratio
                k += grid[i, jx] / n * ratio**2
                m += (1 / grid[i, jx] - 1 / rows[i] - 1 / cols[jx] + 1 / n) * grid[i, jx] * ratio
                q_sum += grid[i, jx] ** 2 / (rows[i] * cols[jx])
        mom = mi_moments(PosteriorCounts(grid))
        assert mom.j_term == pytest.approx(j, abs=1e-14)
        assert mom.k_term == pytest.approx(k, abs=1e-14)
        assert mom.m_term == pytest.approx(m, abs=1e-13)
        assert mom.q_term == pytest.approx(1.0 - q_sum, abs=1e-14)
        expected = (k - j * j) / (n + 1) + (m + (0.5 - j) - (1.0 - q_sum)) / ((n + 1) * (n + 2))
        assert mom.variance == pytest.approx(expected, abs=1e-15)

    def test_negative_raw_variance_clamps_and_flags(self):
        mom = mi_moments(PosteriorCounts([[10.0, 0.01], [0.01, 10.0]]))
        assert mom.variance == 0.0
        assert mom.variance_clamped

    @given(positive_grids())
    @settings(max_examples=80)
    def test_j_term_equals_empirical_mi(self, grid):
        pc = PosteriorCounts(grid)
        mom = mi_moments(pc)
        assert max(0.0, mom.j_term) == pytest.approx(empirical_mi(pc), abs=1e-12)

    @given(positive_grids())
    @settings(max_examples=80)
    def test_variance_non_negative(self, grid):
        assert mi_moments(PosteriorCounts(grid)).variance >= 0.0


@given(positive_grids())
@settings(max_examples=60)
def test_transposition_symmetry(grid):
    pc = PosteriorCounts(grid)
    a = mi_moments(pc)
    b = mi_moments(PosteriorCounts(pc.n.T))
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.variance == pytest.approx(b.variance, abs=1e-12)


@given(positive_grids(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_permutation_invariance(grid, rnd):
    rows = list(range(grid.shape[0]))
    cols = list(range(grid.shape[1]))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    a = mi_moments(PosteriorCounts(grid))
    b = mi_moments(PosteriorCounts(grid[np.ix_(rows, cols)]))
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.variance == pytest.approx(b.variance, abs=1e-12)


def test_leading_term_dominates_for_dependent_tables():
    # second term is O(n^-2), so for rs/n < 0.05 and clear dependence the
    # first term carries at least 80% of the variance
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        r, s = rng.integers(2, 4, size=2)
        base = rng.integers(1, 30, size=(r, s)).astype(float)
        pc = PosteriorCounts(base * rng.integers(5, 20) + 1.0)
        if r * s / pc.n.sum() >= 0.05:
            continue
        mom = mi_moments(pc)
        if mom.j_term < 0.05:
            continue
        leading = (mom.k_term - mom.j_term**2) / (pc.n.sum() + 1)
        assert abs(mom.variance - leading) / mom.variance < 0.2
        checked += 1


def test_concentration_with_growing_counts():
    # scaling the same composition concentrates the posterior: the mean
    # approaches the plug-in value and the variance shrinks, monotonically
    gaps, variances = [], []
    for c in (1, 4, 16, 64):
        pc = PosteriorCounts(c * np.array([[40.0, 10.0], [20.0, 80.0]]) + 1.0)
        mom = mi_moments(pc)
        gaps.append(abs(mom.mean - mom.j_term))
        variances.append(mom.variance)
    assert gaps == sorted(gaps, reverse=True)
    assert variances == sorted(variances, reverse=True)


@pytest.mark.parametrize("kind", ["uniform", "jeffreys", "haldane", "perks"])
@pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 5) for s in range(1, 4)])
def test_stack_of_one_shape_matches_each_grid_alone(kind, r, s):
    # bit for bit: every per-grid sum runs in index order, whatever the stack size
    rng = np.random.default_rng(10 * r + s)
    for size in range(1, 7):
        # Haldane adds nothing, so its counts start at 1 to keep every cell positive
        grids = rng.integers(kind == "haldane", 9, size=(size, r, s)) + PriorSpec(kind).cell_weight(r, s)
        stack = moments_batch(grids)
        for b, grid in enumerate(grids):
            alone = mi_moments(PosteriorCounts(grid))
            for f in fields(MiMoments):
                assert getattr(stack, f.name)[b] == getattr(alone, f.name), (f.name, size, b)
        grids[-1, -1, -1] = 0.0
        with pytest.raises(ZeroCellError):
            moments_batch(grids)
