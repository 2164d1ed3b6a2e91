import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midist.core import empirical_mi
from midist.errors import InputError, UndefinedFillError
from midist.filters import FilterConfig, decide
from midist.missing import MissingMoments, missing_batch
from midist.moments import mi_moments
from midist.tables import ContingencyTable, PosteriorCounts, PriorSpec

# All worked examples are stated on the post-prior grid, so they are
# reproduced with a zero-weight prior on all-positive observed counts:
# ``first`` takes the counts as that grid, ``decide`` adds W0.
W0 = PriorSpec("custom", 0.0)


def kernel(grid, unlabeled) -> MissingMoments:
    """``missing_batch`` with every float error raised: ``decide_batch`` silences them, so a forgotten mask shows only here."""
    with np.errstate(all="raise"):
        return missing_batch(grid, unlabeled)


def first(grid, unlabeled=None) -> MissingMoments:
    """Row 0 of ``missing_batch`` on a stack of one grid; no unlabeled mass by default."""
    grid = np.asarray(grid, dtype=float)
    unlabeled = np.zeros(len(grid)) if unlabeled is None else np.asarray(unlabeled, dtype=float)
    mm = kernel(grid[None], unlabeled[None])
    return MissingMoments(*(getattr(mm, f.name)[0] for f in fields(MissingMoments)))


def transcribed_variance(counts, unlabeled):
    """Straight plain-loop transcription of the 1/N variance and its Qbar, kept
    deliberately independent of the package implementation."""
    r, s = len(counts), len(counts[0])
    row_sums = [sum(counts[i]) for i in range(r)]
    total = sum(row_sums) + sum(unlabeled)
    pi = [
        [
            (row_sums[i] + unlabeled[i]) / total * counts[i][j] / row_sums[i]
            if row_sums[i]
            else 0.0
            for j in range(s)
        ]
        for i in range(r)
    ]
    pi_rows = [sum(pi[i]) for i in range(r)]
    pi_cols = [sum(pi[i][j] for i in range(r)) for j in range(s)]
    rho = [
        [total * pi[i][j] ** 2 / counts[i][j] if counts[i][j] else 0.0 for j in range(s)]
        for i in range(r)
    ]
    rho_rows = [sum(rho[i]) for i in range(r)]
    k_bar = 0.0
    j_rows = [0.0] * r
    for i in range(r):
        for j in range(s):
            if pi[i][j] > 0:
                log_ratio = math.log(pi[i][j] / (pi_rows[i] * pi_cols[j]))
                k_bar += rho[i][j] * log_ratio**2
                j_rows[i] += rho[i][j] * log_ratio
    q_bar = j_bar = p_bar = 0.0
    for i in range(r):
        if unlabeled[i] > 0:
            rho_i = total * pi_rows[i] ** 2 / unlabeled[i]
            q_i = rho_i / (rho_i + rho_rows[i])
            p_bar += j_rows[i] ** 2 * q_i / rho_i
        else:
            q_i = 1.0
        q_bar += rho_rows[i] * q_i
        j_bar += j_rows[i] * q_i
    return (k_bar - j_bar**2 / q_bar - p_bar) / total, q_bar


def positive_counts(rng, r, s):
    return rng.integers(1, 25, size=(r, s)), rng.integers(0, 8, size=r)


def sparse_grids(rng, r, s):
    """Empty cells and empty rows under prior weight 0, 1/4 or 1; only rows with observed mass get unlabeled mass."""
    grid = rng.integers(0, 3, size=(r, s)) * rng.integers(0, 2, size=(r, 1)) + rng.choice([0.0, 0.25, 1.0])
    if not grid.any():
        grid[0, 0] = 1.0
    return grid, np.where(grid.sum(axis=1) > 0, rng.integers(0, 8, size=r), 0)


class TestFillEstimate:
    def test_spreads_unlabeled_mass_proportionally(self):
        pi = first([[1, 1], [1, 1]], [2, 0]).pi_hat
        assert np.allclose(pi, [[1 / 3, 1 / 3], [1 / 6, 1 / 6]], atol=1e-15)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_complete_case_gives_relative_frequencies(self):
        assert np.allclose(first([[8, 2], [4, 16]]).pi_hat, np.array([[8, 2], [4, 16]]) / 30.0)

    def test_diagonal(self):
        assert np.allclose(first([[4, 0], [0, 4]], [0, 0]).pi_hat, [[0.5, 0], [0, 0.5]])

    def test_unobserved_row_with_unlabeled_mass_rejected(self):
        with pytest.raises(UndefinedFillError, match="row 0"):
            first([[0, 0], [1, 1]], [3, 0])


class TestMeanMissing:
    def test_complete_case_equals_plugin_value(self):
        expected = empirical_mi(PosteriorCounts([[8, 2], [4, 16]]))
        assert first([[8, 2], [4, 16]]).mean == pytest.approx(expected, abs=1e-12)

    def test_rank_one_fill_is_zero(self):
        # the filled grid ((1/3,1/3),(1/6,1/6)) has proportional rows
        assert first([[1, 1], [1, 1]], [2, 0]).mean == 0.0


class TestVarianceMissing:
    def test_complete_case_reduction(self):
        mom = mi_moments(PosteriorCounts([[8, 2], [4, 16]]))
        mm = first([[8, 2], [4, 16]])
        assert mm.variance == pytest.approx((mom.k_term - mom.j_term**2) / 30.0, abs=1e-12)
        assert transcribed_variance([[8, 2], [4, 16]], [0, 0])[1] == pytest.approx(1.0, abs=1e-12)
        assert mm.p_bar == 0.0
        assert mm.k_bar == pytest.approx(mom.k_term, abs=1e-12)
        assert mm.j_bar == pytest.approx(mom.j_term, abs=1e-12)

    def test_rank_one_fill_gives_zero_variance(self):
        mm = first([[1, 1], [1, 1]], [2, 0])
        assert mm.k_bar == 0.0 and mm.j_bar == 0.0
        assert mm.variance == 0.0

    def test_against_plain_loop_transcription(self):
        mm = first([[8, 2], [4, 16]], [3, 5])
        assert mm.variance == pytest.approx(transcribed_variance([[8, 2], [4, 16]], [3, 5])[0], abs=1e-12)

    def test_randomised_against_transcription(self):
        for draw in (positive_counts, sparse_grids):
            rng = np.random.default_rng(17)
            for _ in range(40):
                counts, unlabeled = draw(rng, *rng.integers(2, 5, size=2))
                mm = first(counts, unlabeled)
                expected, q_bar = transcribed_variance(counts.tolist(), unlabeled.tolist())
                assert q_bar == pytest.approx(1.0, abs=1e-12)
                assert mm.variance == pytest.approx(max(0.0, expected), abs=1e-12)

    def test_rows_without_unlabeled_mass_add_nothing(self):
        mm = first([[3, 1], [2, 4]], [2, 0])
        assert mm.q_bar_i[1] == 1.0
        assert 0.0 < mm.q_bar_i[0] < 1.0
        pi = mm.pi_hat
        j_rows = (pi * np.log(pi / np.outer(pi.sum(axis=1), pi.sum(axis=0)))).sum(axis=1)
        # N = 12 and n_0+ = 4: row 0's term is all of Pbar
        assert mm.p_bar == pytest.approx(12 * (1 - mm.q_bar_i[0]) * j_rows[0] ** 2 / 4, rel=1e-12)

    def test_continuous_at_vanishing_unlabeled_mass(self):
        complete = first([[8, 2], [4, 16]])
        tiny = first([[8, 2], [4, 16]], [1e-9, 0.0])
        assert tiny.variance == pytest.approx(complete.variance, abs=1e-9)
        assert tiny.mean == pytest.approx(complete.mean, abs=1e-9)


class TestDispatch:
    # decide routes each table; the normal family fits every moment pair
    CFG = FilterConfig(family="normal", prior=W0)

    def test_feature_axis_routes_through_transpose(self):
        t = ContingencyTable([[8, 2], [4, 16]], missing_feature=[3, 5])
        direct = kernel(np.array([[[8.0, 2.0], [4.0, 16.0]]]).swapaxes(1, 2), [[3.0, 5.0]])
        routed = decide(t, self.CFG)
        assert routed.route == "missing_feature"
        assert routed.mean == direct.mean[0] and routed.variance == direct.variance[0]

    def test_both_margins_rejected(self):
        t = ContingencyTable([[1, 1], [1, 1]], missing_class=[1, 0], missing_feature=[0, 1])
        with pytest.raises(InputError):
            decide(t, self.CFG)

    def test_table_without_mass_rejected(self):
        with pytest.raises(InputError, match="no mass"):
            kernel(np.zeros((1, 2, 2)), np.zeros((1, 2)))

    def test_complete_table_allowed(self):
        assert decide(ContingencyTable([[3, 1], [2, 4]]), self.CFG).route == "complete"

    @pytest.mark.parametrize(
        "table, name",
        [
            (ContingencyTable([[1, 2], [3, 1], [0, 0]], missing_class=[0, 0, 2]), "feature value 2"),
            (ContingencyTable([[1, 2, 0], [3, 1, 0]], missing_feature=[0, 0, 2]), "class 2"),
        ],
        ids=["missing_class", "missing_feature"],
    )
    def test_fill_error_names_the_tables_own_axis(self, table, name):
        # the feature route fills the transposed table, whose rows are the classes
        with pytest.raises(UndefinedFillError, match=f"^{name} has partially observed instances"):
            decide(table, self.CFG)


@given(
    st.integers(2, 4).flatmap(
        lambda r: st.tuples(
            st.lists(
                st.lists(st.integers(1, 20), min_size=2, max_size=4),
                min_size=r,
                max_size=r,
            ).filter(lambda g: len({len(row) for row in g}) == 1),
            st.lists(st.integers(0, 6), min_size=r, max_size=r),
        )
    )
)
@settings(max_examples=60)
def test_q_bar_i_in_unit_interval(payload):
    counts, unlabeled = payload
    mm = first(counts, unlabeled)
    for q_i, u in zip(mm.q_bar_i, unlabeled):
        assert 0.0 < q_i <= 1.0
        if u == 0:
            assert q_i == 1.0
        else:
            assert q_i < 1.0
    assert mm.pi_hat.sum() == pytest.approx(1.0, abs=1e-12)


STACKS = (
    st.tuples(st.integers(1, 6), st.integers(2, 8), st.integers(2, 4)).flatmap(
        lambda shape: st.tuples(
            arrays(np.int64, shape, elements=st.integers(0, 20)),
            arrays(np.int64, shape[:2], elements=st.integers(0, 6)),
        )
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
)


def filled_stack(payload, weight):
    """The prior-augmented stack and its unlabeled mass, which only rows with observed mass keep."""
    counts, unlabeled = payload
    grid = counts + weight
    assume(np.all(grid.sum(axis=(1, 2)) > 0))
    return grid, np.where(grid.sum(axis=2) > 0, unlabeled, 0)


@given(*STACKS)
@settings(max_examples=100)
def test_batch_mean_is_the_plug_in_value_of_each_filled_grid(payload, weight):
    # missing_batch's split-log mean against empirical_mi's entropy form of the same plug-in value
    mm = kernel(*filled_stack(payload, weight))
    for b, mean in enumerate(mm.mean):
        assert abs(mean - empirical_mi(PosteriorCounts(mm.pi_hat[b]))) <= 1e-14


@given(*STACKS)
@settings(max_examples=100)
def test_variance_is_the_filled_grids_complete_case_term_plus_a_non_negative_correction(payload, weight):
    # N * variance = (K - J^2) + sum_i (1/Qbar_i - 1)(K_i - J_i^2 / pi_i+), and the filled grid sums to 1
    grid, unlabeled = filled_stack(payload, weight)
    mm = kernel(grid, unlabeled)
    total = grid.sum(axis=(1, 2)) + unlabeled.sum(axis=1)
    for b, variance in enumerate(mm.variance):
        assert total[b] * variance >= first(mm.pi_hat[b]).variance - 1e-14
