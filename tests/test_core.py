import ast
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import midist
from midist.core import empirical_mi, mi_upper_bound, ordered_sum
from midist.errors import InputError
from midist.tables import PosteriorCounts

# Plug-in value of the counts ((8,2),(4,16)); analytically 1.2*ln 2 - 0.6*ln 3.
J_8_2_4_16 = 0.1726092434710685


class TestDigamma:
    """The identities of scipy's digamma that the exact mean rests on, on every supported scipy."""

    def test_at_one_is_minus_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-13)

    def test_recurrence_step(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-13)

    def test_integer_values_match_harmonic_sums(self):
        # psi(m+1) = -gamma + H_m with H_m from exact rational arithmetic
        for m in (1, 2, 5, 10, 25):
            harmonic = float(sum(Fraction(1, k) for k in range(1, m + 1)))
            assert digamma(m + 1.0) == pytest.approx(-np.euler_gamma + harmonic, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 10.0, 1000.0])
    def test_recurrence_identity(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)


class TestUpperBound:
    def test_square_binary(self):
        assert mi_upper_bound(2, 2) == pytest.approx(math.log(2))

    def test_single_valued_variable(self):
        assert mi_upper_bound(1, 5) == 0.0

    def test_min_rule(self):
        assert mi_upper_bound(3, 4) == pytest.approx(math.log(3))

    def test_invalid(self):
        with pytest.raises(InputError):
            mi_upper_bound(0, 2)


class TestEmpiricalMi:
    def test_rank_one_is_zero(self):
        assert empirical_mi(PosteriorCounts([[2, 4], [3, 6]])) == 0.0

    def test_diagonal_is_log_two(self):
        value = empirical_mi(PosteriorCounts([[5, 0], [0, 5]]))
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_frozen_value(self):
        value = empirical_mi(PosteriorCounts([[8, 2], [4, 16]]))
        assert value == pytest.approx(J_8_2_4_16, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(InputError):
            empirical_mi(PosteriorCounts([[0.0, 0.0]]))

    @pytest.mark.parametrize("kind", ["integer", "prior", "rank_one", "extreme"])
    def test_agrees_with_a_50_digit_reference(self, kind):
        # ten seeded grids a kind; cells spanning 1e-300 to 1e300 cost split logarithms digits to cancellation
        rng = np.random.default_rng(["integer", "prior", "rank_one", "extreme"].index(kind))
        for _ in range(10):
            r, s = rng.integers(2, 7, size=2)
            grid = {
                "integer": lambda: rng.integers(0, 30, size=(r, s)).astype(float),
                "prior": lambda: rng.integers(0, 30, size=(r, s)) + rng.choice([0.5, 1.0, 1.0 / (r * s)]),
                "rank_one": lambda: np.outer(rng.integers(1, 10, size=r), rng.integers(0, 10, size=s)).astype(float),
                "extreme": lambda: 10.0 ** rng.uniform(-300, 300, size=(r, s)),
            }[kind]()
            assert abs(empirical_mi(PosteriorCounts(grid)) - decimal_mi(grid)) <= 4e-15

    def test_empty_cells_rows_and_columns_add_nothing(self):
        grid = [[3, 0, 0, 5], [0, 0, 0, 0], [2, 0, 4, 7]]
        trimmed = [[3, 0, 5], [2, 4, 7]]
        assert empirical_mi(PosteriorCounts(grid)) == empirical_mi(PosteriorCounts(trimmed))


def decimal_mi(grid) -> float:
    """The plug-in information of ``grid`` to 50 digits: Σ n ln(n N / (row col)) / N over the non-empty cells."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = [[Decimal(float(x)) for x in row] for row in grid]
        rows, cols = [sum(row) for row in n], [sum(col) for col in zip(*n)]
        total = sum(rows)
        terms = (x * (x * total / (rows[i] * cols[j])).ln() for i, row in enumerate(n) for j, x in enumerate(row) if x)
        return float(sum(terms) / total)


def posterior_grids():
    return (
        st.tuples(st.integers(1, 4), st.integers(1, 4))
        .flatmap(
            lambda rs: st.lists(
                st.lists(st.floats(0.0, 40.0), min_size=rs[1], max_size=rs[1]),
                min_size=rs[0],
                max_size=rs[0],
            )
        )
        .map(lambda g: np.asarray(g))
        .filter(lambda g: g.sum() > 1e-6)
    )


@given(posterior_grids())
@settings(max_examples=80)
def test_mi_invariant_under_transposition(grid):
    pc = PosteriorCounts(grid)
    assert empirical_mi(PosteriorCounts(pc.n.T)) == pytest.approx(empirical_mi(pc), abs=1e-12)


@given(posterior_grids(), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_mi_invariant_under_permutations(grid, rnd):
    rows = list(range(grid.shape[0]))
    cols = list(range(grid.shape[1]))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    pc = PosteriorCounts(grid)
    pp = PosteriorCounts(grid[np.ix_(rows, cols)])
    assert empirical_mi(pp) == pytest.approx(empirical_mi(pc), abs=1e-12)


@given(posterior_grids())
@settings(max_examples=80)
def test_mi_bounded_by_upper_bound(grid):
    pc = PosteriorCounts(grid)
    assert 0.0 <= empirical_mi(pc) <= mi_upper_bound(pc.r, pc.s) + 1e-12


@given(
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=4),
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=4),
)
@settings(max_examples=60)
def test_mi_zero_iff_rank_one(row_weights, col_weights):
    rows = np.asarray(row_weights)
    cols = np.asarray(col_weights)
    pc = PosteriorCounts(np.outer(rows, cols))
    assert empirical_mi(pc) <= 1e-12


@pytest.mark.parametrize("shape", [(9, 3, 1), (9, 3, 2), (12, 3, 7), (2, 2, 960), (40, 1, 5)])
def test_ordered_sum_adds_terms_in_index_order(shape):
    # the reference is the plain left-to-right loop; numpy's pairwise grouping would differ in the last bits
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * np.exp(4.0 * rng.standard_normal(shape))
    for axis, view in ((0, x), (1, x.transpose(1, 0, 2)), ((0, 1), x.reshape(-1, shape[-1]))):
        expected = view[0].copy()
        for term in view[1:]:
            expected = expected + term
        assert np.array_equal(ordered_sum(x, axis=axis), expected)
        assert np.array_equal(ordered_sum(np.asfortranarray(x), axis=axis), expected)


def special_calls_with_where(source: str) -> list[int]:
    """Lines of ``special.<name>(...)`` calls that pass ``where=``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value).rsplit(".", 1)[-1] == "special"
        and any(k.arg == "where" for k in node.keywords)
    ]


def test_no_scipy_special_call_passes_where():
    # scipy.special ufuncs given out= and a where= mask have corrupted the heap and aborted the
    # interpreter (scipy 1.17.1, numpy 2.4.6); np.log with the same mask is fine
    assert special_calls_with_where("special.digamma(x, out=y, where=m)\nscipy.special.gammaln(x, where=m)\n") == [1, 2]
    assert special_calls_with_where("np.log(x, out=y, where=m)\nspecial.digamma(x)\n") == []
    for path in sorted(Path(midist.__file__).parent.glob("*.py")):
        assert special_calls_with_where(path.read_text()) == [], path.name
