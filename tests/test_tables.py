import numpy as np
import pytest

from midist.errors import InputError, ZeroCellError
from midist.tables import (
    ContingencyTable,
    PosteriorCounts,
    PriorSpec,
    apply_prior,
    table_from_json,
)


class TestApplyPrior:
    def test_uniform_adds_one(self):
        pc = apply_prior(ContingencyTable([[1, 0], [0, 1]]), PriorSpec("uniform"))
        assert np.array_equal(pc.n, [[2, 1], [1, 2]])
        assert pc.n.sum() == 6

    def test_perks_adds_reciprocal_cells(self):
        pc = apply_prior(ContingencyTable([[40, 10], [20, 80]]), PriorSpec("perks"))
        assert np.allclose(pc.n, np.array([[40, 10], [20, 80]]) + 0.25)
        assert pc.n.sum() == pytest.approx(151.0)

    def test_haldane_rejects_zero_cells(self):
        with pytest.raises(ZeroCellError, match="zero-cell posterior"):
            apply_prior(ContingencyTable([[1, 0], [0, 1]]), PriorSpec("haldane"))

    def test_zero_weight_identity_on_positive_table(self):
        pc = apply_prior(ContingencyTable([[3, 1], [2, 4]]), PriorSpec("custom", 0.0))
        assert np.array_equal(pc.n, [[3, 1], [2, 4]])

    def test_jeffreys_weight(self):
        assert PriorSpec("jeffreys").cell_weight(3, 4) == 0.5

    def test_prior_validation(self):
        with pytest.raises(InputError):
            PriorSpec("flat")
        with pytest.raises(InputError):
            PriorSpec("custom", -1.0)
        with pytest.raises(InputError):
            PriorSpec("uniform", 2.0)


class TestPosteriorCountsValidation:
    def test_negative_cells_rejected(self):
        with pytest.raises(InputError):
            PosteriorCounts([[1, -1], [1, 1]])

    @pytest.mark.parametrize("grid", [[[1, 2], [3]], [["1", "2"]], [["a", "b"]]])
    def test_grid_read_as_contingency_table_counts_are(self, grid):
        with pytest.raises(InputError, match="posterior grid must be a regular array of numbers"):
            PosteriorCounts(grid)
        with pytest.raises(InputError, match="counts must be a regular array of numbers"):
            ContingencyTable(grid)


@pytest.mark.parametrize(
    "make, message",
    [(ContingencyTable, "counts must be an r x s grid"), (PosteriorCounts, "posterior grid must be an r x s array")],
    ids=["ContingencyTable", "PosteriorCounts"],
)
def test_one_dimensional_grid_rejected(make, message):
    with pytest.raises(InputError, match=message):
        make([1, 2, 3])


class TestTableValidation:
    def test_non_integral_counts_rejected(self):
        with pytest.raises(InputError, match="integral"):
            ContingencyTable([[1.5, 0], [0, 1]])

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            ContingencyTable(np.array([[1, -2], [0, 1]]))

    @pytest.mark.parametrize("big", [1e19, 2**63, 2.0**63])
    def test_counts_past_int64_rejected(self, big):
        with pytest.raises(InputError, match=r"below 2\*\*63"):
            ContingencyTable([[big, 1], [2, 3]])

    def test_largest_float_below_int64_limit_kept_exactly(self):
        t = ContingencyTable([[2.0**63 - 1024, 1], [2, 3]])
        assert t.counts[0, 0] == 2**63 - 1024

    def test_margin_length_checked(self):
        with pytest.raises(InputError, match="missing_class"):
            ContingencyTable([[1, 0], [0, 1]], missing_class=[1, 2, 3])

    def test_immutable(self):
        t = ContingencyTable([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            t.counts[0, 0] = 5


class TestJsonLiteral:
    def test_full_object(self):
        t = table_from_json(
            {
                "r": 2,
                "s": 2,
                "counts": [[1, 2], [3, 4]],
                "missing_class": [1, 0],
                "missing_feature": [0, 2],
            }
        )
        assert np.array_equal(t.counts, [[1, 2], [3, 4]])
        assert t.missing_class[0] == 1 and t.missing_feature[1] == 2

    def test_missing_vectors_default_to_zero(self):
        t = table_from_json({"r": 1, "s": 3, "counts": [[1, 2, 3]]})
        assert not t.has_missing()

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="shape"):
            table_from_json({"r": 2, "s": 2, "counts": [[1, 2, 3], [4, 5, 6]]})

    def test_missing_key(self):
        with pytest.raises(InputError, match="counts"):
            table_from_json({"r": 2, "s": 2})
