from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midist.errors import InputError
from midist.harness import Dataset
from midist.nb import absorb, score_subsets


class Tally(NamedTuple):
    """A classifier's vocabulary sizes and its two count arrays."""

    vocab_sizes: list[int]
    counts: np.ndarray  # (V, s), one row per (attribute, value) pair
    class_counts: np.ndarray  # (s)

    @property
    def offsets(self) -> np.ndarray:
        """Each attribute's first row in ``counts``."""
        return np.cumsum(self.vocab_sizes) - self.vocab_sizes

    def table(self, a: int) -> np.ndarray:
        """Attribute a's value-by-class table: its rows of ``counts``."""
        return self.counts[self.offsets[a] : self.offsets[a] + self.vocab_sizes[a]]


def empty(vocab_sizes, class_count) -> Tally:
    shape = (sum(vocab_sizes), class_count)
    return Tally(list(vocab_sizes), np.zeros(shape, dtype=np.int64), np.zeros(class_count, dtype=np.int64))


def indices(instance) -> np.ndarray:
    """One instance's value indices as a (1, A) row, -1 where the value is None."""
    return np.array([[-1 if v is None else v for v in instance]], dtype=np.int64)


def learn(model, instance, class_index):
    """Absorb one labelled instance."""
    values = indices(instance)
    absorb(model.counts, model.class_counts, np.where(values >= 0, values + model.offsets, -1), np.array([class_index]))


def classify(model, instance, selected):
    """Most probable class and the posterior, scoring only the ``selected`` attributes."""
    mask = [a in selected for a in range(len(model.vocab_sizes))]
    predicted, posteriors = classify_subsets(model, instance, [mask])
    return int(predicted[0]), posteriors[0]


def classify_subsets(model, instance, masks):
    """Most probable class and posterior under each row of an (F, attributes) mask."""
    values = indices(instance)[0]
    value_counts = model.counts[np.maximum(values, 0) + model.offsets]
    selected = np.asarray(masks, dtype=bool) & (values >= 0)
    predicted, log_scores = score_subsets(value_counts, model.class_counts, model.vocab_sizes, selected)
    weights = np.exp(log_scores)
    return predicted, weights / weights.sum(axis=1, keepdims=True)


def test_empty_model_gives_uniform_posterior_and_class_zero():
    model = empty([2, 3], 2)
    predicted, posterior = classify(model, [0, 1], [])
    assert predicted == 0
    assert np.allclose(posterior, [0.5, 0.5])


def test_hand_worked_single_attribute():
    # three (value 0, class 0) instances: prior 4/5 vs 1/5, likelihood of
    # value 0 is 4/5 vs 1/2, so the posterior for class 0 is 0.64/0.74
    model = empty([2], 2)
    for _ in range(3):
        learn(model, [0], 0)
    predicted, posterior = classify(model, [0], [0])
    assert predicted == 0
    assert posterior[0] == pytest.approx(0.64 / 0.74, abs=1e-12)


def test_empty_selection_uses_smoothed_class_frequencies_only():
    model = empty([2], 3)
    for cls in (0, 0, 1):
        learn(model, [0], cls)
    _, posterior = classify(model, [1], [])
    assert np.allclose(posterior, [3 / 6, 2 / 6, 1 / 6])


def test_update_counts_conserved():
    rng = np.random.default_rng(0)
    model = empty([3, 2], 4)
    for _ in range(100):
        learn(model, [int(rng.integers(3)), int(rng.integers(2))], int(rng.integers(4)))
    assert model.class_counts.sum() == 100
    assert model.counts.sum() == 200  # two attributes, every cell observed
    for a in range(2):
        assert np.array_equal(model.table(a).sum(axis=0), model.class_counts)


def test_posterior_positive_and_normalised():
    model = empty([4, 4], 3)
    learn(model, [0, 1], 2)
    _, posterior = classify(model, [3, 3], [0, 1])
    assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(posterior > 0)


def test_update_strictly_raises_own_class_posterior():
    rng = np.random.default_rng(9)
    model = empty([3, 2, 4], 3)
    for _ in range(50):
        instance = [int(rng.integers(v)) for v in (3, 2, 4)]
        cls = int(rng.integers(3))
        _, before = classify(model, instance, [0, 1, 2])
        learn(model, instance, cls)
        _, after = classify(model, instance, [0, 1, 2])
        assert after[cls] > before[cls]


def test_missing_cells_skipped():
    model = empty([2, 2], 2)
    learn(model, [0, None], 0)
    learn(model, [None, 1], 1)
    assert model.class_counts.tolist() == [1, 1]
    assert model.table(0).sum() == 1 and model.table(1).sum() == 1
    predicted, _ = classify(model, [None, None], [0, 1])
    assert predicted == 0  # falls back to the class prior, tie to low index


def dataset(vocab_sizes, class_count, values, classes) -> Dataset:
    """A dataset of ``values`` and ``classes``; building it checks every index that a tally reads."""
    return Dataset(
        [f"a{a}" for a in range(len(vocab_sizes))],
        [[str(v) for v in range(size)] for size in vocab_sizes],
        [f"c{j}" for j in range(class_count)],
        values,
        classes,
    )


def test_input_validation():
    # indices are checked once, when the dataset is built, not at each tally
    with pytest.raises(InputError, match="value index 5 outside vocabulary of size 2"):
        dataset([2], 2, [[5]], [0])
    with pytest.raises(InputError, match=r"expected \(N, 1\)"):
        dataset([2], 2, [[0, 1]], [0])
    with pytest.raises(InputError, match=r"class index 7 outside \[0, 2\)"):
        dataset([2], 2, [[0]], [7])


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50)
def test_order_insensitive_tallies(rows, rnd):
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    a = empty([2, 3], 2)
    b = empty([2, 3], 2)
    for v0, v1, cls in rows:
        learn(a, [v0, v1], cls)
    for v0, v1, cls in shuffled:
        learn(b, [v0, v1], cls)
    assert np.array_equal(a.class_counts, b.class_counts)
    assert all(np.array_equal(x, y) for x, y in zip(a.counts, b.counts))


def _exact_rational_argmax(model, instance, selected):
    s = len(model.class_counts)
    scores = []
    for j in range(s):
        score = Fraction(int(model.class_counts[j]) + 1, model.class_counts.sum() + s)
        for a in selected:
            v = instance[a]
            score *= Fraction(
                int(model.table(a)[v, j]) + 1,
                int(model.class_counts[j]) + model.vocab_sizes[a],
            )
        scores.append(score)
    best = max(scores)
    return scores.index(best)


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=0, max_size=12),
    st.tuples(st.integers(0, 1)),
)
@settings(max_examples=60)
def test_log_space_argmax_matches_exact_arithmetic(rows, query):
    model = empty([2], 2)
    for v, cls in rows:
        learn(model, [v], cls)
    predicted, _ = classify(model, [query[0]], [0])
    assert predicted == _exact_rational_argmax(model, [query[0]], [0])


def test_mathematically_equal_scores_tie_to_the_lowest_class():
    # class 0 scores 2/4 * 2/3 * 1/4 and class 1 scores 2/4 * 1/3 * 2/4: both
    # 1/12 from different terms, so their log sums may round either way
    model = empty([2, 3], 2)
    learn(model, [1, 1], 0)
    learn(model, [0, 0], 1)
    predicted, posterior = classify(model, [1, 0], [0, 1])
    assert predicted == _exact_rational_argmax(model, [1, 0], [0, 1]) == 0
    assert posterior == pytest.approx([0.5, 0.5], abs=1e-12)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 2)), max_size=25),
    st.lists(st.one_of(st.none(), st.integers(0, 1)), min_size=3, max_size=3),
    st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_subset_scoring_equals_predict_per_subset(rows, query, masks):
    # every mask row scores as it would alone
    model = empty([4, 2, 2], 3)
    for v0, v1, cls in rows:
        learn(model, [v0, v1, None if cls == 2 else v0 % 2], cls)
    predicted, posteriors = classify_subsets(model, query, masks)
    for mask, guess, posterior in zip(masks, predicted, posteriors):
        alone, expected = classify(model, query, [a for a, on in enumerate(mask) if on])
        assert guess == alone
        assert np.array_equal(posterior, expected)


@pytest.mark.parametrize("values", [[["2"]], [[0, 1], [-1, b"1"]], [[1, np.str_("0")]]], ids=["text", "bytes", "numpy_text"])
def test_text_cells_rejected_even_when_numeric(values):
    # numpy would parse "2" as 2; a text or bytes dtype is refused whole
    message = r"^value indices must be integers, -1 for a missing cell, got dtype [<|][US]\d+$"
    with pytest.raises(InputError, match=message):
        dataset([3, 3][: len(values[0])], 2, values, [0] * len(values))


@pytest.mark.parametrize("value", [object(), [0, 1], {0: 1}])
def test_non_numeric_value_rejected(value):
    with pytest.raises(InputError, match="value indices must be integers"):
        dataset([3, 3], 2, [[0, value]], [0])
