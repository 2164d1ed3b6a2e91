from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midist.errors import InputError
from midist.nb import NaiveBayesModel


def test_empty_model_gives_uniform_posterior_and_class_zero():
    model = NaiveBayesModel([2, 3], 2)
    predicted, posterior = model.predict([0, 1], [])
    assert predicted == 0
    assert np.allclose(posterior, [0.5, 0.5])


def test_hand_worked_single_attribute():
    # three (value 0, class 0) instances: prior 4/5 vs 1/5, likelihood of
    # value 0 is 4/5 vs 1/2, so the posterior for class 0 is 0.64/0.74
    model = NaiveBayesModel([2], 2)
    for _ in range(3):
        model.update([0], 0)
    predicted, posterior = model.predict([0], [0])
    assert predicted == 0
    assert posterior[0] == pytest.approx(0.64 / 0.74, abs=1e-12)


def test_empty_selection_uses_smoothed_class_frequencies_only():
    model = NaiveBayesModel([2], 3)
    for cls in (0, 0, 1):
        model.update([0], cls)
    _, posterior = model.predict([1], [])
    assert np.allclose(posterior, [3 / 6, 2 / 6, 1 / 6])


def test_update_counts_conserved():
    rng = np.random.default_rng(0)
    model = NaiveBayesModel([3, 2], 4)
    for _ in range(100):
        model.update([int(rng.integers(3)), int(rng.integers(2))], int(rng.integers(4)))
    assert model.seen == 100
    assert model.class_counts.sum() == 100
    for a in range(2):
        assert np.array_equal(model.cond_counts[a].sum(axis=0), model.class_counts)


def test_posterior_positive_and_normalised():
    model = NaiveBayesModel([4, 4], 3)
    model.update([0, 1], 2)
    _, posterior = model.predict([3, 3], [0, 1])
    assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(posterior > 0)


def test_update_strictly_raises_own_class_posterior():
    rng = np.random.default_rng(9)
    model = NaiveBayesModel([3, 2, 4], 3)
    for _ in range(50):
        instance = [int(rng.integers(v)) for v in (3, 2, 4)]
        cls = int(rng.integers(3))
        _, before = model.predict(instance, [0, 1, 2])
        model.update(instance, cls)
        _, after = model.predict(instance, [0, 1, 2])
        assert after[cls] > before[cls]


def test_missing_cells_skipped():
    model = NaiveBayesModel([2, 2], 2)
    model.update([0, None], 0)
    model.update([None, 1], 1)
    assert model.class_counts.tolist() == [1, 1]
    assert model.cond_counts[0].sum() == 1 and model.cond_counts[1].sum() == 1
    predicted, _ = model.predict([None, None], [0, 1])
    assert predicted == 0  # falls back to the class prior, tie to low index


def test_input_validation():
    model = NaiveBayesModel([2], 2)
    with pytest.raises(InputError):
        model.predict([5], [0])
    with pytest.raises(InputError):
        model.predict([0, 1], [0])
    with pytest.raises(InputError):
        model.predict([0], [3])
    with pytest.raises(InputError):
        model.update([0], 7)


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
    a = NaiveBayesModel([2, 3], 2)
    b = NaiveBayesModel([2, 3], 2)
    for v0, v1, cls in rows:
        a.update([v0, v1], cls)
    for v0, v1, cls in shuffled:
        b.update([v0, v1], cls)
    assert np.array_equal(a.class_counts, b.class_counts)
    assert all(np.array_equal(x, y) for x, y in zip(a.cond_counts, b.cond_counts))


def _exact_rational_argmax(model, instance, selected):
    s = model.class_count
    scores = []
    for j in range(s):
        score = Fraction(int(model.class_counts[j]) + 1, model.seen + s)
        for a in selected:
            v = instance[a]
            score *= Fraction(
                int(model.cond_counts[a][v, j]) + 1,
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
    model = NaiveBayesModel([2], 2)
    for v, cls in rows:
        model.update([v], cls)
    predicted, _ = model.predict([query[0]], [0])
    assert predicted == _exact_rational_argmax(model, [query[0]], [0])


def test_mathematically_equal_scores_tie_to_the_lowest_class():
    # class 0 scores 2/4 * 2/3 * 1/4 and class 1 scores 2/4 * 1/3 * 2/4: both
    # 1/12 from different terms, so their log sums may round either way
    model = NaiveBayesModel([2, 3], 2)
    model.update([1, 1], 0)
    model.update([0, 0], 1)
    predicted, posterior = model.predict([1, 0], [0, 1])
    assert predicted == _exact_rational_argmax(model, [1, 0], [0, 1]) == 0
    assert posterior == pytest.approx([0.5, 0.5], abs=1e-12)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 2)), max_size=25),
    st.lists(st.one_of(st.none(), st.integers(0, 1)), min_size=3, max_size=3),
    st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_subset_scoring_equals_predict_per_subset(rows, query, masks):
    model = NaiveBayesModel([4, 2, 2], 3)
    for v0, v1, cls in rows:
        model.update([v0, v1, None if cls == 2 else v0 % 2], cls)
    predicted, posteriors = model.predict_subsets(query, masks)
    for mask, guess, posterior in zip(masks, predicted, posteriors):
        alone, expected = model.predict(query, [a for a, on in enumerate(mask) if on])
        assert guess == alone
        assert np.array_equal(posterior, expected)


def test_subset_mask_shape_checked():
    model = NaiveBayesModel([2, 2], 2)
    with pytest.raises(InputError):
        model.predict_subsets([0, 1], [[True]])
