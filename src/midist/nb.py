"""Incremental naive Bayes with add-one smoothing on every estimate."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError

TIE_TOLERANCE = 1e-12  # relative; log-scores this close to the best are ties


def encode(instances, vocab_sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Validated (T, A) value indices of a list of instances, 0 where unobserved, and their observed mask."""
    width = len(vocab_sizes)
    for t, values in enumerate(instances):
        if len(values) != width:
            raise InputError(f"instance {t} has {len(values)} attributes, expected {width}")
        for kind in set(map(type, values)):  # numpy would parse "2" as 2; a per-row type set keeps this cheap
            if issubclass(kind, (str, bytes)):
                a = next(a for a, value in enumerate(values) if isinstance(value, kind))
                raise InputError(f"instance {t}: attribute {a}: value index {values[a]!r} is a string, not an integer")
    try:
        grid = np.array(instances, dtype=float).reshape(len(instances), width)  # None becomes NaN
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"value indices must be integers: {exc}") from None
    observed, integral = ~np.isnan(grid), grid == np.floor(grid)
    for t, a in np.argwhere(observed & ~(integral & (grid >= 0) & (grid < np.asarray(vocab_sizes))))[:1]:
        problem = f"outside vocabulary of size {vocab_sizes[a]}" if integral[t, a] else "is not an integer"
        raise InputError(f"instance {t}: attribute {a}: value index {instances[t][a]} {problem}")
    return np.where(observed, grid, 0.0).astype(np.int64), observed


def score_subsets(value_counts, class_counts, vocab_sizes, selected) -> tuple[np.ndarray, np.ndarray]:
    """Most probable class under each row of a (..., F, A) mask, from counts alone.

    ``value_counts`` (..., A, s) holds the class counts of the instance's value
    of each attribute, ``class_counts`` (..., s) the class counts.  Log-scores
    within ``TIE_TOLERANCE * max(1, |best|)`` of the best tie to the lowest
    class.  Returns (..., F) classes and (..., F, s) log-scores less the best.
    """
    s = class_counts.shape[-1]
    seen = class_counts.sum(axis=-1)
    # math.log, not np.log, whose last bit differs for some integers and could move a near tie
    log_seen = np.array([math.log(n + s) for n in seen.ravel().tolist()]).reshape(seen.shape)
    vocab = np.asarray(vocab_sizes, dtype=float)
    terms = np.log(value_counts + 1.0) - np.log(class_counts[..., None, :] + vocab[:, None])
    prior = np.log(class_counts + 1.0) - log_seen[..., None]
    log_scores = prior[..., None, :] + np.einsum("...fa,...as->...fs", selected, terms)
    best = log_scores.max(axis=-1, keepdims=True)
    tied = log_scores >= best - TIE_TOLERANCE * np.maximum(1.0, np.abs(best))
    return np.argmax(tied, axis=-1), log_scores - best


class NaiveBayesModel:
    """Categorical naive Bayes counts, learned from labelled instances in order.

    ``score_subsets`` scores from these counts with the smoothed
    posterior-mean estimates

        P(class j)            = (count_j + 1) / (seen + s)
        P(value v | class j)  = (count_vj + 1) / (count_j + vocab size)

    accumulated in log space, where seen is ``class_counts.sum()``.  Instance
    cells may be None (unobserved); ``absorb`` tallies no value for them,
    and ``score_subsets`` is given a mask that leaves them out.
    ``cond_counts[a, v, j]`` is attribute a's count_vj in one padded stack:
    rows past a's vocabulary stay zero.
    Updates are single-writer by contract; reads between updates are free.
    """

    def __init__(self, vocab_sizes: Sequence[int], class_count: int):
        if class_count < 1:
            raise InputError("class_count must be >= 1")
        if any(v < 1 for v in vocab_sizes):
            raise InputError("every attribute needs a vocabulary of size >= 1")
        self.vocab_sizes = [int(v) for v in vocab_sizes]
        self.class_count = int(class_count)
        self.class_counts = np.zeros(self.class_count, dtype=np.int64)
        shape = (len(self.vocab_sizes), max(self.vocab_sizes, default=1), self.class_count)
        self.cond_counts = np.zeros(shape, dtype=np.int64)

    def absorb(self, values, observed, classes) -> tuple[np.ndarray, np.ndarray]:
        """Absorb ``encode``d labelled instances in order; return the counts before each.

        (T, A, R, s) and (T, s): the model's counts plus an exclusive cumsum of one-hot instances.
        """
        for c in classes[(classes < 0) | (classes >= self.class_count)][:1]:
            raise InputError(f"class index {c} outside [0, {self.class_count})")
        t, a = np.nonzero(observed)
        onehot = np.zeros((len(classes), *self.cond_counts.shape), dtype=np.int64)
        onehot[t, a, values[t, a], classes[t]] = 1
        class_onehot = np.eye(self.class_count, dtype=np.int64)[classes]
        before = np.cumsum(onehot, axis=0) - onehot + self.cond_counts
        class_before = np.cumsum(class_onehot, axis=0) - class_onehot + self.class_counts
        self.cond_counts += onehot.sum(axis=0)
        self.class_counts += class_onehot.sum(axis=0)
        return before, class_before
