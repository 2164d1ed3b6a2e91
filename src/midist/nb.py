"""Incremental naive Bayes with add-one smoothing, tallied in two int64 arrays.

(V, s) ``counts[offsets[a] + v, j]`` counts class j with value v of attribute a,
one row per (attribute, value) pair, where ``offsets`` is the exclusive cumsum
of the vocabulary sizes, and (s) ``class_counts[j]`` counts class j.  ``absorb``
advances both in place.
"""

from __future__ import annotations

import math

import numpy as np

TIE_TOLERANCE = 1e-12  # relative; log-scores this close to the best are ties


def score_subsets(value_counts, class_counts, vocab_sizes, selected) -> tuple[np.ndarray, np.ndarray]:
    """Most probable class under each row of a (..., F, A) mask, from counts alone.

    ``value_counts`` (..., A, s) holds the class counts of the instance's value
    of each attribute, ``class_counts`` (..., s) the class counts.  Scores sum
    the logs of the smoothed posterior-mean estimates, seen being ``class_counts.sum()``:

        P(class j)            = (count_j + 1) / (seen + s)
        P(value v | class j)  = (count_vj + 1) / (count_j + vocab size)

    The mask leaves out unobserved cells.  Log-scores within ``TIE_TOLERANCE * max(1, |best|)``
    of the best tie to the lowest class.  Returns (..., F) classes and (..., F, s) log-scores less the best.
    """
    s = class_counts.shape[-1]
    seen = class_counts.sum(axis=-1)
    # math.log, not np.log, whose last bit differs for some integers and could move a near tie
    log_seen = np.array([math.log(n + s) for n in seen.ravel().tolist()]).reshape(seen.shape)
    vocab = np.asarray(vocab_sizes, dtype=float)
    terms = np.log(value_counts + 1.0) - np.log(class_counts[..., None, :] + vocab[:, None])
    prior = np.log(class_counts + 1.0) - log_seen[..., None]
    log_scores = prior[..., None, :] + np.einsum("...fa,...as->...fs", selected.astype(float), terms)
    best = log_scores.max(axis=-1, keepdims=True)
    tied = log_scores >= best - TIE_TOLERANCE * np.maximum(1.0, np.abs(best))
    return np.argmax(tied, axis=-1), log_scores - best


def absorb(counts, class_counts, cells, classes) -> tuple[np.ndarray, np.ndarray]:
    """Add (T, A) tally rows, -1 where unobserved, of (T) labelled instances to the two tallies in place.

    Returns the tallies before each instance, (T, V, s) and (T, s): those on entry plus an exclusive cumsum.
    """
    t, a = np.nonzero(cells >= 0)
    onehot = np.zeros((len(classes), *counts.shape), dtype=np.int64)
    onehot[t, cells[t, a], classes[t]] = 1
    class_onehot = np.eye(len(class_counts), dtype=np.int64)[classes]
    before = np.cumsum(onehot, axis=0) - onehot + counts
    class_before = np.cumsum(class_onehot, axis=0) - class_onehot + class_counts
    counts += onehot.sum(axis=0)
    class_counts += class_onehot.sum(axis=0)
    return before, class_before
