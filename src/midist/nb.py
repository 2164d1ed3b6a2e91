"""Incremental naive Bayes with add-one smoothing on every estimate."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

TIE_TOLERANCE = 1e-12  # relative; log-scores this close to the best are ties


class NaiveBayesModel:
    """Categorical naive Bayes learned one labelled instance at a time.

    Scoring uses the smoothed posterior-mean estimates

        P(class j)            = (count_j + 1) / (seen + s)
        P(value v | class j)  = (count_vj + 1) / (count_j + vocab size)

    accumulated in log space.  Instance cells may be None (unobserved);
    such cells are skipped both when predicting and when updating.
    ``cond_counts[a, v, j]`` is attribute a's count_vj in one padded stack:
    rows past a's vocabulary stay zero.  The logarithms the scores read are
    cached and ``update`` refreshes only the cells it changes.
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
        self._vocab = np.array(self.vocab_sizes, dtype=float)
        self._log_cond = np.zeros(shape)  # log(count_vj + 1)
        self._log_norm = np.log(self.class_counts + self._vocab[:, None])  # log(count_j + vocab size)
        self.seen = 0

    def missing_counts(self) -> np.ndarray:
        """(attributes, s) counts of the absorbed instances of each class that left the attribute unobserved."""
        return self.class_counts - self.cond_counts.sum(axis=1)

    def _check_instance(self, instance) -> None:
        if len(instance) != len(self.vocab_sizes):
            raise InputError(
                f"instance has {len(instance)} attributes, model expects {len(self.vocab_sizes)}"
            )
        for a, v in enumerate(instance):
            if v is None:
                continue
            if not 0 <= v < self.vocab_sizes[a]:
                raise InputError(
                    f"attribute {a}: value index {v} outside vocabulary of size {self.vocab_sizes[a]}"
                )

    def predict_subsets(self, instance, selected) -> tuple[np.ndarray, np.ndarray]:
        """Most probable class and posterior under each row of an (F, attributes) mask.

        Row f marks the attributes that contribute likelihood terms to the
        f-th prediction.  Classes whose log-scores lie within
        ``TIE_TOLERANCE * max(1, |best|)`` of the best are tied, and ties
        resolve to the lowest class index.  Returns (F,) classes and (F, s) posteriors.
        """
        self._check_instance(instance)
        selected = np.asarray(selected, dtype=bool)
        if selected.ndim != 2 or selected.shape[1] != len(self.vocab_sizes):
            raise InputError(f"selected must be an (F, {len(self.vocab_sizes)}) mask")
        observed = np.array([v is not None for v in instance], dtype=bool)
        values = np.array([v or 0 for v in instance], dtype=np.intp)
        terms = self._log_cond[np.arange(len(values)), values] - self._log_norm
        log_scores = np.log(self.class_counts + 1.0) - math.log(self.seen + self.class_count)
        log_scores = log_scores + np.where((selected & observed)[:, :, None], terms, 0.0).sum(axis=1)
        best = log_scores.max(axis=1, keepdims=True)
        tied = log_scores >= best - TIE_TOLERANCE * np.maximum(1.0, np.abs(best))
        weights = np.exp(log_scores - best)
        return np.argmax(tied, axis=1), weights / weights.sum(axis=1, keepdims=True)

    def predict(self, instance, selected: Iterable[int]) -> tuple[int, np.ndarray]:
        """Most probable class and the full posterior: ``predict_subsets`` with one subset.

        Only attributes in ``selected`` contribute likelihood terms; ties
        resolve to the lowest class index.
        """
        mask = np.zeros((1, len(self.vocab_sizes)), dtype=bool)
        for a in selected:
            if not 0 <= a < len(self.vocab_sizes):
                raise InputError(f"selected attribute {a} does not exist")
            mask[0, a] = True
        predicted, posterior = self.predict_subsets(instance, mask)
        return int(predicted[0]), posterior[0]

    def update(self, instance, class_index: int) -> None:
        """Absorb one labelled instance into the tallies and their cached logarithms."""
        self._check_instance(instance)
        if not 0 <= class_index < self.class_count:
            raise InputError(f"class index {class_index} outside [0, {self.class_count})")
        self.class_counts[class_index] += 1
        values = np.array([-1 if v is None else v for v in instance], dtype=np.intp)
        _, rows, s = self.cond_counts.shape
        cells = ((np.arange(len(values)) * rows + values) * s + class_index)[values >= 0]  # flat indices
        counts, logs = self.cond_counts.reshape(-1), self._log_cond.reshape(-1)  # views
        counts[cells] += 1
        logs[cells] = np.log(counts[cells] + 1.0)
        self._log_norm[:, class_index] = np.log(self.class_counts[class_index] + self._vocab)
        self.seen += 1
