"""The benchmark's workloads: input pools, the timed op and its checks.

Every library call goes through the ``midist`` package namespace at call
time (``midist.run_incremental(...)``), never through names bound at
import, so the tracer's wrappers in ``tracer.py`` see each call.

A workload object builds its fixed pool of same-size inputs from the
workload seed.  ``op(item)`` is the timed operation, ``work(item)`` its
work units, ``check(item, out)`` the per-op correctness check, and
``final_check(item, out)`` a slower check run once per run, outside the
timed window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import midist

FILTERS = ("f", "ff", "bf")


def _pool_seeds(seed: int, size: int) -> list[int]:
    return [seed * size + j for j in range(size)]


def _tally(instances, vocab_sizes, class_count) -> list:
    """Tables of every attribute over ``instances``, tallied independently of the harness."""
    joint = [np.zeros((v, class_count), dtype=np.int64) for v in vocab_sizes]
    partial = [np.zeros(class_count, dtype=np.int64) for _ in vocab_sizes]
    for values, cls in instances:
        for a, v in enumerate(values):
            if v is None:
                partial[a][cls] += 1
            else:
                joint[a][v, cls] += 1
    return [midist.ContingencyTable(j, missing_feature=p) for j, p in zip(joint, partial)]


class _Incremental:
    """One op is a full classify-then-update pass over one prepared dataset."""

    pool_size = 64
    cfg: midist.FilterConfig
    pool: list

    def op(self, dataset):
        return midist.run_incremental(dataset, self.cfg)

    def work(self, dataset) -> int:
        return len(dataset) * len(dataset.attributes)

    def check(self, dataset, report) -> bool:
        """Counts per step lie in [0, attributes] and ff never keeps more than bf."""
        n, m = len(dataset), len(dataset.attributes)
        if report.instance_count != n:
            return False
        for f in FILTERS:
            run = report.runs[f]
            if len(run.selected_counts) != n or len(run.correct) != n:
                return False
            if min(run.selected_counts) < 0 or max(run.selected_counts) > m:
                return False
        ff, bf = report.runs["ff"].selected_counts, report.runs["bf"].selected_counts
        return all(a <= b for a, b in zip(ff, bf))

    def final_check(self, dataset, report) -> bool:
        """Replay with recorded sets; at fixed steps, re-decide from our own tallies."""
        replay = midist.run_incremental(dataset, self.cfg, record_selected=True)
        if any(replay.runs[f].selected_counts != report.runs[f].selected_counts for f in FILTERS):
            return False
        n = len(dataset)
        for step in sorted({n // 4, n // 2, 3 * n // 4, n - 1}):
            tables = _tally(dataset.instances[:step], dataset.vocab_sizes, dataset.class_count)
            decisions = [midist.decide(t, self.cfg, attribute=a) for a, t in enumerate(tables)]
            for f in FILTERS:
                expected = [a for a, d in enumerate(decisions) if getattr(d, f"keep_{f}")]
                if replay.runs[f].selected_sets[step] != expected:
                    return False
        return True


class IncrementalBinary(_Incremental):
    """40 binary attributes (5 informative, 35 noise) under the default filter settings."""

    instances = 24

    def __init__(self, seed: int, data_dir: Path):
        self.cfg = midist.FilterConfig()
        self.pool = [
            midist.prepare(
                midist.synthetic_dataset(self.instances, informative=5, noise=35, seed=k),
                seed=k,
            )
            for k in _pool_seeds(seed, self.pool_size)
        ]


class IncrementalMixed(_Incremental):
    """3 classes, 12 attributes of mixed vocabulary size, missing cells, Perks prior."""

    instances = 40
    pool_size = 256  # more than the ops of one run, so each op meets a new dataset
    classes = 3
    vocab_sizes = (2, 3, 4, 6, 8, 12, 2, 3, 4, 6, 8, 12)
    informative = (0, 1, 2, 3, 4, 5)
    with_missing = (0, 2, 4, 7, 9, 11)  # one attribute of each vocabulary size
    missing_rate = 0.05
    signal = 0.6

    def __init__(self, seed: int, data_dir: Path):
        # beta, and gamma after it, cannot fit the mean 0 that a partial-margin
        # table with independent counts gets, so family beta raises on this
        # data (README.md, "Known library defect"); normal decides every table
        self.cfg = midist.FilterConfig(prior=midist.PriorSpec("perks"), family="normal")
        data_dir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k in _pool_seeds(seed, self.pool_size):
            path = data_dir / f"mixed_{k}.csv"
            path.write_text(self._csv(np.random.default_rng(k)))
            self.pool.append(midist.prepare(midist.load_dataset(path), mode="keep_missing", seed=k))

    def _csv(self, rng: np.random.Generator) -> str:
        y = rng.integers(0, self.classes, size=self.instances)
        columns = []
        for a, v in enumerate(self.vocab_sizes):
            values = rng.integers(0, v, size=self.instances)
            if a in self.informative:
                band = max(1, v // self.classes)
                leaning = (y * v // self.classes + rng.integers(0, band, size=self.instances)) % v
                values = np.where(rng.random(self.instances) < self.signal, leaning, values)
            tokens = [f"v{x}" for x in values]
            if a in self.with_missing:
                tokens = [
                    "?" if gap else t
                    for t, gap in zip(tokens, rng.random(self.instances) < self.missing_rate)
                ]
            columns.append(tokens)
        header = ",".join([f"a{a}" for a in range(len(self.vocab_sizes))] + ["class"])
        rows = [",".join([col[i] for col in columns] + [f"c{y[i]}"]) for i in range(self.instances)]
        return "\n".join([header, *rows]) + "\n"


@dataclass(frozen=True)
class _Grid:
    """A posterior grid with its exact mean and the beta fit under test."""

    pc: midist.PosteriorCounts
    mean: float
    i_max: float
    beta: midist.DistApprox


class Sampler:
    """One op samples one 2x2 reference grid and one sparse 10x5 grid, with a KS test each."""

    draws = 1 << 14
    pool_size = 12
    sparse_count = 4
    sparse_total = 20
    reference = ([[40, 10], [20, 80]], [[20, 5], [10, 40]], [[8, 2], [4, 16]])

    def __init__(self, seed: int, data_dir: Path):
        rng = np.random.default_rng(seed)
        small = [self._grid(g) for g in self.reference]
        sparse = [
            self._grid(rng.multinomial(self.sparse_total, rng.dirichlet(np.ones(50))).reshape(10, 5))
            for _ in range(self.sparse_count)
        ]
        self.pool = [
            (small[j % len(small)], sparse[j % len(sparse)], k)
            for j, k in enumerate(_pool_seeds(seed, self.pool_size))
        ]

    @staticmethod
    def _grid(counts) -> _Grid:
        pc = midist.apply_prior(midist.ContingencyTable(counts), midist.PriorSpec())
        mom = midist.mi_moments(pc)
        i_max = midist.mi_upper_bound(pc.r, pc.s)
        return _Grid(pc, midist.mi_mean(pc), i_max, midist.fit("beta", mom.mean, mom.variance, i_max))

    def op(self, item):
        *grids, seed = item
        out = []
        for grid in grids:
            summary = midist.sample_mi(grid.pc, self.draws, seed)
            out.append((summary, midist.ks_distance(summary, grid.beta)))
        return out

    def work(self, item) -> int:
        return 2 * self.draws

    def check(self, item, out) -> bool:
        """MC mean within 5 standard errors of the exact mean, draws in range, KS in [0, 1]."""
        for grid, (summary, ks) in zip(item[:2], out):
            if summary.sample_count != self.draws:
                return False
            if abs(summary.mean - grid.mean) > 5.0 * summary.mean_std_error:
                return False
            if not (summary.samples[0] >= 0.0 and summary.samples[-1] <= grid.i_max):
                return False
            if not (math.isfinite(ks) and 0.0 <= ks <= 1.0):
                return False
        return True

    def final_check(self, item, out) -> bool:
        return True


WORKLOADS = {
    "incremental_binary": IncrementalBinary,
    "incremental_mixed": IncrementalMixed,
    "sampler": Sampler,
}
