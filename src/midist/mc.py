"""Monte Carlo ground truth for the information posterior.

Chance matrices are drawn from the Dirichlet posterior with
``Generator.dirichlet`` (shape = posterior count) and the information value
is evaluated exactly on each draw.  While some shape is at least 0.1 numpy
normalises one unit-scale gamma per cell, the ``standard_gamma`` stream;
when all are below 0.1 it breaks sticks, which cannot end in 0/0.  Every
chunk of CHUNK_DRAWS draws owns its own seed-derived substream, so results
are bit-identical for a given seed, chunk size and block size.  Chunks run
concurrently, one task each, on a thread pool with one worker per CPU the
process may use (there is no option); numpy releases the GIL inside the
draws.  The main thread places each chunk's values by its index, so the
worker count and the finishing order change no value.  At most two chunks
per worker are in flight.  Each chunk is drawn in consecutive blocks of at
most BLOCK_CELLS cells, each reduced to information values before the next,
so the working set does not grow with the grid; the blocks continue one
generator's stream, so they hold the whole chunk's draws and only the
margin product's last bits depend on them.
The information kernel takes each draw's margins from one product with a
0/1 indicator matrix; that changes only the order of its sums, never a draw.
``ks_distance`` skips every block of KS_BLOCK draws whose monotone bound on
the gap stays KS_SLACK below the best gap found, so its value is the full pass's;
a point mass's gap comes from two binary searches for its atom.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .core import check_integer, mi_upper_bound, xlogx
from .dist import DistApprox
from .errors import ConfigurationError, InputError, InsufficientDataError, ZeroCellError
from .tables import PosteriorCounts

CHUNK_DRAWS = 1 << 13  # draws per substream, and per task of the pool
BLOCK_CELLS = 1 << 15  # cells per block of draws (256 KiB per float64 temporary), chosen from timings
SORTED_SAMPLE_LIMIT = 10_000_000
HISTOGRAM_BINS = 10_000
SAMPLE_BUDGET = 1_000_000_000
KS_BLOCK = 32  # CDF stride of ks_distance's pruned pass, chosen from timings at 16k-1e6 draws
KS_SLACK = 1e-9  # covers last-bit non-monotonicity of ndtr, gammainc and betainc


@dataclass(frozen=True, eq=False)
class McSummary:
    """Summary of posterior draws of the information value.

    Draws are stored sorted while the count stays within
    SORTED_SAMPLE_LIMIT; beyond that a fixed-width histogram on
    [0, i_max] stands in.
    """

    sample_count: int
    mean: float
    variance: float
    mean_std_error: float
    seed: int
    i_max: float
    samples: np.ndarray | None = None
    histogram: tuple[np.ndarray, np.ndarray] | None = None  # (counts, edges)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _chance_draws(shapes: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Dirichlet simplex points: the ``standard_gamma`` stream unless every shape is below 0.1."""
    return rng.dirichlet(shapes, size=count)


def _chunk_blocks(shapes: np.ndarray, count: int, rng: np.random.Generator):
    """Yield (first row, draws) over one chunk's ``count`` draws, at most BLOCK_CELLS cells a block.

    A draw wider than BLOCK_CELLS cells makes a block of its own.
    """
    rows = max(1, BLOCK_CELLS // shapes.size)
    for first in range(0, count, rows):
        yield first, _chance_draws(shapes, min(rows, count - first), rng)


@lru_cache(maxsize=16)
def _margin_indicator(r: int, s: int) -> np.ndarray:
    """The 0/1 (r s, r + s) matrix that maps cell (i, j) to row margin i and column margin r + j."""
    return np.hstack([np.kron(np.eye(r), np.ones((s, 1))), np.tile(np.eye(s), (r, 1))])


def _information_of(pi: np.ndarray, r: int, s: int) -> np.ndarray:
    """Σ p ln p - Σ row ln row - Σ col ln col per draw, all r + s margins from one product."""
    return xlogx(pi) @ np.ones(r * s) - xlogx(pi @ _margin_indicator(r, s)) @ np.ones(r + s)


def _chunk_information(pc: PosteriorCounts, seed: int, index: int, count: int, upper: float) -> np.ndarray:
    """Chunk ``index``'s ``count`` information values, clipped to [0, upper], block by block from its substream."""
    shapes = np.asarray(pc.n, dtype=float).reshape(-1)
    values = np.empty(count)
    for first, pi in _chunk_blocks(shapes, count, _chunk_rng(seed, index)):
        values[first : first + len(pi)] = _information_of(pi, pc.r, pc.s)
    return np.clip(values, 0.0, upper, out=values)


_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor() -> tuple[ThreadPoolExecutor, int]:
    """The process's chunk pool and its worker count, made on first use.

    The pool is keyed on the process id, since a forked child inherits the
    parent's pool object but none of its threads, and on the worker count.
    """
    global _pool
    key = (os.getpid(), _workers())
    if _pool is None or _pool[0] != key:
        _pool = (key, ThreadPoolExecutor(key[1], thread_name_prefix="midist-mc"))
    return _pool[1], key[1]


def _chunk_values(pc: PosteriorCounts, sample_count: int, seed: int, upper: float):
    """Yield (first draw index, clipped information values) per chunk, in chunk order.

    Chunks run on the pool; at most two per worker are in flight, the one
    being consumed included, so the memory held does not grow with the count.
    """
    pool, workers = _executor()
    starts = range(0, sample_count, CHUNK_DRAWS)
    tasks = (
        pool.submit(_chunk_information, pc, seed, k, min(CHUNK_DRAWS, sample_count - start), upper)
        for k, start in enumerate(starts)
    )
    pending = deque(islice(tasks, 2 * workers - 1))
    try:
        for start in starts:
            yield start, pending.popleft().result()
            pending.extend(islice(tasks, 1))
    finally:
        for task in pending:
            task.cancel()


def sample_mi(pc: PosteriorCounts, sample_count: int, seed: int) -> McSummary:
    """Draw chance matrices from the posterior and summarise their information."""
    if np.any(pc.n <= 0):
        raise ZeroCellError("sampling needs every posterior cell positive")
    check_integer("sample_count", sample_count, 1)
    if sample_count > SAMPLE_BUDGET:
        raise ConfigurationError(f"sample_count {sample_count} exceeds the storage budget {SAMPLE_BUDGET}")
    check_integer("seed", seed, 0)
    upper = mi_upper_bound(pc.r, pc.s)
    chunks = _chunk_values(pc, sample_count, seed, upper)
    samples = histogram = None
    if sample_count <= SORTED_SAMPLE_LIMIT:
        samples = np.empty(sample_count)
        for start, values in chunks:
            samples[start : start + len(values)] = values
        mean = float(samples.mean())
        variance = float(samples.var(ddof=1)) if sample_count > 1 else 0.0
        samples.sort()
        samples.setflags(write=False)
    else:
        edges = np.linspace(0.0, upper if upper > 0 else 1.0, HISTOGRAM_BINS + 1)
        counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
        total = total_sq = 0.0
        for _, values in chunks:
            counts += np.histogram(values, bins=edges)[0]
            total += float(values.sum())
            total_sq += float((values**2).sum())
        mean = total / sample_count
        variance = max(0.0, (total_sq - total**2 / sample_count) / (sample_count - 1))
        histogram = (counts, edges)
    return McSummary(
        sample_count=int(sample_count),
        mean=mean,
        variance=variance,
        mean_std_error=math.sqrt(variance / sample_count),
        seed=seed,
        i_max=upper,
        samples=samples,
        histogram=histogram,
    )


def _sup_gap(x: np.ndarray, steps, cdf) -> float:
    """max(0, upper - F(x), F(x) - lower) over sorted x, with nondecreasing ``steps(j) = (upper, lower)``."""
    at = np.append(np.arange(0, x.size - 1, KS_BLOCK), x.size - 1)
    f, (upper, lower) = cdf(x[at]), steps(at)
    best = max(0.0, (upper - f).max(), (f - lower).max())
    bound = np.maximum(upper[1:] - f[:-1], f[1:] - lower[:-1])  # bounds every gap inside the block
    at = np.minimum(at[:-1][bound >= best - KS_SLACK, None] + np.arange(1, KS_BLOCK), x.size - 1).ravel()
    f, (upper, lower) = cdf(x[at]), steps(at)
    return float(max(best, (upper - f).max(initial=0.0), (f - lower).max(initial=0.0)))


def ks_distance(summary: McSummary, d: DistApprox) -> float:
    """Sup gap between the draws' empirical CDF and a fitted CDF.

    F is evaluated at every KS_BLOCK-th point first.  F and the ECDF steps
    U_j = (j + 1)/n, L_j = j/n are monotone, so no gap inside the block
    between evaluated points a < b exceeds max(U_b - F(x_a), F(x_b) - L_a);
    blocks whose bound stays KS_SLACK (far above F's last-bit error) below
    the best gap are skipped, and the value is the full pass's, bit for bit.
    A point mass at c steps from 0 to 1 there: with ``below`` draws under c
    and ``upto`` at or under it, the gap is max(0, below/n, 1 - upto/n).
    Histogram summaries take the gap at bin edges, which understates the
    true distance by at most one bin's mass.
    """
    n = summary.sample_count
    if summary.samples is None:
        counts, edges = summary.histogram
        ecdf = np.cumsum(counts) / n
        return _sup_gap(edges[1:], lambda j: (ecdf[j], ecdf[j]), d.cdf)
    if d.family != "point_mass":
        return _sup_gap(summary.samples, lambda j: ((j + 1) / n, j / n), d.cdf)
    below, upto = (np.searchsorted(summary.samples, d.params["location"], side) for side in ("left", "right"))
    return float(max(0.0, below / n, 1.0 - upto / n))


def tail_slope(summary: McSummary, side: str, window: tuple[float, float], bins: int = 25) -> float:
    """Log-log density slope against the distance to a support boundary.

    ``window`` is a (low, high) quantile range taken from the chosen tail,
    with high at most 0.2.  The density comes from a log-spaced histogram
    of the in-window draws; the slope is its least-squares fit.
    """
    if bins < 2:
        raise InputError(f"bins must be at least 2, got {bins}")
    if side not in ("lower", "upper"):
        raise InputError(f"side must be 'lower' or 'upper', got {side!r}")
    lo, hi = window
    if not (0.0 < lo < hi <= 0.2):
        raise InputError("window must satisfy 0 < low < high <= 0.2")
    if summary.samples is None:
        raise InputError("tail estimation needs stored samples, not a histogram summary")
    n = summary.sample_count
    if n < 100_000:
        raise InsufficientDataError("tail estimation needs at least 1e5 draws")
    if side == "lower":
        dist = summary.samples[int(lo * n) : int(hi * n)]
    else:
        dist = (summary.i_max - summary.samples[::-1])[int(lo * n) : int(hi * n)]
    dist = dist[dist > 0]
    if dist.size < 1000:
        raise InsufficientDataError(f"only {dist.size} draws inside the window")
    edges = np.geomspace(dist.min(), dist.max(), bins + 1)
    counts, edges = np.histogram(dist, bins=edges)
    widths = np.diff(edges)
    mids = np.sqrt(edges[:-1] * edges[1:])
    good = counts > 0
    density = counts[good] / (n * widths[good])
    return float(np.polyfit(np.log(mids[good]), np.log(density), 1)[0])
