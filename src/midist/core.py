"""Plug-in mutual information, the information range and shared numeric helpers.

Every logarithm in the package is natural; information values are in nats.
All functions here are pure and callable from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .tables import PosteriorCounts


def mi_upper_bound(r: int, s: int) -> float:
    """Sharp upper bound min(log r, log s); zero when either variable is constant."""
    if r < 1 or s < 1:
        raise InputError("cardinalities must be >= 1")
    return min(math.log(r), math.log(s))


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ``InputError`` unless ``value`` is a non-bool integer at or above ``minimum`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be a {'positive' if minimum else 'non-negative'} integer, got {value!r}")


def ordered_sum(x, axis=0):
    """Sum over one axis of a batch-last stack, or over its cells with axis (0, 1), term by term in index order.

    numpy sums pairwise only along the fast axis, so the stack is made C-ordered
    and a lone table is summed beside its copy: the reduced axis is then never the fast one.
    """
    x = np.ascontiguousarray(x)
    if axis == (0, 1):  # the cells, row by row
        x, axis = x.reshape(-1, *x.shape[2:]), 0
    pair = x if x.shape[-1] > 1 else np.concatenate([x, x], axis=-1)
    return pair.sum(axis=axis)[..., : x.shape[-1]]


def empirical_mi(pc: PosteriorCounts) -> float:
    """Plug-in mutual information of the grid's relative frequencies, in nats.

    Zero cells follow the 0*log 0 convention; the result is clamped at the
    exact lower bound 0 to absorb rounding on rank-1 grids.
    """
    if pc.total <= 0:
        raise InputError("empirical mutual information needs a positive total count")
    n, rows, cols = pc.n, pc.row_marginals, pc.col_marginals
    mask = n > 0
    # the logs are split so that extreme cell magnitudes cannot underflow inside a product
    ratio = np.log(n, out=np.zeros_like(n), where=mask) + math.log(pc.total)
    ratio -= np.log(rows, out=np.zeros_like(rows), where=rows > 0)[:, None]
    ratio -= np.log(cols, out=np.zeros_like(cols), where=cols > 0)
    return max(0.0, float(np.where(mask, n / pc.total * ratio, 0.0).sum()))
