"""Plug-in mutual information, the information range and shared numeric helpers.

Every logarithm in the package is natural; information values are in nats.
All functions here are pure and callable from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError
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


def on_tables(sel, kernel, *args):
    """``kernel(*args)`` on the tables mask ``sel`` picks; a failed table's ``table`` index becomes its stack index."""
    try:
        return kernel(*args)
    except NumericalError as exc:
        if exc.table is not None:
            exc.table = int(np.flatnonzero(sel)[exc.table])
        raise


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


def xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, 0 at x = 0 (empty cells, underflowed chances): the log reads at least the smallest subnormal."""
    out = np.maximum(x, np.finfo(float).smallest_subnormal)
    np.log(out, out=out)
    return np.multiply(out, x, out=out)


def empirical_mi(pc: PosteriorCounts) -> float:
    """Plug-in mutual information of the grid's relative frequencies, in nats.

    The entropy form Σ p ln p - Σ row ln row - Σ col ln col, as the sampler
    computes it; zero cells follow the 0*log 0 convention, and the result is
    clamped at the exact lower bound 0 to absorb rounding on rank-1 grids.
    """
    total = pc.n.sum()
    if total <= 0:
        raise InputError("empirical mutual information needs a positive total count")
    p = pc.n / total
    return max(0.0, float(xlogx(p).sum() - xlogx(p.sum(axis=1)).sum() - xlogx(p.sum(axis=0)).sum()))
