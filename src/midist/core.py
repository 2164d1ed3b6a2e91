"""Pointwise information quantities, the information range and digamma.

Every logarithm in the package is natural; information values are in nats.
All functions here are pure and callable from any number of threads.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy import special

from .errors import InputError
from .tables import PosteriorCounts

EULER_GAMMA = 0.5772156649015329


def mi_upper_bound(r: int, s: int) -> float:
    """Sharp upper bound min(log r, log s); zero when either variable is constant."""
    if r < 1 or s < 1:
        raise InputError("cardinalities must be >= 1")
    return min(math.log(r), math.log(s))


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ``InputError`` unless ``value`` is a non-bool integer at or above ``minimum`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be a {'positive' if minimum else 'non-negative'} integer, got {value!r}")


def digamma(x):
    """Digamma psi(x) for x > 0, scalar or array, from ``scipy.special``."""
    if not np.all(np.asarray(x) > 0):
        raise InputError(f"digamma needs x > 0, got {x}")
    return special.digamma(x)


def ordered_sum(x, axis=0):
    """Sum over one axis of a batch-last stack, or over its cells with axis (0, 1), term by term in index order.

    numpy sums pairwise only along the fast axis, so a C-contiguous stack (a lone
    table beside its copy) takes numpy's reduction; others add slice by slice.
    """
    if axis == (0, 1):  # the cells, row by row
        x, axis = x.reshape(-1, *x.shape[2:]), 0
    if x.ndim > 1 and x.flags.c_contiguous:
        pair = x if x.shape[-1] > 1 else np.concatenate([x, x], axis=-1)
        return pair.sum(axis=axis)[..., : x.shape[-1]]
    return reduce(np.add, np.moveaxis(x, axis, 0))


def _information_terms(grid, rows, cols, total) -> np.ndarray:
    """Per-cell contributions to sum p*log(p / (p_row * p_col)).

    Empty cells contribute zero (the 0*log 0 convention).  Works for raw
    counts with their marginals as well as for chance grids with total 1,
    and for a (B, r, s) stack of grids with (B, r) and (B, s) marginals.
    The logarithms are split so that extreme cell magnitudes cannot
    underflow inside a product.
    """
    g = np.asarray(grid, dtype=float)
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    out = np.zeros_like(g)
    mask = g > 0
    if not mask.any():
        return out
    log_rows = np.zeros_like(rows)
    np.log(rows, out=log_rows, where=rows > 0)
    log_cols = np.zeros_like(cols)
    np.log(cols, out=log_cols, where=cols > 0)
    log_g = np.zeros_like(g)
    np.log(g, out=log_g, where=mask)
    ratio = log_g + math.log(total) - log_rows[..., :, None] - log_cols[..., None, :]
    out[mask] = g[mask] / total * ratio[mask]
    return out


def empirical_mi(pc: PosteriorCounts) -> float:
    """Plug-in mutual information of the grid's relative frequencies, in nats.

    Zero cells follow the 0*log 0 convention; the result is clamped at the
    exact lower bound 0 to absorb rounding on rank-1 grids.
    """
    if pc.total <= 0:
        raise InputError("empirical mutual information needs a positive total count")
    value = float(_information_terms(pc.n, pc.row_marginals, pc.col_marginals, pc.total).sum())
    return max(0.0, value)
