"""Leading-order information moments for partially observed pairs.

Some instances observe the feature but not the class.  With unlabeled
counts u_i on top of the prior-augmented joint grid n_ij (row sums n_i+,
grand total N = sum n_ij + sum u_i), each row's unlabeled mass is spread
over the row's observed class frequencies:

    pi_ij = (n_i+ + u_i) / N * n_ij / n_i+

The plug-in information of that grid, summed with split logarithms, is the
leading-order mean, and the leading 1/N variance is

    variance = (Kbar - Jbar^2 / Qbar - Pbar) / N

built from

    rho_ij   = N * pi_ij^2 / n_ij          (0 where n_ij = 0)
    rho_i    = N * pi_i+^2 / u_i           (inf sentinel where u_i = 0)
    Qbar_i   = rho_i / (rho_i + sum_j rho_ij)      (1 at the sentinel)
    Qbar     = sum_i (sum_j rho_ij) * Qbar_i
    Kbar     = sum_ij rho_ij * log(pi_ij / (pi_i+ pi_+j))^2
    Jbar_i   = sum_j  rho_ij * log(pi_ij / (pi_i+ pi_+j))
    Jbar     = sum_i Jbar_i * Qbar_i
    Pbar     = sum_i Jbar_i^2 * Qbar_i / rho_i     (0 at the sentinel)

With no unlabeled mass everything reduces to the complete-case values:
pi_ij = n_ij/N, Qbar = 1, Pbar = 0 and the variance becomes (K - J^2)/N.
The mirror case (class observed, feature value missing) is handled by
transposing.  Cost is O(r*s).  ``missing_batch`` evaluates a (B, r, s) stack
at once, as ``decide_batch`` does for every table with a partial margin.

As in ``moments``, the kernel works batch last, on (r, s, B), and adds every
per-table sum in index order, so a table's floats do not depend on its batch.

The derivation assumes the uniform prior; other priors are accepted, and
``midist mi`` marks their result with ``prior_extrapolation: true``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ordered_sum
from .errors import InputError, UndefinedFillError

BOTH_MARGINS = "instances missing the feature and instances missing the class cannot be combined in a single table"


@dataclass(frozen=True, eq=False)
class MissingMoments:
    """Filled-in chance grid plus the intermediates of the 1/N variance.

    ``rho_missing`` uses ``inf`` as the sentinel for rows without unlabeled
    mass; the dependent quantities resolve that limit to the complete-case
    values.  The vectors are indexed by the fully observed variable, which
    is the original table's columns for mass on the feature margin.
    ``missing_batch`` returns the per-table fields with a leading stack axis.
    """

    pi_hat: np.ndarray
    rho_missing: np.ndarray
    q_bar_i: np.ndarray
    q_bar: float
    k_bar: float
    j_bar: float
    p_bar: float
    mean: float
    variance: float
    variance_clamped: bool


def missing_batch(grid, unlabeled, name: str = "row") -> MissingMoments:
    """Leading 1/N moments of a (B, r, s) stack of prior-augmented grids.

    ``unlabeled`` (B, r) is each table's mass on the class margin.  Empty
    cells, padded rows and padded columns included, contribute exactly 0.
    ``name`` is what the fill error calls a row: the caller's fully observed variable.
    """
    grid = np.ascontiguousarray(np.asarray(grid, dtype=float).transpose(1, 2, 0))  # (r, s, B)
    unlabeled = np.ascontiguousarray(np.asarray(unlabeled, dtype=float).T)  # (r, B)
    rows = ordered_sum(grid, axis=1)
    total = ordered_sum(grid, axis=(0, 1)) + ordered_sum(unlabeled)
    if np.any(total <= 0):
        raise InputError("table carries no mass")
    for b, i in np.argwhere(((unlabeled > 0) & (rows <= 0)).T)[:1]:  # the first table's first such row
        raise UndefinedFillError(
            f"{name} {i} has partially observed instances but no observed mass to spread them over", table=int(b)
        )
    pos = rows > 0
    share = ((rows + unlabeled) / total)[:, None, :] * grid
    pi = np.divide(share, rows[:, None, :], out=np.zeros_like(grid), where=pos[:, None, :])
    pi_rows = ordered_sum(pi, axis=1)
    pi_cols = ordered_sum(pi)

    mask = pi > 0
    log_pi = np.log(pi, out=np.zeros_like(pi), where=mask)
    log_ratio = log_pi - np.log(pi_rows[:, None, :] * pi_cols, out=np.zeros_like(pi), where=mask)

    cell = grid > 0
    rho = np.divide(total * pi**2, grid, out=np.zeros_like(grid), where=cell)
    rho_rows = ordered_sum(rho, axis=1)

    has_unlabeled = unlabeled > 0
    rho_missing = np.divide(
        total * pi_rows**2, unlabeled, out=np.full_like(unlabeled, np.inf), where=has_unlabeled
    )
    q_bar_i = np.divide(
        rho_missing, rho_missing + rho_rows, out=np.ones_like(unlabeled), where=has_unlabeled
    )
    q_bar = ordered_sum(rho_rows * q_bar_i)
    k_bar = ordered_sum(rho * log_ratio**2, axis=(0, 1))
    j_bar_rows = ordered_sum(rho * log_ratio, axis=1)
    j_bar = ordered_sum(j_bar_rows * q_bar_i)
    p_bar = ordered_sum(j_bar_rows**2 * q_bar_i / rho_missing)  # division by inf -> 0

    # split logs, so extreme magnitudes cannot underflow inside a product (log_ratio keeps its product form)
    split = log_pi - np.log(pi_rows, out=np.zeros_like(pi_rows), where=pi_rows > 0)[:, None, :]
    split -= np.log(pi_cols, out=np.zeros_like(pi_cols), where=pi_cols > 0)
    mean = np.maximum(0.0, ordered_sum(np.where(mask, pi * split, 0.0), axis=(0, 1)))
    raw = (k_bar - j_bar**2 / q_bar - p_bar) / total
    variance, clamped = np.maximum(raw, 0.0), raw < 0.0
    leading = (np.moveaxis(a, -1, 0) for a in (pi, rho_missing, q_bar_i))  # the fields lead with the stack axis
    return MissingMoments(*leading, q_bar, k_bar, j_bar, p_bar, mean, variance, clamped)
