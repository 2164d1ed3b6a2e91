"""Leading-order information moments for partially observed pairs.

Some instances observe the feature but not the class.  With unlabeled
counts u_i on top of the prior-augmented joint grid n_ij (row sums n_i+,
grand total N = sum n_ij + sum u_i), each row's unlabeled mass is spread
over the row's observed class frequencies:

    pi_ij = (n_i+ + u_i) / N * n_ij / n_i+

The plug-in information of that grid, summed with split logarithms, is the
leading-order mean.  With L_ij = log(pi_ij / (pi_i+ pi_+j)), K_i = sum_j pi_ij L_ij^2,
J_i = sum_j pi_ij L_ij and Qbar_i = n_i+ / (n_i+ + u_i), the observed share of a
row, the leading 1/N variance is

    variance = (Kbar - Jbar^2 - Pbar) / N
    Kbar = sum_i K_i / Qbar_i    Jbar = sum_i J_i    Pbar = sum_i N (1 - Qbar_i) J_i^2 / n_i+

This is the general form (Kbar - Jbar^2 / Qbar - Pbar) / N in the weights
rho_ij = N pi_ij^2 / n_ij and rho_i = N pi_i+^2 / u_i, collapsed by the fill:
rho_ij = pi_ij / Qbar_i and rho_i / (rho_i + sum_j rho_ij) = Qbar_i, so
Qbar = sum_i (sum_j rho_ij) Qbar_i = sum_i pi_i+ = 1.  Equivalently

    N * variance = (K - J^2) + sum_i (1/Qbar_i - 1) (K_i - J_i^2 / pi_i+)

the complete-case term of the filled grid plus one correction per row with
unlabeled mass.  By Cauchy-Schwarz both terms are >= 0, so the clamp at 0
fires only from rounding, and with no unlabeled mass the variance is (K - J^2)/N.
The mirror case (class observed, feature value missing) is handled by
transposing.  Cost is O(r*s).  ``missing_batch`` evaluates a (B, r, s) stack
at once, as ``decide_batch`` does for every table with a partial margin.

As in ``moments``, the kernel works batch last, on (r, s, B), and adds every
per-table sum in index order, so a table's floats do not depend on its batch.

The derivation assumes the uniform prior; other priors are accepted, and
``decide_batch`` marks their decisions with ``prior_extrapolation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ordered_sum
from .errors import InputError, UndefinedFillError

BOTH_MARGINS = "instances missing the feature and instances missing the class cannot be combined in a single table"


@dataclass(frozen=True, eq=False)
class MissingMoments:
    """Filled-in chance grid plus the terms of the closed-form 1/N variance.

    ``q_bar_i`` is each row's observed share, 1 for a row without unlabeled
    mass, which then adds nothing to ``p_bar``.  The vectors are indexed by the
    fully observed variable, which is the original table's columns for mass on
    the feature margin.  ``missing_batch`` returns the per-table fields with a
    leading stack axis.
    """

    pi_hat: np.ndarray
    q_bar_i: np.ndarray
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
    # an empty row divides by 1, and an empty cell takes the log of 1: each then adds exactly 0
    pos = rows > 0
    safe = np.where(pos, rows, 1.0)
    pi = ((rows + unlabeled) / total)[:, None, :] * grid / safe[:, None, :]
    pi_rows = ordered_sum(pi, axis=1)
    pi_cols = ordered_sum(pi)

    mask = pi > 0
    log_pi = np.log(np.where(mask, pi, 1.0))
    log_ratio = log_pi - np.log(np.where(mask, pi_rows[:, None, :] * pi_cols, 1.0))

    q_bar_i = safe / np.where(pos, rows + unlabeled, 1.0)
    k_bar = ordered_sum(pi * log_ratio**2 / q_bar_i[:, None, :], axis=(0, 1))
    j_rows = ordered_sum(pi * log_ratio, axis=1)
    j_bar = ordered_sum(j_rows)
    p_bar = ordered_sum(total * (1 - q_bar_i) * j_rows**2 / safe)

    # split logs, so extreme magnitudes cannot underflow inside a product (log_ratio keeps its product form)
    split = log_pi - np.log(np.where(pi_rows > 0, pi_rows, 1.0))[:, None, :]
    split -= np.log(np.where(pi_cols > 0, pi_cols, 1.0))
    mean = np.maximum(0.0, ordered_sum(np.where(mask, pi * split, 0.0), axis=(0, 1)))
    raw = (k_bar - j_bar**2 - p_bar) / total
    variance, clamped = np.maximum(raw, 0.0), raw < 0.0
    leading = (np.moveaxis(a, -1, 0) for a in (pi, q_bar_i))  # the fields lead with the stack axis
    return MissingMoments(*leading, k_bar, j_bar, p_bar, mean, variance, clamped)
