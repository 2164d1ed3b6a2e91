"""Closed-form posterior mean and second-order variance of mutual information.

Under a Dirichlet posterior with cell counts n_ij, marginals n_i+ and n_+j
and total n, the mean is exact:

    mean = (1/n) * sum_ij n_ij * [psi(n_ij+1) - psi(n_i+ +1) - psi(n_+j +1) + psi(n+1)]

and the variance expands to second order in 1/n:

    variance = (K - J^2) / (n+1)
             + [M + (r-1)(s-1)(1/2 - J) - Q] / ((n+1)(n+2))

with the double-sum intermediates

    J = sum_ij (n_ij/n) * log(n_ij n / (n_i+ n_+j))        (the plug-in value)
    K = sum_ij (n_ij/n) * log(...)^2
    M = sum_ij (1/n_ij - 1/n_i+ - 1/n_+j + 1/n) n_ij log(...)
    Q = 1 - sum_ij n_ij^2 / (n_i+ n_+j)

The intermediates are exposed so tests can pin each one separately.  Cost
is O(r*s) per table; only double sums appear.  One kernel evaluates a whole
stack of same-shape grids at once; a single grid is a stack of one.  The
kernel works batch last, on (r, s, B), and adds every per-table sum in index
order (``core.ordered_sum``): a few passes over length-B vectors, not B tiny
loops, and never numpy's pairwise grouping, which depends on the term count;
so a table's floats are the same alone as in any stack.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .core import ordered_sum
from .errors import ZeroCellError
from .tables import PosteriorCounts


@dataclass(frozen=True)
class MiMoments:
    """First two posterior moments plus the variance intermediates.

    ``moments_batch`` returns the same fields as length-B arrays.
    """

    mean: float
    variance: float
    k_term: float
    j_term: float
    m_term: float
    q_term: float
    variance_clamped: bool = False


def moments_batch(n) -> MiMoments:
    """Exact mean and second-order variance of every grid in a (B, r, s) stack.

    A negative raw variance (possible deep in the near-independence,
    small-count corner of the expansion) is clamped to zero and flagged
    rather than raised, so downstream distribution fits stay defined.
    """
    n = np.ascontiguousarray(np.asarray(n, dtype=float).transpose(1, 2, 0))  # (r, s, B)
    r, s = n.shape[:2]
    if n.min() <= 0:
        raise ZeroCellError(
            "zero-cell posterior: the moment formulas need every posterior "
            "cell positive; apply a positive-weight prior first"
        )
    row_sums = ordered_sum(n, axis=1)
    cols = ordered_sum(n)
    total = ordered_sum(row_sums)
    bracket = (
        special.digamma(n + 1.0)
        - special.digamma(row_sums + 1.0)[:, None, :]
        - special.digamma(cols + 1.0)
        + special.digamma(total + 1.0)
    )
    outer = row_sums[:, None, :] * cols
    log_ratio = np.log(n * total) - np.log(outer)
    p = n / total
    j = ordered_sum(p * log_ratio, axis=(0, 1))
    k = ordered_sum(p * log_ratio**2, axis=(0, 1))
    spread = 1.0 / n - (1.0 / row_sums)[:, None, :] - 1.0 / cols + 1.0 / total
    m = ordered_sum(spread * n * log_ratio, axis=(0, 1))
    q = 1.0 - ordered_sum(n * n / outer, axis=(0, 1))
    raw = (k - j * j) / (total + 1.0) + (m + (r - 1) * (s - 1) * (0.5 - j) - q) / (
        (total + 1.0) * (total + 2.0)
    )
    return MiMoments(
        mean=ordered_sum(n * bracket, axis=(0, 1)) / total,
        variance=np.maximum(raw, 0.0),
        k_term=k,
        j_term=j,
        m_term=m,
        q_term=q,
        variance_clamped=raw < 0.0,
    )


def mi_moments(pc: PosteriorCounts) -> MiMoments:
    """Exact mean plus the second-order variance approximation of one grid."""
    stack = moments_batch(pc.n[None])
    return MiMoments(*(getattr(stack, f.name)[0].item() for f in fields(MiMoments)))


def mi_mean(pc: PosteriorCounts) -> float:
    """Exact posterior mean of mutual information, in nats."""
    return mi_moments(pc).mean
