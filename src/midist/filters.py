"""Attribute relevance filters over the information posterior.

Three rules, all reading the same per-attribute posterior:

    f   keep when the plug-in value exceeds the threshold
    ff  keep only when relevance is highly probable, P(I > eps) > p
    bf  keep unless irrelevance is highly probable, i.e. discard when
        P(I <= eps) >= p

With p >= 1/2 the ff set is always contained in the bf set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .core import mi_upper_bound, on_tables
from .dist import FIT_FAMILIES, prob_exceeds_batch
from .errors import ConfigurationError, InputError, NumericalError
from .missing import BOTH_MARGINS, missing_batch
from .moments import moments_batch
from .tables import ContingencyTable, PriorSpec

FILTERS = ("f", "ff", "bf")
ROUTES = ("complete", "missing_class", "missing_feature", "degenerate")


@dataclass(frozen=True)
class FilterConfig:
    """Shared settings for the three filters."""

    epsilon: float = 0.003
    p_level: float = 0.95
    family: str = "beta"
    prior: PriorSpec = field(default_factory=PriorSpec)

    def __post_init__(self) -> None:
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ConfigurationError("epsilon must be finite and non-negative")
        if not 0.0 < self.p_level < 1.0:
            raise ConfigurationError("p_level must lie strictly inside (0, 1)")
        if self.family not in FIT_FAMILIES:
            raise ConfigurationError(f"family must be one of {FIT_FAMILIES}")

    def check_filters(self, names) -> None:
        """Reject a name outside ``FILTERS``, and epsilon = 0 when ff or bf is named.

        The posterior puts probability one on strictly positive
        information, so a zero threshold could never separate anything;
        only the plug-in filter tolerates epsilon = 0.
        """
        for name in names:
            if name not in FILTERS:
                raise InputError(f"unknown filter {name!r}; expected one of {FILTERS}")
        if self.epsilon == 0.0 and any(name != "f" for name in names):
            raise ConfigurationError(
                "epsilon = 0 is rejected for the credible filters: exact "
                "independence has posterior probability zero, so every "
                "attribute would be kept"
            )


@dataclass(frozen=True)
class FilterDecision:
    """Per-attribute outcome of all three keep rules.

    ``route`` is one of ``ROUTES``, ``fit_fallback`` the family a beta fit fell back to or None.
    ``prior_extrapolation`` marks a ``missing_*`` route under a prior other than
    uniform: the incomplete-sample moments are derived under the uniform prior alone.
    ``decide_batch`` returns the same fields as length-B arrays, with no attribute.
    """

    attribute: object
    j: float
    mean: float
    variance: float
    prob_exceeds_eps: float
    keep_f: bool
    keep_ff: bool
    keep_bf: bool
    route: str
    fit_fallback: str | None
    variance_clamped: bool
    prior_extrapolation: bool


def decide_batch(counts, cfg: FilterConfig, missing_class=None, missing_feature=None, sizes=None) -> FilterDecision:
    """Evaluate every keep rule for each attribute of a (B, V, s) stack of attribute-against-class tallies.

    A tally has one row per (attribute, value) pair: value v of attribute a is row ``offsets[a] + v``,
    with ``offsets`` the exclusive cumsum of ``sizes``, the (A) vocabulary sizes (by default one
    table of all V rows).  Each table takes one of ``ROUTES``: complete tables the exact moments, one
    kernel call per vocabulary size; tables with mass on one partial margin (``missing_class`` (B, V)
    or ``missing_feature`` (B, A, s)) the incomplete-sample moments, one call per margin on tables
    padded with empty rows to the largest vocabulary; and all the same tail.
    Single-valued attributes (information range 0) are degenerate: every rule discards them.
    A non-finite mean or variance raises ``NumericalError`` before the tail.
    Returns (B, A) fields; a ``NumericalError`` about table (b, a) carries b * A + a as ``table``.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "iu" or (counts.size and counts.min() < 0):
        raise InputError("counts must be a (B, V, s) stack of non-negative integer tallies")
    size, height, s = counts.shape
    sizes = np.array([height]) if sizes is None else np.asarray(sizes)
    sizes = sizes if sizes.size else sizes.astype(np.int64)  # numpy reads an empty list as float64
    if sizes.ndim != 1 or sizes.dtype.kind not in "iu" or (sizes.size and sizes.min() < 1) or sizes.sum() != height:
        raise InputError(f"sizes must be positive integer vocabulary sizes summing to the tally's {height} rows")
    offsets = np.cumsum(sizes) - sizes
    missing_class = None if missing_class is None else np.asarray(missing_class)
    missing_feature = np.zeros((size, len(sizes), s)) if missing_feature is None else np.asarray(missing_feature)
    upper = np.array([mi_upper_bound(r, s) for r in range(1, sizes.max(initial=0) + 1)])[sizes - 1]
    class_gap = missing_class is not None and np.logical_or.reduceat(missing_class > 0, offsets, axis=1)
    # a bool einsum sums by logical or: any() over the short axis, without its overhead
    feature_gap = np.einsum("bas->ba", missing_feature > 0)
    if (class_gap & feature_gap & (upper > 0.0)).any():
        raise InputError(BOTH_MARGINS)
    route = np.where(upper > 0.0, class_gap + 2 * feature_gap, 3)  # (B, A) indices into ROUTES
    grid = (counts + np.reshape(cfg.prior.cell_weight(np.repeat(sizes, sizes), s), (-1, 1))).reshape(-1, s)
    first = np.arange(size)[:, None] * height + offsets  # (B, A): each table's first row in the (B V, s) grid
    j, mean, variance, clamped = (np.zeros(route.shape, dtype=dtype) for dtype in (float, float, float, bool))
    with np.errstate(all="ignore"):  # non-finite moments raise below, so the kernels' float warnings add nothing
        for r in sorted(set(sizes[(route == 0).any(axis=0)].tolist())):
            sel = (route == 0) & (sizes == r)
            mom = on_tables(sel, moments_batch, np.take(grid, first[sel][:, None] + np.arange(r), axis=0))
            # j_term is the plug-in value itself; clamp mirrors empirical_mi
            j[sel], mean[sel] = np.maximum(mom.j_term, 0.0), mom.mean
            variance[sel], clamped[sel] = mom.variance, mom.variance_clamped
        tallest = np.arange(sizes.max(initial=0))
        for k, name in ((1, "feature value"), (2, "class")):
            sel = route == k
            if sel.any():
                # each table's rows, then empty rows up to the largest vocabulary
                real = tallest < np.broadcast_to(sizes, sel.shape)[sel][:, None]
                rows = np.where(real, first[sel][:, None] + tallest, 0)
                stack = np.where(real[..., None], np.take(grid, rows, axis=0), 0.0)
                unlabeled = np.where(real, missing_class.reshape(-1)[rows], 0) if k == 1 else missing_feature[sel]
                # a feature-margin gap is a class-margin gap of the transposed table
                mm = on_tables(sel, missing_batch, stack if k == 1 else stack.swapaxes(1, 2), unlabeled, name)
                j[sel], mean[sel], variance[sel], clamped[sel] = mm.mean, mm.mean, mm.variance, mm.variance_clamped
    for k in np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(variance))[:1]:  # the first such table
        raise NumericalError(
            f"non-finite moments: mean {mean.flat[k]:.6g}, variance {variance.flat[k]:.6g}; counts under- or overflow",
            table=int(k),
        )
    tail = prob_exceeds_batch(cfg.family, mean.ravel(), variance.ravel(), np.tile(upper, size), cfg.epsilon)
    prob, fallback = (a.reshape(route.shape) for a in tail)  # flat (B A) pairs: the tail's masks index one axis
    return FilterDecision(
        attribute=None,
        j=j,
        mean=mean,
        variance=variance,
        prob_exceeds_eps=prob,
        keep_f=j > cfg.epsilon,
        keep_ff=prob > cfg.p_level,
        keep_bf=prob > 1.0 - cfg.p_level,
        route=np.array(ROUTES, dtype=object)[route],
        fit_fallback=np.where(fallback, "gamma", None),
        variance_clamped=clamped,
        prior_extrapolation=((route == 1) | (route == 2)) & (cfg.prior.kind != "uniform"),
    )


def records(batch: FilterDecision, attributes) -> list[FilterDecision]:
    """One ``FilterDecision`` per table of a ``decide_batch`` result, row by row, named by ``attributes`` in order."""
    columns = [getattr(batch, f.name).ravel().tolist() for f in fields(FilterDecision)[1:]]
    return [FilterDecision(attribute, *row) for attribute, row in zip(attributes, zip(*columns))]


def decide(table: ContingencyTable, cfg: FilterConfig, attribute=None) -> FilterDecision:
    """Evaluate every keep rule for one table: ``decide_batch`` on a stack of one."""
    batch = decide_batch(table.counts[None], cfg, table.missing_class[None], table.missing_feature[None, None])
    return records(batch, [attribute])[0]
