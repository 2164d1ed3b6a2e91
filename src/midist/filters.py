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


def decide_batch(counts, cfg: FilterConfig, missing_class=None, missing_feature=None, rows=None) -> FilterDecision:
    """Evaluate every keep rule for a (B, R, s) stack of attribute-against-class tables.

    Table b owns rows ``[0, rows[b])`` (all R by default); padded rows, and
    their ``missing_class`` entries, must be zero, as in the harness's padded
    tally.  Each table takes one of ``ROUTES``: complete tables the exact
    moments, one kernel call per row count on the unpadded rows; tables with
    mass on one partial margin (``missing_class`` (B, R) or ``missing_feature``
    (B, s)) the incomplete-sample moments, one call per margin whose padded
    cells count as empty; and all the same tail.
    Single-valued attributes (information range 0) are degenerate: every rule discards them.
    A non-finite mean or variance raises ``NumericalError`` before the tail.
    A ``NumericalError`` about one table carries its stack index as ``table``.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "iu" or (counts.size and counts.min() < 0):
        raise InputError("counts must be a (B, R, s) stack of non-negative integer tables")
    size, height, s = counts.shape
    rows = np.full(size, height) if rows is None else np.asarray(rows)
    if rows.shape != (size,) or (size and not (1 <= rows.min() and rows.max() <= height)):
        raise InputError(f"rows must hold one row count in [1, {height}] per table")
    missing_class = np.zeros((size, height)) if missing_class is None else np.asarray(missing_class)
    missing_feature = np.zeros((size, s)) if missing_feature is None else np.asarray(missing_feature)
    padding = np.arange(height) >= rows[:, None] if size and rows.min() < height else None
    if padding is not None and (counts[padding].any() or missing_class[padding].any()):
        raise InputError("padded rows must stay zero")
    upper = np.array([mi_upper_bound(r, s) for r in range(1, height + 1)])[rows - 1]
    # a bool einsum sums by logical or: any() over the short axis, without its overhead
    class_gap, feature_gap = np.einsum("br->b", missing_class > 0), np.einsum("bs->b", missing_feature > 0)
    live = upper > 0.0
    if (live & class_gap & feature_gap).any():
        raise InputError(BOTH_MARGINS)
    route = np.where(live, class_gap + 2 * feature_gap, 3)  # index into ROUTES
    grid = counts + np.reshape(cfg.prior.cell_weight(rows, s), (-1, 1, 1))
    if padding is not None:
        grid[padding] = 0.0
    j, mean, variance, clamped = np.zeros(size), np.zeros(size), np.zeros(size), np.zeros(size, dtype=bool)
    complete = route == 0
    whole = size > 0 and padding is None and complete.all()  # one kernel call on the grid itself, as on binary stacks
    with np.errstate(all="ignore"):  # non-finite moments raise below, so the kernels' float warnings add nothing
        for r in [height] if whole else np.unique(rows[complete]):
            sel = complete & (rows == r)
            at = slice(None) if whole else sel  # a slice neither gathers nor scatters
            mom = on_tables(sel, moments_batch, grid[at, :r])
            # j_term is the plug-in value itself; clamp mirrors empirical_mi
            j[at], mean[at] = np.maximum(mom.j_term, 0.0), mom.mean
            variance[at], clamped[at] = mom.variance, mom.variance_clamped
        # a feature-margin gap is a class-margin gap of the transposed table
        for gap, stack, unlabeled, name in (
            (route == 1, grid, missing_class, "feature value"),
            (route == 2, grid.swapaxes(1, 2), missing_feature, "class"),
        ):
            if gap.any():
                mm = on_tables(gap, missing_batch, stack[gap], unlabeled[gap], name)
                j[gap], mean[gap], variance[gap], clamped[gap] = mm.mean, mm.mean, mm.variance, mm.variance_clamped
    for b in np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(variance))[:1]:  # the first such table
        raise NumericalError(
            f"non-finite moments: mean {mean[b]}, variance {variance[b]}; counts under- or overflow", table=int(b)
        )
    prob, fallback = prob_exceeds_batch(cfg.family, mean, variance, upper, cfg.epsilon)
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
    """One ``FilterDecision`` per row of a ``decide_batch`` result, named by ``attributes`` in order."""
    columns = [getattr(batch, f.name).tolist() for f in fields(FilterDecision)[1:]]
    return [FilterDecision(attribute, *row) for attribute, row in zip(attributes, zip(*columns))]


def decide(table: ContingencyTable, cfg: FilterConfig, attribute=None) -> FilterDecision:
    """Evaluate every keep rule for one table: ``decide_batch`` on a stack of one."""
    batch = decide_batch(table.counts[None], cfg, table.missing_class[None], table.missing_feature[None])
    return records(batch, [attribute])[0]
