"""Attribute relevance filters over the information posterior.

Three rules, all reading the same per-attribute posterior:

    f   keep when the plug-in value exceeds the threshold
    ff  keep only when relevance is highly probable, P(I > eps) > p
    bf  keep unless irrelevance is highly probable, i.e. discard when
        P(I <= eps) >= p

With p >= 1/2 the ff set is always contained in the bf set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import mi_upper_bound
from .dist import FIT_FAMILIES, prob_exceeds_batch
from .errors import ConfigurationError, InputError
from .missing import moments_with_missing
from .moments import moments_batch
from .tables import ContingencyTable, PriorSpec, add_prior

FILTERS = ("f", "ff", "bf")
_FLAG_NAMES = {"f": "keep_f", "ff": "keep_ff", "bf": "keep_bf"}


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

    def require_credible_threshold(self) -> None:
        """The credible filters need epsilon > 0.

        The posterior puts probability one on strictly positive
        information, so a zero threshold could never separate anything;
        only the plug-in filter tolerates epsilon = 0.
        """
        if self.epsilon == 0.0:
            raise ConfigurationError(
                "epsilon = 0 is rejected for the credible filters: exact "
                "independence has posterior probability zero, so every "
                "attribute would be kept"
            )


@dataclass(frozen=True)
class FilterDecision:
    """Per-attribute outcome of all three keep rules."""

    attribute: object
    j: float
    mean: float
    variance: float
    prob_exceeds_eps: float
    keep_f: bool
    keep_ff: bool
    keep_bf: bool
    degenerate: bool = False
    fit_fallback: str | None = None
    used_missing: bool = False


_ROW_FIELDS = ("j", "mean", "variance", "prob_exceeds_eps", "keep_f", "keep_ff", "keep_bf", "used_missing")


@dataclass(frozen=True, eq=False)
class BatchDecision:
    """The FilterDecision fields of a stack of same-shape tables, as length-B arrays."""

    j: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    prob_exceeds_eps: np.ndarray
    keep_f: np.ndarray
    keep_ff: np.ndarray
    keep_bf: np.ndarray
    fit_fallback: np.ndarray
    used_missing: np.ndarray
    degenerate: bool = False


def decide_batch(counts, cfg: FilterConfig, missing_class=None, missing_feature=None) -> BatchDecision:
    """Evaluate every keep rule for a (B, r, s) stack of attribute-against-class tables.

    Complete tables are decided in one vectorised pass.  Tables with mass
    on a partial margin (``missing_class`` of shape (B, r) or
    ``missing_feature`` of shape (B, s)) take the incomplete-sample moments
    one table at a time, then join the same tail evaluation.  Single-valued
    attributes (information range of zero) are degenerate and discarded
    by all three rules.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "iu" or (counts.size and counts.min() < 0):
        raise InputError("counts must be a (B, r, s) stack of non-negative integer tables")
    size, r, s = counts.shape
    upper = mi_upper_bound(r, s)
    if upper == 0.0:
        zeros, no = np.zeros(size), np.zeros(size, dtype=bool)
        return BatchDecision(zeros, zeros, zeros, zeros, no, no, no, no, no, degenerate=True)
    missing_class = np.zeros((size, r)) if missing_class is None else np.asarray(missing_class)
    missing_feature = np.zeros((size, s)) if missing_feature is None else np.asarray(missing_feature)
    partial = (missing_class.sum(axis=1) > 0) | (missing_feature.sum(axis=1) > 0)
    j, mean, variance = np.empty(size), np.empty(size), np.empty(size)
    complete = ~partial
    if complete.any():
        mom = moments_batch(add_prior(counts[complete], cfg.prior))
        # j_term is the plug-in value itself; clamp mirrors empirical_mi
        j[complete], mean[complete], variance[complete] = np.maximum(mom.j_term, 0.0), mom.mean, mom.variance
    for i in np.flatnonzero(partial):
        mm = moments_with_missing(ContingencyTable(counts[i], missing_class[i], missing_feature[i]), cfg.prior)
        j[i], mean[i], variance[i] = mm.mean, mm.mean, mm.variance
    prob, fallback = prob_exceeds_batch(cfg.family, mean, variance, upper, cfg.epsilon)
    return BatchDecision(
        j=j,
        mean=mean,
        variance=variance,
        prob_exceeds_eps=prob,
        keep_f=j > cfg.epsilon,
        keep_ff=prob > cfg.p_level,
        keep_bf=prob > 1.0 - cfg.p_level,
        fit_fallback=fallback,
        used_missing=partial,
    )


def decide(table: ContingencyTable, cfg: FilterConfig, attribute=None) -> FilterDecision:
    """Evaluate every keep rule for one table: ``decide_batch`` on a stack of one."""
    batch = decide_batch(table.counts[None], cfg, table.missing_class[None], table.missing_feature[None])
    values = {name: getattr(batch, name)[0].item() for name in _ROW_FIELDS}
    return FilterDecision(
        attribute=attribute,
        degenerate=batch.degenerate,
        fit_fallback="gamma" if batch.fit_fallback[0] else None,
        **values,
    )


def select_features(tables: dict, cfg: FilterConfig, which: str) -> list:
    """Apply one filter across attributes; kept ids come back in input order.

    ``tables`` maps attribute id to that attribute's table against the
    class; all tables must agree on the class cardinality.
    """
    if which not in FILTERS:
        raise InputError(f"unknown filter {which!r}; expected one of {FILTERS}")
    if which != "f":
        cfg.require_credible_threshold()
    items = list(tables.items())
    cardinalities = {t.s for _, t in items}
    if len(cardinalities) > 1:
        raise InputError(
            f"attributes disagree on the class cardinality: {sorted(cardinalities)}"
        )
    kept = set()
    for shape in dict.fromkeys(t.counts.shape for _, t in items):
        group = [(aid, t) for aid, t in items if t.counts.shape == shape]
        counts, missing_class, missing_feature = (
            np.stack([getattr(t, name) for _, t in group]) for name in ("counts", "missing_class", "missing_feature")
        )
        batch = decide_batch(counts, cfg, missing_class, missing_feature)
        kept.update(aid for (aid, _), keep in zip(group, getattr(batch, _FLAG_NAMES[which])) if keep)
    return [aid for aid, _ in items if aid in kept]
