"""Moment-matched approximations of the information posterior, one record per law in ``FAMILIES``.

A record holds the mask of the (mean, variance, i_max) pairs it can match, the
bound that mask tests, the moment match, and the CDF and inverse CDF from
``scipy.special``; a fit reproduces the requested mean and variance exactly.
The beta lives on I / i_max, so its support is the information range.  One
route, ``_fit``, fits every pair: the point mass takes zero variances and zero
ranges, the requested family the rest.  ``fit`` runs it on a stack of one and
raises on an infeasible pair; ``prob_exceeds_batch`` sends the pairs a family cannot
match to its ``FALLBACK`` laws and returns the name of the law that took each, or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .errors import InfeasibleFitError, InputError


class Family(NamedTuple):
    """One law: the mask of the pairs it matches and its bound, the match, and P(I <= x) and its inverse."""

    feasible: Callable  # (mean, variance, i_max) -> mask
    bound: str
    match: Callable  # (mean, variance, i_max) -> params
    cdf: Callable  # (params, x) -> P(I <= x)
    ppf: Callable  # (params, q) -> x


def _beta(mean, variance, i_max):
    """Beta parameters on the rescaled variable I / i_max."""
    mt = mean / i_max
    vt = variance / i_max**2
    alpha = mt * (mt * (1.0 - mt) / vt - 1.0)
    return {"alpha": alpha, "beta": alpha * (1.0 - mt) / mt, "scale": i_max}


FAMILIES = {
    "point_mass": Family(  # the atom of a zero range is 0
        lambda m, v, top: (v == 0.0) | (top == 0.0), "variance == 0 or i_max == 0",
        lambda m, v, top: {"location": np.where(top > 0.0, m, 0.0)},
        lambda p, x: (x >= p["location"]).astype(float),
        lambda p, q: p["location"],
    ),
    "normal": Family(
        lambda m, v, top: np.ones(np.shape(m), dtype=bool), "",
        lambda m, v, top: {"mean": m, "variance": v},
        lambda p, x: special.ndtr((x - p["mean"]) / np.sqrt(p["variance"])),
        lambda p, q: p["mean"] + np.sqrt(p["variance"]) * special.ndtri(q),
    ),
    "gamma": Family(
        lambda m, v, top: m > 0.0, "mean > 0",
        lambda m, v, top: {"shape": m**2 / v, "scale": v / m},
        lambda p, x: special.gammainc(p["shape"], np.maximum(x, 0.0) / p["scale"]),
        lambda p, q: p["scale"] * special.gammaincinv(p["shape"], q),
    ),
    "beta": Family(
        lambda m, v, top: (0.0 < m) & (m < top) & (v < m * (top - m)),
        "0 < mean < i_max and variance < mean * (i_max - mean)",
        _beta,
        lambda p, x: special.betainc(p["alpha"], p["beta"], np.clip(x / p["scale"], 0.0, 1.0)),
        lambda p, q: p["scale"] * special.betaincinv(p["alpha"], p["beta"], q),
    ),
}
FIT_FAMILIES = tuple(FAMILIES)[1:]  # every fit tries the point mass first; a caller asks for one of the rest
FALLBACK = {"beta": ("gamma",)}  # prob_exceeds_batch's next try for a pair the family cannot match


@dataclass(frozen=True)
class TailExponents:
    """Power-law exponents of the posterior density at the support ends.

    The density scales like d**lower for distance d to 0 and like
    d**upper for distance d to the upper bound.
    """

    lower: float
    upper: float


def tail_exponents(r: int, s: int) -> TailExponents:
    """Boundary scaling exponents for an r x s problem."""
    if r < 1 or s < 1:
        raise InputError("cardinalities must be >= 1")
    return TailExponents(
        lower=(r - 1) * (s - 1) / 2.0 - 1.0,
        upper=(min(r, s) - 3) / 2.0,
    )


@dataclass(frozen=True)
class DistApprox:
    """A fitted approximation family, immutable and query-only."""

    family: str
    params: dict

    def cdf(self, x):
        """P(I <= x); scalar in, scalar out (arrays pass through)."""
        v = FAMILIES[self.family].cdf(self.params, np.asarray(x, dtype=float))
        return float(v) if np.ndim(x) == 0 else v

    def prob_exceeds(self, epsilon: float) -> float:
        """P(I > epsilon)."""
        return 1.0 - self.cdf(epsilon)

    def quantile(self, q: float) -> float:
        """Inverse CDF from the closed-form inverses of ``scipy.special``.

        At q = 0 and q = 1 these give the support ends: -inf and +inf for
        the normal, 0 and +inf for the gamma, 0 and i_max for the beta.
        """
        if not 0.0 <= q <= 1.0:
            raise InputError(f"quantile level must lie in [0, 1], got {q}")
        return float(FAMILIES[self.family].ppf(self.params, q))


def _fit(chain, mean, variance, i_max):
    """(record name, flat indices, parameters) for each record of ("point_mass", *chain) that takes a pair.

    Each pair of the flat float arrays goes to the first record whose mask, evaluated only on the pairs left
    by the records before it, admits it.  ``InfeasibleFitError`` names the first pair the last one refuses.
    """
    if chain[0] not in FIT_FAMILIES:
        raise InputError(f"unknown family {chain[0]!r}; expected one of {FIT_FAMILIES}")
    if not (np.isfinite(mean).all() and np.isfinite(variance).all() and np.isfinite(i_max).all()):
        raise InputError("mean, variance and i_max must be finite")
    if np.less(variance, 0).any() or np.less(i_max, 0).any():
        raise InputError("variance and i_max must be non-negative")
    rows, groups = np.arange(mean.size), []
    for name in ("point_mass", *chain):
        law = FAMILIES[name]
        ok = law.feasible(mean, variance, i_max)
        if ok.all():
            return [*groups, (name, rows, law.match(mean, variance, i_max))]
        if ok.any():  # index arrays gather faster than boolean masks
            take, keep = np.flatnonzero(ok), np.flatnonzero(~ok)
            groups.append((name, rows[take], law.match(mean[take], variance[take], i_max[take])))
            rows, mean, variance, i_max = rows[keep], mean[keep], variance[keep], i_max[keep]
    got = f"got mean {mean[0]:.6g}, variance {variance[0]:.6g}, i_max {i_max[0]:.6g}"
    raise InfeasibleFitError(f"{name} needs {law.bound}; {got}", table=int(rows[0]))


def fit(family: str, mean: float, variance: float, i_max: float) -> DistApprox:
    """Moment-match one family to (mean, variance) on the range [0, i_max]: ``_fit`` on a stack of one.

    Zero variance (and a zero-length range) degenerate to a point mass; an infeasible pair raises.
    """
    [(name, _, params)] = _fit((family,), *(np.array([x], dtype=float) for x in (mean, variance, i_max)))
    return DistApprox(name, {key: value.item() for key, value in params.items()})


def prob_exceeds_batch(family: str, mean, variance, i_max, epsilon: float):
    """P(I > epsilon) under ``fit(family, mean[k], variance[k], i_max[k])`` for every k of the flat arrays.

    A pair the family cannot match goes to ``FALLBACK[family]`` if any; returns P and the name of that law, or None.
    """
    mean, variance, i_max = (np.asarray(a, dtype=float).ravel() for a in (mean, variance, i_max))
    prob, fallback = np.empty(mean.shape), np.empty(mean.shape, dtype=object)  # every row is set below
    chain = (family, *FALLBACK.get(family, ()))
    for name, rows, params in _fit(chain, mean, variance, i_max):
        prob[rows] = 1.0 - FAMILIES[name].cdf(params, epsilon)
        fallback[rows] = name if name in chain[1:] else None
    return prob, fallback
