"""Moment-matched approximations of the information posterior.

A fitted object reproduces the requested mean and variance exactly and is
queryable for probabilities and quantiles.  The beta family lives on the
rescaled variable I / i_max so its support matches the information range;
the normal keeps its unbounded support (it is only asymptotically
concentrated inside the range).  An infeasible moment pair raises from the
strict ``fit``; ``prob_exceeds_batch`` alone decides when an infeasible beta
pair degrades to the gamma family, and returns that mask rather than warning:
callers fit the family it reports and decide how to tell the user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import on_tables
from .errors import InfeasibleFitError, InputError

FIT_FAMILIES = ("normal", "gamma", "beta")


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
        v = _cdf(self.family, self.params, np.asarray(x, dtype=float))
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
        if self.family == "point_mass":
            return self.params["location"]
        p = self.params
        if self.family == "normal":
            return float(p["mean"] + math.sqrt(p["variance"]) * special.ndtri(q))
        if self.family == "gamma":
            return float(p["scale"] * special.gammaincinv(p["shape"], q))
        return float(p["scale"] * special.betaincinv(p["alpha"], p["beta"], q))


def _point_mass(mean, variance, i_max):
    """Which pairs are point masses (zero variance or range) and their atoms (0 on a zero range)."""
    return (variance == 0.0) | (i_max == 0.0), np.where(i_max > 0.0, mean, 0.0)


def _feasible(family: str, mean, variance, i_max):
    """Mask of the pairs ``family`` can match, and the bound it states; scalars or arrays alike."""
    if family == "gamma":
        return np.greater(mean, 0.0), "mean > 0"
    if family == "beta":
        ok = (0.0 < mean) & (mean < i_max) & (variance < mean * (i_max - mean))
        return ok, "0 < mean < i_max and variance < mean * (i_max - mean)"
    return True, ""


def _match(family: str, mean, variance, i_max):
    """Moment-matched parameters of one family, scalars or arrays alike; raises at the first infeasible pair."""
    ok, bound = _feasible(family, mean, variance, i_max)
    if not np.all(ok):
        k = int(np.argmin(ok))
        m, v, top = (np.broadcast_to(x, np.shape(ok)).flat[k] for x in (mean, variance, i_max))
        raise InfeasibleFitError(f"{family} needs {bound}; got mean {m:.6g}, variance {v:.6g}, i_max {top:.6g}", table=k)
    if family == "normal":
        return {"mean": mean, "variance": variance}
    if family == "gamma":
        return {"shape": mean**2 / variance, "scale": variance / mean}
    # beta on the rescaled variable I / i_max
    mt = mean / i_max
    vt = variance / i_max**2
    alpha = mt * (mt * (1.0 - mt) / vt - 1.0)
    return {"alpha": alpha, "beta": alpha * (1.0 - mt) / mt, "scale": i_max}


def _cdf(family: str, params: dict, x):
    """P(I <= x) under the family with the given parameters; arrays broadcast."""
    if family == "normal":
        return special.ndtr((x - params["mean"]) / np.sqrt(params["variance"]))
    if family == "gamma":
        return special.gammainc(params["shape"], np.maximum(x, 0.0) / params["scale"])
    if family == "beta":
        return special.betainc(params["alpha"], params["beta"], np.clip(x / params["scale"], 0.0, 1.0))
    return (x >= params["location"]).astype(float)


def _check_moments(family: str, mean, variance, i_max) -> None:
    if family not in FIT_FAMILIES:
        raise InputError(f"unknown family {family!r}; expected one of {FIT_FAMILIES}")
    if not (np.isfinite(mean).all() and np.isfinite(variance).all() and np.isfinite(i_max).all()):
        raise InputError("mean, variance and i_max must be finite")
    if np.less(variance, 0).any() or np.less(i_max, 0).any():
        raise InputError("variance and i_max must be non-negative")


def fit(family: str, mean: float, variance: float, i_max: float) -> DistApprox:
    """Moment-match one family to (mean, variance) on the range [0, i_max].

    Zero variance (and a zero-length range) degenerate to a point mass.
    Infeasible pairs raise InfeasibleFitError naming the violated bound.
    """
    _check_moments(family, mean, variance, i_max)
    point, location = _point_mass(mean, variance, i_max)
    if point:
        return DistApprox("point_mass", {"location": float(location)})
    return DistApprox(family, {name: float(v) for name, v in _match(family, mean, variance, i_max).items()})


def prob_exceeds_batch(family: str, mean, variance, i_max, epsilon: float):
    """P(I > epsilon) under ``fit(family, mean[k], variance[k], i_max[k])`` for every k.

    A beta pair that ``fit`` rejects (and no point mass) falls back to gamma.
    Returns the probabilities and the mask of pairs that fell back.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    i_max = np.asarray(i_max, dtype=float)
    _check_moments(family, mean, variance, i_max)
    point, location = _point_mass(mean, variance, i_max)
    # _feasible gives the bool True for normal and gamma, so not `~`
    fallback = np.logical_not(point | _feasible(family, mean, variance, i_max)[0]) & (family == "beta")
    prob = np.empty(mean.shape)
    if point.any():
        prob[point] = 1.0 - _cdf("point_mass", {"location": location[point]}, epsilon)
    for fam, mask in ((family, ~point & ~fallback), ("gamma", fallback)):
        if not mask.any():
            continue
        params = on_tables(mask, _match, fam, mean[mask], variance[mask], i_max[mask])
        prob[mask] = 1.0 - _cdf(fam, params, epsilon)
    return prob, fallback
