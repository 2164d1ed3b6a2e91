"""Contingency tables for one categorical feature against the class.

Observed counts stay integral.  Prior pseudo-counts are real valued
(Jeffreys and Perks add fractions), so the prior-augmented grid is stored
as floats.  All values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ZeroCellError

PRIOR_KINDS = ("uniform", "jeffreys", "haldane", "perks", "custom")
_NAMED_WEIGHTS = {"uniform": 1.0, "jeffreys": 0.5, "haldane": 0.0}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array; ragged nesting, text, a non-number and a negative
    or non-finite entry are each an ``InputError``."""
    try:
        out = np.asarray(values)
        if out.dtype.kind in "SU":  # astype would parse "2" as 2.0
            raise TypeError
        out = out.astype(float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a regular array of numbers") from None
    if not np.isfinite(out).all() or (out < 0).any():  # array methods: np.all and np.any dispatch slower
        raise InputError(f"{name} entries must be finite and non-negative")
    return out


def _as_margin(vec, shape: tuple, name: str) -> np.ndarray:
    """``vec`` as a margin of ``shape``, zeros if None; what ``_numbers`` refuses, or another shape, is an ``InputError``."""
    if vec is None:
        return np.zeros(shape)
    out = _numbers(vec, name)
    if out.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Joint counts of a feature (rows) against the class (columns).

    ``missing_class[i]`` counts instances where feature value ``i`` was
    observed but the class was not; ``missing_feature[j]`` counts instances
    where class ``j`` was observed but the feature value was not.
    """

    counts: np.ndarray
    missing_class: np.ndarray | None = None
    missing_feature: np.ndarray | None = None

    def __post_init__(self) -> None:
        as_float = _numbers(self.counts, "counts")
        if as_float.ndim != 2 or as_float.shape[0] < 1 or as_float.shape[1] < 1:
            raise InputError("counts must be an r x s grid with r >= 1 and s >= 1")
        if np.any(np.mod(as_float, 1.0) != 0):
            raise InputError("observed counts must be integral")
        if np.any(as_float >= 2.0**63):
            raise InputError("observed counts must be below 2**63, the int64 limit")
        r, s = as_float.shape
        mc = _as_margin(self.missing_class, (r,), "missing_class")
        mf = _as_margin(self.missing_feature, (s,), "missing_feature")
        object.__setattr__(self, "counts", _readonly(as_float.astype(np.int64)))
        object.__setattr__(self, "missing_class", _readonly(mc))
        object.__setattr__(self, "missing_feature", _readonly(mf))

    @property
    def r(self) -> int:
        return int(self.counts.shape[0])

    @property
    def s(self) -> int:
        return int(self.counts.shape[1])

    def has_missing(self) -> bool:
        return bool(self.missing_class.sum() > 0 or self.missing_feature.sum() > 0)


@dataclass(frozen=True)
class PriorSpec:
    """Per-cell prior pseudo-count for the Dirichlet posterior.

    Named kinds carry their own weight (uniform 1, jeffreys 1/2, haldane 0,
    perks 1/(r*s)); only ``custom`` takes an explicit one.
    """

    kind: str = "uniform"
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PRIOR_KINDS:
            raise InputError(f"unknown prior kind {self.kind!r}; expected one of {PRIOR_KINDS}")
        if self.kind == "custom":
            if self.weight is None or not np.isfinite(self.weight) or self.weight < 0:
                raise InputError("custom prior needs a finite non-negative weight")
        elif self.weight is not None:
            raise InputError(f"prior kind {self.kind!r} determines its own weight")

    def cell_weight(self, r, s: int):
        """Pseudo-count added to every cell of an r x s table; r may be an array of row counts."""
        if self.kind == "perks":
            return 1.0 / (r * s)
        if self.kind == "custom":
            return float(self.weight)
        return _NAMED_WEIGHTS[self.kind]


@dataclass(frozen=True, eq=False)
class PosteriorCounts:
    """Prior-augmented counts as a read-only float grid.

    This grid is the sufficient statistic for every posterior quantity in
    the package.
    """

    n: np.ndarray

    def __post_init__(self) -> None:
        n = _numbers(self.n, "posterior grid")
        if n.ndim != 2 or n.shape[0] < 1 or n.shape[1] < 1:
            raise InputError("posterior grid must be an r x s array")
        object.__setattr__(self, "n", _readonly(n))

    @property
    def r(self) -> int:
        return int(self.n.shape[0])

    @property
    def s(self) -> int:
        return int(self.n.shape[1])


def apply_prior(table: ContingencyTable, prior: PriorSpec) -> PosteriorCounts:
    """Add the prior pseudo-count to every cell.

    A weight of zero is rejected whenever the table has empty cells, since
    the downstream moment formulas divide by every cell.
    """
    grid = table.counts + prior.cell_weight(table.r, table.s)
    if not grid.all():
        raise ZeroCellError(
            "zero-cell posterior: prior weight 0 leaves empty cells that the "
            "moment formulas divide by"
        )
    return PosteriorCounts(grid)


def _holds_bool(value) -> bool:
    """Whether a decoded JSON value is or nests a boolean, which numpy would read as the number 0 or 1."""
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def table_from_json(obj) -> ContingencyTable:
    """Build a table from a decoded JSON literal {"r", "s", "counts", ...}.

    The missing-count vectors are optional and default to zero.
    """
    if not isinstance(obj, dict):
        raise InputError("table literal must be a JSON object")
    for key in ("r", "s", "counts"):
        if key not in obj:
            raise InputError(f"table literal is missing {key!r}")
    for key in ("counts", "missing_class", "missing_feature"):
        if _holds_bool(obj.get(key)):
            raise InputError(f"{key} must be a regular array of numbers")
    counts = _numbers(obj["counts"], "counts")
    shape = (obj["r"], obj["s"])
    if counts.ndim != 2 or counts.shape != shape or bool in map(type, shape):  # 1.5 or "x" never matches; True would
        raise InputError(
            f"counts shape {counts.shape} does not match r={obj['r']}, s={obj['s']}"
        )
    return ContingencyTable(counts, obj.get("missing_class"), obj.get("missing_feature"))
