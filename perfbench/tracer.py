"""Per-layer tracing of midist from outside the library.

``Tracer.install`` replaces the library names that callers resolve at call
time (module globals such as ``midist.harness.decide``, class attributes
such as ``NaiveBayesModel.predict``, and package attributes the benchmark
calls) with wrappers; ``remove`` puts the originals back.  Each wrapper
records one span into memory: name, start, end, parent span and op id.
Counts read from the returned objects (route, clamp and fallback flags,
draws) are kept at the same boundaries.  Spans are reduced to metrics only
after the timed window ends; a span's self time is its duration minus the
time its child spans cover.

Metric names are the defining module and qualified name of the
wrapped function, e.g. ``filters.decide`` or ``dist.DistApprox.cdf``.
``us_per_call`` is self time per call over every traced call, input
set-up included; ``calls_per_op`` and ``self_share`` cover timed ops only.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np


def _observe_decide(counts, args, result, ns):
    counts["decisions"] += 1
    counts["route_missing"] += result.used_missing
    counts["route_degenerate"] += result.degenerate
    if not result.degenerate:
        counts["fits"] += 1
        counts["fallback"] += result.fit_fallback is not None
        # neither beta nor gamma can fit this pair; only the normal family decides it
        counts["zero_mean"] += result.mean == 0.0 and result.variance > 0.0


def _observe_clamp(layer):
    def observe(counts, args, result, ns):
        counts[f"{layer}.calls"] += 1
        counts[f"{layer}.clamped"] += result.variance_clamped

    return observe


def _observe_draws(counts, args, result, ns):
    pc = args[0]
    shape = f"{pc.r}x{pc.s}"
    counts[f"draws.{shape}"] += result.sample_count
    counts[f"draw_ns.{shape}"] += ns


# (owner, attribute, metric name, observer).  The owner is a module, or a
# class written "module:Class".  A name the library no longer has is not
# wrapped and reports zero calls.
TARGETS = (
    ("midist", "run_incremental", "harness.run_incremental", None),
    ("midist", "prepare", "harness.prepare", None),
    ("midist", "load_dataset", "harness.load_dataset", None),
    ("midist.harness", "ContingencyTable", "tables.ContingencyTable", None),
    ("midist.filters", "apply_prior", "tables.apply_prior", None),
    ("midist.moments", "digamma_grid", "core.digamma_grid", None),
    ("midist.filters", "mi_moments", "moments.mi_moments", _observe_clamp("moments")),
    ("midist.filters", "moments_with_missing", "missing.moments_with_missing", _observe_clamp("missing")),
    ("midist.filters", "fit_with_fallback", "dist.fit_with_fallback", None),
    ("midist.dist:DistApprox", "prob_exceeds", "dist.DistApprox.prob_exceeds", None),
    ("midist.dist:DistApprox", "cdf", "dist.DistApprox.cdf", None),
    ("midist.harness", "decide", "filters.decide", _observe_decide),
    ("midist.nb:NaiveBayesModel", "predict", "nb.NaiveBayesModel.predict", None),
    ("midist.nb:NaiveBayesModel", "update", "nb.NaiveBayesModel.update", None),
    ("midist", "sample_mi", "mc.sample_mi", _observe_draws),
    ("midist", "ks_distance", "mc.ks_distance", None),
)
SAMPLER_SHAPES = ("2x2", "10x5")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        target = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    return getattr(target, cls, None) if cls else target


class Tracer:
    """In-memory span recorder over the wrapped midist names."""

    def __init__(self):
        self._slots = []  # (owner, attribute, original, wrapper)
        self._name_ids = array("h")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._ops = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.names = [name for _, _, name, _ in TARGETS] + ["op"]
        for name_id, (owner_path, attr, _, observe) in enumerate(TARGETS):
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is not None:
                self._slots.append((owner, attr, original, self._wrap(name_id, original, observe)))

    def _wrap(self, name_id, fn, observe):
        name_ids, starts, ends, parents, ops = (
            self._name_ids, self._starts, self._ends, self._parents, self._ops,
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None and self.op_id >= 0:
                observe(self.counts, args, result, ends[index] - starts[index])
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._slots:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._slots:
            setattr(owner, attr, original)

    def op_runner(self, op):
        """``op`` wrapped in a root span named ``op``; set ``op_id`` before each call."""
        return self._wrap(len(self.names) - 1, op, None)

    def metrics(self) -> dict[str, float]:
        """Reduce the recorded spans and counts to the per-layer metrics."""
        name_ids = np.frombuffer(self._name_ids, dtype=np.int16)
        starts = np.frombuffer(self._starts, dtype=np.int64)
        ends = np.frombuffer(self._ends, dtype=np.int64)
        parents = np.frombuffer(self._parents, dtype=np.int64)
        ops = np.frombuffer(self._ops, dtype=np.int64)
        durations = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        self_ns = durations - covered
        in_op = ops >= 0
        op_spans = in_op & (name_ids == len(self.names) - 1)
        op_count = int(op_spans.sum())
        op_ns = float(durations[op_spans].sum())

        out: dict[str, float] = {}
        accounted = 0.0
        for i, name in enumerate(self.names[:-1]):
            mine = name_ids == i
            calls = int(mine.sum())
            op_self = float(self_ns[mine & in_op].sum())
            accounted += op_self
            out[f"{name}.calls_per_op"] = int((mine & in_op).sum()) / op_count
            out[f"{name}.us_per_call"] = float(self_ns[mine].sum()) / calls / 1e3 if calls else 0.0
            out[f"{name}.self_share"] = op_self / op_ns
        c = self.counts
        for layer in ("moments", "missing"):
            out[f"{layer}.clamped_share"] = _share(c[f"{layer}.clamped"], c[f"{layer}.calls"])
            out[f"{layer}.clamped_base"] = c[f"{layer}.calls"]
        out["dist.fallback_share"] = _share(c["fallback"], c["fits"])
        out["dist.fallback_base"] = c["fits"]
        out["filters.route_missing_share"] = _share(c["route_missing"], c["decisions"])
        out["filters.route_degenerate_share"] = _share(c["route_degenerate"], c["decisions"])
        out["filters.route_base"] = c["decisions"]
        out["filters.zero_mean_share"] = _share(c["zero_mean"], c["fits"])
        for shape in SAMPLER_SHAPES:
            draw_ns = c[f"draw_ns.{shape}"]
            out[f"mc.draws_per_s.{shape}"] = c[f"draws.{shape}"] / draw_ns * 1e9 if draw_ns else 0.0
        out["trace.ops"] = op_count
        out["trace.accounted_share"] = accounted / op_ns
        return out


def _share(part: int, base: int) -> float:
    return part / base if base else 0.0
