"""Run one workload in this fresh interpreter and print one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --phase setup|measure|trace --spawned-at T

``run.py`` starts this from the root of a checkout, with ``--spawned-at``
set to its own ``time.monotonic()`` just before the spawn, so the reported
set-up time covers interpreter start, ``import midist``, input generation
and the warm-up ops.  Phase ``setup`` stops there.  Phase ``measure`` then
runs the op closed-loop, one at a time, for S seconds.  Phase ``trace``
runs each input twice in turn, once untraced and once under the tracer, so
the tracer's overhead is measured on the same inputs.  Checks run outside
the timed calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "_data"
WARMUP_OPS = 2


def _import_midist():
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import midist

    if Path(midist.__file__).resolve().parent != src / "midist":
        raise SystemExit(f"midist was imported from {midist.__file__}, not from {src}")
    return midist


def _timed(run, item):
    """(seconds, raised, output) of one op; a raising op is reported on stderr."""
    start = time.perf_counter()
    try:
        out = run(item)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, True, None
    return time.perf_counter() - start, False, out


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    _import_midist()
    import workloads

    tracer = None
    if args.phase == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # input set-up calls (load_dataset, prepare) are traced too
    workload = workloads.WORKLOADS[args.workload](args.seed, DATA_DIR)
    if tracer is not None:
        tracer.remove()
    pool = workload.pool
    for item in pool[:WARMUP_OPS]:
        _timed(workload.op, item)
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    plain_s, traced_s, ok, work = [], [], [], []
    sides = [(workload.op, plain_s)]
    if tracer is not None:
        traced_op = tracer.op_runner(workload.op)

        def traced(item):
            tracer.op_id = len(traced_s)
            tracer.install()
            try:
                return traced_op(item)
            finally:
                tracer.remove()
                tracer.op_id = -1

        sides.append((traced, traced_s))

    first = None  # (index, item, output) of the first op that passed
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        item = pool[k % len(pool)]
        # alternate which side goes first so neither gains from a warmer cache
        for run, durations in sides if k % 2 == 0 else sides[::-1]:
            elapsed, raised, out = _timed(run, item)
            durations.append(elapsed)
            ok.append(not raised and workload.check(item, out))
            work.append(workload.work(item))
            if first is None and ok[-1]:
                first = (len(ok) - 1, item, out)
        k += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is not None:  # one slower check per run
        index, item, out = first
        ok[index] = workload.final_check(item, out)

    result = {"setup_s": setup_s, "ok": ok, "versions": _versions()}
    if tracer is None:
        result.update(durations=plain_s, work=work, peak_rss_mb=peak_rss_mb)
    else:
        layers = tracer.metrics()
        layers["trace.overhead_share"] = 1.0 - sum(plain_s) / sum(traced_s)
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
