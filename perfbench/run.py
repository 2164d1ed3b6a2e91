"""Benchmark of midist: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout that holds ``src/midist`` and
``BENCHMARK.json``; nothing needs installing.  Workloads, their inputs and
checks are in ``workloads.py``; the reasons for each are in BENCHMARK.json
and README.md beside this file.

``--trace 0`` starts SETUP_SAMPLES - 1 children that only set up, then one
that sets up and runs the op closed-loop, one client, for S seconds.  It
reports the end-to-end metrics; ``setup_s`` is the median over all of those
children.  ``--trace 1`` times ``import midist`` under ``python -X importtime``
IMPORT_SAMPLES times and starts one child that runs every input untraced
and traced in turn; it reports the per-layer metrics.  ``--workload all``
runs every workload both ways and prints every metric.

Each metric is printed as one line ``workload name value unit``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed (its checks may still have failed); any other code means it
could not run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
RUN_BUDGET_S = 170.0
# -X importtime times only imports made by the import statement.  scipy loads
# its subpackages lazily through importlib.import_module, so the probe routes
# those calls through the statement; the modules imported stay the same.
IMPORT_PROBE = """\
import importlib, sys
_import_module = importlib.import_module
def _via_statement(name, package=None):
    if name.startswith("."):
        return _import_module(name, package)
    __import__(name)
    return sys.modules[name]
importlib.import_module = _via_statement
import midist
"""
# cumulative import times reported by -X importtime, as import.<metric>
IMPORTS = {
    "midist": "midist_ms",
    "numpy": "numpy_ms",
    "scipy.special": "scipy_special_ms",
    "scipy.stats": "scipy_stats_ms",
    "scipy.optimize": "scipy_optimize_ms",
}


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def _child(cmd: list[str], deadline: float, env=None) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + " ".join(cmd))
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=remaining, env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"exit code {done.returncode}: {' '.join(cmd)}")
    return done


def _worker(workload: str, seed: int, seconds: float, phase: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--phase", phase, "--spawned-at", repr(time.monotonic()),
    ]
    done = _child(cmd, deadline)
    sys.stderr.write(done.stderr)  # library warnings and failed ops
    return json.loads(done.stdout.strip().splitlines()[-1])


def _import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import time of each module in IMPORTS, 0 if not imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        done = _child([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], deadline, env)
        seen = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                seen[module.strip()] = int(cumulative) / 1e3
        if "midist" not in seen:
            raise BenchError("import midist did not appear in the -X importtime output")
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{IMPORTS[name]}": statistics.median(v) for name, v in samples.items()}


def _end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    setups = [
        _worker(workload, seed, seconds, "setup", deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run = _worker(workload, seed, seconds, "measure", deadline)
    setups.append(run["setup_s"])
    # latency and work count ops that passed their checks; failures show in ok_share
    passed = [(t, w) for t, w, good in zip(run["durations"], run["work"], run["ok"]) if good]
    if len(passed) < 2:
        raise BenchError(f"{workload}: {len(passed)} of {len(run['ok'])} ops passed their checks")
    durations = [t for t, _ in passed]
    values = {
        "setup_s": statistics.median(setups),
        "work_per_s": sum(w for _, w in passed) / sum(run["durations"]),
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p90": statistics.quantiles(durations, n=10)[8] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_share": len(passed) / len(run["ok"]),
    }
    return values, run


def _per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    values = _import_times(deadline)
    run = _worker(workload, seed, seconds, "trace", deadline)
    values.update(run["layers"])
    return values, run


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[bool]]:
    """Metrics of one workload in BENCHMARK.json's order, with the per-op check results."""
    deadline = time.monotonic() + RUN_BUDGET_S
    kind = "per_layer" if trace else "end_to_end"
    values, run = (_per_layer if trace else _end_to_end)(workload, seed, seconds, deadline)
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    versions = ", ".join(f"{k} {v}" for k, v in run["versions"].items())
    print(f"# {workload} trace={int(trace)} seed={seed} seconds={seconds:g}: "
          f"nproc {os.cpu_count()}, {platform.machine()}, {versions}")
    for name, m in metrics.items():
        print(f"{workload:20s} {name:45s} {m['value']:<14.6g} {m['unit']}")
    return metrics, run["ok"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed window per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/midist/__init__.py").is_file():
        print("run from the root of a midist checkout: src/midist is missing", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.workload == "all":
        runs = [(w, trace) for w in names for trace in (False, True)]
    elif args.workload in names:
        runs = [(args.workload, bool(args.trace))]
    else:
        print(f"unknown workload {args.workload!r}; expected one of {names} or all", file=sys.stderr)
        return 2

    metrics, ok = {}, []
    try:
        for workload, trace in runs:
            found, checks = measure(spec, workload, args.seed, seconds, trace)
            ok += checks
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: m for name, m in found.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = ok.count(False)
    print(json.dumps({"correct": failed == 0, "attempted": len(ok), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
