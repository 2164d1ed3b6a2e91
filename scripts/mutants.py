"""Mutation gate: each listed mutant of the package must make its named tests fail.

Run from the root of a checkout (CI runs it as its own step):

    python scripts/mutants.py

Each entry names a module under ``src/midist``, an exact text in it, the text
that replaces it and the test node ids expected to fail.  The script copies
``src/`` to a temporary directory once, checks that the copy is what the tests
import and that every named test passes on it, then applies one mutation at a
time and runs only that entry's node ids against the copy with ``pytest -x -q``.
It exits 1 when a mutant survives, when pytest fails for another reason than a
failing test, or when an entry's text does not occur exactly once, so a
refactor that moves mutated code must update its entry.  An entry may be
removed only when the code it mutates is deleted.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(  # x ln x reads the log of 0 at an empty cell or an underflowed chance: 0 * -inf is NaN
        "core.py",
        "out = np.maximum(x, np.finfo(float).smallest_subnormal)",
        "out = np.array(x, dtype=float)",
        (
            "tests/test_core.py::TestEmpiricalMi::test_empty_cells_rows_and_columns_add_nothing",
            "tests/test_mc.py::TestSampleMi::test_all_tiny_shapes_give_no_nan_draw",
        ),
    ),
    Mutant(  # the plug-in information without its column entropy
        "core.py",
        "xlogx(p).sum() - xlogx(p.sum(axis=1)).sum() - xlogx(p.sum(axis=0)).sum()",
        "xlogx(p).sum() - xlogx(p.sum(axis=1)).sum()",
        ("tests/test_core.py::TestEmpiricalMi::test_agrees_with_a_50_digit_reference",),
    ),
    Mutant(  # beta admits the variance on its bound, where alpha is 0
        "dist.py",
        "(v < m * (top - m))",
        "(v <= m * (top - m))",
        ("tests/test_dist.py::test_beta_bound_is_strict_at_its_edge",),
    ),
    Mutant(  # gamma admits a zero mean, and divides by it
        "dist.py",
        'lambda m, v, top: m > 0.0, "mean > 0"',
        'lambda m, v, top: m >= 0.0, "mean > 0"',
        (
            "tests/test_dist.py::TestFit::test_gamma_needs_positive_mean",
            "tests/test_cli.py::TestMi::test_zero_mean_partial_table_exits_two_on_one_line",
        ),
    ),
    Mutant(  # a zero range with a positive variance is fitted as if it had room
        "dist.py",
        "(v == 0.0) | (top == 0.0)",
        "(v == 0.0)",
        (
            "tests/test_dist.py::TestFit::test_zero_range_is_a_point_mass_at_origin_whatever_the_variance",
        ),
    ),
    Mutant(  # the strict fit falls back to gamma as the batch does
        "dist.py",
        "_fit((family,), ",
        "_fit((family, *FALLBACK.get(family, ())), ",
        (
            "tests/test_dist.py::TestFit::test_infeasible_beta_names_bound",
            "tests/test_dist.py::test_beta_bound_is_strict_at_its_edge",
        ),
    ),
    Mutant(  # the batch records the requested family, not the fallback law that fitted the pair
        "dist.py",
        "fallback[rows] = name if",
        "fallback[rows] = family if",
        (
            "tests/test_dist.py::TestFit::test_fallback_degrades_beta_to_gamma",
            "tests/test_cli.py::TestMi::test_fallback_law_is_read_from_dist_alone",
        ),
    ),
    Mutant(  # a point mass's KS gap loses the draws above its atom
        "mc.py",
        "return float(max(0.0, below / n, 1.0 - upto / n))",
        "return float(max(0.0, below / n))",
        ("tests/test_mc.py::TestKsDistance::test_point_mass_gap_without_a_cdf_call",),
    ),
    Mutant(  # every sampler chunk seeded from the worker count
        "mc.py",
        "pool.submit(_chunk_information, pc, seed, k,",
        "pool.submit(_chunk_information, pc, seed + workers, k,",
        ("tests/test_mc.py::TestPool::test_worker_count_leaves_the_bytes",),
    ),
    Mutant(  # the fill error no longer names its row
        "missing.py",
        'f"{name} {i} has partially',
        'f"{name} has partially',
        (
            "tests/test_cli.py::TestMi::test_fill_error_names_the_class_in_mi_and_select",
            "tests/test_cli.py::test_numerical_error_names_the_attribute",
        ),
    ),
    Mutant(  # Kbar without each row's 1/Qbar_i
        "missing.py",
        "k_bar = ordered_sum(pi * log_ratio**2 / q_bar_i[:, None, :], axis=(0, 1))",
        "k_bar = ordered_sum(pi * log_ratio**2, axis=(0, 1))",
        ("tests/test_missing.py::TestVarianceMissing::test_against_plain_loop_transcription",),
    ),
    Mutant(  # Pbar divides an empty row by its zero mass
        "missing.py",
        "p_bar = ordered_sum(total * (1 - q_bar_i) * j_rows**2 / safe)",
        "p_bar = ordered_sum(total * (1 - q_bar_i) * j_rows**2 / rows)",
        ("tests/test_missing.py::TestVarianceMissing::test_randomised_against_transcription",),
    ),
    Mutant(  # Qbar_i of an empty row without a guard
        "missing.py",
        "q_bar_i = safe / np.where(pos, rows + unlabeled, 1.0)",
        "q_bar_i = rows / (rows + unlabeled)",
        ("tests/test_missing.py::TestVarianceMissing::test_randomised_against_transcription",),
    ),
    Mutant(  # the stacked t curves of the second and third filter pairs compare with the wrong filter
        "harness.py",
        "_paired_t_curve(hits[a], hits[b], ",
        "_paired_t_curve(hits[a], hits[b[:1]], ",
        ("tests/test_harness.py::TestRunIncremental::test_stacked_t_curves_equal_the_scalar_test_at_every_k",),
    ),
    Mutant(  # each attribute's missing-feature margin adds its column sums to the class totals
        "harness.py",
        "missing = class_counts[:, None, :] - np.add",
        "missing = class_counts[:, None, :] + np.add",
        (
            "tests/test_harness.py::TestBatchedDecisions::test_in_run_decisions_equal_decide_on_own_tallies_bit_for_bit",
            "tests/test_harness.py::TestBatchedDecisions::test_decide_attributes_equals_decide_on_own_tally",
        ),
    ),
    Mutant(  # JSON booleans read as the numbers 0 and 1
        "tables.py",
        "        if _holds_bool(obj.get(key)):",
        "        if False:",
        ("tests/test_cli.py::TestMi::test_malformed_literal_is_an_input_error",),
    ),
    Mutant(  # a negative partial margin passes the checks and reads as no gap
        "tables.py",
        "if not np.isfinite(out).all() or (out < 0).any():",
        "if not np.isfinite(out).all():",
        ("tests/test_filters.py::test_margins_are_checked_against_the_counts[negative]",),
    ),
    Mutant(  # each complete table gathered one row early: a lone table only rotates its rows
        "filters.py",
        "first[sel][:, None] + np.arange(r)",
        "first[sel][:, None] + np.arange(-1, r - 1)",
        (
            "tests/test_filters.py::test_batch_covers_point_mass_and_fallback",
            "tests/test_harness.py::TestBatchedDecisions::test_selected_sets_equal_per_step_decide_on_own_tallies",
        ),
    ),
    Mutant(  # the partial routes padded one row short of the tallest table
        "filters.py",
        "tallest = np.arange(sizes.max(initial=0))",
        "tallest = np.arange(sizes.max(initial=0) - 1)",
        ("tests/test_filters.py::test_one_moments_call_per_complete_height_and_one_call_per_partial_route",),
    ),
)


def _run(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # no bytecode cache: a mutant of the same size and second must not reuse the last compile
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        imported = _run(env, "-c", "import midist; print(midist.__file__)").stdout.strip()
        if not imported.startswith(str(src)):
            print(f"the tests would import midist from {imported or 'nowhere'}, not from the copy")
            return 1
        pytest = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
        baseline = _run(env, *pytest, *sorted({test for m in MUTANTS for test in m.tests}))
        if baseline.returncode != 0:
            print(f"the named tests do not all pass unmutated:\n{baseline.stdout}{baseline.stderr}")
            return 1
        failed = 0
        for m in MUTANTS:
            path = src / "midist" / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.module}: {m.old!r} occurs {text.count(m.old)} times, not once")
                failed += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            code = _run(env, *pytest, *m.tests).returncode
            path.write_text(text)
            # pytest exits 1 when a test failed; 0 means the mutant survived, anything else is an error
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            failed += code != 1
            print(f"{verdict:9s} {m.module}: {m.old!r} -> {m.new!r}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
