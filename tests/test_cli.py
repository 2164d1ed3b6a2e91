import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import midist
from midist.cli import build_parser, main
from midist.dist import FIT_FAMILIES
from midist.filters import FILTERS, FilterConfig, decide, decide_batch


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"r": 2, "s": 2, "counts": [[40, 10], [20, 80]]}))
    return str(path)


@pytest.fixture
def csv_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,cls"]
    for _ in range(60):
        cls = rng.integers(2)
        a = cls if rng.random() > 0.1 else 1 - cls
        lines.append(f"{a},{rng.integers(2)},{cls}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(str(x) for x in lines) + "\n")
    return str(path)


# under Perks this table's moment pair is one the beta family cannot match
FALLBACK_TABLE = {"r": 4, "s": 2, "counts": [[1, 1], [0, 0], [0, 0], [0, 0]]}
FALLBACK_WARNING = "1 beta moment pair(s) infeasible; falling back to the gamma family"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_child(cwd, *argv, preexec_fn=None):
    """``python -m midist.cli`` in a child that imports the midist these tests import, under default warning filters."""
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    env["PYTHONPATH"] = str(Path(midist.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "midist.cli", *argv]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=120, preexec_fn=preexec_fn)


class TestMi:
    def test_complete_table(self, capsys, table_file):
        code, out, _ = run_cli(capsys, "mi", "--table", table_file, "--prior", "uniform")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "complete"
        assert payload["mean"] == pytest.approx(0.16623444859500763)
        assert payload["variance"] == pytest.approx(0.0017437020467238832)

    def test_dist_report(self, capsys, table_file):
        code, out, _ = run_cli(
            capsys, "mi", "--table", table_file, "--prior", "uniform", "--dist", "beta"
        )
        payload = json.loads(out)
        dist = payload["dist"]
        assert code == 0 and dist["family"] == "beta"
        assert 0.0 <= dist["prob_exceeds_epsilon"] <= 1.0
        assert dist["quantile_05"] < payload["mean"] < dist["quantile_95"]

    def test_missing_margin_routes_automatically(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(
            json.dumps(
                {"r": 2, "s": 2, "counts": [[8, 2], [4, 16]], "missing_class": [3, 5]}
            )
        )
        code, out, _ = run_cli(capsys, "mi", "--table", str(path), "--prior", "uniform")
        assert code == 0
        assert json.loads(out)["mode"] == "missing_class"

    def test_prior_extrapolation_key(self, capsys, tmp_path, table_file):
        # the incomplete-sample moments are derived under the uniform prior alone
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"r": 2, "s": 2, "counts": [[3, 1], [2, 4]], "missing_feature": [1, 0]}))
        for prior, flag in (("uniform", False), ("jeffreys", True)):
            code, out, _ = run_cli(capsys, "mi", "--table", str(path), "--prior", prior)
            payload = json.loads(out)
            assert code == 0 and payload["mode"] == "missing_feature" and payload["prior_extrapolation"] is flag
        code, out, _ = run_cli(capsys, "mi", "--table", table_file, "--prior", "jeffreys")
        assert code == 0 and "prior_extrapolation" not in json.loads(out)

    @pytest.mark.parametrize("epsilon", ["nan", "-1"])
    def test_invalid_epsilon_rejected_as_select_rejects_it(self, capsys, table_file, csv_file, epsilon):
        code, out, err = run_cli(capsys, "mi", "--table", table_file, "--dist", "beta", "--epsilon", epsilon)
        assert (code, out) == (1, "")
        assert "epsilon must be finite and non-negative" in err
        assert run_cli(capsys, "select", "--data", csv_file, "--filter", "f", "--epsilon", epsilon)[2] == err

    def test_input_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "mi", "--table", str(path))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "literal, message",
        [
            ({"r": 2, "s": 2, "counts": [[1, 2], [3]]}, "counts must be a regular array of numbers"),
            ({"r": 1, "s": 2, "counts": [["a", "b"]]}, "counts must be a regular array of numbers"),
            ({"r": 1, "s": 2, "counts": [["1", "2"]]}, "counts must be a regular array of numbers"),
            ({"r": 1, "s": 2, "counts": [[1, 2]], "missing_class": "ab"}, "missing_class must be a regular"),
            ({"r": 1, "s": 2, "counts": [[1, 2]], "missing_class": ["a"]}, "missing_class must be a regular"),
            ({"r": "x", "s": 2, "counts": [[1, 2]]}, "does not match r=x"),
            ({"r": 1.5, "s": 2, "counts": [[1, 2]]}, "does not match r=1.5"),
            ({"r": 2, "s": 2, "counts": [[10**19, 1], [2, 3]]}, "counts must be below 2**63"),
            ({"r": True, "s": 2, "counts": [[1, 2]]}, "does not match r=True"),
            ({"r": 1, "s": 2, "counts": [[True, False]]}, "counts must be a regular array of numbers"),
            ({"r": 2, "s": 2, "counts": [[1, True], [3, 4]]}, "counts must be a regular array of numbers"),
            ({"r": 1, "s": 2, "counts": [[1, 2]], "missing_feature": [True, 0]}, "missing_feature must be a regular"),
        ],
    )
    def test_malformed_literal_is_an_input_error(self, capsys, tmp_path, literal, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(literal))
        code, out, err = run_cli(capsys, "mi", "--table", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_numerical_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"r": 2, "s": 2, "counts": [[1, 0], [0, 1]]}))
        code, _, err = run_cli(capsys, "mi", "--table", str(path), "--prior", "haldane")
        assert code == 2 and "zero-cell" in err

    @pytest.mark.parametrize("prior", ["uniform", "jeffreys", "haldane", "perks", "custom"])
    @pytest.mark.parametrize("counts", [[[4, 0, 2]], [[4], [0], [2]]])
    def test_single_row_or_column_is_degenerate_as_in_decide(self, capsys, tmp_path, prior, counts):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"r": len(counts), "s": len(counts[0]), "counts": counts}))
        weight = ["--prior-weight", "0.25"] if prior == "custom" else []
        code, out, _ = run_cli(capsys, "mi", "--table", str(path), "--prior", prior, *weight, "--dist", "beta")
        payload = json.loads(out)
        assert code == 0 and payload["mode"] == "degenerate"
        assert payload["j"] == payload["mean"] == payload["variance"] == 0.0
        assert payload["dist"]["family"] == "point_mass" and payload["dist"]["params"] == {"location": 0.0}
        assert payload["dist"]["prob_exceeds_epsilon"] == 0.0
        spec = midist.PriorSpec(prior, 0.25 if prior == "custom" else None)
        decision = decide(midist.ContingencyTable(counts), FilterConfig(prior=spec))
        assert decision.route == "degenerate" and decision.j == decision.mean == decision.variance == 0.0

    @pytest.mark.parametrize("prior", ["uniform", "jeffreys", "perks"])
    @pytest.mark.parametrize(
        "literal, mode",
        [
            ({"r": 2, "s": 2, "counts": [[40, 10], [20, 80]]}, "complete"),
            ({"r": 2, "s": 2, "counts": [[8, 2], [4, 16]], "missing_class": [3, 5]}, "missing_class"),
            ({"r": 2, "s": 3, "counts": [[3, 1, 0], [2, 5, 7]], "missing_feature": [2, 0, 4]}, "missing_feature"),
            ({"r": 1, "s": 3, "counts": [[4, 0, 2]], "missing_feature": [1, 0, 0]}, "degenerate"),
        ],
    )
    def test_moments_are_decides_bit_for_bit(self, capsys, tmp_path, literal, mode, prior):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(literal))
        code, out, _ = run_cli(capsys, "mi", "--table", str(path), "--prior", prior)
        payload = json.loads(out)
        table = midist.table_from_json(literal)
        decision = decide(table, FilterConfig(prior=midist.PriorSpec(prior)))
        assert code == 0 and payload["mode"] == mode == decision.route
        assert (payload["j"], payload["mean"], payload["variance"]) == (decision.j, decision.mean, decision.variance)

    def test_dist_fits_the_decisions_fallback_family(self, capsys, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(FALLBACK_TABLE))
        code, out, err = run_cli(capsys, "mi", "--table", str(path), "--prior", "perks", "--dist", "beta")
        dist = json.loads(out)["dist"]
        assert code == 0 and dist["family"] == "gamma" and dist["fallback"] == "gamma"
        assert err == f"warning: {FALLBACK_WARNING}\n"

    def test_fallback_warns_on_one_line_in_a_fresh_interpreter(self, tmp_path):
        # under Python's own warning filters, not pytest's, the CLI's line is still the whole of stderr
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(FALLBACK_TABLE))
        child = run_cli_child(tmp_path, "mi", "--table", str(path), "--dist", "beta", "--prior", "perks")
        assert child.returncode == 0 and json.loads(child.stdout)["dist"]["fallback"] == "gamma"
        assert child.stderr.decode() == f"warning: {FALLBACK_WARNING}\n"

    def test_zero_mean_partial_table_exits_two_on_one_line(self, capsys, tmp_path):
        # the fit fails before the decision returns, so no fallback line; the moments print at 6 digits
        path = tmp_path / "zero_mean.json"
        path.write_text(json.dumps({"r": 2, "s": 3, "counts": [[0, 0, 0], [0, 0, 0]], "missing_feature": [1, 0, 0]}))
        code, out, err = run_cli(capsys, "mi", "--table", str(path), "--prior", "perks", "--dist", "beta")
        assert (code, out) == (2, "")
        assert err == "numerical error: gamma needs mean > 0; got mean 0, variance 5.4782e-33, i_max 0.693147\n"

    @pytest.mark.parametrize("family", FIT_FAMILIES)
    @pytest.mark.parametrize(
        "literal, prior",
        [
            ({"r": 2, "s": 2, "counts": [[40, 10], [20, 80]]}, "uniform"),
            ({"r": 2, "s": 3, "counts": [[3, 1, 0], [2, 5, 7]], "missing_feature": [2, 0, 4]}, "jeffreys"),
            (FALLBACK_TABLE, "perks"),
        ],
    )
    def test_dist_prints_the_decisions_probability(self, capsys, tmp_path, literal, prior, family):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(literal))
        cfg = FilterConfig(family=family, prior=midist.PriorSpec(prior))
        code, out, _ = run_cli(capsys, "mi", "--table", str(path), "--prior", prior, "--dist", family)
        decision = decide(midist.table_from_json(literal), cfg)
        assert code == 0 and json.loads(out)["dist"]["prob_exceeds_epsilon"] == decision.prob_exceeds_eps

    def test_fill_error_names_the_class_in_mi_and_select(self, capsys, tmp_path):
        # class 2 is observed only in instances whose feature value is missing: nothing to spread them over
        path = tmp_path / "fill.json"
        path.write_text(json.dumps({"r": 2, "s": 3, "counts": [[1, 2, 0], [3, 1, 0]], "missing_feature": [0, 0, 2]}))
        data = tmp_path / "fill.csv"
        data.write_text("a,cls\n0,x\n0,y\n0,y\n1,x\n1,x\n1,x\n1,y\n?,z\n?,z\n")
        for argv in (["mi", "--table", str(path)], ["select", "--data", str(data), "--filter", "ff"]):
            code, out, err = run_cli(capsys, *argv, "--prior", "haldane")
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("numerical error: class 2 has partially observed")

    @pytest.mark.parametrize("weight", ["1e-300", "1e-200", "1e200", "1e300"])
    def test_non_finite_moments_exit_two(self, capsys, tmp_path, weight):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"r": 2, "s": 2, "counts": [[0, 0], [0, 0]]}))
        argv = ["mi", "--table", str(path), "--dist", "beta", "--prior", "custom", "--prior-weight", weight]
        code, out, err = run_cli(capsys, *argv)  # no floating-point warning line either
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("numerical error: non-finite moments: ")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "mi", "--table", "/nonexistent.json")
        assert code == 1

    def test_bad_flag_exits_one(self, capsys, table_file):
        code, _, _ = run_cli(capsys, "mi", "--table", table_file, "--prior", "flat")
        assert code == 1


class TestMc:
    def test_summary_and_fit(self, capsys, table_file):
        code, out, _ = run_cli(
            capsys,
            "mc", "--table", table_file, "--prior", "uniform",
            "--samples", "20000", "--seed", "7", "--fit", "beta",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sample_count"] == 20000
        assert payload["mean"] == pytest.approx(0.166, abs=0.01)
        assert 0.0 <= payload["ks_distance"] <= 0.05

    def test_fit_takes_the_decisions_fallback_family(self, capsys, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(FALLBACK_TABLE))
        code, out, err = run_cli(
            capsys, "mc", "--table", str(path), "--prior", "perks", "--samples", "2000", "--fit", "beta"
        )
        fit = json.loads(out)["fit"]
        assert code == 0 and fit["family"] == "gamma" and fit["fallback"] == "gamma"
        assert err == f"warning: {FALLBACK_WARNING}\n"

    def test_deterministic_across_invocations(self, capsys, table_file):
        args = ["mc", "--table", table_file, "--prior", "uniform", "--samples", "5000", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
    def test_same_bytes_in_a_child_pinned_to_one_cpu(self, tmp_path):
        # 200,000 draws on a 10x5 grid go through the sampler's fixed-size blocks; on one CPU it has one worker
        path = tmp_path / "grid.json"
        grid = [[(3 * i + j) % 7 for j in range(5)] for i in range(10)]
        path.write_text(json.dumps({"r": 10, "s": 5, "counts": grid}))
        argv = ["mc", "--table", str(path), "--samples", "200000", "--fit", "beta", "--seed", "3"]
        cpu = min(os.sched_getaffinity(0))
        free = run_cli_child(tmp_path, *argv)
        pinned = run_cli_child(tmp_path, *argv, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert (free.returncode, free.stderr) == (pinned.returncode, pinned.stderr) == (0, b"")
        assert free.stdout == pinned.stdout and json.loads(free.stdout)["sample_count"] == 200000

    def test_tiny_posterior_counts_print_no_nan(self, capsys, tmp_path):
        # every posterior count below 0.1: no draw may be 0/0, so the output is JSON without NaN
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"r": 2, "s": 2, "counts": [[0, 0], [0, 0]]}))
        argv = ["mc", "--table", str(path), "--samples", "10000", "--seed", "1"]
        code, out, _ = run_cli(capsys, *argv, "--prior", "custom", "--prior-weight", "0.001")
        assert code == 0
        json.loads(out, parse_constant=lambda constant: pytest.fail(f"{constant} in mc output"))

    def test_dump_little_endian_doubles(self, capsys, table_file, tmp_path):
        dump = tmp_path / "draws.bin"
        code, _, _ = run_cli(
            capsys,
            "mc", "--table", table_file, "--prior", "uniform",
            "--samples", "1000", "--seed", "3", "--dump", str(dump),
        )
        assert code == 0
        raw = np.frombuffer(dump.read_bytes(), dtype="<f8")
        assert raw.size == 1000
        assert np.all(np.diff(raw) >= 0)  # stored sorted

    def test_dump_refused_on_a_histogram_summary(self, capsys, table_file, tmp_path, monkeypatch):
        monkeypatch.setattr(midist.mc, "SORTED_SAMPLE_LIMIT", 100)
        dump = tmp_path / "draws.bin"
        argv = ["mc", "--table", table_file, "--samples", "1000", "--dump", str(dump)]
        assert_one_error_line(*run_cli(capsys, *argv), "--dump needs stored samples; lower --samples")
        assert not dump.exists()


class TestSelect:
    def test_decisions_then_kept_set(self, capsys, csv_file):
        code, out, _ = run_cli(capsys, "select", "--data", csv_file, "--filter", "ff")
        assert code == 0
        lines = out.strip().splitlines()
        decisions = [json.loads(line) for line in lines[:-1]]
        kept = json.loads(lines[-1])
        assert len(decisions) == 2
        assert {d["attribute"] for d in decisions} == {"a", "b"}
        assert kept["filter"] == "ff"
        assert "a" in kept["kept"] and "b" not in kept["kept"]

    def test_records_carry_prior_extrapolation(self, capsys, tmp_path):
        # a's "?" cell puts it on the missing_feature route; b is complete
        path = tmp_path / "gaps.csv"
        path.write_text("a,b,cls\n0,0,x\n1,1,y\n?,0,x\n0,1,y\n1,1,y\n")
        for prior, flag in (("uniform", False), ("jeffreys", True)):
            code, out, _ = run_cli(capsys, "select", "--data", str(path), "--filter", "f", "--prior", prior)
            records = {d["attribute"]: d for d in map(json.loads, out.splitlines()[:-1])}
            assert code == 0 and records["a"]["route"] == "missing_feature" and records["b"]["route"] == "complete"
            assert (records["a"]["prior_extrapolation"], records["b"]["prior_extrapolation"]) == (flag, False)

    def test_one_decision_call_prints_every_record(self, capsys, csv_file, monkeypatch):
        sizes = []

        def counting(*args, **kwargs):
            sizes.append(len(args[0]))
            return decide_batch(*args, **kwargs)

        monkeypatch.setattr(midist.harness, "decide_batch", counting)
        code, out, _ = run_cli(capsys, "select", "--data", csv_file, "--filter", "ff", "--family", "gamma")
        assert code == 0
        assert sizes == [2]
        dataset = midist.load_dataset(csv_file)
        cfg = FilterConfig(family="gamma")
        expected = []
        for a, name in enumerate(dataset.attributes):  # each attribute's own 2x2 tally, decided alone
            counts = np.zeros((2, 2), dtype=np.int64)
            for values, cls in dataset.instances:
                counts[values[a], cls] += 1
            expected.append(json.dumps(asdict(decide(midist.ContingencyTable(counts), cfg, attribute=name))))
        assert out.strip().splitlines()[:-1] == expected

    def test_each_record_names_its_route(self, capsys, tmp_path):
        # a constant column is single-valued, "?" cells put mass on the feature margin
        path = tmp_path / "routes.csv"
        path.write_text("const,gappy,full,cls\n0,0,0,0\n0,1,1,1\n0,?,0,0\n0,1,1,1\n0,0,0,0\n0,?,1,1\n")
        code, out, _ = run_cli(capsys, "select", "--data", str(path), "--filter", "f")
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        assert code == 0
        assert [(r["attribute"], r["route"]) for r in records] == [
            ("const", "degenerate"),
            ("gappy", "missing_feature"),
            ("full", "complete"),
        ]

    def test_fallback_prints_gamma_and_warns_once(self, capsys, tmp_path):
        # values 1-3 occur only in unlabelled rows: under Perks the table
        # [[1, 1], [0, 0], [0, 0], [0, 0]] has a moment pair beta cannot match
        path = tmp_path / "sparse.csv"
        path.write_text("a,cls\n0,0\n0,1\n1,?\n2,?\n3,?\n")
        code, out, err = run_cli(capsys, "select", "--data", str(path), "--filter", "bf", "--prior", "perks")
        assert err == f"warning: {FALLBACK_WARNING}\n"
        record = json.loads(out.splitlines()[0])
        assert code == 0 and record["attribute"] == "a" and record["fit_fallback"] == "gamma"

    def test_fallback_warning_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("a,b,c,cls\n0,0,0,0\n0,0,1,1\n1,1,0,?\n2,2,1,?\n3,3,0,?\n")
        code, out, err = run_cli(capsys, "select", "--data", str(path), "--filter", "bf", "--prior", "perks")
        fallbacks = [json.loads(line)["fit_fallback"] for line in out.splitlines()[:-1]]
        assert (code, fallbacks) == (0, ["gamma", "gamma", None])
        assert err == "warning: 2 beta moment pair(s) infeasible; falling back to the gamma family\n"

    def test_zero_epsilon_rejected_for_ff(self, capsys, csv_file):
        code, _, err = run_cli(
            capsys, "select", "--data", csv_file, "--filter", "ff", "--epsilon", "0"
        )
        assert code == 1 and "epsilon" in err

    def test_custom_prior_weight(self, capsys, csv_file):
        code, out, _ = run_cli(
            capsys,
            "select", "--data", csv_file, "--filter", "f",
            "--prior", "custom", "--prior-weight", "0.5",
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["kept"]

    def test_custom_prior_requires_weight(self, capsys, csv_file):
        code, _, err = run_cli(
            capsys, "select", "--data", csv_file, "--filter", "f", "--prior", "custom"
        )
        assert code == 1 and "prior-weight" in err


class TestRun:
    def test_csv_report(self, capsys, csv_file, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "run", "--data", csv_file, "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["instances"] == 60
        assert set(summary["final_accuracy"]) == {"f", "ff", "bf"}
        assert len(out_path.read_text().strip().splitlines()) == 61

    def test_keep_missing_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        lines = ["a,b,cls"]
        for i in range(40):
            cls = rng.integers(2)
            a = "?" if i % 9 == 0 else str(cls)
            lines.append(f"{a},{rng.integers(2)},{cls}")
        src = tmp_path / "gaps.csv"
        src.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys,
            "run", "--data", str(src), "--seed", "2", "--missing", "keep",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out)["instances"] == 40  # feature gaps retained

    def test_json_report_round_trips_through_ttest(self, capsys, csv_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "run", "--data", csv_file, "--filters", "ff,f", "--seed", "5",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "ttest", "--report", str(out_path), "--pair", "ff,f")
        assert code == 0
        payload = json.loads(out)
        assert payload["pair"] == "ff,f" and payload["k"] == 60
        assert isinstance(payload["significant"], bool)

    def test_ttest_reads_the_report_curve(self, capsys, csv_file, tmp_path):
        out_path = tmp_path / "report.json"
        run_cli(capsys, "run", "--data", csv_file, "--filters", "ff,f", "--seed", "5",
                "--out", str(out_path), "--format", "json")
        curve = json.loads(out_path.read_text())["pair_tests"]["ff_vs_f"]
        for k in range(2, 61):
            code, out, _ = run_cli(capsys, "ttest", "--report", str(out_path), "--pair", "ff,f", "--k", str(k))
            payload = json.loads(out)
            assert code == 0
            assert (payload["t"], payload["significant"]) == (curve["t"][k - 1], curve["significant"][k - 1])

    def test_ttest_unknown_filter(self, capsys, csv_file, tmp_path):
        out_path = tmp_path / "report.json"
        run_cli(capsys, "run", "--data", csv_file, "--filters", "f", "--seed", "1",
                "--out", str(out_path), "--format", "json")
        code, _, err = run_cli(capsys, "ttest", "--report", str(out_path), "--pair", "ff,f")
        assert code == 1 and "ff" in err


@pytest.mark.parametrize("command", ["mi", "select", "run"])
def test_prior_weight_with_a_named_prior_is_rejected(capsys, table_file, csv_file, tmp_path, command):
    source = {
        "mi": ["--table", table_file],
        "select": ["--data", csv_file, "--filter", "f"],
        "run": ["--data", csv_file, "--out", str(tmp_path / "report.csv")],
    }[command]
    code, out, err = run_cli(capsys, command, *source, "--prior", "uniform", "--prior-weight", "5")
    assert code == 1 and out == "" and "determines its own weight" in err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("ttest", b"{not json", "{path}: invalid JSON"),
        ("ttest", b'{"filters": ["f"]}', "report is missing 'runs'"),
        ("ttest", b"[]", "malformed report"),
        ("mi", b'{"r": 1, "s": 1, "counts": [[\x81]]}', "{path}: invalid JSON"),
        ("select", b"a,cls\n\x81,1\n", "{path}: not valid text"),
        ("run", b"a,cls\n\x81,1\n", "{path}: not valid text"),
        ("discretize", b"a,cls\n\x81,1\n", "{path}: not valid text"),
    ],
    ids=["report-not-json", "report-without-runs", "report-not-an-object", "table-not-utf8", "select-csv-not-utf8",
         "run-csv-not-utf8", "discretize-csv-not-utf8"],
)
def test_malformed_input_file_is_an_input_error(capsys, tmp_path, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    source = {
        "ttest": ["--report", str(path), "--pair", "ff,f"],
        "mi": ["--table", str(path)],
        "select": ["--data", str(path), "--filter", "f"],
        "run": ["--data", str(path), "--out", str(tmp_path / "report.csv")],
        "discretize": ["--data", str(path), "--bins", "2", "--out", str(tmp_path / "binned.csv")],
    }[command]
    assert_one_error_line(*run_cli(capsys, command, *source), message.format(path=path))


def assert_one_error_line(code, out, err, message):
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("select --data {csv} --filter f --class-column 5", "{csv}: class column index 5 outside [0, 3)"),
        ("select --data {header_only} --filter f", "{header_only}: header only, no instances"),
        ("run --data {csv} --filters ff,ff --out {out}", "filters must be a non-empty list without duplicates"),
        ("mi --table {list}", "table literal must be a JSON object"),
        ("mc --table {partial} --samples 1000", "the sampler needs a complete table (no partial margins)"),
        ("ttest --report {report} --pair ff", "--pair needs two comma-separated filter names"),
        ("run --data {unlabelled} --out {out}", "{unlabelled}: run needs at least one instance"),
    ],
    ids=["class-column-out-of-range", "header-only-csv", "duplicate-filters", "literal-not-an-object",
         "mc-partial-margin", "one-filter-pair", "run-without-instances"],
)
def test_input_branch_exits_one_with_one_error_line(capsys, tmp_path, csv_file, argv, message):
    paths = {"csv": csv_file, "out": str(tmp_path / "report.json"), "report": str(tmp_path / "report.json")}
    for name, content in (
        ("header_only", "a,b,cls\n"),
        ("list", "[1, 2]"),
        ("partial", json.dumps({"r": 2, "s": 2, "counts": [[1, 2], [3, 4]], "missing_class": [1, 0]})),
        ("unlabelled", "a,cls\n1,?\n2,?\n"),
    ):
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(content)
    if "{report}" in argv:
        assert run_cli(capsys, "run", "--data", csv_file, "--out", paths["report"], "--format", "json")[0] == 0
    code, out, err = run_cli(capsys, *argv.format(**paths).split())
    assert_one_error_line(code, out, err, message.format(**paths))


def test_class_column_given_as_a_digit_string(capsys, tmp_path, csv_file):
    # the header "cls,a,b" has no column named "0", so the option is read as an index
    first = tmp_path / "class_first.csv"
    rows = [line.rsplit(",", 1) for line in Path(csv_file).read_text().splitlines()]
    first.write_text("".join(f"{cls},{attributes}\n" for attributes, cls in rows))
    expected = run_cli(capsys, "select", "--data", csv_file, "--filter", "ff")
    got = run_cli(capsys, "select", "--data", str(first), "--filter", "ff", "--class-column", "0")
    assert got == expected and json.loads(got[1].splitlines()[-1]) == {"filter": "ff", "kept": ["a"]}


def test_blank_lines_are_skipped(capsys, tmp_path, csv_file):
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n" + Path(csv_file).read_text().replace("\n", "\n\n , \n"))
    expected = run_cli(capsys, "select", "--data", csv_file, "--filter", "f")
    assert run_cli(capsys, "select", "--data", str(spaced), "--filter", "f") == expected


@pytest.mark.parametrize("command", ["mc", "run"])
def test_negative_seed_is_an_input_error(capsys, table_file, csv_file, tmp_path, command):
    source = {
        "mc": ["--table", table_file, "--samples", "1000"],
        "run": ["--data", csv_file, "--out", str(tmp_path / "report.csv")],
    }[command]
    code, out, err = run_cli(capsys, command, *source, "--seed", "-1")
    assert_one_error_line(code, out, err, "seed must be a non-negative integer, got -1")


def test_text_in_a_report_correct_list_is_an_input_error(capsys, csv_file, tmp_path):
    report = tmp_path / "report.json"
    run_cli(capsys, "run", "--data", csv_file, "--filters", "ff,f", "--out", str(report), "--format", "json")
    payload = json.loads(report.read_text())
    payload["runs"]["f"]["correct"][3] = "x"
    report.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "ttest", "--report", str(report), "--pair", "ff,f")
    assert_one_error_line(code, out, err, "paired t test needs integer entries")


@pytest.mark.parametrize("command", ["select", "run", "discretize"])
def test_delimiter_longer_than_one_character_is_an_input_error(capsys, csv_file, tmp_path, command):
    extra = {
        "select": ["--filter", "f"],
        "run": ["--out", str(tmp_path / "report.csv")],
        "discretize": ["--bins", "2", "--out", str(tmp_path / "binned.csv")],
    }[command]
    code, out, err = run_cli(capsys, command, "--data", csv_file, *extra, "--delimiter", ";;")
    assert_one_error_line(code, out, err, "delimiter must be one character, got ';;'")


@pytest.mark.parametrize(
    "command, message",
    [
        ("select", "class 2 has partially observed instances but no observed mass to spread them over (attribute 'a')"),
        ("run", "non-finite moments: mean 0, variance nan; counts under- or overflow (attribute 'a', step 0)"),
    ],
    ids=["select", "run"],
)
def test_numerical_error_names_the_attribute(capsys, tmp_path, command, message):
    # class z is seen only where a is missing: nothing to spread it over under Haldane's zero prior;
    # run refuses a zero prior up front, and a weight of 1e-300 underflows the empty tables at its step 0
    path = tmp_path / "fill.csv"
    path.write_text("a,b,cls\n0,0,x\n1,1,x\n0,0,y\n1,1,y\n?,0,z\n?,1,z\n0,1,x\n1,0,y\n")
    extra = {
        "select": ["--filter", "ff", "--prior", "haldane"],
        "run": ["--missing", "keep", "--out", str(tmp_path / "report.csv"), "--prior", "custom", "--prior-weight", "1e-300"],
    }[command]
    code, out, err = run_cli(capsys, command, "--data", str(path), *extra)
    assert (code, out, err) == (2, "", f"numerical error: {message}\n")


@pytest.mark.parametrize("prior", [["haldane"], ["custom", "--prior-weight", "0"]], ids=["haldane", "custom-0"])
def test_run_refuses_a_zero_weight_prior_that_select_and_mi_accept(capsys, csv_file, table_file, tmp_path, prior):
    report = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "run", "--data", csv_file, "--out", str(report), "--prior", *prior)
    assert_one_error_line(code, out, err, f"run needs a positive prior weight: step 0 decides from empty tables, "
                          f"and prior {prior[0]!r} leaves every one of their cells zero")
    assert not report.exists()
    for argv in (["select", "--data", csv_file, "--filter", "ff"], ["mi", "--table", table_file]):
        code, _, err = run_cli(capsys, *argv, "--prior", *prior)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["select", "run"])
def test_attribute_without_an_observed_value_is_named(capsys, tmp_path, command):
    path = tmp_path / "m.csv"
    path.write_text("a,b,cls\n?,1,x\n?,2,y\n?,1,x\n")
    extra = {
        "select": ["--filter", "ff"],
        "run": ["--missing", "keep", "--out", str(tmp_path / "report.csv")],
    }[command]
    code, out, err = run_cli(capsys, command, "--data", str(path), *extra)
    assert_one_error_line(code, out, err, f"{path}: attribute 'a' has no observed value")


def test_select_names_a_class_column_without_a_label(capsys, tmp_path):
    path = tmp_path / "unlabelled.csv"
    path.write_text("a,cls\n1,?\n2,?\n")
    code, out, err = run_cli(capsys, "select", "--data", str(path), "--filter", "ff")
    assert_one_error_line(code, out, err, f"{path}: the class column has no observed value")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_discretize_names_a_non_finite_cell(capsys, tmp_path, cell):
    path = tmp_path / "n.csv"
    path.write_text(f"x,cls\n{cell},a\n1,b\n2,a\n")
    code, out, err = run_cli(capsys, "discretize", "--data", str(path), "--bins", "2", "--out", str(tmp_path / "d.csv"))
    assert_one_error_line(code, out, err, f"{path}: column 'x' has the non-finite cell '{cell}'")


class TestDiscretize:
    def test_numeric_columns_binned(self, capsys, tmp_path):
        src = tmp_path / "numeric.csv"
        rows = ["x,y,cls"] + [f"{i},{'m' if i % 2 else 'n'},{i % 2}" for i in range(1, 101)]
        src.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "binned.csv"
        code, _, _ = run_cli(
            capsys, "discretize", "--data", str(src), "--bins", "4", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,cls"
        cells = [line.split(",") for line in lines[1:]]
        assert {c[0] for c in cells} == {"bin_0", "bin_1", "bin_2", "bin_3"}
        assert {c[1] for c in cells} == {"m", "n"}  # categorical untouched
        assert {c[2] for c in cells} == {"0", "1"}  # class column untouched

    def test_all_missing_column_passes_through(self, capsys, tmp_path):
        src = tmp_path / "gaps.csv"
        src.write_text("x,cls\n?,a\n?,b\n?,a\n")
        out_path = tmp_path / "binned.csv"
        code, _, err = run_cli(capsys, "discretize", "--data", str(src), "--bins", "2", "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_text().splitlines() == ["x,cls", "?,a", "?,b", "?,a"]

    def test_few_distinct_values_warn_on_one_line(self, capsys, tmp_path):
        # one line per column, each naming its column, though the two texts are otherwise the same
        src = tmp_path / "flat.csv"
        src.write_text("x,y,z,cls\n1,1,1,a\n1,1,2,b\n1,1,3,a\n")
        code, _, err = run_cli(capsys, "discretize", "--data", str(src), "--bins", "2", "--out", str(tmp_path / "binned.csv"))
        assert code == 0
        assert err == "".join(
            f"warning: column {name!r}: only 1 distinct values for 2 bins; using one bin per value\n" for name in "xy"
        )


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1 and "usage" in err


def test_public_names_resolve_and_cover_the_readme_quick_start():
    assert all(hasattr(midist, name) for name in midist.__all__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    from_package = {alias.name for node in imports if node.module == "midist" for alias in node.names}
    assert from_package and from_package <= set(midist.__all__)
    for node in imports:
        module = importlib.import_module(node.module)
        assert all(hasattr(module, alias.name) for alias in node.names), node.module


def test_options_take_filter_defaults_and_names_from_the_library():
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        (name, opt): action
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        for opt in action.option_strings
    }
    families = {key: action.choices for key, action in options.items() if key[1] in ("--family", "--dist", "--fit")}
    assert set(families) == {("mi", "--dist"), ("mc", "--fit"), ("select", "--family"), ("run", "--family")}
    assert all(choices == FIT_FAMILIES for choices in families.values()), families
    cfg = FilterConfig()
    fields = {"--epsilon": cfg.epsilon, "--p": cfg.p_level, "--family": cfg.family, "--prior": cfg.prior.kind}
    defaults = {key: action.default for key, action in options.items() if key[1] in fields}
    assert len(defaults) == 11  # --epsilon in mi, select, run; --p and --family in select, run; --prior in four
    assert all(default == fields[opt] for (_, opt), default in defaults.items()), defaults
    assert options["run", "--filters"].default == ",".join(FILTERS)
