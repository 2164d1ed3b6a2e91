import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import midist
from midist.cli import main
from midist.errors import ConfigurationError, InfeasibleFitError, InputError, ZeroCellError
from midist.filters import FILTERS, FilterConfig, decide, decide_batch
from midist.harness import (
    Dataset,
    decide_attributes,
    discretize_equal_frequency,
    load_dataset,
    paired_t_test,
    prepare,
    report_from_dict,
    report_to_dict,
    run_incremental,
    synthetic_dataset,
    write_report,
)
from midist.nb import absorb, score_subsets
from midist.tables import ContingencyTable, PriorSpec

CFG = FilterConfig()


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_small_csv(self, tmp_path):
        ds = load_dataset(write(tmp_path, "a,b,c\nx,1,yes\ny,2,no\n"))
        assert ds.attributes == ("a", "b")
        assert len(ds) == 2
        assert ds.class_vocab == ("yes", "no")
        assert ds.instances[0] == ((0, 0), 0)
        assert ds.instances[1] == ((1, 1), 1)

    def test_missing_token(self, tmp_path):
        ds = load_dataset(write(tmp_path, "a,b,c\nx,?,yes\n"))
        assert ds.instances[0][0] == (0, None)

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(InputError, match="line 3"):
            load_dataset(write(tmp_path, "a,b,c\nx,1,yes\ny,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="empty"):
            load_dataset(write(tmp_path, ""))

    def test_class_column_by_name_and_index(self, tmp_path):
        text = "cls,a\nyes,x\nno,y\n"
        by_name = load_dataset(write(tmp_path, text), class_column="cls")
        by_index = load_dataset(write(tmp_path, text), class_column=0)
        assert by_name.attributes == by_index.attributes == ("a",)
        assert by_name.class_vocab == ("yes", "no")

    def test_unknown_class_column(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_dataset(write(tmp_path, "a,b\nx,y\n"), class_column="target")

    def test_headerless(self, tmp_path):
        ds = load_dataset(write(tmp_path, "x,yes\ny,no\n"), header=False)
        assert ds.attributes == ("col_0",)
        assert len(ds) == 2


# a house-votes-84 excerpt: the class first, then 16 votes, "?" where a member did not vote
VOTES = (
    "republican,n,y,n,y,y,y,n,n,n,y,?,y,y,y,n,y\n"
    "democrat,?,y,y,?,y,y,n,n,n,n,y,n,y,y,n,n\n"
    "democrat,n,y,y,n,n,y,n,n,n,n,y,n,y,n,n,y\n"
)


def load_script(name):
    """A module of scripts/, loaded from its file (the directory is no package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFetchUci:
    def serve(self, monkeypatch, text):
        monkeypatch.setattr(urllib.request, "urlopen", lambda url: io.BytesIO(text.encode()))

    def test_download_is_rewritten_class_last(self, monkeypatch, tmp_path, capsys):
        self.serve(monkeypatch, VOTES)
        load_script("fetch_uci").main(["--out-dir", str(tmp_path), "--names", "vote"])
        assert capsys.readouterr().out == f"wrote {tmp_path / 'vote.csv'}\n"
        assert (tmp_path / "vote.data").read_text() == VOTES
        ds = load_dataset(tmp_path / "vote.csv")
        assert ds.attributes == tuple(f"a{i}" for i in range(16)) and ds.class_vocab == ("republican", "democrat")
        assert ["".join(vocab) for vocab in ds.attribute_vocabs] == [
            "n", "y", "ny", "yn", "yn", "y", "n", "n", "n", "yn", "y", "yn", "y", "yn", "n", "yn"
        ]
        assert [values[0] for values, _ in ds.instances] == [0, None, 0]
        assert [cls for _, cls in ds.instances] == [0, 1, 1]

    def test_ragged_download_names_its_line(self, monkeypatch, tmp_path):
        lines = VOTES.splitlines(keepends=True)
        self.serve(monkeypatch, lines[0] + lines[1].replace(",?", "", 1) + lines[2])
        with pytest.raises(SystemExit, match=r"^vote: .*vote\.data: line 2: expected 17 fields, got 16$"):
            load_script("fetch_uci").main(["--out-dir", str(tmp_path), "--names", "vote"])
        assert not (tmp_path / "vote.csv").exists()


class TestPrepare:
    def make(self, values=(), classes=()):
        values = [[0, 0], [1, -1], [-1, 1], [1, 1]] + [[0, 1]] * 6 + list(values)
        classes = [0, 1, 0, 1] + [0] * 6 + list(classes)
        return Dataset(["a", "b"], [["0", "1"], ["0", "1"]], ["0", "1"], np.array(values), np.array(classes))

    def test_drop_missing_removes_rows_with_gaps(self):
        assert len(prepare(self.make(), "drop_missing", seed=0)) == 8

    def test_keep_missing_keeps_feature_gaps(self):
        ds = self.make([[0, 0]], [-1])  # class gap is always dropped
        assert len(prepare(ds, "keep_missing", seed=0)) == 10

    def test_same_seed_reproduces_order(self):
        a = prepare(self.make(), seed=11).instances
        b = prepare(self.make(), seed=11).instances
        assert a == b

    def test_seed_pair_differs(self):
        a = prepare(self.make(), seed=1).instances
        b = prepare(self.make(), seed=2).instances
        assert a != b

    def test_bad_mode(self):
        with pytest.raises(InputError):
            prepare(self.make(), "impute", seed=0)


# each a column of two indices numpy cannot read as integers, or reads as some other dtype
NOT_INTEGERS = {
    "float": [1, 1.5],
    "integral_float": [0.0, 1.0],
    "bool": [True, False],
    "text": ["0", "1"],
    "bytes": [b"0", b"1"],
    "numpy_text": [0, np.str_("1")],
    "none": [0, None],
    "object": [0, object()],
    "dict": [0, {0: 1}],
    "beyond_int64": [0, 2**70],
}


class TestDataset:
    def make(self, values, classes):
        return Dataset(["a"], [["0", "1", "2", "3"]], ["c0", "c1"], values, classes)

    @pytest.mark.parametrize(
        "values, classes",
        [
            (np.zeros((3, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)),  # two columns, one attribute
            (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)),
            (np.zeros((3, 1), dtype=np.int64), np.zeros(2, dtype=np.int64)),
            (np.zeros((3, 1), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)),
        ],
    )
    def test_shape_must_give_a_row_per_label_and_a_column_per_attribute(self, values, classes):
        with pytest.raises(InputError, match=r"do not match 1 attributes: expected \(N, 1\), \(N,\) and 1$"):
            self.make(values, classes)

    def test_a_vocabulary_per_attribute(self):
        with pytest.raises(InputError, match=r"and 1 vocabularies do not match 2 attributes"):
            Dataset(["a", "b"], [["0"]], ["c0"], np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("column", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS))
    @pytest.mark.parametrize("field", ["value", "class"])
    def test_indices_that_are_not_integers_rejected(self, field, column):
        # numpy would truncate a class 1.5 to 1 and read True as 1
        values, classes = ([[x] for x in column], [0, 1]) if field == "value" else ([[0], [1]], column)
        with pytest.raises(InputError, match=f"^{field} indices must be integers, -1 for a missing"):
            self.make(values, classes)

    def test_inputs_copied_and_arrays_read_only(self):
        values, classes = np.array([[3], [-1]], dtype=np.int8), np.array([1, -1], dtype=np.int32)
        vocabs, class_vocab = [["0", "1", "2", "3"]], ["c0", "c1"]
        ds = Dataset(["a"], vocabs, class_vocab, values, classes)
        values[0, 0], classes[0] = 0, 0
        vocabs[0].pop(), class_vocab.pop()
        assert ds.values.tolist() == [[3], [-1]] and ds.classes.tolist() == [1, -1]
        assert ds.vocab_sizes == [4] and ds.class_count == 2
        assert ds.attribute_vocabs == (("0", "1", "2", "3"),) and ds.class_vocab == ("c0", "c1")
        with pytest.raises(TypeError):
            prepare(ds, "keep_missing").attribute_vocabs[0][:] = ["0"]
        assert ds.values.dtype == ds.classes.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            ds.values[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ds.classes[0] = 0

    def test_schema_and_provenance_cannot_change_under_the_checked_indices(self):
        # a vocabulary shrunk below a checked index would send run_incremental to numpy's
        # IndexError and make decide_attributes count the cell into the next attribute's table
        values, classes = np.array([[3, 0], [0, 1], [1, 0]]), np.array([0, 1, 0])
        source = {"path": "x.csv"}
        ds = Dataset(["a", "b"], [["0", "1", "2", "3"], ["0", "1"]], ["c0", "c1"], values, classes, source)
        with pytest.raises(TypeError):
            ds.attribute_vocabs[0][:] = ["0", "1"]
        for name in ("attributes", "attribute_vocabs", "class_vocab"):
            with pytest.raises(TypeError):
                getattr(ds, name)[:] = []
        assert decide_attributes(ds, CFG)[1].mean == decide(ContingencyTable([[2, 0], [0, 1]]), CFG).mean
        source["path"] = "y.csv"
        prepared = prepare(ds, seed=4)
        report = run_incremental(prepared, CFG)
        report.config["prepared"]["seed"] = 99
        assert ds.provenance == {"path": "x.csv"}
        assert run_incremental(prepared, CFG).config["prepared"] == {"mode": "drop_missing", "seed": 4}

    def test_instances_round_trip_to_the_arrays(self, tmp_path):
        values, classes = np.array([[0, -1, 3], [-1, -1, 0], [1, 0, 2]]), np.array([1, -1, 0])
        ds = Dataset(["a", "b", "c"], [["x", "y"], ["u"], ["0", "1", "2", "3"]], ["p", "q"], values, classes)
        assert ds.instances == [((0, None, 3), 1), ((None, None, 0), None), ((1, 0, 2), 0)]
        assert {type(v) for row, cls in ds.instances for v in (*row, cls)} == {int, type(None)}
        back_values = [[-1 if v is None else v for v in row] for row, _ in ds.instances]
        back_classes = [-1 if cls is None else cls for _, cls in ds.instances]
        assert np.array_equal(back_values, values) and np.array_equal(back_classes, classes)
        # the text order_hash hashes, for a CSV with "?" cells and a "?" label
        loaded = load_dataset(write(tmp_path, "a,b,c\nx,?,yes\n?,u,?\ny,u,no\n"))
        assert repr(loaded.instances) == "[((0, None), 0), ((None, 0), None), ((1, 0), 1)]"


class TestPairedT:
    def test_identical_sequences(self):
        assert paired_t_test([1, 0, 1, 1], [1, 0, 1, 1], 4) == (0.0, False)

    def test_alternating_difference_hand_value(self):
        # d = (1,0,1,0): t = 1.732 against the df-3 critical value 3.182
        t, significant = paired_t_test([1, 1, 1, 1], [0, 1, 0, 1], 4)
        assert t == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert not significant

    def test_antisymmetry(self):
        a, b = [1, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 1]
        t_ab, _ = paired_t_test(a, b, 6)
        t_ba, _ = paired_t_test(b, a, 6)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)

    def test_constant_nonzero_difference_is_significant_by_convention(self):
        t, significant = paired_t_test([1, 1, 1], [0, 0, 0], 3)
        assert math.isinf(t) and t > 0 and significant

    def test_k_validation(self):
        with pytest.raises(InputError):
            paired_t_test([1, 0], [0, 1], 1)
        with pytest.raises(InputError):
            paired_t_test([1], [0], 2)

    @pytest.mark.parametrize("a", [[0.5, 1, 1], [1, math.nan, 1], [1, math.inf, 1]])
    def test_non_integer_entries_rejected(self, a):
        # the curve counts in integers, so a fractional flag would be truncated silently
        with pytest.raises(InputError, match="integer"):
            paired_t_test(a, [0, 0, 1], 3)


class TestRunIncremental:
    def test_single_instance_predicts_class_zero_from_no_evidence(self):
        ds = Dataset(["a"], [["0", "1"]], ["0", "1"], np.array([[1]]), np.array([1]))
        report = run_incremental(ds, CFG, filters=("f",))
        # no evidence: uniform posterior, tie resolves to class 0, so the
        # recorded prediction for true class 1 is wrong
        assert report.runs["f"].correct == [0]
        assert report.runs["f"].selected_counts == [0]

    def test_copy_class_attribute_kept_early_and_accurate(self):
        ds = prepare(synthetic_dataset(200, informative=1, noise=2, seed=3, flip=0.0), seed=3)
        report = run_incremental(ds, CFG, filters=("ff",), record_selected=True)
        sets = report.runs["ff"].selected_sets
        first = next(t for t, chosen in enumerate(sets) if 0 in chosen)
        assert first < 20
        assert all(0 in chosen for chosen in sets[first:])
        assert report.runs["ff"].final_accuracy > 0.9

    def test_pure_noise_orders_the_filters(self):
        ds = prepare(synthetic_dataset(500, informative=0, noise=10, seed=11), seed=11)
        report = run_incremental(ds, CFG)
        means = {f: report.runs[f].mean_selected for f in ("ff", "f", "bf")}
        assert means["ff"] < means["f"] < means["bf"]

    def test_bit_identical_reports(self):
        ds = prepare(synthetic_dataset(80, informative=2, noise=2, seed=4), seed=4)
        assert run_incremental(ds, CFG) == run_incremental(ds, CFG)

    def test_one_critical_value_pass_per_run(self, monkeypatch):
        ds = prepare(synthetic_dataset(80, informative=2, noise=2, seed=4), seed=4)
        expected = run_incremental(ds, CFG)
        calls = []
        stdtrit = midist.harness.special.stdtrit

        def counting(df, q):
            calls.append(np.shape(df))
            return stdtrit(df, q)

        monkeypatch.setattr(midist.harness.special, "stdtrit", counting)
        assert run_incremental(ds, CFG) == expected  # three filter pairs share one pass
        assert calls == [(len(ds) - 1,)]

    def test_causality_under_suffix_permutation(self):
        ds = prepare(synthetic_dataset(60, informative=1, noise=1, seed=8), seed=8)
        base = run_incremental(ds, CFG)
        rng = np.random.default_rng(0)
        for _ in range(5):
            cut = int(rng.integers(5, 55))
            order = np.concatenate([np.arange(cut), cut + rng.permutation(len(ds) - cut)])
            shuffled = Dataset(ds.attributes, ds.attribute_vocabs, ds.class_vocab, ds.values[order], ds.classes[order])
            other = run_incremental(shuffled, CFG)
            for f in base.filters:
                assert base.runs[f].correct[:cut] == other.runs[f].correct[:cut]
                assert base.runs[f].selected_counts[:cut] == other.runs[f].selected_counts[:cut]

    def test_running_accuracy_consistent_with_correct_flags(self):
        ds = prepare(synthetic_dataset(50, informative=1, noise=1, seed=2), seed=2)
        report = run_incremental(ds, CFG, filters=("f", "ff"))
        for f in ("f", "ff"):
            run = report.runs[f]
            acc = np.cumsum(run.correct) / np.arange(1, 51)
            assert np.allclose(run.running_accuracy, acc)
            assert run.mean_selected <= 2.0

    def test_t_curve_consistent_with_scalar_test(self):
        ds = prepare(synthetic_dataset(40, informative=1, noise=2, seed=9), seed=9)
        report = run_incremental(ds, CFG, filters=("ff", "f"))
        curve = report.pair_tests["ff_vs_f"]
        a = report.runs["ff"].correct
        b = report.runs["f"].correct
        for k in (2, 3, 10, 25, 40):
            t, significant = paired_t_test(a, b, k)
            assert curve["t"][k - 1] == pytest.approx(t, abs=1e-10)
            assert curve["significant"][k - 1] == significant

    def test_stacked_t_curves_equal_the_scalar_test_at_every_k(self):
        # all pairs share one stacked curve computation; each must be paired_t_test exactly
        ds = prepare(synthetic_dataset(60, informative=2, noise=4, seed=28), seed=28)
        report = run_incremental(ds, CFG)
        assert list(report.pair_tests) == ["f_vs_ff", "f_vs_bf", "ff_vs_bf"]
        for pair, curve in report.pair_tests.items():
            a, b = (report.runs[f].correct for f in pair.split("_vs_"))
            for k in range(2, len(ds) + 1):
                assert (curve["t"][k - 1], curve["significant"][k - 1]) == paired_t_test(a, b, k)
            assert any(curve["t"])  # every pair's predictions differ somewhere
        assert any(any(curve["significant"]) for curve in report.pair_tests.values())

    def test_order_hash_tracks_instance_order(self):
        ds = prepare(synthetic_dataset(30, informative=1, noise=1, seed=5), seed=5)
        other = prepare(synthetic_dataset(30, informative=1, noise=1, seed=5), seed=6)
        assert run_incremental(ds, CFG).order_hash == run_incremental(ds, CFG).order_hash
        assert run_incremental(ds, CFG).order_hash != run_incremental(other, CFG).order_hash

    def test_keep_missing_run_uses_partial_margins(self):
        values = [[0, -1], [1, 0], [-1, 1], [0, 1], [1, -1]] + [[0, 0]] * 10
        classes = [0, 1, 0, 1, 1] + [0] * 10
        ds = prepare(
            Dataset(["a", "b"], [["0", "1"], ["0", "1"]], ["0", "1"], np.array(values), np.array(classes)),
            mode="keep_missing",
            seed=1,
        )
        report = run_incremental(ds, CFG)
        assert report.instance_count == 15

    def test_zero_epsilon_rejected_for_credible_filters(self):
        ds = prepare(synthetic_dataset(10, informative=1, noise=0, seed=0), seed=0)
        cfg = FilterConfig(epsilon=0.0)
        run_incremental(ds, cfg, filters=("f",))  # plug-in filter is fine
        with pytest.raises(Exception, match="epsilon"):
            run_incremental(ds, cfg, filters=("f", "ff"))

    @pytest.mark.parametrize("prior", [PriorSpec("haldane"), PriorSpec("custom", 0.0)], ids=["haldane", "custom-0"])
    def test_zero_weight_prior_refused_before_any_step(self, monkeypatch, prior):
        ds = prepare(synthetic_dataset(10, informative=1, noise=0, seed=0), seed=0)
        monkeypatch.setattr(midist.harness, "decide_batch", lambda *a, **k: pytest.fail("a step ran"))
        with pytest.raises(ConfigurationError, match="positive prior weight"):
            run_incremental(ds, FilterConfig(prior=prior))

    def test_synthetic_dataset_needs_an_instance(self):
        with pytest.raises(InputError, match="n_instances"):
            synthetic_dataset(0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_instances": True}, "n_instances"),
            ({"seed": -1}, "seed"),
            ({"informative": -1}, "informative"),
            ({"informative": 1.5}, "informative"),
            ({"noise": -1}, "noise"),
            ({"flip": 2.0}, "flip"),
            ({"flip": -0.1}, "flip"),
            ({"flip": math.nan}, "flip"),
        ],
    )
    def test_synthetic_dataset_arguments_checked(self, kwargs, name):
        with pytest.raises(InputError, match=f"^{name} must be"):
            synthetic_dataset(**{"n_instances": 5, **kwargs})

    def test_unlabelled_instances_rejected(self):
        ds = Dataset(["a"], [["0", "1"]], ["0", "1"], np.array([[0]]), np.array([-1]))
        with pytest.raises(InputError, match="class"):
            run_incremental(ds, CFG)


def mixed_dataset(seed: int, instances: int = 40) -> Dataset:
    """3 classes, vocabulary sizes 1 to 6, half the attributes lose cells at random."""
    rng = np.random.default_rng(seed)
    sizes = (1, 2, 3, 4, 6, 2, 3, 6)
    rows, classes = [], []
    for _ in range(instances):
        cls = int(rng.integers(3))
        values = []
        for a, v in enumerate(sizes):
            value = (cls + rng.integers(2)) % v if a < 4 else rng.integers(v)  # the first four lean to the class
            values.append(-1 if a % 2 and rng.random() < 0.1 else int(value))
        rows.append(values)
        classes.append(cls)
    return Dataset(
        [f"a{a}" for a in range(len(sizes))],
        [[str(k) for k in range(v)] for v in sizes],
        ["c0", "c1", "c2"],
        np.array(rows),
        np.array(classes),
    )


def _tally(values, classes, vocab_sizes, class_count) -> list[ContingencyTable]:
    """Each attribute's table against the class over labelled rows, unobserved (-1) values on the partial margin."""
    joint = [np.zeros((v, class_count), dtype=np.int64) for v in vocab_sizes]
    partial = [np.zeros(class_count, dtype=np.int64) for _ in vocab_sizes]
    for row, cls in zip(values.tolist(), classes.tolist()):
        for a, v in enumerate(row):
            if v < 0:
                partial[a][cls] += 1
            else:
                joint[a][v, cls] += 1
    return [ContingencyTable(j, missing_feature=p) for j, p in zip(joint, partial)]


def long_mixed_dataset() -> Dataset:
    """A keep_missing run of ``mixed_dataset`` long enough for three decision chunks."""
    steps = midist.harness._CHUNK_TABLES // 8 + 1  # mixed_dataset has 8 attributes
    return prepare(mixed_dataset(6, instances=2 * steps + 50), mode="keep_missing", seed=6)


class TestBatchedDecisions:
    @pytest.mark.parametrize("prior", [PriorSpec("perks"), PriorSpec("jeffreys")])
    def test_selected_sets_equal_per_step_decide_on_own_tallies(self, prior):
        cfg = FilterConfig(prior=prior, family="normal")
        ds = prepare(mixed_dataset(3), mode="keep_missing", seed=3)
        report = run_incremental(ds, cfg, record_selected=True)
        for step in range(len(ds)):
            tables = _tally(ds.values[:step], ds.classes[:step], ds.vocab_sizes, ds.class_count)
            decisions = [decide(t, cfg) for t in tables]
            for f in ("f", "ff", "bf"):
                expected = [a for a, d in enumerate(decisions) if getattr(d, f"keep_{f}")]
                assert report.runs[f].selected_sets[step] == expected, (f, step)
        assert any(d.route == "missing_feature" for d in decisions)

    def test_in_run_decisions_equal_decide_on_own_tallies_bit_for_bit(self, monkeypatch):
        batches = []

        def recording(*args, **kwargs):
            batches.append(decide_batch(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(midist.harness, "decide_batch", recording)
        cfg = FilterConfig(prior=PriorSpec("perks"), family="normal")
        ds = prepare(mixed_dataset(5), mode="keep_missing", seed=5)
        run_incremental(ds, cfg)
        (batch,) = batches  # 40 steps of 8 attributes fit one chunk
        width = len(ds.attributes)
        for step in (1, 9, 23, 39):
            tables = _tally(ds.values[:step], ds.classes[:step], ds.vocab_sizes, ds.class_count)
            for a, table in enumerate(tables):
                alone = decide(table, cfg)
                for name in ("j", "mean", "variance", "prob_exceeds_eps"):
                    assert getattr(batch, name)[step * width + a] == getattr(alone, name), (step, a, name)

    def test_one_decision_call_per_chunk(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return decide_batch(*args, **kwargs)

        monkeypatch.setattr(midist.harness, "decide_batch", counting)
        ds = long_mixed_dataset()
        run_incremental(ds, FilterConfig(prior=PriorSpec("perks"), family="normal"))
        # vocabulary sizes 1 to 6 share one padded stack; each call holds whole steps
        steps = midist.harness._CHUNK_TABLES // len(ds.attributes)
        sizes = [min(steps, len(ds) - start) for start in range(0, len(ds), steps)]
        assert len(sizes) >= 2
        assert calls == [(n * len(ds.attributes), 6, 3) for n in sizes]

    def test_error_names_the_attribute_and_step_of_its_table(self, monkeypatch):
        ds = long_mixed_dataset()
        steps = midist.harness._CHUNK_TABLES // len(ds.attributes)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the second chunk's second step, third attribute
                raise ZeroCellError("zero cell", table=len(ds.attributes) + 2)
            return decide_batch(*args, **kwargs)

        monkeypatch.setattr(midist.harness, "decide_batch", failing)
        with pytest.raises(ZeroCellError, match=rf"^zero cell \(attribute 'a2', step {steps + 1}\)$") as caught:
            run_incremental(ds, FilterConfig(prior=PriorSpec("perks"), family="normal"))
        assert caught.value.table == len(ds.attributes) + 2

    def test_chunked_run_equals_the_per_step_loop(self):
        # the reference: decide from the classifier's counts, predict, then absorb, one instance at a time
        cfg = FilterConfig(prior=PriorSpec("jeffreys"), family="normal")
        ds = long_mixed_dataset()
        report = run_incremental(ds, cfg, record_selected=True)
        counts, class_counts, rows = midist.harness._zero_tally(ds)
        correct = {f: [] for f in FILTERS}
        sets = {f: [] for f in FILTERS}
        for values, cls in zip(ds.values, ds.classes):
            unobserved = class_counts - counts.sum(axis=1)
            batch = decide_batch(counts, cfg, missing_feature=unobserved, rows=rows)
            keep = np.stack([getattr(batch, f"keep_{f}") for f in FILTERS])
            value_counts = counts[np.arange(len(rows)), np.maximum(values, 0)]
            predicted, _ = score_subsets(value_counts, class_counts, ds.vocab_sizes, keep & (values >= 0))
            for f, row, guess in zip(FILTERS, keep, predicted):
                correct[f].append(int(guess == cls))
                sets[f].append(np.flatnonzero(row).tolist())
            absorb(counts, class_counts, values[None], np.array([cls]))
        for f in FILTERS:
            assert report.runs[f].correct == correct[f]
            assert report.runs[f].selected_counts == [len(chosen) for chosen in sets[f]]
            assert report.runs[f].selected_sets == sets[f]


    @pytest.mark.parametrize(
        "last, message",
        [
            (((0, 1), 0), "value indices must be integers in a regular array"),
            (((4,), 0), "instance 50: attribute 0: value index 4 outside vocabulary of size 4"),
            (((-2,), 0), "instance 50: attribute 0: value index -2 outside vocabulary of size 4"),
            (((1,), 2), r"instance 50: class index 2 outside \[0, 2\)"),
            (((1.5,), 0), "value indices must be integers, -1 for a missing cell, got dtype float64"),
            (((2**70,), 0), "value indices must be integers, -1 for a missing cell, got dtype object"),
            (((1,), -2), r"instance 50: class index -2 outside \[0, 2\)"),
        ],
    )
    def test_malformed_instance_rejected_before_any_decision(self, last, message):
        # the dataset checks its indices once, at construction, so no run can meet a bad one
        values = [[v % 4] for v in range(50)] + [list(last[0])]
        classes = [v % 2 for v in range(50)] + [last[1]]
        with pytest.raises(InputError, match=message):
            Dataset(["a"], [["0", "1", "2", "3"]], ["c0", "c1"], values, classes)

    def test_fallbacks_add_up_over_chunks(self, monkeypatch):
        # under Perks the sparse tables of the first steps have beta pairs no beta law matches;
        # at one step per chunk they fall back in three chunks, 7, 4 and 1 tables
        cfg = FilterConfig(prior=PriorSpec("perks"))
        ds = long_mixed_dataset()
        monkeypatch.setattr(midist.harness, "_CHUNK_TABLES", 1)
        report = run_incremental(ds, cfg)
        # the reference: every step's tables in one decide_batch call, each decided as decide decides it alone
        counts, class_counts, rows = midist.harness._zero_tally(ds)
        prefix, class_prefix = absorb(counts, class_counts, ds.values, ds.classes)
        missing = class_prefix[:, None, :] - prefix.sum(axis=2)
        stack, s = prefix.reshape(-1, *prefix.shape[2:]), ds.class_count
        batch = decide_batch(stack, cfg, missing_feature=missing.reshape(-1, s), rows=np.tile(rows, len(ds)))
        fell_back = np.flatnonzero(batch.fit_fallback)
        assert report.fit_fallbacks == len(fell_back) == 12
        assert np.unique(fell_back // len(rows), return_counts=True)[1].tolist() == [7, 4, 1]
        for step, a in (divmod(k, len(rows)) for k in fell_back):
            table = _tally(ds.values[:step], ds.classes[:step], ds.vocab_sizes, s)[a]
            assert decide(table, cfg).fit_fallback == "gamma", (step, a)

    def test_run_prints_one_fallback_line_with_the_total(self, monkeypatch, capsys, tmp_path):
        raw = mixed_dataset(6, instances=len(long_mixed_dataset()))  # long_mixed_dataset before it is prepared
        path = tmp_path / "mixed.csv"
        rows = [[vocab[v] if v >= 0 else "?" for vocab, v in zip(raw.attribute_vocabs, row)] for row in raw.values]
        lines = [",".join([*row, raw.class_vocab[c]]) for row, c in zip(rows, raw.classes)]
        path.write_text("\n".join([",".join([*raw.attributes, "cls"]), *lines]) + "\n")
        monkeypatch.setattr(midist.harness, "_CHUNK_TABLES", 1)
        argv = ["run", "--data", str(path), "--missing", "keep", "--seed", "6", "--prior", "perks"]
        assert main([*argv, "--out", str(tmp_path / "report.csv")]) == 0
        assert capsys.readouterr().err == "warning: 12 beta moment pair(s) infeasible; falling back to the gamma family\n"

    def test_decide_attributes_equals_decide_on_own_tally(self):
        # vocabularies 1 to 6 padded into one stack, "?" cells, and an unlabelled row that no table counts
        mixed = mixed_dataset(4)
        values = np.vstack([mixed.values, [0, 1, 2, 3, 5, 1, 2, 5]])
        ds = Dataset(mixed.attributes, mixed.attribute_vocabs, mixed.class_vocab, values, np.append(mixed.classes, -1))
        # and a tally carried across three chunks
        long = long_mixed_dataset()
        assert len(midist.harness._chunks(len(long), len(long.attributes))) == 3
        for data in (ds, long):
            labelled = data.classes >= 0
            tables = _tally(data.values[labelled], data.classes[labelled], data.vocab_sizes, data.class_count)
            for cfg in (FilterConfig(prior=PriorSpec("perks"), family="normal"), FilterConfig(family="normal")):
                expected = [decide(table, cfg, attribute=name) for name, table in zip(data.attributes, tables)]
                assert decide_attributes(data, cfg) == expected

    def test_zero_mean_partial_table_still_raises_under_beta(self):
        # the known library defect: an independent partial-margin table gets
        # mean 0 with a positive variance, which neither beta nor gamma fits
        cfg = FilterConfig(prior=PriorSpec("perks"))
        table = ContingencyTable(np.zeros((2, 3), dtype=np.int64), missing_feature=[1, 0, 0])
        with pytest.raises(InfeasibleFitError, match="^gamma needs mean > 0; got mean 0, "):
            decide(table, cfg)
        ds = Dataset(["a"], [["0", "1"]], ["c0", "c1", "c2"], np.array([[-1], [0]]), np.array([0, 1]))
        with pytest.raises(InfeasibleFitError, match="^gamma needs mean > 0; got mean 0, "):
            run_incremental(ds, cfg)

    def test_zero_mean_fit_error_names_its_attribute_and_step(self):
        cfg = FilterConfig(prior=PriorSpec("perks"))
        ds = Dataset(["a", "b"], [["0", "1"]] * 2, ["c0", "c1", "c2"], np.array([[0, -1], [1, 0]]), np.array([0, 1]))
        # at step 1, attribute b's table is empty with one class-0 instance on its partial margin
        with pytest.raises(InfeasibleFitError, match=r"^gamma needs mean > 0; .*\(attribute 'b', step 1\)$"):
            run_incremental(ds, cfg)


@pytest.mark.parametrize(
    "build, cfg, digest",
    [
        (
            lambda: prepare(synthetic_dataset(500, informative=5, noise=5, seed=0), seed=0),
            FilterConfig(),
            "ace949ee70fd6424004c4745b35f537b7af97e8a28b080297c707876e06f1dd1",
        ),
        (
            lambda: prepare(mixed_dataset(3), mode="keep_missing", seed=3),
            FilterConfig(prior=PriorSpec("perks"), family="normal"),
            "fb24a32a58b4b60339d2395a662710730b5bdcb1d9f6cb1f9625043792016eb0",
        ),
        (
            long_mixed_dataset,
            FilterConfig(prior=PriorSpec("jeffreys"), family="normal"),
            "64289570cc06440b53884cc612223f7958bea331a9498b18b1fa7346e60ca56e",
        ),
    ],
    ids=["synthetic_seed_0", "keep_missing_mixed", "three_chunks"],
)
def test_report_digest_pinned(build, cfg, digest):
    # a report holds decisions, and accuracies and t statistics computed from integer
    # counts, so last-bit moves in the moments leave it alone; a moved decision does not
    report = run_incremental(build(), cfg, record_selected=True)
    text = json.dumps(report_to_dict(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(midist.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import midist; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


class TestReports:
    def make_report(self):
        ds = prepare(synthetic_dataset(30, informative=1, noise=1, seed=7), seed=7)
        return run_incremental(ds, CFG)

    def test_json_round_trip_equality(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path, format="json")
        assert report_from_dict(json.loads(path.read_text())) == report

    def test_fallback_count_stays_out_of_the_payload(self):
        # the pinned digests hash this payload; run diagnostics are not part of it
        ds = prepare(synthetic_dataset(8, informative=1, noise=1), seed=1)
        report = run_incremental(ds, FilterConfig(prior=PriorSpec("perks")))
        payload = report_to_dict(report)
        assert report.fit_fallbacks > 0
        assert list(payload) == ["config", "filters", "instance_count", "order_hash", "runs", "pair_tests"]
        back = report_from_dict(json.loads(json.dumps(payload)))
        assert back.fit_fallbacks == 0 and replace(back, fit_fallbacks=report.fit_fallbacks) == report

    def test_dict_round_trip_via_json_text(self):
        report = self.make_report()
        payload = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(payload) == report

    def test_csv_rows_match_instance_count(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_report(report, path, format="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == report.instance_count + 1
        header = lines[0].split(",")
        assert header[0] == "instance"
        assert "accuracy_f" in header and "selected_bf" in header
        assert any(col.startswith("significant_") for col in header)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            write_report(self.make_report(), tmp_path / "x", format="parquet")


class TestDiscretize:
    def test_quantile_boundaries_on_1_to_100(self):
        labels = discretize_equal_frequency(list(range(1, 101)), 4)
        counts = {label: labels.count(label) for label in set(labels)}
        assert counts == {"bin_0": 25, "bin_1": 25, "bin_2": 25, "bin_3": 25}
        assert labels[24] == "bin_0" and labels[25] == "bin_1"

    def test_boundary_ties_go_to_the_lower_bin(self):
        # quantile boundaries of (0,1,2,3) at 2 bins: 1.5; of equal values: exact
        labels = discretize_equal_frequency([0.0, 1.0, 1.0, 2.0], 2)
        assert labels == ["bin_0", "bin_0", "bin_0", "bin_1"]

    def test_constant_column_falls_back_to_one_bin_per_value(self):
        assert discretize_equal_frequency([3.0, 3.0, 3.0], 4) == ["bin_0"] * 3

    def test_two_distinct_values_give_two_bins(self):
        assert discretize_equal_frequency([1.0, 5.0, 1.0], 4) == ["bin_0", "bin_1", "bin_0"]

    def test_unsorted_values_and_signed_zeros_label_by_rank(self):
        assert discretize_equal_frequency([0.0, 2.0, -0.0, -1.0], 5) == ["bin_1", "bin_2", "bin_1", "bin_0"]

    def test_validation(self):
        with pytest.raises(InputError):
            discretize_equal_frequency([1.0, 2.0], 1)
        with pytest.raises(InputError):
            discretize_equal_frequency([], 2)
