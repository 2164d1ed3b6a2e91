import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

import midist
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
from midist.nb import absorb, encode, score_subsets
from midist.tables import ContingencyTable, PriorSpec

CFG = FilterConfig()


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_small_csv(self, tmp_path):
        ds = load_dataset(write(tmp_path, "a,b,c\nx,1,yes\ny,2,no\n"))
        assert ds.attributes == ["a", "b"]
        assert len(ds) == 2
        assert ds.class_vocab == ["yes", "no"]
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
        assert by_name.attributes == by_index.attributes == ["a"]
        assert by_name.class_vocab == ["yes", "no"]

    def test_unknown_class_column(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_dataset(write(tmp_path, "a,b\nx,y\n"), class_column="target")

    def test_headerless(self, tmp_path):
        ds = load_dataset(write(tmp_path, "x,yes\ny,no\n"), header=False)
        assert ds.attributes == ["col_0"]
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
        assert ds.attributes == [f"a{i}" for i in range(16)] and ds.class_vocab == ["republican", "democrat"]
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
    def make(self):
        rows = [((0, 0), 0), ((1, None), 1), ((None, 1), 0), ((1, 1), 1)] + [
            ((0, 1), 0) for _ in range(6)
        ]
        return Dataset(["a", "b"], [["0", "1"], ["0", "1"]], ["0", "1"], rows)

    def test_drop_missing_removes_rows_with_gaps(self):
        assert len(prepare(self.make(), "drop_missing", seed=0)) == 8

    def test_keep_missing_keeps_feature_gaps(self):
        ds = self.make()
        ds.instances.append(((0, 0), None))  # class gap is always dropped
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
        ds = Dataset(["a"], [["0", "1"]], ["0", "1"], [((1,), 1)])
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
            suffix = ds.instances[cut:]
            permuted = [suffix[i] for i in rng.permutation(len(suffix))]
            shuffled = Dataset(
                ds.attributes, ds.attribute_vocabs, ds.class_vocab, ds.instances[:cut] + permuted
            )
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

    def test_order_hash_tracks_instance_order(self):
        ds = prepare(synthetic_dataset(30, informative=1, noise=1, seed=5), seed=5)
        other = prepare(synthetic_dataset(30, informative=1, noise=1, seed=5), seed=6)
        assert run_incremental(ds, CFG).order_hash == run_incremental(ds, CFG).order_hash
        assert run_incremental(ds, CFG).order_hash != run_incremental(other, CFG).order_hash

    def test_keep_missing_run_uses_partial_margins(self):
        rows = [((0, None), 0), ((1, 0), 1), ((None, 1), 0), ((0, 1), 1), ((1, None), 1)] + [
            ((0, 0), 0) for _ in range(10)
        ]
        ds = prepare(
            Dataset(["a", "b"], [["0", "1"], ["0", "1"]], ["0", "1"], rows),
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

    def test_unlabelled_instances_rejected(self):
        ds = Dataset(["a"], [["0", "1"]], ["0", "1"], [((0,), None)])
        with pytest.raises(InputError, match="class"):
            run_incremental(ds, CFG)


def mixed_dataset(seed: int, instances: int = 40) -> Dataset:
    """3 classes, vocabulary sizes 1 to 6, half the attributes lose cells at random."""
    rng = np.random.default_rng(seed)
    sizes = (1, 2, 3, 4, 6, 2, 3, 6)
    rows = []
    for _ in range(instances):
        cls = int(rng.integers(3))
        values = []
        for a, v in enumerate(sizes):
            value = (cls + rng.integers(2)) % v if a < 4 else rng.integers(v)  # the first four lean to the class
            values.append(None if a % 2 and rng.random() < 0.1 else int(value))
        rows.append((tuple(values), cls))
    return Dataset(
        [f"a{a}" for a in range(len(sizes))],
        [[str(k) for k in range(v)] for v in sizes],
        ["c0", "c1", "c2"],
        rows,
    )


def _tally(instances, vocab_sizes, class_count) -> list[ContingencyTable]:
    """Each attribute's table against the class over ``instances``, unobserved values on the partial margin."""
    joint = [np.zeros((v, class_count), dtype=np.int64) for v in vocab_sizes]
    partial = [np.zeros(class_count, dtype=np.int64) for _ in vocab_sizes]
    for values, cls in instances:
        for a, v in enumerate(values):
            if v is None:
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
            decisions = [decide(t, cfg) for t in _tally(ds.instances[:step], ds.vocab_sizes, ds.class_count)]
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
            tables = _tally(ds.instances[:step], ds.vocab_sizes, ds.class_count)
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
        for instance, cls in ds.instances:
            unobserved = class_counts - counts.sum(axis=1)
            batch = decide_batch(counts, cfg, missing_feature=unobserved, rows=rows)
            keep = np.stack([getattr(batch, f"keep_{f}") for f in FILTERS])
            values, observed = encode([instance], ds.vocab_sizes)
            value_counts = counts[np.arange(len(rows)), values[0]]
            predicted, _ = score_subsets(value_counts, class_counts, ds.vocab_sizes, keep & observed)
            for f, row, guess in zip(FILTERS, keep, predicted):
                correct[f].append(int(guess == cls))
                sets[f].append(np.flatnonzero(row).tolist())
            absorb(counts, class_counts, values, observed, np.array([cls]))
        for f in FILTERS:
            assert report.runs[f].correct == correct[f]
            assert report.runs[f].selected_counts == [len(chosen) for chosen in sets[f]]
            assert report.runs[f].selected_sets == sets[f]

    @pytest.mark.parametrize(
        "last, message",
        [
            (((0, 1), 0), "has 2 attributes"),
            (((4,), 0), "value index 4"),
            (((-1,), 0), "value index -1"),
            (((1,), 2), "class index 2"),
            (((1.5,), 0), r"instance 50: attribute 0: value index 1\.5 is not an integer"),
            (((2**70,), 0), "instance 50: attribute 0: value index 1180591620717411303424 outside vocabulary"),
        ],
    )
    def test_malformed_instance_rejected_before_any_decision(self, monkeypatch, last, message):
        calls = []
        monkeypatch.setattr(midist.harness, "decide_batch", lambda *args, **kwargs: calls.append(args))
        instances = [((v % 4,), v % 2) for v in range(50)] + [last]
        ds = Dataset(["a"], [["0", "1", "2", "3"]], ["c0", "c1"], instances)
        with pytest.raises(InputError, match=message):
            run_incremental(ds, CFG)
        assert calls == []

    def test_fallback_warns_once_per_chunk(self):
        # under Perks the empty and the one-count 4x2 tables of steps 0 and 1
        # have infeasible beta pairs; both steps lie in one chunk
        cfg = FilterConfig(prior=PriorSpec("perks"))
        rows = [((2,), 0), ((2,), 0), ((0,), 1), ((1,), 1), ((3,), 0), ((2,), 1)]
        ds = Dataset(["a"], [["0", "1", "2", "3"]], ["c0", "c1"], rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_incremental(ds, cfg)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [
            "2 beta moment pair(s) infeasible; falling back to the gamma family"
        ]

    def test_decide_attributes_equals_decide_on_own_tally(self):
        # vocabularies 1 to 6 padded into one stack, "?" cells, and an unlabelled row that no table counts
        ds = mixed_dataset(4)
        ds.instances.append(((0, 1, 2, 3, 5, 1, 2, 5), None))
        # and a tally carried across three chunks
        long = long_mixed_dataset()
        assert len(midist.harness._chunks(len(long), len(long.attributes))) == 3
        for data in (ds, long):
            labelled = [row for row in data.instances if row[1] is not None]
            tables = _tally(labelled, data.vocab_sizes, data.class_count)
            for cfg in (FilterConfig(prior=PriorSpec("perks"), family="normal"), FilterConfig(family="normal")):
                expected = [decide(table, cfg, attribute=name) for name, table in zip(data.attributes, tables)]
                assert decide_attributes(data, cfg) == expected

    def test_zero_mean_partial_table_still_raises_under_beta(self):
        # the known library defect: an independent partial-margin table gets
        # mean 0 with a positive variance, which neither beta nor gamma fits
        cfg = FilterConfig(prior=PriorSpec("perks"))
        table = ContingencyTable(np.zeros((2, 3), dtype=np.int64), missing_feature=[1, 0, 0])
        with pytest.warns(RuntimeWarning, match="gamma"), pytest.raises(InfeasibleFitError):
            decide(table, cfg)
        ds = Dataset(["a"], [["0", "1"]], ["c0", "c1", "c2"], [((None,), 0), ((0,), 1)])
        with pytest.warns(RuntimeWarning, match="gamma"), pytest.raises(InfeasibleFitError):
            run_incremental(ds, cfg)

    def test_zero_mean_fit_error_names_its_attribute_and_step(self):
        cfg = FilterConfig(prior=PriorSpec("perks"))
        ds = Dataset(["a", "b"], [["0", "1"]] * 2, ["c0", "c1", "c2"], [((0, None), 0), ((1, 0), 1)])
        # at step 1, attribute b's table is empty with one class-0 instance on its partial margin
        with pytest.warns(RuntimeWarning, match="gamma"):
            with pytest.raises(InfeasibleFitError, match=r"\(attribute 'b', step 1\)$"):
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

    def test_constant_column_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="distinct"):
            labels = discretize_equal_frequency([3.0, 3.0, 3.0], 4)
        assert labels == ["bin_0"] * 3

    def test_two_distinct_values_give_two_bins(self):
        with pytest.warns(RuntimeWarning):
            labels = discretize_equal_frequency([1.0, 5.0, 1.0], 4)
        assert labels == ["bin_0", "bin_1", "bin_0"]

    def test_unsorted_values_and_signed_zeros_label_by_rank(self):
        with pytest.warns(RuntimeWarning):
            labels = discretize_equal_frequency([0.0, 2.0, -0.0, -1.0], 5)
        assert labels == ["bin_1", "bin_2", "bin_1", "bin_0"]

    def test_validation(self):
        with pytest.raises(InputError):
            discretize_equal_frequency([1.0, 2.0], 1)
        with pytest.raises(InputError):
            discretize_equal_frequency([], 2)
