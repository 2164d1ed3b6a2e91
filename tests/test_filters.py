import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import midist.filters
from midist.core import mi_upper_bound
from midist.dist import FIT_FAMILIES, fit
from midist.errors import (
    ConfigurationError,
    InfeasibleFitError,
    InputError,
    NumericalError,
    UndefinedFillError,
    ZeroCellError,
)
from midist.filters import FilterConfig, decide, decide_batch
from midist.harness import Dataset, decide_attributes, synthetic_dataset
from midist.missing import missing_batch
from midist.tables import ContingencyTable, PriorSpec

CFG = FilterConfig()


def random_table(rng):
    r, s = rng.integers(2, 4, size=2)
    return ContingencyTable(rng.integers(0, 30, size=(r, s)))


class TestConfig:
    def test_defaults(self):
        assert CFG.epsilon == 0.003 and CFG.p_level == 0.95
        assert CFG.family == "beta" and CFG.prior.kind == "uniform"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(epsilon=-0.1)
        with pytest.raises(ConfigurationError):
            FilterConfig(p_level=1.0)
        with pytest.raises(ConfigurationError):
            FilterConfig(family="point_mass")

    def test_zero_epsilon_allowed_but_rejected_for_credible_filters(self):
        cfg = FilterConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError, match="epsilon"):
            cfg.check_filters(["ff"])


class TestDecide:
    def test_dependent_table_keeps_f(self):
        d = decide(ContingencyTable([[8, 2], [4, 16]]), CFG)
        assert d.keep_f
        # J is the plug-in value of the prior-augmented grid (9,3),(5,17)
        assert d.j == pytest.approx(0.13222560156098784, abs=1e-12)

    def test_constant_attribute_is_degenerate(self):
        d = decide(ContingencyTable([[3, 5]]), CFG)
        assert d.route == "degenerate"
        assert not (d.keep_f or d.keep_ff or d.keep_bf)
        assert d.j == 0.0 and d.prob_exceeds_eps == 0.0

    def test_strong_dependence_with_large_sample_keeps_all(self):
        d = decide(ContingencyTable(64 * np.array([[40, 10], [20, 80]])), CFG)
        assert d.keep_f and d.keep_ff and d.keep_bf

    def test_missing_margin_routes_to_incomplete_moments(self):
        t = ContingencyTable([[8, 2], [4, 16]], missing_feature=[3, 5])
        d = decide(t, CFG)
        mm = missing_batch((t.counts + CFG.prior.cell_weight(2, 2)).T[None], t.missing_feature[None])
        assert d.route == "missing_feature"
        assert d.mean == mm.mean[0] and d.variance == mm.variance[0]

    def test_flags_recomputable_from_fields(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = decide(random_table(rng), CFG)
            assert d.keep_f == (d.j > CFG.epsilon)
            assert d.keep_ff == (d.prob_exceeds_eps > CFG.p_level)
            assert d.keep_bf == (d.prob_exceeds_eps > 1.0 - CFG.p_level)


def kept(dataset, cfg, which):
    """The attributes ``midist select --filter which`` keeps: the filter is checked, then every attribute decided."""
    cfg.check_filters([which])
    return [d.attribute for d in decide_attributes(dataset, cfg) if getattr(d, f"keep_{which}")]


class TestSelectFeatures:
    NO_ATTRIBUTES = Dataset([], [], ["0", "1"], np.zeros((2, 0), dtype=np.int64), np.array([0, 1]))

    def test_empty_input(self):
        assert kept(self.NO_ATTRIBUTES, CFG, "ff") == []

    def test_ff_subset_of_bf(self):
        ds = synthetic_dataset(150, informative=3, noise=3, seed=5)
        assert set(kept(ds, CFG, "ff")) <= set(kept(ds, CFG, "bf"))

    def test_unknown_filter(self):
        with pytest.raises(InputError):
            kept(self.NO_ATTRIBUTES, CFG, "forward")

    def test_zero_epsilon_rejected_for_credible_filters_only(self):
        cfg = FilterConfig(epsilon=0.0)
        ds = synthetic_dataset(60, informative=1, noise=1, seed=0)
        assert kept(ds, cfg, "f")  # plug-in filter tolerates 0
        for which in ("ff", "bf"):
            with pytest.raises(ConfigurationError):
                kept(ds, cfg, which)

    def test_subset_chain_across_seeds(self):
        # informative plus noise attributes: ff keeps a subset of f keeps a
        # subset of bf in at least 95 of 100 seeded draws
        hits = 0
        for seed in range(100):
            ds = synthetic_dataset(200, informative=5, noise=5, seed=seed)
            ff = set(kept(ds, CFG, "ff"))
            f = set(kept(ds, CFG, "f"))
            bf = set(kept(ds, CFG, "bf"))
            if ff <= f <= bf:
                hits += 1
        assert hits >= 95


@st.composite
def decision_inputs(draw):
    r = draw(st.integers(2, 3))
    s = draw(st.integers(2, 3))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 40), min_size=s, max_size=s), min_size=r, max_size=r
        )
    )
    epsilon = draw(st.floats(1e-4, 0.3))
    p_level = draw(st.floats(0.55, 0.99))
    return ContingencyTable(counts), epsilon, p_level


@given(decision_inputs())
@settings(max_examples=120, deadline=None)
def test_monotone_in_epsilon(payload):
    table, epsilon, p_level = payload
    lo = decide(table, FilterConfig(epsilon=epsilon, p_level=p_level))
    hi = decide(table, FilterConfig(epsilon=epsilon * 2.0, p_level=p_level))
    # raising the threshold never converts a discard into a keep
    assert not (hi.keep_f and not lo.keep_f)
    assert not (hi.keep_ff and not lo.keep_ff)
    assert not (hi.keep_bf and not lo.keep_bf)


@given(decision_inputs())
@settings(max_examples=120, deadline=None)
def test_monotone_in_p_and_ff_within_bf(payload):
    table, epsilon, p_level = payload
    higher = min(0.995, p_level + 0.04)
    lo = decide(table, FilterConfig(epsilon=epsilon, p_level=p_level))
    hi = decide(table, FilterConfig(epsilon=epsilon, p_level=higher))
    assert not (hi.keep_ff and not lo.keep_ff)  # ff discard stays discarded
    assert not (lo.keep_bf and not hi.keep_bf)  # bf keep stays kept
    for d in (lo, hi):
        assert not d.keep_ff or d.keep_bf  # ff implies bf at p >= 1/2


PRIORS = (
    PriorSpec("uniform"),
    PriorSpec("jeffreys"),
    PriorSpec("perks"),
    PriorSpec("custom", 0.3),
    PriorSpec("haldane"),
)


def tally_of(tables, s):
    """The (1, V, s) tally of (counts, missing_class, missing_feature) tables, its (1, V) and (1, A, s) margins, its sizes."""
    counts, missing_class, missing_feature = zip(*tables)
    return (
        np.concatenate([np.reshape(c, (-1, s)) for c in counts])[None],
        np.concatenate(missing_class)[None],
        np.reshape(missing_feature, (1, -1, s)),
        np.array([len(c) for c in counts]),
    )


@st.composite
def table_stacks(draw):
    """A tally of tables with 1 to 4 rows, some with mass on one partial margin."""
    size = draw(st.integers(1, 6))
    s = draw(st.integers(2, 3))
    tables = []
    for r in draw(st.lists(st.integers(1, 4), min_size=size, max_size=size)):
        cells = draw(st.lists(st.integers(0, 12), min_size=r * s, max_size=r * s))
        missing_class, missing_feature = np.zeros(r, dtype=np.int64), np.zeros(s, dtype=np.int64)
        gap = draw(st.sampled_from(("none", "none", "class", "feature")))
        if gap == "class":
            missing_class[:] = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        elif gap == "feature":
            missing_feature[:] = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s))
        tables.append((np.reshape(cells, (r, s)), missing_class, missing_feature))
    cfg = FilterConfig(family=draw(st.sampled_from(FIT_FAMILIES)), prior=draw(st.sampled_from(PRIORS)))
    return (*tally_of(tables, s), cfg)


def single_tables(counts, missing_class, missing_feature, sizes):
    """Each table of a stack of tallies, in the row-major order of the batch's (B, A) fields."""
    edges = np.cumsum(sizes)[:-1]
    return [
        ContingencyTable(c, missing_class=mc, missing_feature=mf)
        for tally, unlabelled, partial in zip(counts, missing_class, missing_feature)
        for c, mc, mf in zip(np.split(tally, edges), np.split(unlabelled, edges), partial)
    ]


def assert_batch_matches_single_tables(counts, missing_class, missing_feature, sizes, cfg):
    """Every table of the tallies decides as it does alone; the tail also matches the scalar fit."""
    try:
        batch = decide_batch(counts, cfg, missing_class, missing_feature, sizes)
    except NumericalError as exc:
        batch = exc
    singles = []
    for table in single_tables(counts, missing_class, missing_feature, sizes):
        try:
            singles.append(decide(table, cfg))
        except NumericalError as exc:
            singles.append(exc)
    if isinstance(batch, Exception):
        assert type(batch) in {type(d) for d in singles if isinstance(d, Exception)}
        return
    field = {name: np.ravel(getattr(batch, name)) for name in ("j", "mean", "variance", "prob_exceeds_eps", "keep_f",
             "keep_ff", "keep_bf", "route", "fit_fallback", "variance_clamped")}
    for k, d in enumerate(singles):
        assert (bool(field["keep_f"][k]), bool(field["keep_ff"][k]), bool(field["keep_bf"][k])) == (
            d.keep_f,
            d.keep_ff,
            d.keep_bf,
        )
        for name in ("j", "mean", "variance", "prob_exceeds_eps"):
            assert abs(field[name][k] - getattr(d, name)) <= 1e-12, name
        assert field["route"][k] == d.route and field["fit_fallback"][k] == d.fit_fallback
        assert bool(field["variance_clamped"][k]) == d.variance_clamped
        if d.route != "degenerate":
            # the fallback rule, applied independently: beta that fit rejects becomes gamma
            i_max = mi_upper_bound(np.tile(sizes, len(counts))[k], counts.shape[2])
            try:
                approx, fallback = fit(cfg.family, d.mean, d.variance, i_max), None
            except InfeasibleFitError:
                if cfg.family != "beta":
                    raise
                approx, fallback = fit("gamma", d.mean, d.variance, i_max), "gamma"
            assert d.fit_fallback == fallback
            assert abs(approx.prob_exceeds(cfg.epsilon) - d.prob_exceeds_eps) <= 1e-12
        else:
            assert d.j == d.mean == d.variance == 0.0 and not (d.keep_f or d.keep_ff or d.keep_bf)


@given(table_stacks())
@settings(max_examples=300, deadline=None)
def test_batch_matches_decide_on_each_table_alone(payload):
    counts, missing_class, missing_feature, sizes, cfg = payload
    tables = single_tables(counts, missing_class, missing_feature, sizes)
    zero_cell = [
        t.r > 1 and not (t.missing_class.any() or t.missing_feature.any()) and (t.counts == 0).any() for t in tables
    ]
    if cfg.prior.kind == "haldane" and any(zero_cell):
        # a complete table with an empty cell raises, in the tally as alone
        with pytest.raises(ZeroCellError):
            decide_batch(counts, cfg, missing_class, missing_feature, sizes)
        with pytest.raises(ZeroCellError):
            decide(ContingencyTable(tables[zero_cell.index(True)].counts), cfg)
    assert_batch_matches_single_tables(counts, missing_class, missing_feature, sizes, cfg)


@st.composite
def mixed_tallies(draw):
    """One or two tallies of 2 to 8 tables of 1 to 12 rows; each table complete or with mass on one partial margin."""
    size = draw(st.integers(2, 8))
    s = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    tallies = []
    for _ in range(draw(st.integers(1, 2))):
        tables = []
        for r in sizes:
            counts = np.reshape(draw(st.lists(st.integers(0, 9), min_size=r * s, max_size=r * s)), (r, s))
            missing_class, missing_feature = np.zeros(r, dtype=np.int64), np.zeros(s, dtype=np.int64)
            route = draw(st.sampled_from(("complete", "missing_class", "missing_feature")))
            if route == "missing_class":
                missing_class[:] = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
            elif route == "missing_feature":
                missing_feature[:] = draw(st.lists(st.integers(1, 3), min_size=s, max_size=s))
            tables.append((counts, missing_class, missing_feature))
        tallies.append(tally_of(tables, s))
    cfg = FilterConfig(family=draw(st.sampled_from(FIT_FAMILIES)), prior=draw(st.sampled_from(PRIORS[:4])))
    counts, missing_class, missing_feature, _ = zip(*tallies)
    return np.concatenate(counts), np.concatenate(missing_class), np.concatenate(missing_feature), np.array(sizes), cfg


@given(mixed_tallies())
@settings(max_examples=200, deadline=None)
def test_a_tables_decision_does_not_depend_on_its_batch(payload):
    # bit for bit: every per-table sum groups the same alone as inside any stack of tallies
    counts, missing_class, missing_feature, sizes, cfg = payload
    try:
        batch = decide_batch(counts, cfg, missing_class, missing_feature, sizes)
    except NumericalError:  # a zero-mean partial table no family fits; covered elsewhere
        return
    for k, table in enumerate(single_tables(counts, missing_class, missing_feature, sizes)):
        alone = decide(table, cfg)
        for name in ("j", "mean", "variance", "prob_exceeds_eps"):
            assert getattr(batch, name).ravel()[k] == getattr(alone, name), (name, k)


@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_batch_covers_point_mass_and_fallback(family):
    # under Perks, the second table's variance clamps to 0, so its tail is a
    # point mass (a known weakness, not pinned here beyond reaching that
    # branch), and the third's beta pair is infeasible, so beta falls back
    counts = np.array(
        [
            [[5, 1], [1, 4], [2, 2], [0, 3]],
            [[0, 0], [0, 1], [2, 0], [1, 0]],
            [[0, 0], [0, 0], [1, 0], [0, 0]],
        ]
    )
    cfg = FilterConfig(family=family, prior=PriorSpec("perks"))
    batch = decide_batch(counts, cfg)  # three tallies of one table each
    assert batch.variance[1, 0] == 0.0
    assert batch.fit_fallback.ravel().tolist() == [None, None, "gamma" if family == "beta" else None]
    assert_batch_matches_single_tables(counts, np.zeros((3, 4)), np.zeros((3, 1, 2)), [4], cfg)


def test_one_moments_call_per_complete_height_and_one_call_per_partial_route(monkeypatch):
    # the complete route runs unpadded, one kernel call per vocabulary size; grouping the partial
    # routes by height too was slower, since their cost is mostly fixed per call
    shapes = {"moments_batch": [], "missing_batch": []}

    def counting(name, kernel):
        def wrapped(grid, *rest):
            shapes[name].append(np.shape(grid))
            return kernel(grid, *rest)

        return wrapped

    for name in shapes:
        monkeypatch.setattr(midist.filters, name, counting(name, getattr(midist.filters, name)))
    sizes = [2, 3, 4, 2, 3, 4, 2, 4, 3, 4]
    rng = [np.random.default_rng(k) for k in range(len(sizes))]
    tables = [(rng[k].integers(1, 9, size=(r, 3)), np.zeros(r), np.zeros(3)) for k, r in enumerate(sizes)]
    tables[6][1][:], tables[7][1][:] = 1, 2
    tables[8][2][:], tables[9][2][:] = [1, 0, 2], [0, 3, 1]
    cfg = FilterConfig(family="normal", prior=PriorSpec("perks"))
    counts, missing_class, missing_feature, sizes = tally_of(tables, 3)
    batch = decide_batch(counts, cfg, missing_class, missing_feature, sizes)
    assert batch.route.ravel().tolist() == ["complete"] * 6 + ["missing_class"] * 2 + ["missing_feature"] * 2
    assert sorted(shapes["moments_batch"]) == [(2, 2, 3), (2, 3, 3), (2, 4, 3)]
    assert sorted(shapes["missing_batch"]) == [(2, 3, 4), (2, 4, 3)]


@pytest.mark.parametrize(
    "counts",
    [np.ones((2, 2, 2)), np.ones((2, 2), dtype=np.int64), np.array([[[1, -1], [2, 3]]])],
    ids=["float", "2-D", "negative"],
)
def test_counts_must_be_a_stack_of_non_negative_integer_tables(counts):
    with pytest.raises(InputError, match=r"counts must be a \(B, V, s\) stack"):
        decide_batch(counts, CFG)


def test_sizes_validated():
    # one row per attribute value: the sizes are positive integers that sum to the tally's 7 rows
    counts = np.ones((2, 7, 2), dtype=np.int64)
    message = "^sizes must be positive integer vocabulary sizes summing to the tally's 7 rows$"
    for sizes in ([3, 3], [4, 4], [7, 0], [0, 7], [6, -1], [3.5, 3.5], [3.0, 4.0], [[3, 4]], [True] * 7, 7):
        with pytest.raises(InputError, match=message):
            decide_batch(counts, CFG, sizes=sizes)
    # a size list that sums to the tally's height is still refused unless its sizes are positive integers
    for sizes, height in (([1.5], 1), ([2.0], 2), ([0], 0), ([True], 1)):
        with pytest.raises(InputError, match=f"summing to the tally's {height} rows$"):
            decide_batch(np.ones((2, height, 2), dtype=np.int64), CFG, sizes=sizes)
    # an empty list, which numpy reads as float64, is zero attributes
    empty = decide_batch(np.ones((3, 0, 2), dtype=np.int64), CFG, sizes=[])
    assert empty.mean.shape == empty.route.shape == (3, 0)
    # a one-row table between two three-row ones reads its own row alone, in each of two tallies
    batch = decide_batch(counts, CFG, sizes=[3, 1, 3])
    assert batch.route.tolist() == [["complete", "degenerate", "complete"]] * 2
    alone = decide(ContingencyTable(np.ones((3, 2), dtype=np.int64)), CFG)
    assert batch.mean[:, [0, 2]].tolist() == [[alone.mean] * 2] * 2


@pytest.mark.parametrize(
    "margin, value, message",
    [
        ("missing_feature", [[[-1, 0]]], "entries must be finite and non-negative"),
        ("missing_feature", [[[np.nan, 0]]], "entries must be finite and non-negative"),
        ("missing_feature", [[0, 0, 0]], r"must have shape \(1, 1, 2\), got \(1, 3\)$"),
        ("missing_class", [[0]], r"must have shape \(1, 2\), got \(1, 1\)$"),
        ("missing_feature", [[[0, 0]], [[0, 0]]], r"must have shape \(1, 1, 2\), got \(2, 1, 2\)$"),
        ("missing_class", [[np.inf, 0]], "entries must be finite and non-negative"),
    ],
    ids=["negative", "nan", "(1, 3)", "short", "two-tables", "inf"],
)
def test_margins_are_checked_against_the_counts(margin, value, message):
    # a negative or NaN margin and a short class margin once passed as a complete table, the other
    # misshapen ones met a raw numpy ValueError or IndexError, and an infinite one ended as "non-finite moments"
    with pytest.raises(InputError, match=f"^{margin} {message}"):
        decide_batch(np.array([[[3, 1], [1, 3]]]), CFG, **{margin: value})


@pytest.mark.parametrize("weight", [1e-300, 1e-200, 1e200, 1e300])
def test_non_finite_moments_are_a_numerical_error(weight):
    # the cell products of an empty table under this weight under- or overflow, so the moments are NaN
    table = ContingencyTable(np.zeros((2, 2), dtype=np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and the kernels' floating-point warnings stay inside decide_batch
        with pytest.raises(NumericalError, match="^non-finite moments: mean .*, variance nan"):
            decide(table, FilterConfig(prior=PriorSpec("custom", weight)))


GOOD = [[3, 1, 2], [2, 5, 7]]


@pytest.mark.parametrize(
    "prior, failing, missing, error",
    [
        (PriorSpec("haldane"), [[3, 0, 2], [2, 5, 7]], [0, 0, 0], ZeroCellError),
        (PriorSpec("haldane"), [[3, 1, 0], [2, 5, 0]], [0, 0, 2], UndefinedFillError),
        (PriorSpec("perks"), [[0, 0, 0], [0, 0, 0]], [1, 0, 0], InfeasibleFitError),
        (PriorSpec("custom", 1e-300), [[0, 0, 0], [0, 0, 0]], [0, 0, 0], NumericalError),
    ],
    ids=["zero-cell", "fill", "fit", "non-finite"],
)
def test_a_failed_table_carries_its_stack_index(prior, failing, missing, error):
    # table 0 takes the missing-feature route and tables 1 and 3 the complete one, so table 2
    # is a later member of whichever group it joins: its error maps it back to the whole stack
    counts = np.array([GOOD, GOOD, failing, GOOD])  # four tallies of one table each
    missing_feature = np.array([[[1, 0, 0]], [[0, 0, 0]], [missing], [[0, 0, 0]]])
    with pytest.raises(error) as caught:
        decide_batch(counts, FilterConfig(prior=prior), missing_feature=missing_feature)
    assert caught.value.table == 2


def test_clamped_variance_is_reported():
    # the clamp still turns into a certain decision (a known weakness); it is reported now
    d = decide(ContingencyTable([[0, 0], [0, 1], [2, 0], [1, 0]]), FilterConfig(prior=PriorSpec("perks")))
    assert d.variance_clamped and d.variance == 0.0
    assert not decide(ContingencyTable([[8, 2], [4, 16]]), CFG).variance_clamped


@pytest.mark.parametrize("prior", PRIORS[:4])
def test_prior_extrapolation_marks_the_partial_routes_under_a_non_uniform_prior(prior):
    tables = [(GOOD, [0, 0], [0, 0, 0]), (GOOD, [2, 1], [0, 0, 0]), (GOOD, [0, 0], [1, 0, 2])]
    tables.append(([[1, 1, 1]], [0], [0, 0, 0]))  # a one-row table
    counts, missing_class, missing_feature, sizes = tally_of(tables, 3)
    batch = decide_batch(counts, FilterConfig(prior=prior), missing_class, missing_feature, sizes)
    assert batch.route.ravel().tolist() == ["complete", "missing_class", "missing_feature", "degenerate"]
    assert batch.prior_extrapolation.ravel().tolist() == [False, *[prior.kind != "uniform"] * 2, False]
