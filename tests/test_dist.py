import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from midist.dist import DistApprox, fit, prob_exceeds_batch, tail_exponents
from midist.errors import InfeasibleFitError, InputError


def law(d: DistApprox):
    """The fitted law as a frozen ``scipy.stats`` distribution."""
    p = d.params
    if d.family == "normal":
        return stats.norm(p["mean"], math.sqrt(p["variance"]))
    if d.family == "gamma":
        return stats.gamma(p["shape"], scale=p["scale"])
    return stats.beta(p["alpha"], p["beta"], scale=p["scale"])


class TestFit:
    def test_gamma_shape_one_is_exponential(self):
        d = fit("gamma", 2.0, 4.0, 1e9)
        assert d.params["shape"] == pytest.approx(1.0)
        assert d.params["scale"] == pytest.approx(2.0)

    def test_beta_moment_matching_closed_form(self):
        d = fit("beta", 0.25, 0.01, 1.0)
        assert d.params["alpha"] == pytest.approx(4.4375, abs=1e-12)
        assert d.params["beta"] == pytest.approx(13.3125, abs=1e-12)
        assert law(d).mean() == pytest.approx(0.25, abs=1e-12)
        assert law(d).var() == pytest.approx(0.01, abs=1e-12)

    def test_normal_is_identity_on_moments(self):
        d = fit("normal", 0.4, 0.03, 1.0)
        assert d.params == {"mean": 0.4, "variance": 0.03}

    def test_zero_variance_degenerates_to_point_mass(self):
        d = fit("beta", 0.2, 0.0, 1.0)
        assert d.family == "point_mass" and d.params["location"] == 0.2

    def test_zero_range_degenerates_to_point_mass_at_origin(self):
        d = fit("gamma", 0.0, 0.0, 0.0)
        assert d.family == "point_mass" and d.params["location"] == 0.0

    @pytest.mark.parametrize("family", ["normal", "gamma", "beta"])
    def test_zero_range_is_a_point_mass_at_origin_whatever_the_variance(self, family):
        assert fit(family, 0.1, 0.01, 0.0) == DistApprox("point_mass", {"location": 0.0})
        assert prob_exceeds_batch(family, [0.1], [0.01], [0.0], 0.003)[0].tolist() == [0.0]

    def test_infeasible_beta_names_bound(self):
        with pytest.raises(InfeasibleFitError, match=r"mean \* \(i_max - mean\)"):
            fit("beta", 0.5, 0.3, 1.0)

    def test_gamma_needs_positive_mean(self):
        with pytest.raises(InfeasibleFitError):
            fit("gamma", 0.0, 0.1, 1.0)

    @pytest.mark.parametrize("mean, variance", [(math.nan, 0.01), (0.1, math.nan), (math.inf, 0.01)])
    def test_non_finite_moments_are_an_input_error(self, mean, variance):
        with pytest.raises(InputError, match="mean, variance and i_max must be finite"):
            fit("beta", mean, variance, 1.0)

    @pytest.mark.parametrize("variance, i_max", [(-0.01, 1.0), (0.01, -1.0)])
    def test_negative_variance_or_range_is_an_input_error(self, variance, i_max):
        with pytest.raises(InputError, match="variance and i_max must be non-negative"):
            fit("normal", 0.1, variance, i_max)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            fit("cauchy", 0.1, 0.01, 1.0)

    def test_fallback_degrades_beta_to_gamma(self):
        prob, fallback = prob_exceeds_batch("beta", [0.5], [0.3], [1.0], 0.1)
        assert fallback.tolist() == ["gamma"]
        d = fit("gamma", 0.5, 0.3, 1.0)
        assert prob[0] == pytest.approx(d.prob_exceeds(0.1), abs=1e-12)
        assert (law(d).mean(), law(d).var()) == (pytest.approx(0.5), pytest.approx(0.3))

    def test_fallback_passes_feasible_fit_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob, fallback = prob_exceeds_batch("beta", [0.25], [0.01], [1.0], 0.1)
        assert fallback.tolist() == [None]
        assert prob[0] == pytest.approx(fit("beta", 0.25, 0.01, 1.0).prob_exceeds(0.1), abs=1e-12)


@given(
    st.sampled_from(["normal", "gamma", "beta"]),
    st.floats(0.01, 0.99),
    st.floats(1e-6, 0.2),
    st.floats(0.3, 3.0),
)
@settings(max_examples=150)
def test_moment_round_trip(family, mean_frac, var_frac, i_max):
    mean = mean_frac * i_max
    variance = var_frac * mean * (i_max - mean)  # always beta-feasible
    d = fit(family, mean, variance, i_max)
    got_mean, got_var = law(d).mean(), law(d).var()
    assert got_mean == pytest.approx(mean, rel=1e-10)
    assert got_var == pytest.approx(variance, rel=1e-10)


@pytest.mark.parametrize("i_max", [0.0, 0.5, 1.0, 2.0])
def test_strict_beta_raises_exactly_where_the_batch_falls_back(i_max):
    # 0.25 * (1 - 0.25) = 0.1875 and 0.5 * (1 - 0.5) = 0.25 sit on the variance bound
    grid = np.meshgrid([0.05, 0.25, 0.5, 0.75, 1.0, 1.5], [0.0, 1e-6, 0.01, 0.1875, 0.25, 0.3])
    mean, variance = (a.ravel() for a in grid)
    _, fallback = prob_exceeds_batch("beta", mean, variance, np.full(mean.size, i_max), 0.003)
    raised = []
    for m, v in zip(mean, variance):
        try:
            fit("beta", m, v, i_max)
            raised.append(False)
        except InfeasibleFitError:
            raised.append(True)
    assert ["gamma" if r else None for r in raised] == fallback.tolist()
    assert any(raised) == (i_max > 0.0) and not all(raised)


def test_beta_bound_is_strict_at_its_edge():
    # variance = mean * (i_max - mean) = 0.25: beta's alpha would be 0, so no beta law matches
    with pytest.raises(InfeasibleFitError, match=r"^beta needs .* variance < mean \* \(i_max - mean\); got mean 0.5,"):
        fit("beta", 0.5, 0.25, 1.0)
    prob, fallback = prob_exceeds_batch("beta", [0.5], [0.25], [1.0], 0.003)
    assert fallback.tolist() == ["gamma"] and prob[0] == fit("gamma", 0.5, 0.25, 1.0).prob_exceeds(0.003)


@pytest.mark.parametrize("family", ["normal", "gamma", "beta"])
def test_fit_equals_the_batch_bit_for_bit(family):
    # point masses, beta's fallback pairs and gamma's infeasible ones included; at
    # (0.6376608842023661, 0.010577757938926978, ln 3) Python's float ** and numpy's
    # square round the gamma shape one ulp apart
    means = [0.0, 1e-4, 0.01, 0.16, 0.5, 0.6376608842023661]
    variances = [0.0, 1e-6, 0.0017, 0.010577757938926978, 0.1, 0.3]
    ranges = [0.0, 0.5, math.log(2), math.log(3), 1.0]
    for m, v, top, eps in itertools.product(means, variances, ranges, [0.003, 0.5]):
        try:
            prob, fallback = prob_exceeds_batch(family, [m], [v], [top], eps)
        except InfeasibleFitError as exc:  # the strict fit of the family it names raises the same
            with pytest.raises(InfeasibleFitError, match=f"^{re.escape(str(exc))}$"):
                fit(str(exc).split()[0], m, v, top)
            continue
        d = fit(fallback[0] or family, m, v, top)
        assert d.prob_exceeds(eps) == prob[0], (m, v, top, eps)


class TestCdf:
    def test_normal_at_mean(self):
        assert fit("normal", 0.3, 0.02, 1.0).cdf(0.3) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_beta(self):
        # mean 1/2 and variance 1/12 on [0, 1] is the flat distribution
        d = fit("beta", 0.5, 1.0 / 12.0, 1.0)
        assert d.params["alpha"] == pytest.approx(1.0)
        assert d.cdf(0.3) == pytest.approx(0.3, abs=1e-10)

    def test_support_clamp_below(self):
        for family in ("gamma", "beta"):
            assert fit(family, 0.2, 0.01, 1.0).cdf(-1.0) == 0.0
        assert fit("beta", 0.2, 0.0, 1.0).cdf(-1.0) == 0.0  # point mass

    def test_beta_reaches_one_at_range_end(self):
        assert fit("beta", 0.2, 0.01, 0.7).cdf(0.7) == pytest.approx(1.0)

    def test_monotone_on_sorted_points(self):
        for family in ("normal", "gamma", "beta"):
            d = fit(family, 0.2, 0.01, 0.7)
            xs = np.linspace(-0.1, 0.8, 1000)
            values = d.cdf(xs)
            assert np.all(np.diff(values) >= 0)

    def test_point_mass_step_and_left_limit(self):
        d = fit("beta", 0.2, 0.0, 1.0)
        assert d.cdf(0.19) == 0.0 and d.cdf(0.2) == 1.0


class TestProbExceeds:
    def test_normal_at_threshold(self):
        d = fit("normal", 0.003, 0.01, 1.0)
        assert d.prob_exceeds(0.003) == pytest.approx(0.5, abs=1e-12)

    def test_point_mass_at_zero(self):
        d = fit("gamma", 0.0, 0.0, 1.0)
        assert d.prob_exceeds(0.003) == 0.0


class TestQuantile:
    def test_zero_level_returns_support_low_end(self):
        assert fit("beta", 0.2, 0.01, 0.7).quantile(0.0) == 0.0
        assert fit("gamma", 0.2, 0.01, 0.7).quantile(0.0) == 0.0
        assert fit("normal", 0.2, 0.01, 0.7).quantile(0.0) == -math.inf

    @pytest.mark.parametrize(
        "family, low, high",
        [("normal", -math.inf, math.inf), ("gamma", 0.0, math.inf), ("beta", 0.0, 0.7)],
    )
    def test_end_levels_are_the_support_ends(self, family, low, high):
        # scipy's ndtri, gammaincinv and betaincinv give these at q = 0 and q = 1
        d = fit(family, 0.2, 0.01, 0.7)
        assert (d.quantile(0.0), d.quantile(1.0)) == (low, high)

    @pytest.mark.parametrize("level", [-0.1, math.nan, math.inf, -math.inf])
    def test_level_outside_the_unit_interval_rejected(self, level):
        with pytest.raises(InputError, match="quantile level"):
            fit("gamma", 0.2, 0.01, 0.7).quantile(level)

    def test_standard_normal_median(self):
        assert fit("normal", 0.0, 1.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_beta_round_trip_at_95(self):
        d = fit("beta", 0.16, 0.0017, math.log(2))
        q = d.quantile(0.95)
        assert abs(d.cdf(q) - 0.95) <= 1e-8

    @pytest.mark.parametrize("family", ["normal", "gamma", "beta"])
    @pytest.mark.parametrize("level", [0.01, 0.05, 0.5, 0.95, 0.999])
    def test_round_trip_across_families(self, family, level):
        d = fit(family, 0.16, 0.0017, math.log(2))
        assert abs(d.cdf(d.quantile(level)) - level) <= 1e-8

    def test_point_mass(self):
        d = fit("beta", 0.2, 0.0, 1.0)
        assert d.quantile(0.3) == 0.2

    def test_invalid_level(self):
        with pytest.raises(InputError):
            fit("normal", 0.0, 1.0, 1.0).quantile(1.5)


class TestTailExponents:
    def test_binary_pair(self):
        te = tail_exponents(2, 2)
        assert te.lower == -0.5 and te.upper == -0.5

    def test_three_by_three(self):
        te = tail_exponents(3, 3)
        assert te.lower == 1.0 and te.upper == 0.0

    def test_rectangular_uses_smaller_cardinality(self):
        te = tail_exponents(2, 5)
        assert te.lower == 1.0 and te.upper == -0.5

    def test_invalid(self):
        with pytest.raises(InputError):
            tail_exponents(0, 3)
