import bisect
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midiv import density
from midiv.core import Label
from midiv.divergence import DivergenceSpec, evaluation_rows
from midiv.seeds import as_seed_sequence
from midiv.simulate import SimConfig, sample_experiment
from midiv.density import (
    DensityModel,
    GMM,
    KDE_EPANECHNIKOV,
    KDE_GAUSSIAN,
    fit_gmm,
    fit_kde,
    select_gmm,
    silverman_bandwidth,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0
# Finite samples whose spread overflows float64: the sd is inf, or NaN where
# the overflowed sums cancel.
OVERFLOWING = ([1e200, -1e200, 0.0, 1.0, 2.0, 3.0], [1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.0, 1.0])


def numeric_integral(model, n_grid=10_000):
    lo, hi = model.support_hint
    x = np.linspace(lo, hi, n_grid)
    return np.trapezoid(model.pdf(x), x)


class TestFitKde:
    def test_single_center_epanechnikov_peak(self):
        model = fit_kde([0.0], "EPANECHNIKOV", bandwidth=1.0)
        assert model.pdf(0.0) == pytest.approx(0.75)

    def test_single_center_gaussian_peak(self):
        model = fit_kde([0.0], "GAUSSIAN", bandwidth=1.0)
        assert model.pdf(0.0) == pytest.approx(PHI0, abs=1e-6)

    def test_two_center_hand_sum(self):
        # (1/2)*(K(1.5) + K(0.5)) = (1/2)*(0 + 0.75*0.75) = 0.28125
        model = fit_kde([-1.0, 1.0], "EPANECHNIKOV", bandwidth=1.0)
        assert model.pdf(0.5) == pytest.approx(0.28125)

    def test_matches_direct_kernel_sum(self):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal(200) * 1.7 + 0.3
        model = fit_kde(centers, "EPANECHNIKOV")
        h = model.bandwidth
        xs = rng.uniform(-6, 6, 50)
        direct = np.array(
            [np.mean(np.clip(0.75 * (1 - ((x - centers) / h) ** 2), 0, None)) / h for x in xs]
        )
        np.testing.assert_allclose(model.pdf(xs), direct, rtol=1e-10, atol=1e-12)

    def test_zero_outside_support(self):
        model = fit_kde([0.0, 1.0], "EPANECHNIKOV", bandwidth=0.5)
        lo, hi = model.support_hint
        assert model.pdf(lo - 1e-9) == 0.0 and model.pdf(hi + 1e-9) == 0.0

    def test_needs_two_samples_without_bandwidth(self):
        with pytest.raises(ValueError, match="explicit bandwidth"):
            fit_kde([1.0], "EPANECHNIKOV")

    def test_zero_variance_error_mentions_bandwidth(self):
        with pytest.raises(ValueError, match="explicit bandwidth"):
            fit_kde([2.0, 2.0, 2.0], "GAUSSIAN")

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            fit_kde([0.0, 1.0], "EPANECHNIKOV", bandwidth=0.0)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            fit_kde([0.0, 1.0], "BOX")


class TestBandwidthRule:
    def test_strictly_decreasing_in_n(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(2000)
        prev = np.inf
        for n in (10, 30, 100, 300, 1000):
            x = base[:n]
            x = (x - x.mean()) / x.std(ddof=1)  # pin the spread
            h = silverman_bandwidth(x, KDE_EPANECHNIKOV)
            assert h < prev
            prev = h

    def test_epanechnikov_wider_than_gaussian(self):
        x = np.random.default_rng(6).standard_normal(100)
        assert silverman_bandwidth(x, KDE_EPANECHNIKOV) > silverman_bandwidth(x, KDE_GAUSSIAN)

    def test_robust_uses_smaller_spread_on_contaminated_sample(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.standard_normal(90), rng.standard_normal(10) + 50.0])
        assert silverman_bandwidth(x, KDE_GAUSSIAN, robust=True) < silverman_bandwidth(
            x, KDE_GAUSSIAN, robust=False
        )

    @pytest.mark.parametrize("kind", [KDE_EPANECHNIKOV, KDE_GAUSSIAN])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, kind, bad):
        # it gave NaN, and a RuntimeWarning for +-inf
        x = np.random.default_rng(57).standard_normal(20)
        x[7] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            silverman_bandwidth(x, kind)

    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    @pytest.mark.parametrize("x", OVERFLOWING)
    def test_overflowing_spread_is_rejected_without_warning(self, x, kernel):
        # it warned "overflow encountered in square"; the plain sd then
        # failed with "invalid support_hint (-inf, inf)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sample spread overflows"):
                fit_kde(x, kernel, robust_sigma=False)
            with pytest.raises(ValueError, match="sample spread overflows"):
                silverman_bandwidth(x, f"KDE_{kernel}", robust=False)
            if x[0] == 1e200:  # the robust rule takes the IQR, which is finite
                h = silverman_bandwidth(x, KDE_EPANECHNIKOV)
                assert h == 3.036971077685978
                if kernel == "EPANECHNIKOV":  # h is below the float spacing at +-1e200
                    with pytest.raises(ValueError, match="c - h and c \\+ h must differ"):
                        fit_kde(x, kernel)
                else:
                    assert fit_kde(x, kernel).support_hint == (-1e200 - h, 1e200 + h)
            else:  # its IQR overflows too
                with pytest.raises(ValueError, match="sample spread overflows"):
                    fit_kde(x, kernel)


    @pytest.mark.parametrize("kernel, h", [("EPANECHNIKOV", 1e-120), ("EPANECHNIKOV", 1e200),
                                           ("GAUSSIAN", 1e-310), ("GAUSSIAN", 1e308)])
    def test_bandwidth_outside_the_table_range_is_rejected(self, kernel, h):
        # Epanechnikov: 1e-120 gave NaN at every point, after three
        # RuntimeWarnings, and 1e200 gave 0 at every point. Gaussian: 1e-310
        # gave [inf, 0] at [0, 0.5] after an overflow, and 1e308 overflowed
        # its support pad.
        x = [0.0, 1.0, 2.0]
        name = "a Gaussian" if kernel == "GAUSSIAN" else "an Epanechnikov"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"out of range for {name} KDE of 3"):
                fit_kde(x, kernel, bandwidth=h)
            with pytest.raises(ValueError, match=f"out of range for {name} KDE of 3"):
                DensityModel(f"KDE_{kernel}", (-1.0, 3.0), bandwidth=h, centers=x)
            # more centers do not bring it into range: at 1e-310 the Gaussian
            # peak 1 / (h sqrt(2 pi)) overflows however many centers share it
            with pytest.raises(ValueError, match=f"out of range for {name} KDE of 100"):
                fit_kde(np.arange(100.0), kernel, bandwidth=h)
            # A row of a block fails alone; the rule's bandwidth scales with the
            # data. A Gaussian one that fails comes from the IQR of a sample whose
            # variance overflows: below about 1e-154 the variance underflows to 0.
            scaled = np.multiply(x, h if kernel == "EPANECHNIKOV" else 5e307)
            got = density._fit_kdes([x, scaled], kernel, None, True)
            if kernel == "EPANECHNIKOV":
                assert fit_kde(scaled, "GAUSSIAN").bandwidth > 0
        assert got[0].bandwidth == fit_kde(x, kernel).bandwidth
        assert f"out of range for {name} KDE" in str(got[1])

    def test_support_past_the_float_range_is_rejected_without_warning(self):
        # max + 5 h overflowed to inf with "overflow encountered in add"
        # before the model was rejected.
        with pytest.raises(ValueError, match="invalid support_hint"):
            fit_kde([1.7e308], "GAUSSIAN", bandwidth=1e307)
        with pytest.raises(ValueError, match="invalid support_hint"):
            DensityModel(KDE_GAUSSIAN, (0.0, 1.79e308), bandwidth=1e307, centers=[1.7e308])

    @pytest.mark.parametrize("robust", [True, False])
    def test_spread_whose_squares_underflow_has_a_bandwidth(self, robust):
        # The squared deviations underflowed to an sd of 0, and the rule
        # reported "zero sample variance".
        x = np.array([0.0, 1e-200, 2e-200])
        h = fit_kde(x, "GAUSSIAN", robust_sigma=robust).bandwidth
        want = 1e-200 * fit_kde(x * 1e200, "GAUSSIAN", robust_sigma=robust).bandwidth
        assert h == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fit_kde(x, "GAUSSIAN", bandwidth=1e-200).pdf([1e-200])[0] > 0.0
        # 0.75 / (n h^3) overflows
        with pytest.raises(ValueError, match="out of range for an Epanechnikov KDE of 3"):
            fit_kde(x, robust_sigma=robust)

    @pytest.mark.parametrize("x, h", [([0.0, 1.0, 2.0], 1e-100), ([1e10, 1e10 + 1, 1e10 + 2], 1e-7)])
    def test_bandwidth_below_the_float_spacing_at_a_center_is_rejected(self, x, h):
        # c + h == c left the center an empty piece and lost its mass: the
        # first gave [2.5e99, 0, 0] at its centers, the second 0 at each
        message = "out of range for an Epanechnikov KDE of 3 centers: c - h and c \\+ h must differ"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                fit_kde(x, bandwidth=h)
            with pytest.raises(ValueError, match=message):
                DensityModel(KDE_EPANECHNIKOV, (x[0] - 1.0, x[-1] + 1.0), bandwidth=h, centers=x)
            # a row of a block fails alone: centers at 0 hold any such bandwidth
            got = density._fit_kdes([np.zeros(3), x], "EPANECHNIKOV", h, True)
        assert got[0].bandwidth == h
        assert "c - h and c + h must differ from each center" in str(got[1])


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100) * 2.0 + 3.0
        model, report = fit_gmm(x, 1)
        w, mu, var = model.components[0]
        assert w == pytest.approx(1.0)
        assert mu == pytest.approx(x.mean(), abs=1e-9)
        assert var == pytest.approx(np.var(x), abs=1e-9)
        assert report.component_count == 1 and report.converged

    def test_two_component_recovery(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.standard_normal(250) - 5.0, rng.standard_normal(250) + 5.0])
        model, _ = fit_gmm(x, 2)
        means = sorted(model.components[:, 1])
        weights = model.components[:, 0]
        assert abs(means[0] + 5.0) < 0.5 and abs(means[1] - 5.0) < 0.5
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=0.1)

    def test_aic_arithmetic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(60)
        _, report = fit_gmm(x, 2)
        p = 3 * 2 - 1
        assert report.aic == pytest.approx(2 * p - 2 * report.log_likelihood, abs=1e-12)

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            x = rng.standard_normal(rng.integers(30, 200)) * rng.uniform(0.5, 3)
            for k in (1, 2, 3):
                _, report = fit_gmm(x, k)
                trace = np.array(report.log_likelihood_trace)
                assert np.all(np.diff(trace) >= -1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(120)
        m1, r1 = fit_gmm(x, 2)
        m2, r2 = fit_gmm(x, 2)
        np.testing.assert_array_equal(m1.components, m2.components)
        assert r1.log_likelihood == r2.log_likelihood

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least"):
            fit_gmm([1.0, 2.0, 3.0, 4.0, 5.0], 2)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            fit_gmm(np.arange(10.0), 0)


class TestSelectGmm:
    def test_k_max_one_matches_single_fit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(90)
        model, report = select_gmm(x, 1)
        assert report.component_count == 1
        direct, _ = fit_gmm(x, 1)
        np.testing.assert_allclose(model.components[:, 1], direct.components[:, 1], atol=1e-9)

    def test_prefers_one_component_on_gaussian(self):
        hits = 0
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(500)
            _, report = select_gmm(x, 3)
            hits += report.component_count == 1
        assert hits >= 18

    def test_prefers_two_on_separated_mixture(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = np.concatenate([rng.standard_normal(250) - 5, rng.standard_normal(250) + 5])
            _, report = select_gmm(x, 4)
            hits += report.component_count == 2
        assert hits >= 18

    @pytest.mark.parametrize(
        "x, k_max, cause",
        [
            ([1.0, 2.0], 2, "need at least 3 samples"),
            ([3.0] * 10, 5, "zero sample variance"),
            ([1e200] + list(range(9)), 5, "sample variance overflows"),
            ([1.0, 2.0], 5, "need at least 3 samples"),
        ],
        ids=["two-k2", "constant", "overflowing", "two-k5"],
    )
    def test_error_when_every_k_fails(self, x, k_max, cause):
        # The error is the smallest size's: every sample of fewer than 15
        # values used to read "need at least 15 samples to fit k=5 components".
        with pytest.raises(ValueError, match=f"no GMM size in 1..{k_max} could be fitted: {cause}"):
            select_gmm(x, k_max)

    @pytest.mark.parametrize(
        "x, what",
        [(x, "sample variance") for x in OVERFLOWING]
        + [([8e153, -8e153, 0.0, 1.0, 2.0, 3.0], "squared sample spread")],
        ids=["x0", "x1", "x2"],
    )
    def test_overflowing_variance_is_rejected_without_warning(self, x, what):
        # fit_gmm raised IndexError and select_gmm "Probabilities contain
        # NaN", each after an overflow warning. The last sample's variance
        # (2.1e307) is finite, but its k-means++ distance totals overflowed.
        good = np.random.default_rng(61).standard_normal(40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{what} overflows"):
                fit_gmm(x, 1)
            with pytest.raises(ValueError, match=f"no GMM size in 1..2 could be fitted: {what} "
                                                 "overflows"):
                select_gmm(x, 2)
            got = density._select_gmms([x, good, x], 2)
        assert [type(g) for g in got[::2]] == [ValueError] * 2
        model, report = select_gmm(good, 2)
        assert np.array_equal(bits(got[1][0].components), bits(model.components))
        assert got[1][1] == report


class TestSelectionFreeOfUnits:
    """select_gmm of a*x + b is the fit of x, mapped. An EM run stops on a
    change of log-likelihood per sample, which the units do not move; a
    rule relative to |log-likelihood| stopped early runs at other iterates
    once a*x shifted it by -n log a, and AIC then chose another size for
    one sim bag in ten."""

    # Tolerance in the sample's own units: weights, and means and standard
    # deviations per standard deviation of the sample. Two runs in other
    # units round differently, so one may stop a step apart from the other
    # near its threshold, or on another point of a flat ridge; over 1200
    # sim bags and maps the largest difference was 1.3e-2.
    TOL = 2e-2

    @given(scenario=st.sampled_from(["sim1", "sim2", "sim3", "sim5"]), seed=st.integers(0, 999),
           log_a=st.floats(-3.0, 3.0), b=st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_affine_map_of_the_sample_maps_the_fit(self, scenario, seed, log_a, b):
        train, _ = sample_experiment(SimConfig.preset(scenario), 1, 1, 1, seed)
        x = train.pooled_instances(Label.POS)[:, 0]
        a = 10.0**log_a
        model, report = select_gmm(x, 5)
        mapped, mapped_report = select_gmm(a * x + b, 5)
        assert mapped_report.component_count == report.component_count
        w, mu, var = model.components.T
        got_w, got_mu, got_var = mapped.components.T
        scale = np.std(x)
        np.testing.assert_allclose(got_w, w, rtol=0, atol=self.TOL)
        np.testing.assert_allclose((got_mu - b) / a, mu, rtol=0, atol=self.TOL * scale)
        np.testing.assert_allclose(np.sqrt(got_var) / a, np.sqrt(var), rtol=0, atol=self.TOL * scale)


class TestFitsReadOnlyTheMultiset:
    """A GMM fit is a function of the multiset of its sample: any order of
    the sample gives the same bits, and no seed is read. The k-means++
    starts this replaced picked sample values by their index in the order
    given, from a generator on the fit's seed."""

    @given(scenario=st.sampled_from(["sim1", "sim2", "sim3", "sim4", "sim5", "sim6"]),
           seed=st.integers(0, 999), decimals=st.sampled_from([None, 1]),
           order=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_order_of_the_sample_gives_the_same_fit(self, scenario, seed, decimals, order):
        train, _ = sample_experiment(SimConfig.preset(scenario, n_instances=30), 1, 1, 1, seed)
        x = train.pooled_instances(Label.POS)[:, 0]
        if decimals is not None:  # ties
            x = np.round(x, decimals)
        orders = (x[::-1], x[np.random.default_rng(order).permutation(x.size)])
        for fit in (partial(fit_gmm, k=2), partial(select_gmm, k_max=5)):
            model, report = fit(x)
            for shuffled in orders:
                got, got_report = fit(shuffled)
                assert np.array_equal(bits(got.components), bits(model.components))
                assert got_report == report


class TestEvalAndSample:
    def test_gmm_standard_normal_at_zero(self):
        model = DensityModel(kind=GMM, support_hint=(-5, 5), components=[[1.0, 0.0, 1.0]])
        assert model.pdf(0.0) == pytest.approx(PHI0, abs=1e-9)

    def test_gmm_two_component_value(self):
        model = DensityModel(
            kind=GMM, support_hint=(-6, 6), components=[[0.5, -1.0, 1.0], [0.5, 1.0, 1.0]]
        )
        expected = PHI0 * math.exp(-0.5)  # 0.5*phi(1) + 0.5*phi(-1)
        assert model.pdf(0.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.24197, abs=5e-6)

    def test_normalization_all_kinds(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300) * 1.3 + 0.4
        models = [
            fit_kde(x, "EPANECHNIKOV"),
            fit_kde(x, "GAUSSIAN"),
            fit_gmm(x, 2)[0],
        ]
        for model in models:
            assert 0.99 <= numeric_integral(model) <= 1.001

    def test_gaussian_kde_far_from_its_centers_without_warning(self):
        # (x - c) / h and its square overflowed to inf, with a warning, before exp made them 0.
        assert 0.0 < fit_kde(OVERFLOWING[0], "GAUSSIAN").pdf([1e200])[0] < np.inf
        model = fit_kde([0.0, 1.0, 2.0], "GAUSSIAN", bandwidth=1e-200)
        assert np.array_equal(model.pdf([0.0, 1.0]), [1.0 / (3e-200 * math.sqrt(2.0 * math.pi))] * 2)
        assert np.array_equal(model.pdf([1e150]), [0.0])

    def test_gmm_far_from_its_components_without_warning(self):
        model, _ = select_gmm(np.random.default_rng(62).standard_normal(50), 3)
        assert np.array_equal(model.pdf([1e200, -1e300]), [0.0, 0.0])

    def test_sampler_determinism(self):
        model = fit_kde(np.arange(10.0), "EPANECHNIKOV")
        a = model.sample(50, seed=123)
        b = model.sample(50, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_epanechnikov_samples_within_support(self):
        model = fit_kde([0.0], "EPANECHNIKOV", bandwidth=1.0)
        s = model.sample(5000, seed=0)
        assert np.all(np.abs(s) <= 1.0)

    def test_gmm_sample_mean(self):
        model = DensityModel(kind=GMM, support_hint=(4.9, 5.1), components=[[1.0, 5.0, 1e-6]])
        s = model.sample(10_000, seed=1)
        assert abs(s.mean() - 5.0) < 0.01

    def test_sampler_matches_density_ks(self):
        # empirical CDF of draws vs numeric CDF of model.pdf
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.standard_normal(150) - 2, rng.standard_normal(150) + 2])
        models = [
            fit_kde(x, "EPANECHNIKOV"),
            fit_kde(x, "GAUSSIAN"),
            fit_gmm(x, 2)[0],
        ]
        for model in models:
            draws = np.sort(model.sample(100_000, seed=11))
            lo, hi = model.support_hint
            grid = np.linspace(lo, hi, 20_001)
            pdf = model.pdf(grid)
            cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
            cdf /= cdf[-1]
            model_cdf_at_draws = np.interp(draws, grid, cdf)
            empirical = np.arange(1, draws.size + 1) / draws.size
            ks = np.max(np.abs(model_cdf_at_draws - empirical))
            assert ks < 0.01


def dense_gauss_pdf(x, centers, h):
    """The Gaussian KDE as one dense points-by-centers sum, in blocks of 2^18."""
    n = centers.size
    out = np.empty(x.size)
    block = max(1, (1 << 18) // n)
    for start in range(0, x.size, block):
        u = (x[start : start + block, None] - centers[None, :]) / h
        out[start : start + block] = np.exp(-0.5 * u * u).sum(axis=1)
    return out / (n * h * math.sqrt(2.0 * math.pi))


class TestGaussianKernelBits:
    """The blocked evaluator gives the dense sum's bits at every block edge."""

    @pytest.mark.parametrize("n_centers", [1, 17, 130, density._GAUSS_BLOCK + 5])
    def test_matches_dense_sum_exactly(self, n_centers):
        rng = np.random.default_rng(n_centers)
        model = fit_kde(rng.standard_normal(n_centers) * 1.3, "GAUSSIAN", bandwidth=0.4)
        rows = max(1, density._GAUSS_BLOCK // n_centers)  # points per block
        for n_points in sorted({0, 1, rows - 1, rows, rows + 1, 3 * rows + 7}):
            x = rng.uniform(-6.0, 6.0, n_points)
            expected = dense_gauss_pdf(x, model.centers, model.bandwidth)
            assert np.array_equal(model.pdf(x), expected), n_points

    @pytest.mark.parametrize("kind", [KDE_EPANECHNIKOV, KDE_GAUSSIAN, GMM])
    def test_permutation_equivariant(self, kind):
        rng = np.random.default_rng(12)
        samples = np.concatenate([rng.standard_normal(150) - 2, rng.standard_normal(150) + 2])
        if kind == GMM:
            model = fit_gmm(samples, 2)[0]
        else:
            model = fit_kde(samples, kind.removeprefix("KDE_"))
        x = rng.uniform(-7.0, 7.0, 5000)
        p = rng.permutation(x.size)
        assert np.array_equal(model.pdf(x[p]), model.pdf(x)[p])


class TestModelValidation:
    def test_gmm_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DensityModel(kind=GMM, support_hint=(0, 1), components=[[0.6, 0.0, 1.0], [0.6, 1.0, 1.0]])

    def test_gmm_variance_positive(self):
        with pytest.raises(ValueError, match="variance"):
            DensityModel(kind=GMM, support_hint=(0, 1), components=[[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("components", [
        [[np.nan, 0.0, 1.0]],  # abs(nan - 1) > 1e-12 is False: passed the sum check
        [[0.5, 0.0, 1.0], [0.5, np.nan, 1.0]],  # gave a NaN pdf
        [[1.0, 0.0, np.inf]],
        [[1.0, -np.inf, 1.0]],
    ])
    def test_gmm_components_must_be_finite(self, components):
        with pytest.raises(ValueError, match="GMM components must be finite"):
            DensityModel(kind=GMM, support_hint=(0, 1), components=components)

    @pytest.mark.parametrize("kind", [KDE_EPANECHNIKOV, KDE_GAUSSIAN])
    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan, 0.0])
    def test_kde_bandwidth_must_be_positive_and_finite(self, kind, bandwidth):
        # an infinite Epanechnikov bandwidth gave a NaN pdf and infinite draws
        with pytest.raises(ValueError, match="KDE bandwidth must be positive and finite"):
            DensityModel(kind=kind, support_hint=(0, 1), bandwidth=bandwidth, centers=[0.5])

    def test_kde_requires_bandwidth(self):
        with pytest.raises(ValueError):
            DensityModel(kind=KDE_EPANECHNIKOV, support_hint=(0, 1), centers=[0.5])

    def test_gaussian_kde_carries_no_epanechnikov_tables(self):
        x = np.random.default_rng(51).standard_normal(12)
        for model in (fit_kde(x, "GAUSSIAN"), density._fit_kdes([x], "GAUSSIAN", None, True)[0]):
            assert model._table is None
        assert fit_kde(x, "EPANECHNIKOV")._table.shape == (4, 2 * x.size + 1)

    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    def test_fit_phase_rejects_an_infinite_support(self, kernel):
        x = np.random.default_rng(53).standard_normal(12)
        with pytest.raises(ValueError, match="invalid support_hint"):
            fit_kde(x, kernel, bandwidth=math.inf)

    def test_fit_phase_models_hold_read_only_checked_rows(self):
        rng = np.random.default_rng(54)
        samples = [rng.standard_normal(9) for _ in range(3)]
        for kernel in ("EPANECHNIKOV", "GAUSSIAN"):
            for x, model in zip(samples, density._fit_kdes(samples, kernel, None, True)):
                alone = DensityModel(model.kind, model.support_hint, model.bandwidth, x)
                assert (model.kind, model.support_hint, model.bandwidth, model.components) == (
                    alone.kind, alone.support_hint, alone.bandwidth, alone.components)
                assert np.array_equal(bits(model.centers), bits(alone.centers))
                assert not model.centers.flags.writeable
                assert type(model.bandwidth) is float
                assert all(type(v) is float for v in model.support_hint)


class TestEpanechnikovMemory:
    def test_block_query_peak_within_five_query_sizes(self):
        # A block of 16 importance samples of 2000 points against a class density.
        rng = np.random.default_rng(50)
        model = fit_kde(rng.standard_normal(1250), "EPANECHNIKOV")
        x = rng.standard_normal((16, 2000)) * 1.5
        want = epan_direct_oracle(model, x.ravel()).reshape(x.shape)
        tracemalloc.start()
        try:
            got = model.pdf(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_close_to_direct_sum(got, want)
        assert peak <= 5 * x.nbytes, peak / x.nbytes


def epan_direct_oracle(model, x):
    """The Epanechnikov KDE at the 1-D points ``x`` as the direct sum over
    every center: the oracle of the table's precision."""
    u = (x[:, None] - model.centers[None, :]) / model.bandwidth
    kernel = np.where(np.abs(u) < 1.0, 1.0 - u * u, 0.0)
    return 0.75 / (model.centers.size * model.bandwidth) * kernel.sum(axis=1)


def assert_close_to_direct_sum(got, want, rtol=1e-11):
    """Within ``rtol`` relative wherever the direct sum exceeds 1e-6, and
    within 1e-6 absolute elsewhere."""
    got, want = np.asarray(got).ravel(), np.asarray(want).ravel()
    big = want > 1e-6
    assert big.any()
    err = np.abs(got - want)
    assert np.max(err[big] / want[big]) <= rtol, np.max(err[big] / want[big])
    assert np.all(err[~big] <= 1e-6)


class TestEpanechnikovPrecision:
    """The piecewise-quadratic table against the direct kernel sum: exact to
    about 1e-13 relative at any offset of the data, never negative, and
    exactly 0 off the kernels' support. On these points the global prefix
    sums that the table replaced were off by 5.5e-6 relative at a
    separation of 1e3, 6.4e-2 at 1e5 and 32 times the value at 1e7, and by
    9.7e-11 on the pooled class."""

    @staticmethod
    def grid(model, lo, hi, n=4000):
        x = np.linspace(lo, hi, n)
        return model, x, epan_direct_oracle(model, x)

    @pytest.mark.parametrize("separation", [0.0, 1e3, 1e5, 1e6, 1e7])
    def test_two_far_clusters(self, separation):
        rng = np.random.default_rng(55)
        c = np.concatenate([rng.standard_normal(250), rng.standard_normal(250) + separation])
        model = fit_kde(c, "EPANECHNIKOV", bandwidth=0.5)
        for centre in (0.0, separation):
            _, x, want = self.grid(model, centre - 4.5, centre + 4.5)
            assert_close_to_direct_sum(model.pdf(x), want)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_pooled_class_of_5000_centers(self, offset):
        train, _ = sample_experiment(SimConfig.preset("sim2", n_instances=10), 500, 1, 1, seed=56)
        pooled = train.pooled_instances(Label.POS)[:, 0] + offset
        assert pooled.size == 5000
        model = fit_kde(pooled, "EPANECHNIKOV", robust_sigma=False)
        lo, hi = model.support_hint
        _, x, want = self.grid(model, lo, hi, 20000)
        assert_close_to_direct_sum(model.pdf(x), want)

    def test_nonnegative_and_zero_off_the_support(self):
        rng = np.random.default_rng(57)
        h = 0.3
        # three clusters with gaps wider than 2h between them, and a duplicate
        c = np.concatenate([rng.standard_normal(40), rng.standard_normal(30) + 9.0, [20.0, 20.0]])
        model = fit_kde(c, "EPANECHNIKOV", bandwidth=h)
        breaks = np.sort(np.concatenate([c - h, c + h]))
        x = np.sort(np.concatenate([
            breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
            rng.uniform(c.min() - 2.0, c.max() + 2.0, 20000),
        ]))
        assert np.all(model.pdf(np.array([-1e300, 1e300])) == 0.0)
        got, want = model.pdf(x), epan_direct_oracle(model, x)
        assert np.all(got >= 0.0)
        assert np.all(got[(x < breaks[0]) | (x >= breaks[-1])] == 0.0)
        off = (want == 0.0) & (np.abs(x[:, None] - c[None, :]).min(axis=1) > h * (1 + 1e-9))
        assert off.sum() > 1000
        assert np.all(got[off] == 0.0)
        assert_close_to_direct_sum(got, want)


# --------------------------------------------------------------------------
# the stacked EM against the one-run loop it replaced


def starts_oracle(x, k):
    """The three EM starts (w, mu, var) of a k-component fit of ``x``, one
    value at a time in Python floats: the oracle of ``density._gmm_starts``.
    On the sorted sample, each start has equal weights and the sample
    variance. Its means are those of k equal-count groups (from prefix sums
    about the midrange), the centers of k equal-width bins, and 1-D Lloyd
    from the first: cut halfway between consecutive means, a value on a cut
    going right, each cell's mean or, for an empty cell, the old one, until
    a step moves no mean or ``_LLOYD_MAX_ITER`` steps."""
    values = np.sort(x).tolist()
    n, lo, hi = len(values), values[0], values[-1]
    anchor = lo + 0.5 * (hi - lo)
    sums = [0.0]
    for v in values:
        sums.append(sums[-1] + (v - anchor))

    def means(edges, old):
        return [(sums[b] - sums[a]) / (b - a) + anchor if b > a else old[j]
                for j, (a, b) in enumerate(zip(edges, edges[1:]))]

    groups = means([j * n // k for j in range(k + 1)], None)
    bins = [lo + (j + 0.5) * ((hi - lo) / k) for j in range(k)]
    lloyd = groups
    for _ in range(density._LLOYD_MAX_ITER):
        edges = [0]
        for a, b in zip(lloyd, lloyd[1:]):
            edges.append(max(edges[-1], bisect.bisect_left(values, a + 0.5 * (b - a))))
        moved = means(edges + [n], lloyd)
        if moved == lloyd:
            break
        lloyd = moved
    var = np.var(np.sort(x))
    return [(np.full(k, 1.0 / k), np.array(mu), np.full(k, var)) for mu in (groups, bins, lloyd)]


def start_runs(xs_ks):
    """The ``_em`` jobs ``(x, start)`` of the fits of each (x, k): the sorted
    sample from each of its three starts."""
    return [(np.sort(x), start) for x, k in xs_ks for start in starts_oracle(x, k)]


def _em_once(
    x: np.ndarray, start, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], bool]:
    """One plain EM run on (k, n) arrays, in the stacked loop's arithmetic,
    from ``start`` = (w, mu, var): each component's samples are one row,
    summed by ``.sum(axis=1)``."""
    n = x.size
    var_floor = 1e-6 * float(np.var(x))
    w, mu, var = start
    trace: list[float] = []
    converged = False
    prev = -np.inf
    for _ in range(density._EM_MAX_ITER):
        d = x[None, :] - mu[:, None]
        c = np.log(w) - 0.5 * np.log(2.0 * np.pi * var)
        log_joint = d * d * (-0.5 / var)[:, None] + c[:, None]
        m = log_joint.max(axis=0)
        e = np.exp(log_joint - m)
        total = e.sum(axis=0)
        ll = float((m + np.log(total)).sum())
        trace.append(ll)
        if np.isfinite(prev) and abs(ll - prev) <= tol * n:
            converged = True
            break
        prev = ll
        resp = e / total
        nj = np.maximum(resp.sum(axis=1), 1e-300)
        w = nj / n
        mu = (resp * x).sum(axis=1) / nj
        d = x[None, :] - mu[:, None]
        var = np.maximum((resp * d * d).sum(axis=1) / nj, var_floor)
    return w, mu, var, trace, converged


def squarem_once(x, start, tol):
    """One accelerated run, alone in its stack, as ``_em_once`` returns it
    plus its EM-map evaluations."""
    w, mu, var, trace, converged, evaluations = density._em([(x, start)], tol, accelerate=True)[0]
    return w, mu, var, trace.tolist(), converged, evaluations


def oracle_run(x, k, tol=1e-8, em=squarem_once):
    """fit_gmm's best run of three ``em`` runs on the sorted sample, from
    the starts of ``starts_oracle``: by default accelerated runs, each in a
    stack of its own. A plain run counts one evaluation per trace value."""
    best = None
    for sample, start in start_runs([(x, k)]):
        fit = em(sample, start, tol)
        if best is None or fit[3][-1] > best[3][-1]:
            best = fit
    return (*best[:5], best[5] if len(best) > 5 else len(best[3]))


def oracle_result(k, run):
    """The components and report of a run (w, mu, var, trace, converged, evaluations)."""
    w, mu, var, trace, converged, evaluations = run
    order = np.argsort(mu)
    w, mu, var = w[order], mu[order], var[order]
    ll = trace[-1]
    report = density.EmFitReport(k, ll, 2.0 * (3 * k - 1) - 2.0 * ll, evaluations, converged, tuple(trace))
    return np.column_stack([w / w.sum(), mu, var]), report


def oracle_fit(x, k, tol=1e-8, em=squarem_once):
    """fit_gmm's components and report (see ``oracle_run``)."""
    return oracle_result(k, oracle_run(x, k, tol, em))


def oracle_select(x, k_max):
    """select_gmm's components and report: AIC over early-stopped plain-EM
    fits, then the winner's best run continued, accelerated, to the strict
    tolerance. A converged run's last point is the continuation's first."""
    best, best_aic = None, np.inf
    for k in range(1, k_max + 1):
        if x.size >= 3 * k:
            run = oracle_run(x, k, tol=7e-4, em=_em_once)
            aic = oracle_result(k, run)[1].aic
            if aic < best_aic:
                best, best_aic = (k, run), aic
    k, (w, mu, var, trace, converged, evaluations) = best
    more = squarem_once(np.sort(x), (w, mu, var), 1e-8)
    if converged:
        assert more[3][0] == trace[-1]
    trace = trace + more[3][1 if converged else 0 :]
    return oracle_result(k, (*more[:3], trace, more[4], evaluations + more[5]))


def em_samples(seed, sizes):
    """Two-cluster samples whose clusters overlap: some strict fits reach the cap."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) * rng.uniform(0.5, 3.0) + 2.5 * (rng.random(n) < 0.3)
            for n in sizes]


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for (w, mu, var, trace, converged, evaluations), expected in zip(got, want):
        assert evaluations == len(trace)  # plain EM takes every point it evaluates
        assert np.array_equal(w, expected[0])
        assert np.array_equal(mu, expected[1])
        assert np.array_equal(var, expected[2])
        assert trace.tolist() == expected[3]
        assert converged == expected[4]


class TestStackedEm:
    """``density._em`` without acceleration gives every run the bits of the
    one-run loop, at both tolerances: the selection fits run it, and it is
    the oracle of the accelerated refits (``TestSquarem``)."""

    @pytest.mark.parametrize("tol", [density._SELECTION_TOL, density._STRICT_TOL])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_one_run_loop(self, k, tol):
        runs = start_runs([(x, k) for x in em_samples(k, [40] * 4)])
        got = density._em(runs, tol)
        want = [_em_once(x, start, tol) for x, start in runs]
        assert_same_fits(got, want)

    def test_strict_runs_reach_the_cap(self):
        xs = em_samples(7, [40] * 6)
        runs = start_runs([(x, k) for x in xs for k in (3, 4)])
        fits = density._em(runs, density._STRICT_TOL)
        capped = [fit[5] == density._EM_MAX_ITER and not fit[4] for fit in fits]
        assert any(capped) and not all(capped)
        want = [_em_once(x, start, density._STRICT_TOL) for x, start in runs]
        assert_same_fits(fits, want)

    @pytest.mark.parametrize("block", [density._EM_BLOCK, 100, 1])
    def test_mixed_lengths_and_sizes_in_one_batch(self, monkeypatch, block):
        # The default stacks every (n, k) group whole; a block of 100
        # elements holds 1 to 8 rows, and a block of 1 one row.
        monkeypatch.setattr(density, "_EM_BLOCK", block)
        xs = em_samples(11, [12, 25, 25, 40, 12, 40])
        runs = start_runs([(x, k) for x in xs for k in range(1, 6) if x.size >= 3 * k])
        order = np.random.default_rng(0).permutation(len(runs))
        runs = [runs[i] for i in order]
        for tol in (density._SELECTION_TOL, density._STRICT_TOL):
            got = density._em(runs, tol)
            want = [_em_once(x, start, tol) for x, start in runs]
            assert_same_fits(got, want)

    @pytest.mark.parametrize("n", [12, 30])
    def test_fit_gmm_and_select_gmm_reports(self, n):
        # fit_gmm and the continuation of select_gmm are accelerated;
        # select_gmm's size selection is plain EM, bit for bit.
        for x in em_samples(n, [n] * 3):
            for k in (1, 2, 4):
                model, report = fit_gmm(x, k)
                components, expected = oracle_fit(x, k)
                assert np.array_equal(model.components, components)
                assert report == expected
                assert report.log_likelihood_trace == expected.log_likelihood_trace
            model, report = select_gmm(x, 5)
            components, expected = oracle_select(x, 5)
            assert np.array_equal(model.components, components)
            assert report == expected
            assert report.log_likelihood_trace == expected.log_likelihood_trace

    def test_batched_select_matches_one_sample_calls(self):
        xs = em_samples(5, [12, 30, 30, 2]) + [np.full(20, 1.5)]
        batch = density._select_gmms(xs, 5)
        for x, fit in zip(xs, batch):
            if isinstance(fit, ValueError):
                with pytest.raises(ValueError) as info:
                    select_gmm(x, 5)
                assert str(info.value) == str(fit)
                continue
            model, report = select_gmm(x, 5)
            assert np.array_equal(model.components, fit[0].components)
            assert report == fit[1]
        assert [isinstance(fit, ValueError) for fit in batch] == [False] * 3 + [True] * 2


def restart_jobs():
    """(x, k) fits, three restarts each: the samples of ``TestStackedEm``,
    the ones where strict plain runs reach the cap, and one of class size."""
    jobs = [(x, k) for k in range(1, 6) for x in em_samples(k, [40] * 4)]
    jobs += [(x, k) for x in em_samples(7, [40] * 6) for k in (3, 4)]
    jobs += [(x, k) for x in em_samples(3, [500]) for k in (2, 3, 4)]
    return jobs


@pytest.fixture(scope="module")
def plain_and_squarem():
    """Every restart of ``restart_jobs`` at the strict tolerance, plain and
    accelerated, each in one stacked call."""
    jobs = restart_jobs()
    runs = start_runs(jobs)
    return (jobs, density._em(runs, density._STRICT_TOL),
            density._em(runs, density._STRICT_TOL, accelerate=True))


class TestSquarem:
    """The accelerated strict refits against the plain loop, their oracle."""

    @pytest.mark.parametrize("block", [100, 1])
    def test_stacked_equals_one_row_per_stack(self, monkeypatch, block):
        xs = em_samples(11, [12, 25, 25, 40, 12, 40, 300])
        runs = start_runs([(x, k) for x in xs for k in range(1, 6) if x.size >= 3 * k])
        runs = [runs[i] for i in np.random.default_rng(1).permutation(len(runs))]
        whole = density._em(runs, density._STRICT_TOL, accelerate=True)
        monkeypatch.setattr(density, "_EM_BLOCK", block)
        alone = density._em(runs, density._STRICT_TOL, accelerate=True)
        for got, want in zip(whole, alone, strict=True):
            for a, b in zip(got[:4], want[:4]):
                assert np.array_equal(a, b)
            assert got[4:] == want[4:]

    def test_traces_never_decrease(self, plain_and_squarem):
        # An extrapolated point is kept only at or above t1's log-likelihood;
        # an EM step can round down by a few ulps right at convergence, as in
        # the plain loop.
        _, _, fits = plain_and_squarem
        for _, _, _, trace, _, evaluations in fits:
            assert 1 <= len(trace) <= evaluations <= density._EM_MAX_ITER
            assert np.all(np.diff(trace) >= -1e-13 * np.abs(trace[:-1]))

    def test_best_of_restarts_at_least_the_plain_loop(self, plain_and_squarem):
        # Tolerance: the stopping tolerance times the sample count. Both
        # loops stop once one EM step gains at most that much, from different
        # points, so either may stop that far short of the other.
        jobs, plain, fits = plain_and_squarem
        for j, (x, k) in enumerate(jobs):
            want = max(fit[3][-1] for fit in plain[3 * j : 3 * j + 3])
            got = max(fit[3][-1] for fit in fits[3 * j : 3 * j + 3])
            assert got >= want - density._STRICT_TOL * x.size, (j, k)

    def test_fewer_evaluations_and_no_more_runs_at_the_cap(self, plain_and_squarem):
        _, plain, fits = plain_and_squarem
        assert sum(fit[5] for fit in fits) < 0.5 * sum(fit[5] for fit in plain)
        capped = [sum(not fit[4] for fit in side) for side in (plain, fits)]
        assert capped[0] > 0 and capped[1] <= capped[0]

    @pytest.mark.parametrize("n", [12, 40, 300])
    def test_select_gmm_continues_its_winning_selection_run(self, n):
        # The trace is the winner's best selection run, then the strict
        # continuation from where that run stopped, which only climbs.
        for x in em_samples(n, [n] * 4):
            _, report = select_gmm(x, 5)
            k = report.component_count
            run = oracle_run(x, k, density._SELECTION_TOL, _em_once)
            trace = np.array(report.log_likelihood_trace)
            assert trace[: len(run[3])].tolist() == run[3]
            assert np.all(np.diff(trace) >= -1e-13 * np.abs(trace[:-1]))
            assert trace[-1] >= run[3][-1]
            assert report.iterations > run[5]

    @pytest.mark.parametrize("seed", range(6))
    def test_refit_of_a_pooled_sim1_class_converges(self, seed):
        # Without acceleration the strict refit stopped at the 500-evaluation
        # cap on 3 of these 6 pooled negative classes (25 bags x 50 instances).
        train, _ = sample_experiment(SimConfig.preset("sim1"), 10, 25, 1, seed)
        _, report = select_gmm(train.pooled_instances(Label.NEG)[:, 0], 5)
        assert report.converged


def scalar_bandwidth(x, kind, robust):
    """The bandwidth rule one sample at a time, as Python floats: the oracle
    of the stacked rule."""
    sd = float(np.std(x, ddof=1))
    sigma = sd
    if robust:
        q75, q25 = np.percentile(x, [75, 25])
        iqr = float(q75 - q25)
        sigma = min(sd, iqr / 1.349) if iqr > 0 else sd
    if sigma <= 0:
        return None
    return (1.06 if kind == KDE_GAUSSIAN else 2.345) * sigma * x.size ** (-0.2)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def kde_sample_oracle(model, n, seed):
    """The KDE sampler's generator calls and arithmetic, written out:
    ``DensityModel.sample`` gives its bits."""
    rng = np.random.default_rng(seed)
    base = model.centers[rng.integers(0, model.centers.size, size=n)]
    if model.kind == KDE_GAUSSIAN:
        return base + model.bandwidth * rng.standard_normal(n)
    return base + model.bandwidth * density._epanechnikov_ppf(rng.random(n))


class _Duck:
    """A density that is not a ``DensityModel``: only ``sample`` and ``pdf``."""

    def __init__(self, model):
        self.model = model

    def sample(self, n, seed):
        return self.model.sample(n, seed) * 0.5

    def pdf(self, x):
        return self.model.pdf(x * 2.0)


class TestStackedKdeFits:
    """Samples of one length fitted as the rows of one array: the bandwidth
    rule, the support and the Epanechnikov tables are each sample's own, bit
    for bit, and a sample that cannot be fitted gets fit_kde's error in its
    place. Each fitted bag draws the sampler oracle's bits, and blocks of
    fitted bags are evaluated as rows with each bag's own bits."""

    @given(
        lengths=st.lists(st.integers(2, 60), min_size=1, max_size=10),
        kernel=st.sampled_from(["EPANECHNIKOV", "GAUSSIAN"]),
        bandwidth=st.one_of(st.none(), st.floats(0.05, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_one_model_bits(self, lengths, kernel, bandwidth, seed):
        rng = np.random.default_rng(seed)
        samples = [rng.standard_normal(n) * rng.uniform(0.1, 30.0) + rng.normal(0.0, 100.0)
                   for n in lengths]
        samples.append(samples[0] + 1.0)  # two samples of one length at least
        fits = density._fit_kdes(samples, kernel, bandwidth, True)
        alone = [DensityModel(fit.kind, fit.support_hint, fit.bandwidth, fit.centers) for fit in fits]
        for fit, one in zip(fits, alone):
            if kernel == "GAUSSIAN":
                assert fit._table is None and one._table is None
            else:
                assert np.array_equal(bits(fit._table), bits(one._table))
        seeds = [as_seed_sequence(int(s)) for s in rng.integers(0, 2**63, len(fits))]
        draws = np.array([fit.sample(100, s) for fit, s in zip(fits, seeds)])
        for fit, s, row in zip(fits, seeds, draws):
            assert np.array_equal(bits(row), bits(kde_sample_oracle(fit, 100, s)))
        # each bag at its own sorted draws, with points beyond its support
        x = np.sort(draws, axis=1)
        x[:, ::7] = rng.uniform(-1e3, 1e3, x[:, ::7].shape)
        values = density._pdf_rows(fits, x)
        for fit, one, row, got in zip(fits, alone, x, values):
            assert np.array_equal(bits(got), bits(fit.pdf(row)))
            assert np.array_equal(bits(got), bits(one.pdf(row)))
            if kernel == "EPANECHNIKOV":
                assert_close_to_direct_sum(got, epan_direct_oracle(fit, row))

    def test_mixed_rows_and_a_duck_typed_model(self):
        rng = np.random.default_rng(52)
        epan = density._fit_kdes([rng.standard_normal(n) for n in (5, 31, 5)], "EPANECHNIKOV",
                                 None, True)
        gauss = fit_kde(rng.standard_normal(9), "GAUSSIAN")
        gmm = fit_gmm(rng.standard_normal(40), 2)[0]
        models = [epan[0], _Duck(epan[1]), gauss, gmm, epan[1], epan[2]]
        seeds = list(range(len(models)))
        # every row is its own model's draws, sorted
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=128)
        draws, widths = evaluation_rows(models, spec, seeds)
        assert widths is None
        for model, s, row in zip(models, seeds, draws):
            assert np.array_equal(bits(row), bits(np.sort(model.sample(128, s))))
        values = density._pdf_rows(models, draws)
        for model, row, got in zip(models, draws, values):
            assert np.array_equal(bits(got), bits(model.pdf(row)))

    @pytest.mark.parametrize("robust", [True, False])
    @pytest.mark.parametrize("kind", [KDE_EPANECHNIKOV, KDE_GAUSSIAN])
    def test_rows_match_one_sample_rule(self, kind, robust):
        rng = np.random.default_rng(41)
        scale, shift = rng.uniform(0.01, 50.0, (40, 1)), rng.normal(0.0, 9.0, (40, 1))
        rows = rng.standard_normal((40, 13)) * scale + shift
        rows[3] = 2.5  # zero variance
        rows[5, :10] = 1.0  # IQR of zero, positive sd
        got = density._bandwidths(rows, kind, robust)
        for x, h in zip(rows, got):
            want = scalar_bandwidth(x, kind, robust)
            if want is None:
                assert isinstance(h, ValueError) and "zero sample variance" in str(h)
                with pytest.raises(ValueError) as one_row:
                    silverman_bandwidth(x, kind, robust)
                assert str(one_row.value) == str(h)
            else:
                assert h == want and silverman_bandwidth(x, kind, robust) == want

    @pytest.mark.parametrize("robust", [True, False])
    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    def test_mixed_lengths_and_errors_in_place(self, kernel, robust):
        rng = np.random.default_rng(42)
        samples = [rng.standard_normal(n) * 3.0 + 1.0 for n in (12, 7, 12, 20, 7, 12, 1, 20)]
        samples += [np.full(7, 4.0), [], [0.0, np.nan, 1.0], rng.standard_normal((4, 3))]
        got = density._fit_kdes(samples, kernel, None, robust)
        assert len(got) == len(samples)
        for x, fit in zip(samples, got):
            try:
                want = fit_kde(x, kernel, robust_sigma=robust)
            except ValueError as exc:
                assert isinstance(fit, ValueError) and str(fit) == str(exc)
                continue
            flat = np.asarray(x, dtype=float).ravel()
            assert fit.bandwidth == scalar_bandwidth(flat, f"KDE_{kernel}", robust)
            assert (fit.kind, fit.support_hint) == (want.kind, want.support_hint)
            assert np.array_equal(fit.centers, flat)
        assert [type(f).__name__ for f in got[-4:]] == ["ValueError"] * 3 + ["DensityModel"]

    def test_explicit_bandwidth_errors_per_sample(self):
        got = density._fit_kdes([[0.0, 1.0], [np.inf, 1.0], [2.0]], "GAUSSIAN", 0.0, True)
        assert [str(f) for f in got] == [
            "bandwidth must be positive",
            "samples must be non-empty and finite",
            "bandwidth must be positive",
        ]

    @pytest.mark.parametrize("block", [density._TABLE_BLOCK, 100, 1])
    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    def test_blocks_keep_every_bit_and_error(self, monkeypatch, kernel, block):
        # 25 samples of length 10 are one block by default, blocks of 10
        # rows at 100 centers and of one row at 1; the failures are spread
        # over the blocks, and one length fails in every row.
        rng = np.random.default_rng(55)
        samples = [rng.standard_normal(n) * rng.uniform(0.1, 9.0) for n in [10] * 25 + [3, 7, 3]]
        samples[4] = np.full(10, 2.0)  # zero variance
        samples[13][5] = np.nan
        samples[21][0] = np.inf
        samples += [[], [1.0], [np.nan] * 4, [-np.inf] * 4]
        whole = density._fit_kdes(samples, kernel, None, True)
        monkeypatch.setattr(density, "_TABLE_BLOCK", block)
        got = density._fit_kdes(samples, kernel, None, True)
        for x, fit, first in zip(samples, got, whole, strict=True):
            try:
                want = fit_kde(x, kernel)
            except ValueError as exc:
                assert isinstance(fit, ValueError) and str(fit) == str(first) == str(exc)
                continue
            for model in (want, first):
                assert (fit.kind, fit.support_hint, fit.bandwidth) == (
                    model.kind, model.support_hint, model.bandwidth)
                assert np.array_equal(bits(fit.centers), bits(model.centers))
                if kernel == "EPANECHNIKOV":
                    assert np.array_equal(bits(fit._table), bits(model._table))
                else:
                    assert fit._table is None
        assert [isinstance(f, ValueError) for f in got].count(True) == 7


class TestBlocks:
    """``density._blocks``, the grouping and blocking of every stacked phase."""

    @pytest.mark.parametrize("limit", [1, 7, 40, 1000])
    def test_every_index_once_in_order_within_the_bound(self, limit):
        keys = np.random.default_rng(56).choice([0, 1, 3, 10, 50], size=200).tolist()
        blocks = list(density._blocks(keys, limit, lambda key: key))
        assert sorted(i for _, block in blocks for i in block) == list(range(len(keys)))
        firsts = []
        for key, block in blocks:
            assert block and all(keys[i] == key for i in block)
            assert len(block) <= max(1, limit // max(1, key))
            if key not in firsts:
                firsts.append(key)
        assert firsts == list(dict.fromkeys(keys))  # keys in first-seen order
        for key in firsts:  # and each key's indices in order, block after block
            joined = [i for k, block in blocks if k == key for i in block]
            assert joined == [i for i, k in enumerate(keys) if k == key]

    def test_zero_size_key_and_no_keys(self):
        assert list(density._blocks([(0, 2), (0, 2), (0, 2)], 2, lambda key: key[0])) == [
            ((0, 2), [0, 1]), ((0, 2), [2])]
        assert list(density._blocks([], 8, lambda key: 1 // 0)) == []


class TestDeterministicStarts:
    """``density._gmm_starts`` gives every row the bits of ``starts_oracle``,
    whatever block it is in."""

    @staticmethod
    def samples():
        xs = em_samples(43, (6, 15, 15, 60, 333))
        xs.append(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0]))  # ties; k = 3 and 5 empty Lloyd cells
        xs.append(np.round(em_samples(44, [200])[0], 0))  # a few values, many ties
        return xs

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_one_row_is_the_oracle(self, k):
        for x in self.samples():
            if k <= x.size:
                (got,) = density._gmm_starts(np.sort(x)[None, :], k)
                for start, want in zip(got, starts_oracle(x, k), strict=True):
                    for g, w in zip(start, want, strict=True):
                        assert np.array_equal(bits(g), bits(w))

    @pytest.mark.parametrize("cap", [None, 1])
    @pytest.mark.parametrize("block", [density._EM_BLOCK, 100, 1])
    def test_batched_starts_have_the_one_row_bits(self, monkeypatch, block, cap):
        # Mixed (n, k) groups, k up to 8, each stacked whole or cut into
        # blocks of 100 elements (1 to 16 jobs) or of one job; with a cap of
        # one Lloyd step, rows stop short of their fixed points.
        if cap is not None:
            monkeypatch.setattr(density, "_LLOYD_MAX_ITER", cap)
        xs = self.samples()
        jobs = [(np.sort(x), k) for x in xs for k in (1, 2, 3, 5, 8) if k <= x.size]
        jobs = [jobs[i] for i in np.random.default_rng(2).permutation(len(jobs))]
        for (_, k), members in density._blocks([(x.size, k) for x, k in jobs], block,
                                               lambda key: key[0]):
            starts = density._gmm_starts(np.array([jobs[i][0] for i in members]), k)
            assert starts.shape == (len(members), density._EM_RESTARTS, 3, k)
            for i, job_starts in zip(members, starts):
                for start, want in zip(job_starts, starts_oracle(*jobs[i]), strict=True):
                    for g, w in zip(start, want, strict=True):
                        assert np.array_equal(bits(g), bits(w))

    def test_lloyd_start_is_a_fixed_point(self):
        # Each Lloyd mean is the mean of the values nearer to it than to
        # its neighbours, unless its cell is empty.
        for x in self.samples():
            for k in (2, 3, 5):
                if 3 * k <= x.size:
                    x_sorted = np.sort(x)
                    mu = density._gmm_starts(x_sorted[None, :], k)[0, 2, 1]
                    cuts = mu[:-1] + 0.5 * (mu[1:] - mu[:-1])
                    cells = np.searchsorted(cuts, x_sorted, side="right")
                    for j in range(k):
                        if (cells == j).any():
                            assert mu[j] == pytest.approx(x_sorted[cells == j].mean(), rel=1e-12, abs=1e-12)


class TestSelectionReadsTheAic:
    """select_gmm compares candidate sizes by the AIC of their best runs' log-likelihoods
    and builds a model only for a size that could win."""

    def sample(self):
        rng = np.random.default_rng(44)
        return np.concatenate([rng.standard_normal(60) - 4.0, rng.standard_normal(60) + 4.0])

    def test_builds_the_winner_and_its_refit_only(self, monkeypatch):
        built = []
        result = density._gmm_result
        monkeypatch.setattr(density, "_gmm_result", lambda k, fit: built.append(k) or result(k, fit))
        _, report = select_gmm(self.sample(), 4)
        assert report.component_count == 2 and built == [2, 2]

    def test_rejected_size_is_passed_over(self, monkeypatch):
        x = self.sample()
        result = density._gmm_result

        def reject_two(k, fit):
            if k == 2:
                raise ValueError("rejected")
            return result(k, fit)

        monkeypatch.setattr(density, "_gmm_result", reject_two)
        _, report = select_gmm(x, 3)
        aics = {k: oracle_fit(x, k, tol=7e-4, em=_em_once)[1].aic for k in (1, 3)}
        assert report.component_count == min(aics, key=aics.get)
        monkeypatch.setattr(density, "_gmm_result", lambda k, fit: reject_two(2, fit))
        with pytest.raises(ValueError, match=r"no GMM size in 1..3 could be fitted: rejected"):
            select_gmm(x, 3)


class TestPdfPair:
    """Two class densities looked up together by one search of their merged
    breakpoints give each density's own ``pdf``, bit for bit."""

    @staticmethod
    def rows(a, b, rng):
        """(rows, 256) blocks: two bags with one support (tied rows), each
        bag's importance draws, both tables' breakpoints, points beyond both
        supports, and a random mix."""
        spec = DivergenceSpec(integrator="RIEMANN", n_imp=256)
        bags = [fit_kde(rng.normal(mu, 0.3, 10)) for mu in (-1.0, 0.0, 2.0)]
        grid, _ = evaluation_rows([bags[0], bags[0], bags[1]], spec)
        drawn, _ = evaluation_rows(bags, replace(spec, integrator="IMPORTANCE"), [7, 8, 9])
        breaks = np.concatenate([a._table[0], b._table[0]])
        on_breaks = np.sort(rng.choice(breaks, (2, 256)), axis=1)
        lo = min(a.support_hint[0], b.support_hint[0])
        hi = max(a.support_hint[1], b.support_hint[1])
        outside = np.concatenate([np.linspace(lo - 50.0, lo - 1e-9, 128),
                                  np.linspace(hi + 1e-9, hi + 50.0, 128)])
        mixed = np.sort(np.concatenate([rng.choice(breaks, 100), rng.uniform(lo - 1, hi + 1, 156)]))
        return np.vstack([grid, drawn, on_breaks, outside, mixed])

    @pytest.mark.parametrize("sizes", [(50, 10_000), (10_000, 50), (50, 50)])
    def test_each_row_is_each_densitys_own_pdf(self, sizes):
        rng = np.random.default_rng(62)
        a, b = (fit_kde(rng.standard_normal(n) * s + s, robust_sigma=False)
                for n, s in zip(sizes, (1.0, 2.0)))
        x = self.rows(a, b, rng)
        assert np.array_equal(x[0], x[1])
        pair = density._pdf_pair(a, b, math.inf)
        fa, fb = pair(x)
        assert fa.shape == fb.shape == x.shape
        for row, got_a, got_b in zip(x, fa, fb):
            assert np.array_equal(bits(got_a), bits(a.pdf(row)))
            assert np.array_equal(bits(got_b), bits(b.pdf(row)))
            one_a, one_b = pair(row[None, :])  # a 1-row block
            assert np.array_equal(bits(one_a[0]), bits(got_a))
            assert np.array_equal(bits(one_b[0]), bits(got_b))
        assert (fa[6:8] > 0).any() and (fb[6:8] > 0).any()  # on the breakpoints
        assert not fa[8].any() and not fb[8].any()  # beyond both supports

    def test_one_density_twice(self):
        a = fit_kde(np.random.default_rng(63).standard_normal(40))
        x = np.linspace(*a.support_hint, 256)[None, :]
        fa, fb = density._pdf_pair(a, a, math.inf)(x)
        assert np.array_equal(bits(fa), bits(a.pdf(x))) and np.array_equal(bits(fb), bits(fa))

    def test_other_kinds_call_their_own_pdf(self):
        rng = np.random.default_rng(64)
        epan = fit_kde(rng.standard_normal(30))
        others = [fit_kde(rng.standard_normal(30), "GAUSSIAN"),
                  fit_gmm(rng.standard_normal(30), 2)[0], _Duck(epan)]
        x = np.sort(rng.uniform(-4.0, 4.0, (3, 64)), axis=1)
        for other in others:
            for a, b in ((epan, other), (other, epan)):
                fa, fb = density._pdf_pair(a, b, math.inf)(x)
                assert np.array_equal(bits(fa), bits(a.pdf(x)))
                assert np.array_equal(bits(fb), bits(b.pdf(x)))

    def test_fewer_points_than_breakpoints_call_each_pdf(self, monkeypatch):
        # Building the merged index costs about what searching its size saves.
        rng = np.random.default_rng(65)
        a, b = fit_kde(rng.standard_normal(100)), fit_kde(rng.standard_normal(60))
        x = np.sort(rng.uniform(-3.0, 3.0, (2, 160)), axis=1)
        want = a.pdf(x), b.pdf(x)
        calls = []
        pdf = DensityModel.pdf
        monkeypatch.setattr(DensityModel, "pdf", lambda m, x: calls.append(id(m)) or pdf(m, x))
        for points, called in ((319, [id(a), id(b)]), (320, []), (math.inf, [])):
            calls.clear()
            got = density._pdf_pair(a, b, points)(x)
            assert calls == called
            assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))
