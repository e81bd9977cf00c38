import json
import math

import numpy as np
import pytest

from midiv import density
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


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100) * 2.0 + 3.0
        model, report = fit_gmm(x, 1, seed=0)
        w, mu, var = model.components[0]
        assert w == pytest.approx(1.0)
        assert mu == pytest.approx(x.mean(), abs=1e-9)
        assert var == pytest.approx(np.var(x), abs=1e-9)
        assert report.component_count == 1 and report.converged

    def test_two_component_recovery(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.standard_normal(250) - 5.0, rng.standard_normal(250) + 5.0])
        model, _ = fit_gmm(x, 2, seed=42)
        means = sorted(model.components[:, 1])
        weights = model.components[:, 0]
        assert abs(means[0] + 5.0) < 0.5 and abs(means[1] - 5.0) < 0.5
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=0.1)

    def test_aic_arithmetic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(60)
        _, report = fit_gmm(x, 2, seed=1)
        p = 3 * 2 - 1
        assert report.aic == pytest.approx(2 * p - 2 * report.log_likelihood, abs=1e-12)

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            x = rng.standard_normal(rng.integers(30, 200)) * rng.uniform(0.5, 3)
            for k in (1, 2, 3):
                _, report = fit_gmm(x, k, seed=seed)
                trace = np.array(report.log_likelihood_trace)
                assert np.all(np.diff(trace) >= -1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(120)
        m1, r1 = fit_gmm(x, 2, seed=9)
        m2, r2 = fit_gmm(x, 2, seed=9)
        np.testing.assert_array_equal(m1.components, m2.components)
        assert r1.log_likelihood == r2.log_likelihood

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least"):
            fit_gmm([1.0, 2.0, 3.0, 4.0, 5.0], 2, seed=0)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            fit_gmm(np.arange(10.0), 0, seed=0)


class TestSelectGmm:
    def test_k_max_one_matches_single_fit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(90)
        model, report = select_gmm(x, 1, seed=0)
        assert report.component_count == 1
        direct, _ = fit_gmm(x, 1, seed=0)
        np.testing.assert_allclose(model.components[:, 1], direct.components[:, 1], atol=1e-9)

    def test_prefers_one_component_on_gaussian(self):
        hits = 0
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(500)
            _, report = select_gmm(x, 3, seed=seed)
            hits += report.component_count == 1
        assert hits >= 18

    def test_prefers_two_on_separated_mixture(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = np.concatenate([rng.standard_normal(250) - 5, rng.standard_normal(250) + 5])
            _, report = select_gmm(x, 4, seed=seed)
            hits += report.component_count == 2
        assert hits >= 18

    def test_error_when_every_k_fails(self):
        with pytest.raises(ValueError, match="no GMM size"):
            select_gmm([1.0, 2.0], 2, seed=0)


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
            fit_gmm(x, 2, seed=0)[0],
        ]
        for model in models:
            assert 0.99 <= numeric_integral(model) <= 1.001

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
            fit_gmm(x, 2, seed=3)[0],
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
            model = fit_gmm(samples, 2, seed=4)[0]
        else:
            model = fit_kde(samples, kind.removeprefix("KDE_"))
        x = rng.uniform(-7.0, 7.0, 5000)
        p = rng.permutation(x.size)
        assert np.array_equal(model.pdf(x[p]), model.pdf(x)[p])


class TestSerialization:
    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    def test_kde_round_trip_exact(self, kernel):
        rng = np.random.default_rng(10)
        model = fit_kde(rng.standard_normal(40), kernel)
        back = DensityModel.from_json(model.to_json())
        assert back.kind == model.kind
        assert back.bandwidth == model.bandwidth  # bit-exact
        np.testing.assert_array_equal(back.centers, model.centers)
        assert back.support_hint == model.support_hint

    def test_gmm_round_trip_exact(self):
        rng = np.random.default_rng(11)
        model, _ = fit_gmm(rng.standard_normal(100), 2, seed=5)
        back = DensityModel.from_json(model.to_json())
        np.testing.assert_array_equal(back.components, model.components)
        assert back.support_hint == model.support_hint

    def test_json_fields(self):
        model = fit_kde([0.0, 1.0], "EPANECHNIKOV", bandwidth=0.7)
        doc = json.loads(model.to_json())
        assert set(doc) == {"kind", "support_hint", "bandwidth", "centers"}


class TestModelValidation:
    def test_gmm_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DensityModel(kind=GMM, support_hint=(0, 1), components=[[0.6, 0.0, 1.0], [0.6, 1.0, 1.0]])

    def test_gmm_variance_positive(self):
        with pytest.raises(ValueError, match="variance"):
            DensityModel(kind=GMM, support_hint=(0, 1), components=[[1.0, 0.0, 0.0]])

    def test_kde_requires_bandwidth(self):
        with pytest.raises(ValueError):
            DensityModel(kind=KDE_EPANECHNIKOV, support_hint=(0, 1), centers=[0.5])
