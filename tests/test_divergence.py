import math

import numpy as np
import pytest

from midiv import divergence as dv
from midiv.density import DensityModel, GMM, _pdf_rows, fit_gmm, fit_kde
from midiv.divergence import DivergenceSpec, bhattacharyya, ckl, kl


def gaussian(mu, var, sigmas=8.0):
    sd = math.sqrt(var)
    return DensityModel(
        kind=GMM, support_hint=(mu - sigmas * sd, mu + sigmas * sd), components=[[1.0, mu, var]]
    )


def one_row(reduce, *values, spec, dx):
    """A reducer's score of one row of density values, given as 1-D arrays."""
    rows = [np.asarray(v)[None, :] for v in values]
    return reduce(*rows, spec, None if dx is None else np.array([dx])).row(0)


def rd(f_bag, f_pos, f_neg, reduce, spec, seed):
    """The rd ratio of ``reduce`` on one point set over the bag and both classes."""
    x, dx = dv.evaluation_rows([f_bag], spec, [seed])
    fb, fp, fn = _pdf_rows([f_bag], x), f_pos.pdf(x), f_neg.pdf(x)
    num, den = (reduce(fb, fr, spec, dx).row(0).value for fr in (fp, fn))
    return dv.rd_value(num, den)


def kl_closed_form(m1, v1, m2, v2):
    return 0.5 * math.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / (2 * v2) - 0.5


def bh_closed_form(m1, v1, m2, v2):
    return (m1 - m2) ** 2 / (4 * (v1 + v2)) + 0.5 * math.log((v1 + v2) / (2 * math.sqrt(v1 * v2)))


RIEMANN = DivergenceSpec(integrator="RIEMANN", grid_points=10_000, ratio_clip=1e12)
IMPORTANCE = DivergenceSpec(integrator="IMPORTANCE", n_imp=100_000, ratio_clip=1e12)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            DivergenceSpec(n_imp=50)
        with pytest.raises(ValueError):
            DivergenceSpec(grid_points=100)
        with pytest.raises(ValueError):
            DivergenceSpec(ratio_clip=1.0)
        with pytest.raises(ValueError):
            DivergenceSpec(integrator="SIMPSON")

    @pytest.mark.parametrize("field", ["n_imp", "grid_points"])
    @pytest.mark.parametrize("value", [1000.5, 1000.0, "1000", True])
    def test_counts_must_be_integers(self, field, value):
        # A fractional grid_points used to build a grid of the wrong width and
        # a fractional n_imp to fail deep inside sampling.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DivergenceSpec(**{field: value})

    @pytest.mark.parametrize("value", ["5", True, None, float("nan"), -math.inf])
    def test_ratio_clip_must_be_a_real_number_above_one(self, value):
        # A string or None used to raise TypeError, not ValueError.
        with pytest.raises(ValueError, match="ratio_clip"):
            DivergenceSpec(ratio_clip=value)

    @pytest.mark.parametrize("value", [math.inf, np.float32(5.0), 7])
    def test_ratio_clip_accepts_real_numbers(self, value):
        assert DivergenceSpec(ratio_clip=value).ratio_clip == value

    def test_numpy_integer_counts_accepted(self):
        spec = DivergenceSpec(n_imp=np.int64(500), grid_points=np.int32(1024))
        assert (spec.n_imp, spec.grid_points) == (500, 1024)


class TestDefaultIntegrator:
    """``DivergenceSpec()`` chooses per bag: a Riemann grid for a KDE whose
    bandwidth spans two cells of it, importance sampling otherwise."""

    bulk = np.random.default_rng(3).standard_normal(49)

    @pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
    def test_kde_bags_take_the_grid_unless_an_outlier_widens_them(self, kernel):
        spec = DivergenceSpec()
        assert spec.for_bag([fit_kde(self.bulk, kernel)]).integrator == "RIEMANN"
        # the bandwidth stays near 1 while the support spans 1e4
        outlier = fit_kde(np.append(self.bulk, 1e4), kernel)
        assert spec.for_bag([outlier]).integrator == "IMPORTANCE"
        assert spec.for_bag([fit_kde(self.bulk, kernel), outlier]).integrator == "IMPORTANCE"

    def test_gmm_bags_take_importance_sampling(self):
        assert DivergenceSpec().for_bag([gaussian(0, 1)]).integrator == "IMPORTANCE"

    def test_a_named_integrator_is_kept(self):
        for integrator in ("RIEMANN", "IMPORTANCE"):
            spec = DivergenceSpec(integrator=integrator)
            assert spec.for_bag([gaussian(0, 1)]) is spec

    def test_the_spec_keeps_its_counts(self):
        spec = DivergenceSpec(n_imp=300, grid_points=512, ratio_clip=10.0)
        got = spec.for_bag([fit_kde(self.bulk)])
        assert (got.n_imp, got.grid_points, got.ratio_clip) == (300, 512, 10.0)

    def test_evaluation_rows_need_a_named_integrator(self):
        with pytest.raises(ValueError, match="names its integrator"):
            dv.evaluation_rows([fit_kde(self.bulk)], DivergenceSpec(), [0])

    def test_an_outlier_bag_is_scored_where_the_grid_raises(self):
        # 49 N(0, 1) draws and one at 1e4: the 256-point grid over its
        # support has cells of about 39 and misses the bulk.
        bag = fit_kde(np.append(self.bulk, 1e4))
        ref = fit_kde(np.random.default_rng(4).standard_normal(300))
        with pytest.raises(ValueError, match="256-point Riemann grid"):
            kl(bag, ref, DivergenceSpec(integrator="RIEMANN"), 0)
        assert kl(bag, ref, DivergenceSpec(), 0) == kl(
            bag, ref, DivergenceSpec(integrator="IMPORTANCE"), 0)


class TestKl:
    def test_same_model_is_zero(self):
        f = gaussian(0.0, 1.0)
        assert kl(f, f, RIEMANN, seed=0).value == pytest.approx(0.0, abs=1e-6)
        assert kl(f, f, IMPORTANCE, seed=0).value == pytest.approx(0.0, abs=1e-6)

    def test_unit_shift_closed_form(self):
        score = kl(gaussian(0, 1), gaussian(1, 1), RIEMANN, seed=0)
        assert score.value == pytest.approx(0.5, abs=0.002)
        score = kl(gaussian(0, 1), gaussian(1, 1), IMPORTANCE, seed=0)
        assert score.value == pytest.approx(0.5, abs=0.015)

    def test_variance_ratio_closed_form(self):
        expected = math.log(2) + 1 / 8 - 0.5  # = 0.31815
        score = kl(gaussian(0, 1), gaussian(0, 4), RIEMANN, seed=0)
        assert score.value == pytest.approx(expected, abs=0.002)
        score = kl(gaussian(0, 1), gaussian(0, 4), IMPORTANCE, seed=0)
        assert score.value == pytest.approx(expected, abs=0.01)

    def test_oracle_agreement_50_random_pairs(self):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 50:
            m1, m2 = rng.uniform(-2, 2, 2)
            v1, v2 = rng.uniform(0.5, 2.0, 2)
            expected = kl_closed_form(m1, v1, m2, v2)
            if expected < 0.05:  # relative tolerance needs a nonvanishing target
                continue
            got = kl(gaussian(m1, v1), gaussian(m2, v2), RIEMANN, seed=checked).value
            assert abs(got - expected) <= 0.03 * expected + 1e-4
            checked += 1

    def test_importance_riemann_agreement(self):
        # moderate-divergence pairs: the importance estimator's variance
        # explodes for nearly disjoint densities
        rng = np.random.default_rng(200)
        checked = 0
        while checked < 50:
            g1 = random_gmm(rng, int(rng.integers(1, 4)))
            g2 = random_gmm(rng, int(rng.integers(1, 4)))
            a = kl(g1, g2, RIEMANN, seed=checked).value
            if a > 3.0:
                continue
            b = kl(g1, g2, IMPORTANCE, seed=checked).value
            assert abs(a - b) < 0.02 + 0.02 * abs(a)
            checked += 1

    def test_importance_ess_is_full(self):
        # the proposal equals the bag density, so the weights are all one
        spec = DivergenceSpec(integrator="IMPORTANCE")
        score = kl(gaussian(0, 1), gaussian(1, 1), spec, seed=1)
        assert isinstance(score, dv.DivergenceScore) and type(score.value) is float
        assert score.ess == spec.n_imp

    def test_value_non_negative(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g1 = random_gmm(rng, 2)
            g2 = random_gmm(rng, 2)
            for spec in (RIEMANN, DivergenceSpec(integrator="IMPORTANCE")):
                assert kl(g1, g2, spec, seed=trial).value >= -1e-6

    def test_clipping_reported(self):
        narrow = fit_kde([0.0, 0.1], "EPANECHNIKOV", bandwidth=0.1)
        far = fit_kde([10.0, 10.1], "EPANECHNIKOV", bandwidth=0.1)
        spec = DivergenceSpec(integrator="IMPORTANCE")
        score = kl(narrow, far, spec, seed=0)
        assert score.clipped_fraction == pytest.approx(1.0)
        assert score.value <= math.log(spec.ratio_clip) + 1e-9


def random_gmm(rng, k):
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-2.5, 2.5, k)
    variances = rng.uniform(0.5, 1.5, k)
    lo = float(np.min(means - 8 * np.sqrt(variances)))
    hi = float(np.max(means + 8 * np.sqrt(variances)))
    return DensityModel(
        kind=GMM, support_hint=(lo, hi), components=np.column_stack([weights, means, variances])
    )


class TestBhattacharyya:
    def test_identical_models_zero(self):
        f = gaussian(0.3, 1.2)
        assert bhattacharyya(f, f, RIEMANN, seed=0).value == pytest.approx(0.0, abs=1e-6)
        assert bhattacharyya(f, f, IMPORTANCE, seed=0).value == pytest.approx(0.0, abs=5e-3)

    def test_unit_shift_closed_form(self):
        got = bhattacharyya(gaussian(0, 1), gaussian(1, 1), RIEMANN, seed=0)
        assert got.value == pytest.approx(0.125, abs=0.002)
        got = bhattacharyya(gaussian(0, 1), gaussian(1, 1), IMPORTANCE, seed=0)
        assert got.value == pytest.approx(0.125, abs=0.01)

    def test_variance_ratio_closed_form(self):
        expected = 0.5 * math.log(5 / 4)  # = 0.11157
        got = bhattacharyya(gaussian(0, 1), gaussian(0, 4), RIEMANN, seed=0)
        assert got.value == pytest.approx(expected, abs=0.002)

    def test_symmetry(self):
        g1, g2 = gaussian(-0.5, 0.8), gaussian(1.2, 2.0)
        a = bhattacharyya(g1, g2, RIEMANN, seed=0).value
        b = bhattacharyya(g2, g1, RIEMANN, seed=0).value
        assert a == pytest.approx(b, abs=1e-4)
        a = bhattacharyya(g1, g2, IMPORTANCE, seed=1).value
        b = bhattacharyya(g2, g1, IMPORTANCE, seed=2).value
        assert a == pytest.approx(b, abs=0.01)

    def test_oracle_agreement_50_random_pairs(self):
        rng = np.random.default_rng(300)
        checked = 0
        while checked < 50:
            m1, m2 = rng.uniform(-2, 2, 2)
            v1, v2 = rng.uniform(0.5, 2.0, 2)
            expected = bh_closed_form(m1, v1, m2, v2)
            if expected < 0.02:
                continue
            got = bhattacharyya(gaussian(m1, v1), gaussian(m2, v2), RIEMANN, seed=checked).value
            assert abs(got - expected) <= 0.03 * expected + 1e-4
            checked += 1

    def test_importance_riemann_agreement(self):
        rng = np.random.default_rng(400)
        checked = 0
        while checked < 50:
            g1 = random_gmm(rng, int(rng.integers(1, 4)))
            g2 = random_gmm(rng, int(rng.integers(1, 4)))
            a = bhattacharyya(g1, g2, RIEMANN, seed=checked).value
            if a > 1.5:  # overlap integral too small for a stable importance mean
                continue
            b = bhattacharyya(g1, g2, IMPORTANCE, seed=checked).value
            assert abs(a - b) < 0.02 + 0.02 * abs(a)
            checked += 1

    def test_non_negative_after_clamp(self):
        f = gaussian(0.0, 1.0)
        assert bhattacharyya(f, f, IMPORTANCE, seed=3).value >= 0.0

    def test_disjoint_supports_finite(self):
        a = fit_kde([0.0, 0.5], "EPANECHNIKOV", bandwidth=0.2)
        b = fit_kde([50.0, 50.5], "EPANECHNIKOV", bandwidth=0.2)
        score = bhattacharyya(a, b, DivergenceSpec(), seed=0)
        assert np.isfinite(score.value) and score.value > 100


class TestCkl:
    def test_reduces_to_kl_when_classes_equal(self):
        f_bag = gaussian(0, 1)
        f_class = gaussian(1, 1)
        a = ckl(f_bag, f_class, f_class, IMPORTANCE, seed=0).value
        assert a == pytest.approx(0.5, abs=0.02)
        b = ckl(f_bag, f_class, f_class, RIEMANN, seed=0).value
        assert b == pytest.approx(kl(f_bag, f_class, RIEMANN, seed=0).value, abs=1e-6)

    def test_zero_when_bag_equals_pos(self):
        f = gaussian(0.5, 1.5)
        other = gaussian(-1.0, 1.0)
        assert ckl(f, f, other, RIEMANN, seed=0).value == pytest.approx(0.0, abs=1e-6)

    def test_reduction_on_random_triples(self):
        rng = np.random.default_rng(500)
        for trial in range(20):
            f_bag = random_gmm(rng, 2)
            f_class = random_gmm(rng, 2)
            a = ckl(f_bag, f_class, f_class, IMPORTANCE, seed=trial).value
            b = kl(f_bag, f_class, IMPORTANCE, seed=trial).value
            assert a == pytest.approx(b, abs=0.02 + 0.02 * abs(b))

    def test_weight_clipping_reported(self):
        f_bag = gaussian(0, 1)
        f_pos = fit_kde([10.0, 10.5], "EPANECHNIKOV", bandwidth=0.2)  # zero on bag support
        f_neg = gaussian(0, 1)
        score = ckl(f_bag, f_pos, f_neg, DivergenceSpec(), seed=0)
        assert score.clipped_fraction > 0.9
        assert np.isfinite(score.value)

    def test_overflowing_weight_is_clipped_without_warning(self):
        # A Gaussian class KDE at bandwidth 1e-300 reaches about 1e299 at its
        # centers, and its ratio to the floored reference overflowed with a
        # RuntimeWarning before the clip.
        spec = DivergenceSpec()
        fb, fr, fw = (np.array([v]) for v in ([0.5, 0.5], [0.0, 0.5], [1e299, 0.5]))
        clipped = np.zeros(fb.shape, dtype=bool)
        assert dv._ckl_weight(fr, fw, spec, clipped).tolist() == [[spec.ratio_clip, 1.0]]
        assert clipped.tolist() == [[True, False]]
        score = dv.reduce_ckl(fb, fr, fw, spec, None).row(0)
        cap = spec.ratio_clip
        assert score.value == pytest.approx(cap * math.log(cap) / 2, rel=1e-12)
        assert score.clipped_fraction == 0.5

    @pytest.mark.parametrize("fraction, ess, message", [
        (0.5, math.nan, "ess must be positive"), (1.5, 3.0, r"clipped_fraction must lie in \[0, 1\]")])
    def test_row_rejects_diagnostics_out_of_range(self, fraction, ess, message):
        scores = dv.DivergenceScore(np.array([0.1]), np.array([fraction]), np.array([ess]))
        with pytest.raises(ValueError, match=message):
            scores.row(0)

    def test_low_ess_warning_when_weights_concentrate(self):
        # f_neg has compact support covering ~1% of the bag's mass, so only
        # a handful of importance weights are nonzero
        f_bag = gaussian(0, 1)
        f_pos = gaussian(0, 1)
        f_neg = fit_kde([0.0], "EPANECHNIKOV", bandwidth=0.01)
        spec = DivergenceSpec(integrator="IMPORTANCE")
        score = ckl(f_bag, f_pos, f_neg, spec, seed=0)
        assert score.ess < 0.01 * spec.n_imp


class TestZeroBagDensityPoints:
    """An importance point where the bag density is 0 adds nothing, as on the Riemann grid.

    The importance estimates used to take log(1e-300) there, which pulled a
    KL estimate to its floor of 0 and a cKL estimate far below zero.
    """

    fb = np.array([0.4, 0.0, 0.2, 0.5])
    fp = np.array([0.2, 0.1, 0.4, 0.1])
    fn = np.array([0.2, 0.3, 0.2, 0.1])
    active = fb > 0

    def test_kl_averages_over_points_with_bag_density(self):
        score = one_row(dv.reduce_kl, self.fb, self.fp, spec=DivergenceSpec(), dx=None)
        a = self.active
        assert score.value == pytest.approx(np.log(self.fb[a] / self.fp[a]).mean(), rel=1e-12)
        assert score.value > 0.5
        assert score.ess == 3.0 and score.clipped_fraction == 0.0

    def test_ckl_averages_over_points_with_bag_density(self):
        score = one_row(dv.reduce_ckl, self.fb, self.fp, self.fn, spec=DivergenceSpec(), dx=None)
        a = self.active
        w = self.fn[a] / self.fp[a]
        assert score.value == pytest.approx((w * np.log(self.fb[a] / self.fp[a])).mean(), rel=1e-12)
        assert score.ess == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-12)

    def test_all_points_with_bag_density_unchanged(self):
        spec = DivergenceSpec()
        fb = np.array([0.4, 0.1, 0.2, 0.5])
        logratio = np.log(fb) - np.log(self.fp)
        w = self.fn / self.fp
        kl_value = one_row(dv.reduce_kl, fb, self.fp, spec=spec, dx=None).value
        assert kl_value == max(float(logratio.mean()), 0.0)
        ckl_value = one_row(dv.reduce_ckl, fb, self.fp, self.fn, spec=spec, dx=None).value
        assert ckl_value == float((w * logratio).mean())


def compacted(fb, terms, clipped, weights, dx):
    """Value, clip fraction and ESS per row, each row reduced on its own over
    its points with positive bag density, compacted to them: the formula
    that the masked reduction replaced, kept as its oracle."""
    value, fraction, ess = [], [], []
    for r in range(len(fb)):
        a = fb[r] > 0
        t = terms[r, a]
        value.append(t.mean() if dx is None else t.sum() * dx[r])
        fraction.append(clipped[r, a].mean())
        if weights is not None:
            w = weights[r, a]
            s2 = (w * w).sum()
            ess.append(float(w.size) if s2 <= 0.0 else w.sum() ** 2 / s2)
        else:
            ess.append(float(np.count_nonzero(a)))
    return np.array(value), np.array(fraction), None if dx is not None else np.array(ess)


def compacted_kl(fb, fr, spec, dx):
    logratio, clipped = dv._kl_pointwise(fb, fr, spec)
    terms = logratio if dx is None else fb * logratio
    value, fraction, ess = compacted(fb, terms, clipped, None, dx)
    return np.maximum(value, 0.0), fraction, ess


def compacted_ckl(fb, fp, fn, spec, dx):
    logratio, clipped = dv._kl_pointwise(fb, fp, spec)
    w = dv._ckl_weight(fp, fn, spec, clipped)
    terms = w * logratio if dx is None else w * fb * logratio
    return compacted(fb, terms, clipped, w, dx)


class TestMaskedReductionMatchesCompactedFormula:
    """The masked reduction of rows with points of zero bag density gives the
    values of the per-row compacted formula within 1e-12 relative, the same
    clip fractions, and its ESS: the same count under unit weights, within
    1e-12 relative under the cKL weights."""

    @staticmethod
    def check(fb, fp, fn, spec, dx):
        assert (fb == 0).any(axis=-1).all()
        got_kl, want_kl = dv.reduce_kl(fb, fp, spec, dx), compacted_kl(fb, fp, spec, dx)
        got_ckl, want_ckl = dv.reduce_ckl(fb, fp, fn, spec, dx), compacted_ckl(fb, fp, fn, spec, dx)
        assert isinstance(got_kl, dv.DivergenceScore) and isinstance(got_ckl, dv.DivergenceScore)
        for got, want in ((got_kl, want_kl), (got_ckl, want_ckl)):
            np.testing.assert_allclose(got.value, want[0], rtol=1e-12, atol=0)
            assert np.array_equal(got.clipped_fraction, want[1])
        if dx is None:
            assert np.array_equal(got_kl.ess, want_kl[2])
            # the masked sums of the cKL weights take the zeros in, which
            # re-associates them
            np.testing.assert_allclose(got_ckl.ess, want_ckl[2], rtol=1e-12, atol=0)
        else:
            assert got_kl.ess is None and got_ckl.ess is None

    # a clip of 2 engages on many points with bag density, the default on few
    CLIPS = (2.0, 3e4)

    @pytest.mark.parametrize("clip", CLIPS)
    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_riemann_rows_past_the_bag_support(self, kind, clip):
        rng = np.random.default_rng(9)
        _, f_pos, f_neg = fitted_triple(kind, rng)
        # two clusters in each bag: the grid over its support crosses the gap
        # between them, where the bag density is 0
        bags = [two_cluster_bag(kind, rng) for _ in range(3)]
        spec = DivergenceSpec(integrator="RIEMANN", grid_points=512, ratio_clip=clip)
        x, dx = dv.evaluation_rows(bags, spec)
        fb, fp, fn = _pdf_rows(bags, x), f_pos.pdf(x), f_neg.pdf(x)
        self.check(fb, fp, fn, spec, dx)

    @pytest.mark.parametrize("clip", CLIPS)
    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_importance_rows_with_zero_density_points(self, kind, clip):
        rng = np.random.default_rng(10)
        _, f_pos, f_neg = fitted_triple(kind, rng)
        bags = [fitted_triple(kind, rng)[0] for _ in range(3)]
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=700, ratio_clip=clip)
        x, dx = dv.evaluation_rows(bags, spec, [3, 4, 5])
        fb, fp, fn = _pdf_rows(bags, x), f_pos.pdf(x), f_neg.pdf(x)
        for r, zeros in enumerate((1, 37, 350)):
            fb[r, rng.choice(fb.shape[-1], zeros, replace=False)] = 0.0
        self.check(fb, fp, fn, spec, dx)


class TestRiemannRowWithoutBagSupport:
    """A bag whose kernels are narrower than one cell of the grid over its
    own support, here two tight clusters 1e6 apart, has no Riemann estimate:
    every grid point misses them. The KL reductions used to score such a bag
    0 against every class, as if the bag were identical to both, and the BH
    reduction 690.78 (the overlap's clamp) against both; importance sampling
    scores it."""

    bag = fit_kde([0.0, 1e-7, 2e-7, 1e6, 1e6 + 1e-7, 1e6 + 2e-7], bandwidth=1e-7)
    pos = fit_kde(np.random.default_rng(1).standard_normal(200))
    neg = fit_kde(np.random.default_rng(2).standard_normal(200) + 40.0)

    def test_raises_naming_the_grid(self):
        spec = DivergenceSpec(integrator="RIEMANN", grid_points=4096)
        for score in (
            lambda: kl(self.bag, self.pos, spec, 0),
            lambda: kl(self.bag, self.neg, spec, 0),
            lambda: ckl(self.bag, self.pos, self.neg, spec, 0),
            lambda: bhattacharyya(self.bag, self.pos, spec, 0),
            lambda: bhattacharyya(self.bag, self.neg, spec, 0),
        ):
            with pytest.raises(ValueError, match="4096-point Riemann grid.*--grid-points"):
                score()

    def test_importance_sampling_scores_the_bag(self):
        spec = DivergenceSpec(integrator="IMPORTANCE")
        near, far = (bhattacharyya(self.bag, ref, spec, 0).value for ref in (self.pos, self.neg))
        assert near < far


class TestRdRatio:
    def test_bag_equals_pos_gives_small_ratio(self):
        f = gaussian(0, 1)
        f_neg = gaussian(3, 1)
        r = rd(f, f, f_neg, dv.reduce_kl, RIEMANN, seed=0)
        assert r < 1e-3

    def test_bag_equals_neg_gives_large_ratio(self):
        f = gaussian(3, 1)
        f_pos = gaussian(0, 1)
        r = rd(f, f_pos, f, dv.reduce_kl, RIEMANN, seed=0)
        assert r > 1e3

    def test_gaussian_closed_form_ratio(self):
        # KL(N(0,1)||N(1,1)) / KL(N(0,1)||N(2,1)) = 0.5/2.0
        r = rd(gaussian(0, 1), gaussian(1, 1), gaussian(2, 1), dv.reduce_kl, IMPORTANCE, seed=0)
        assert r == pytest.approx(0.25, abs=0.02)


def fitted_triple(kind, rng):
    """Bag, positive-class and negative-class densities of one estimator kind."""
    bag = rng.standard_normal(30) + 0.5
    pos = np.concatenate([rng.standard_normal(60), rng.standard_normal(60) + 3.0])
    neg = rng.standard_normal(120) * 1.5 - 1.0
    if kind == "GMM":
        return tuple(fit_gmm(x, 2)[0] for x in (bag, pos, neg))
    return tuple(fit_kde(x, kind) for x in (bag, pos, neg))


def two_cluster_bag(kind, rng, gap=200.0):
    """A bag density of one estimator kind whose two clusters lie ``gap``
    apart; a KDE takes bandwidth 0.5. The density underflows to 0 in the gap."""
    bag = rng.standard_normal(30) + 0.5
    bag[15:] += gap
    if kind == "GMM":
        return fit_gmm(bag, 2)[0]
    return fit_kde(bag, kind, bandwidth=0.5)


class TestSortedEvaluationIsInvisible:
    """Every row of points is ascending, and scores equal the reductions of
    direct ``pdf`` calls at the ascending points, bit for bit: under
    importance sampling, at ``np.sort`` of the bag density's own sample."""

    @pytest.mark.parametrize("integrator", ["IMPORTANCE", "RIEMANN"])
    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_public_scores_equal_direct_reductions(self, kind, integrator):
        spec = DivergenceSpec(integrator=integrator, n_imp=500, grid_points=512)
        f_bag, f_pos, f_neg = fitted_triple(kind, np.random.default_rng(7))
        seed = 21

        def points():
            x, dx = dv.evaluation_rows([f_bag], spec, [seed])
            assert (np.diff(x, axis=-1) >= 0).all()
            if integrator == "IMPORTANCE":
                sample = np.sort(f_bag.sample(spec.n_imp, seed))[None, :]
                assert np.array_equal(x, sample)
                return sample, None
            return x, dx

        x, dx = points()
        fb, fp = f_bag.pdf(x), f_pos.pdf(x)
        assert kl(f_bag, f_pos, spec, seed) == dv.reduce_kl(fb, fp, spec, dx).row(0)
        bh = dv.reduce_bh(fb, fp, spec, dx).row(0)
        assert bhattacharyya(f_bag, f_pos, spec, seed) == bh
        fb, fp, fn = f_bag.pdf(x), f_pos.pdf(x), f_neg.pdf(x)
        want = dv.reduce_ckl(fb, fp, fn, spec, dx).row(0)
        assert ckl(f_bag, f_pos, f_neg, spec, seed) == want
        for reduce in (dv.reduce_kl, dv.reduce_bh):
            num, den = (reduce(fb, fr, spec, dx).row(0).value for fr in (fp, fn))
            assert rd(f_bag, f_pos, f_neg, reduce, spec, seed) == dv.rd_value(num, den)

    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_densities_at_keeps_draw_order(self, kind):
        models = fitted_triple(kind, np.random.default_rng(8))
        x = np.array([models[0].sample(700, seed=s) for s in (3, 4)])
        values = (_pdf_rows([models[0]] * 2, x), *(m.pdf(x) for m in models[1:]))
        assert len(values) == len(models)
        for model, f in zip(models, values):
            assert np.array_equal(f, model.pdf(x))


class TestDeterminismAndSerialization:
    def test_bit_identical_scores(self):
        rng = np.random.default_rng(600)
        g1, g2, g3 = random_gmm(rng, 2), random_gmm(rng, 2), random_gmm(rng, 1)
        spec = DivergenceSpec(integrator="IMPORTANCE")
        for fn, args in [
            (kl, (g1, g2)),
            (bhattacharyya, (g1, g2)),
            (ckl, (g1, g2, g3)),
        ]:
            a = fn(*args, spec, 777)
            b = fn(*args, spec, 777)
            assert a.value == b.value and a.clipped_fraction == b.clipped_fraction
