import json
import math

import numpy as np
import pytest

from midiv import divergence as dv
from midiv.density import DensityModel, GMM, fit_gmm, fit_kde
from midiv.divergence import DivergenceSpec, bhattacharyya, ckl, kl, rd_ratio


def gaussian(mu, var, sigmas=8.0):
    sd = math.sqrt(var)
    return DensityModel(
        kind=GMM, support_hint=(mu - sigmas * sd, mu + sigmas * sd), components=[[1.0, mu, var]]
    )


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

    def test_numpy_integer_counts_accepted(self):
        spec = DivergenceSpec(n_imp=np.int64(500), grid_points=np.int32(1024))
        assert (spec.n_imp, spec.grid_points) == (500, 1024)


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
        score = kl(gaussian(0, 1), gaussian(1, 1), DivergenceSpec(), seed=1)
        assert score.ess == DivergenceSpec().n_imp

    def test_value_non_negative(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g1 = random_gmm(rng, 2)
            g2 = random_gmm(rng, 2)
            for spec in (RIEMANN, DivergenceSpec()):
                assert kl(g1, g2, spec, seed=trial).value >= -1e-6

    def test_clipping_reported(self):
        narrow = fit_kde([0.0, 0.1], "EPANECHNIKOV", bandwidth=0.1)
        far = fit_kde([10.0, 10.1], "EPANECHNIKOV", bandwidth=0.1)
        score = kl(narrow, far, DivergenceSpec(), seed=0)
        assert score.clipped_fraction == pytest.approx(1.0)
        assert score.value <= math.log(DivergenceSpec().ratio_clip) + 1e-9


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

    def test_low_ess_warning_when_weights_concentrate(self):
        # f_neg has compact support covering ~1% of the bag's mass, so only
        # a handful of importance weights are nonzero
        f_bag = gaussian(0, 1)
        f_pos = gaussian(0, 1)
        f_neg = fit_kde([0.0], "EPANECHNIKOV", bandwidth=0.01)
        score = ckl(f_bag, f_pos, f_neg, DivergenceSpec(), seed=0)
        assert score.ess < 0.01 * DivergenceSpec().n_imp
        assert score.low_ess


class TestRdRatio:
    def test_bag_equals_pos_gives_small_ratio(self):
        f = gaussian(0, 1)
        f_neg = gaussian(3, 1)
        r = rd_ratio(f, f, f_neg, "KL", RIEMANN, seed=0)
        assert r < 1e-3

    def test_bag_equals_neg_gives_large_ratio(self):
        f = gaussian(3, 1)
        f_pos = gaussian(0, 1)
        r = rd_ratio(f, f_pos, f, "KL", RIEMANN, seed=0)
        assert r > 1e3

    def test_gaussian_closed_form_ratio(self):
        # KL(N(0,1)||N(1,1)) / KL(N(0,1)||N(2,1)) = 0.5/2.0
        r = rd_ratio(gaussian(0, 1), gaussian(1, 1), gaussian(2, 1), "KL", IMPORTANCE, seed=0)
        assert r == pytest.approx(0.25, abs=0.02)

    def test_rejects_unknown_measure(self):
        f = gaussian(0, 1)
        with pytest.raises(ValueError):
            rd_ratio(f, f, f, "CKL", RIEMANN, seed=0)


def fitted_triple(kind, rng):
    """Bag, positive-class and negative-class densities of one estimator kind."""
    bag = rng.standard_normal(30) + 0.5
    pos = np.concatenate([rng.standard_normal(60), rng.standard_normal(60) + 3.0])
    neg = rng.standard_normal(120) * 1.5 - 1.0
    if kind == "GMM":
        return tuple(fit_gmm(x, 2, seed=i)[0] for i, x in enumerate((bag, pos, neg)))
    return tuple(fit_kde(x, kind) for x in (bag, pos, neg))


class TestSortedEvaluationIsInvisible:
    """Scores equal the reductions of direct, unsorted ``pdf`` calls, bit for bit."""

    @pytest.mark.parametrize("integrator", ["IMPORTANCE", "RIEMANN"])
    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_public_scores_equal_direct_reductions(self, kind, integrator):
        spec = DivergenceSpec(integrator=integrator, n_imp=500, grid_points=512)
        f_bag, f_pos, f_neg = fitted_triple(kind, np.random.default_rng(7))
        seed = 21
        x, dx = dv.evaluation_points(f_bag, (f_pos,), spec, seed)
        fb, fp = f_bag.pdf(x), f_pos.pdf(x)
        assert kl(f_bag, f_pos, spec, seed) == dv.reduce_kl(fb, fp, spec, dx)
        assert bhattacharyya(f_bag, f_pos, spec, seed) == dv.reduce_bh(fb, fp, spec, dx)
        x, dx = dv.evaluation_points(f_bag, (f_pos, f_neg), spec, seed)
        fb, fp, fn = f_bag.pdf(x), f_pos.pdf(x), f_neg.pdf(x)
        assert ckl(f_bag, f_pos, f_neg, spec, seed) == dv.reduce_ckl(fb, fp, fn, spec, dx)
        for measure, reduce in (("KL", dv.reduce_kl), ("BH", dv.reduce_bh)):
            expected = dv.rd_value(reduce(fb, fp, spec, dx).value, reduce(fb, fn, spec, dx).value)
            assert rd_ratio(f_bag, f_pos, f_neg, measure, spec, seed) == expected

    @pytest.mark.parametrize("kind", ["EPANECHNIKOV", "GAUSSIAN", "GMM"])
    def test_densities_at_keeps_draw_order(self, kind):
        models = fitted_triple(kind, np.random.default_rng(8))
        x = models[0].sample(700, seed=3)
        values = dv.densities_at(x, models)
        assert len(values) == len(models)
        for model, f in zip(models, values):
            assert np.array_equal(f, model.pdf(x))


class TestDeterminismAndSerialization:
    def test_bit_identical_scores(self):
        rng = np.random.default_rng(600)
        g1, g2, g3 = random_gmm(rng, 2), random_gmm(rng, 2), random_gmm(rng, 1)
        spec = DivergenceSpec()
        for fn, args in [
            (kl, (g1, g2)),
            (bhattacharyya, (g1, g2)),
            (ckl, (g1, g2, g3)),
        ]:
            a = fn(*args, spec, 777)
            b = fn(*args, spec, 777)
            assert a.value == b.value and a.clipped_fraction == b.clipped_fraction

    def test_score_json(self):
        score = kl(gaussian(0, 1), gaussian(1, 1), DivergenceSpec(), seed=0)
        doc = json.loads(score.to_json())
        assert set(doc) == {"measure", "value", "clipped_fraction", "ess"}
        assert doc["measure"] == "KL"
