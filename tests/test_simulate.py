import math

import numpy as np
import pytest

from midiv.core import Label
from midiv.simulate import (
    GAUSSIAN_SCENARIOS,
    LOGNORMAL_MU,
    MEAN_PRIOR_VAR,
    MU_NEG_MEAN,
    PI_POS,
    VARIANCE_FLOOR,
    ZETA_NEG_MEAN,
    ZETA_PRIOR_VAR,
    SimConfig,
    sample_bag,
    sample_experiment,
    sample_experiment_bags,
)


class TestPresets:
    def test_pinned_scenario_parameters(self):
        # (positive mean locations, eta_pos, pi_neg) per Gaussian-family scenario
        assert GAUSSIAN_SCENARIOS["sim1"] == ((15.0,), 1.0, 0.0)
        assert GAUSSIAN_SCENARIOS["sim2"][2] == 0.01
        assert GAUSSIAN_SCENARIOS["sim3"] == ((0.0,), 100.0, 0.0)
        locations, _, pi_neg = GAUSSIAN_SCENARIOS["sim4"]
        assert locations == (-15.0, 15.0) and pi_neg == 0.01

    def test_defaults(self):
        cfg = SimConfig.preset("sim1")
        assert cfg.n_instances == 50 and PI_POS == 0.10
        assert LOGNORMAL_MU == pytest.approx(math.log(10.0))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            SimConfig.preset("sim9")

    def test_scenario_parameters_are_not_settable(self):
        # sim5 used to accept pi_neg=0.5 and ignore it
        with pytest.raises(TypeError):
            SimConfig.preset("sim5", pi_neg=0.5)


class TestSampleBag:
    def test_sim1_negative_bag_has_no_positive_instances(self):
        cfg = SimConfig.preset("sim1")
        for seed in range(20):
            gen = sample_bag(cfg, Label.NEG, seed)
            assert sum(gen.latent["tau"]) == 0

    def test_sim1_positive_instance_rate(self):
        cfg = SimConfig.preset("sim1", n_instances=50)
        counts = [sum(sample_bag(cfg, Label.POS, seed).latent["tau"]) for seed in range(10_000)]
        assert np.mean(counts) == pytest.approx(5.0, abs=0.1)

    def test_sim3_variance_prior_mean(self):
        cfg = SimConfig.preset("sim3")
        draws = [sample_bag(cfg, Label.POS, seed).latent["var_pos"] for seed in range(10_000)]
        assert np.mean(draws) == pytest.approx(100.0, abs=0.5)

    def test_negative_mean_hyperprior_marginals(self):
        cfg = SimConfig.preset("sim1")
        mus = np.array([sample_bag(cfg, Label.NEG, s).latent["mu_neg"] for s in range(100_000)])
        assert mus.mean() == pytest.approx(0.0, abs=0.05)
        assert mus.var() == pytest.approx(10.0, abs=0.3)

    def test_deterministic_given_seed(self):
        cfg = SimConfig.preset("sim2")
        a = sample_bag(cfg, Label.POS, 123)
        b = sample_bag(cfg, Label.POS, 123)
        np.testing.assert_array_equal(a.bag.instances, b.bag.instances)
        assert a.latent["tau"] == b.latent["tau"]

    def test_latent_replay_reconstructs_instances(self):
        # replaying the documented draw order from the recorded seed must
        # reproduce instances, with tau picking the positive component
        cfg = SimConfig.preset("sim2")
        (nu_pos,), eta_pos, _ = GAUSSIAN_SCENARIOS["sim2"]
        seed = 321
        gen = sample_bag(cfg, Label.POS, seed)
        rng = np.random.default_rng(seed)
        mu_pos = nu_pos + math.sqrt(MEAN_PRIOR_VAR) * rng.standard_normal()
        var_pos = max(abs(eta_pos + math.sqrt(ZETA_PRIOR_VAR) * rng.standard_normal()), VARIANCE_FLOOR)
        mu_neg = MU_NEG_MEAN + math.sqrt(MEAN_PRIOR_VAR) * rng.standard_normal()
        var_neg = max(abs(ZETA_NEG_MEAN + math.sqrt(ZETA_PRIOR_VAR) * rng.standard_normal()), VARIANCE_FLOOR)
        tau = rng.random(cfg.n_instances) < PI_POS
        z = rng.standard_normal(cfg.n_instances)
        x = np.where(tau, mu_pos + math.sqrt(var_pos) * z, mu_neg + math.sqrt(var_neg) * z)
        np.testing.assert_array_equal(gen.bag.instances[:, 0], x)
        assert gen.latent["tau"] == tau.astype(int).tolist()
        assert gen.latent["mu_pos"] == mu_pos and gen.latent["var_neg"] == var_neg

    def test_sim4_mean_sign_flips_per_bag(self):
        cfg = SimConfig.preset("sim4")
        nus = {sample_bag(cfg, Label.POS, seed).latent["nu_pos"] for seed in range(50)}
        assert nus == {-15.0, 15.0}

    def test_sim5_lognormal_positive_bags(self):
        cfg = SimConfig.preset("sim5", n_instances=100_000)
        gen = sample_bag(cfg, Label.POS, 7)
        x = gen.bag.instances[:, 0]
        assert np.all(x > 0)
        logs = np.log(x)
        assert logs.mean() == pytest.approx(math.log(10.0), abs=0.01)
        assert logs.var() == pytest.approx(0.04, abs=0.002)

    def test_sim5_lognormal_ks(self):
        cfg = SimConfig.preset("sim5", n_instances=100_000)
        x = np.sort(sample_bag(cfg, Label.POS, 8).bag.instances[:, 0])
        # exact lognormal CDF via the error function
        from math import erf

        z = (np.log(x) - math.log(10.0)) / math.sqrt(2 * 0.04)
        cdf = 0.5 * (1 + np.vectorize(erf)(z))
        empirical = np.arange(1, x.size + 1) / x.size
        assert np.max(np.abs(cdf - empirical)) < 0.02

    def test_sim5_mixture_negative_bags(self):
        cfg = SimConfig.preset("sim5", n_instances=100_000)
        gen = sample_bag(cfg, Label.NEG, 9)
        x = gen.bag.instances[:, 0]
        first = np.array(gen.latent["component1"], dtype=bool)
        assert first.mean() == pytest.approx(0.9, abs=0.01)
        assert x[first].mean() == pytest.approx(9.5, abs=0.05)
        assert x[~first].mean() == pytest.approx(13.5, abs=0.15)
        assert x[first].var() == pytest.approx(2.5, abs=0.1)

    def test_sim5_mixture_ks(self):
        from math import erf

        cfg = SimConfig.preset("sim5", n_instances=100_000)
        x = np.sort(sample_bag(cfg, Label.NEG, 10).bag.instances[:, 0])
        sd = math.sqrt(2.5)

        def normal_cdf(v, mu):
            return 0.5 * (1 + np.vectorize(erf)((v - mu) / (sd * math.sqrt(2))))

        cdf = 0.9 * normal_cdf(x, 9.5) + 0.1 * normal_cdf(x, 13.5)
        empirical = np.arange(1, x.size + 1) / x.size
        assert np.max(np.abs(cdf - empirical)) < 0.02

    def test_sim6_draws_fresh_locations_per_bag(self):
        cfg = SimConfig.preset("sim6")
        mus = {round(sample_bag(cfg, Label.POS, s).latent["mu"], 12) for s in range(10)}
        assert len(mus) == 10
        mu1s = np.array([sample_bag(cfg, Label.NEG, s).latent["mu1"] for s in range(5000)])
        assert mu1s.mean() == pytest.approx(9.5, abs=0.1)
        assert mu1s.var() == pytest.approx(1.0, abs=0.1)


class TestSampleExperiment:
    def test_counts_and_balance(self):
        cfg = SimConfig.preset("sim1")
        train, test = sample_experiment(cfg, 1, 5, 100, seed=0)
        assert len(train) == 6 and len(test) == 100
        assert len(train.with_label(Label.POS)) == 1
        assert len(train.with_label(Label.NEG)) == 5
        assert len(test.with_label(Label.POS)) == 50
        assert len(test.with_label(Label.NEG)) == 50

    def test_odd_test_count_extra_negative(self):
        cfg = SimConfig.preset("sim1")
        _, test = sample_experiment(cfg, 1, 1, 7, seed=0)
        assert len(test.with_label(Label.NEG)) == 4
        assert len(test.with_label(Label.POS)) == 3

    def test_deterministic(self):
        cfg = SimConfig.preset("sim2")
        a_train, a_test = sample_experiment(cfg, 2, 3, 10, seed=5)
        b_train, b_test = sample_experiment(cfg, 2, 3, 10, seed=5)
        for x, y in zip(a_train.bags + a_test.bags, b_train.bags + b_test.bags):
            np.testing.assert_array_equal(x.instances, y.instances)

    def test_sim2_contamination_rate(self):
        cfg = SimConfig.preset("sim2")
        total, positive = 0, 0
        for seed in range(20):
            train, _ = sample_experiment_bags(cfg, 25, 25, 1, seed=seed)
            for gen in train:
                if gen.bag.label == Label.NEG:
                    positive += sum(gen.latent["tau"])
                    total += len(gen.latent["tau"])
        assert positive / total == pytest.approx(0.01, abs=0.003)

    def test_bag_ids_unique(self):
        cfg = SimConfig.preset("sim1")
        train, test = sample_experiment(cfg, 3, 3, 9, seed=1)
        ids = [b.id for b in train.bags] + [b.id for b in test.bags]
        assert len(ids) == len(set(ids))

    def test_counts_validated(self):
        cfg = SimConfig.preset("sim1")
        with pytest.raises(ValueError):
            sample_experiment(cfg, 0, 5, 10, seed=0)
