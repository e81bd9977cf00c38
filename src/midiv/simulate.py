"""Hierarchical bag generator for the six simulation scenarios.

Each bag is defined by latent parameters drawn from class-level priors
(step 1); its instances are then drawn from a two-component Gaussian
mixture whose mixing indicator is Bernoulli per instance (step 2). Bags
from the same class therefore differ in distribution, which is the
phenomenon the divergence classifiers must cope with.

Scenarios sim1-sim4 use the Gaussian hierarchy with different settings of
the positive mean prior, variance prior and contamination rate of negative
bags. sim5 drops the hierarchy entirely (every positive bag is one fixed
lognormal, every negative bag one fixed Gaussian mixture that nearly
matches it); sim6 re-adds one hierarchy level by drawing those location
parameters per bag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bag, Dataset, Label
from .seeds import as_seed_sequence

__all__ = [
    "SimConfig",
    "GeneratedBag",
    "sample_bag",
    "sample_experiment",
    "sample_experiment_bags",
    "SCENARIOS",
]

SCENARIOS = ("sim1", "sim2", "sim3", "sim4", "sim5", "sim6")

# The Gaussian hierarchy (sim1-sim4) per scenario: the positive-component
# mean locations (sim4 picks one per bag by a uniform draw), the mean of the
# positive-component variance prior (eta_pos) and the positive-instance
# probability in negative bags (pi_neg).
GAUSSIAN_SCENARIOS = {
    "sim1": ((15.0,), 1.0, 0.0),
    "sim2": ((15.0,), 1.0, 0.01),
    "sim3": ((0.0,), 100.0, 0.0),
    "sim4": ((-15.0, 15.0), 1.0, 0.01),
}
PI_POS = 0.10  # positive-instance probability in positive bags
MU_NEG_MEAN = 0.0
MEAN_PRIOR_VAR = 10.0
ZETA_NEG_MEAN = 1.0
ZETA_PRIOR_VAR = 1.0
VARIANCE_FLOOR = 1e-8
# The uncertain-object family (sim5, sim6); sim6 draws the locations per bag
# with the hyper-variances.
LOGNORMAL_MU = math.log(10.0)
LOGNORMAL_VAR = 0.04
MIXTURE_MU1 = 9.5
MIXTURE_MU2 = 13.5
MIXTURE_VAR = 2.5
MIXTURE_W1 = 0.9
HYPER_VAR_MIXTURE = 1.0
HYPER_VAR_LOGNORMAL = 0.04


@dataclass(frozen=True)
class SimConfig:
    """A named scenario and the number of instances per bag."""

    scenario: str
    n_instances: int = 50

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")

    @classmethod
    def preset(cls, scenario: str, n_instances: int = 50) -> "SimConfig":
        """The named scenario (case-insensitive)."""
        return cls(scenario=scenario.lower(), n_instances=n_instances)


@dataclass(frozen=True)
class GeneratedBag:
    """A simulated bag plus the latent draws that produced it."""

    bag: Bag
    latent: dict


def sample_bag(config: SimConfig, label: Label, seed, bag_id: str = "bag") -> GeneratedBag:
    """Draw one bag: latent parameters first, then its instances.

    Draw order (replayable from the seed): positive mean location (one
    uniform choice in sim4), positive mean, positive variance, negative
    mean, negative variance, then per instance the mixing indicators
    followed by one standard normal each. sim5/sim6 use their own
    documented order (hyperparameters, component choices, normals).
    """
    rng = np.random.default_rng(seed)
    if config.scenario in GAUSSIAN_SCENARIOS:
        return _sample_gaussian_hierarchy(config, label, rng, bag_id, seed)
    return _sample_uncertain_object(config, label, rng, bag_id, seed)


def _sample_gaussian_hierarchy(config, label, rng, bag_id, seed) -> GeneratedBag:
    n = config.n_instances
    locations, eta_pos, pi_neg = GAUSSIAN_SCENARIOS[config.scenario]
    mean_scale = math.sqrt(MEAN_PRIOR_VAR)
    zeta_scale = math.sqrt(ZETA_PRIOR_VAR)
    nu = locations[rng.integers(len(locations))] if len(locations) > 1 else locations[0]
    mu_pos = nu + mean_scale * rng.standard_normal()
    var_pos = max(abs(eta_pos + zeta_scale * rng.standard_normal()), VARIANCE_FLOOR)
    mu_neg = MU_NEG_MEAN + mean_scale * rng.standard_normal()
    var_neg = max(abs(ZETA_NEG_MEAN + zeta_scale * rng.standard_normal()), VARIANCE_FLOOR)
    pi = PI_POS if label == Label.POS else pi_neg
    tau = rng.random(n) < pi
    z = rng.standard_normal(n)
    x = np.where(tau, mu_pos + math.sqrt(var_pos) * z, mu_neg + math.sqrt(var_neg) * z)
    latent = {
        "pi": pi,
        "nu_pos": nu,
        "mu_pos": mu_pos,
        "var_pos": var_pos,
        "mu_neg": mu_neg,
        "var_neg": var_neg,
        "tau": tau.astype(int).tolist(),
        "seed": _seed_repr(seed),
    }
    return GeneratedBag(bag=Bag(id=bag_id, instances=x[:, None], label=label), latent=latent)


def _sample_uncertain_object(config, label, rng, bag_id, seed) -> GeneratedBag:
    n = config.n_instances
    hierarchical = config.scenario == "sim6"
    if label == Label.POS:
        mu = LOGNORMAL_MU
        if hierarchical:
            mu = mu + math.sqrt(HYPER_VAR_LOGNORMAL) * rng.standard_normal()
        x = rng.lognormal(mean=mu, sigma=math.sqrt(LOGNORMAL_VAR), size=n)
        latent = {
            "family": "lognormal",
            "mu": mu,
            "var": LOGNORMAL_VAR,
            "seed": _seed_repr(seed),
        }
    else:
        mu1, mu2 = MIXTURE_MU1, MIXTURE_MU2
        if hierarchical:
            mu1 = mu1 + math.sqrt(HYPER_VAR_MIXTURE) * rng.standard_normal()
            mu2 = mu2 + math.sqrt(HYPER_VAR_MIXTURE) * rng.standard_normal()
        first = rng.random(n) < MIXTURE_W1
        z = rng.standard_normal(n)
        x = np.where(first, mu1, mu2) + math.sqrt(MIXTURE_VAR) * z
        latent = {
            "family": "gaussian_mixture",
            "mu1": mu1,
            "mu2": mu2,
            "var": MIXTURE_VAR,
            "w1": MIXTURE_W1,
            "component1": first.astype(int).tolist(),
            "seed": _seed_repr(seed),
        }
    bag = Bag(id=bag_id, instances=np.asarray(x)[:, None], label=label)
    return GeneratedBag(bag=bag, latent=latent)


def _seed_repr(seed) -> str:
    if isinstance(seed, np.random.SeedSequence):
        return f"SeedSequence(entropy={seed.entropy}, spawn_key={seed.spawn_key})"
    return repr(seed)


def sample_experiment_bags(
    config: SimConfig, n_train_pos: int, n_train_neg: int, n_test: int, seed
) -> tuple[list[GeneratedBag], list[GeneratedBag]]:
    """Independent train/test bags with per-bag seeds split from one stream."""
    if min(n_train_pos, n_train_neg, n_test) < 1:
        raise ValueError("bag counts must be >= 1")
    ss = as_seed_sequence(seed)
    n_test_pos = n_test // 2  # odd test counts get the extra negative bag
    n_test_neg = n_test - n_test_pos
    plan = (
        [("train_pos", Label.POS)] * n_train_pos
        + [("train_neg", Label.NEG)] * n_train_neg
        + [("test_pos", Label.POS)] * n_test_pos
        + [("test_neg", Label.NEG)] * n_test_neg
    )
    children = ss.spawn(len(plan))
    counters: dict[str, int] = {}
    train: list[GeneratedBag] = []
    test: list[GeneratedBag] = []
    for (group, label), child in zip(plan, children):
        counters[group] = counters.get(group, 0) + 1
        gen = sample_bag(config, label, child, bag_id=f"{group}_{counters[group]:03d}")
        (train if group.startswith("train") else test).append(gen)
    return train, test


def sample_experiment(
    config: SimConfig, n_train_pos: int, n_train_neg: int, n_test: int, seed
) -> tuple[Dataset, Dataset]:
    """As :func:`sample_experiment_bags` but packed into labelled Datasets."""
    train, test = sample_experiment_bags(config, n_train_pos, n_train_neg, n_test, seed)
    name = config.scenario
    train_ds = Dataset(bags=tuple(g.bag for g in train), dimension=1, name=f"{name}-train")
    test_ds = Dataset(bags=tuple(g.bag for g in test), dimension=1, name=f"{name}-test")
    return train_ds, test_ds
