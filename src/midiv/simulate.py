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

SCENARIOS = ("sim1", "sim2", "sim3", "sim4", "sim5", "sim6", "custom")

_GAUSSIAN_FAMILY = ("sim1", "sim2", "sim3", "sim4", "custom")


@dataclass(frozen=True)
class SimConfig:
    """Full parameterization of the generator; presets pin the scenarios."""

    scenario: str = "custom"
    n_instances: int = 50
    # Gaussian hierarchy (sim1-sim4, custom)
    nu_pos: float = 15.0  # mean of the positive-component mean prior
    eta_pos: float = 1.0  # mean of the positive-component variance prior
    pi_neg: float = 0.0  # positive-instance probability in negative bags
    pi_pos: float = 0.10  # positive-instance probability in positive bags
    mu_neg_mean: float = 0.0
    mean_prior_var: float = 10.0
    zeta_neg_mean: float = 1.0
    zeta_prior_var: float = 1.0
    nu_pos_choices: tuple[float, ...] | None = None  # sim4: one coin flip per bag
    # Uncertain-object family (sim5, sim6)
    lognormal_mu: float = math.log(10.0)
    lognormal_var: float = 0.04
    mixture_mu1: float = 9.5
    mixture_mu2: float = 13.5
    mixture_var: float = 2.5
    mixture_w1: float = 0.9
    hyper_var_mixture: float = 1.0
    hyper_var_lognormal: float = 0.04
    # How the second argument of the mean/variance priors is read.
    variance_notation: str = "variance"  # "variance" or "sd"
    variance_floor: float = 1e-8

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        for name in ("pi_neg", "pi_pos", "mixture_w1"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.variance_notation not in ("variance", "sd"):
            raise ValueError("variance_notation must be 'variance' or 'sd'")

    @classmethod
    def preset(cls, scenario: str, **overrides) -> "SimConfig":
        """Named scenario with its pinned parameters; overrides apply last."""
        scenario = scenario.lower()
        presets: dict[str, dict] = {
            "sim1": dict(nu_pos=15.0, eta_pos=1.0, pi_neg=0.0),
            "sim2": dict(nu_pos=15.0, eta_pos=1.0, pi_neg=0.01),
            "sim3": dict(nu_pos=0.0, eta_pos=100.0, pi_neg=0.0),
            "sim4": dict(nu_pos_choices=(-15.0, 15.0), eta_pos=1.0, pi_neg=0.01),
            "sim5": {},
            "sim6": {},
            "custom": {},
        }
        if scenario not in presets:
            raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
        return cls(scenario=scenario, **{**presets[scenario], **overrides})

    def _prior_scale(self, second_arg: float) -> float:
        return math.sqrt(second_arg) if self.variance_notation == "variance" else second_arg


@dataclass(frozen=True)
class GeneratedBag:
    """A simulated bag plus the latent draws that produced it."""

    bag: Bag
    true_label: Label
    latent: dict


def sample_bag(config: SimConfig, label: Label, seed, bag_id: str = "bag") -> GeneratedBag:
    """Draw one bag: latent parameters first, then its instances.

    Draw order (replayable from the seed): positive mean location (one
    uniform choice if ``nu_pos_choices`` is set), positive mean, positive
    variance, negative mean, negative variance, then per instance the
    mixing indicators followed by one standard normal each. sim5/sim6 use
    their own documented order (hyperparameters, component choices,
    normals).
    """
    rng = np.random.default_rng(seed)
    if config.scenario in _GAUSSIAN_FAMILY:
        return _sample_gaussian_hierarchy(config, label, rng, bag_id, seed)
    return _sample_uncertain_object(config, label, rng, bag_id, seed)


def _sample_gaussian_hierarchy(config, label, rng, bag_id, seed) -> GeneratedBag:
    n = config.n_instances
    mean_scale = config._prior_scale(config.mean_prior_var)
    zeta_scale = config._prior_scale(config.zeta_prior_var)
    if config.nu_pos_choices is not None:
        nu = float(config.nu_pos_choices[rng.integers(len(config.nu_pos_choices))])
    else:
        nu = config.nu_pos
    mu_pos = nu + mean_scale * rng.standard_normal()
    var_pos = max(abs(config.eta_pos + zeta_scale * rng.standard_normal()), config.variance_floor)
    mu_neg = config.mu_neg_mean + mean_scale * rng.standard_normal()
    var_neg = max(abs(config.zeta_neg_mean + zeta_scale * rng.standard_normal()), config.variance_floor)
    pi = config.pi_pos if label == Label.POS else config.pi_neg
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
    bag = Bag(id=bag_id, instances=x[:, None], label=label)
    return GeneratedBag(bag=bag, true_label=label, latent=latent)


def _sample_uncertain_object(config, label, rng, bag_id, seed) -> GeneratedBag:
    n = config.n_instances
    hierarchical = config.scenario == "sim6"
    if label == Label.POS:
        mu = config.lognormal_mu
        if hierarchical:
            mu = mu + math.sqrt(config.hyper_var_lognormal) * rng.standard_normal()
        x = rng.lognormal(mean=mu, sigma=math.sqrt(config.lognormal_var), size=n)
        latent = {
            "family": "lognormal",
            "mu": mu,
            "var": config.lognormal_var,
            "seed": _seed_repr(seed),
        }
    else:
        mu1, mu2 = config.mixture_mu1, config.mixture_mu2
        if hierarchical:
            mu1 = mu1 + math.sqrt(config.hyper_var_mixture) * rng.standard_normal()
            mu2 = mu2 + math.sqrt(config.hyper_var_mixture) * rng.standard_normal()
        first = rng.random(n) < config.mixture_w1
        z = rng.standard_normal(n)
        x = np.where(first, mu1, mu2) + math.sqrt(config.mixture_var) * z
        latent = {
            "family": "gaussian_mixture",
            "mu1": mu1,
            "mu2": mu2,
            "var": config.mixture_var,
            "w1": config.mixture_w1,
            "component1": first.astype(int).tolist(),
            "seed": _seed_repr(seed),
        }
    bag = Bag(id=bag_id, instances=np.asarray(x)[:, None], label=label)
    return GeneratedBag(bag=bag, true_label=label, latent=latent)


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
