"""The divergence integrals against a quadrature oracle that is not a grid.

``quad_oracle`` integrates KL, the Bhattacharyya overlap and cKL under the
bag density by Gauss-Legendre quadrature (Davis & Rabinowitz, *Methods of
Numerical Integration*, 2nd ed., 1984, ch. 2), with the density floor and
the ratio clip applied as the reducers apply them:

* Epanechnikov KDEs are quadratics between their breakpoints ``c +- h``
  (``DensityModel._table[0]``), so the rule runs on each piece between the
  merged breakpoints of the bag and the references, at 8 and at 16 nodes.
* Any other density (a Gaussian KDE, a GMM) gets composite 8-node
  Gauss-Legendre on the bag's support, on panels no wider than half the
  narrowest bandwidth or component sd, and on panels half as wide.

Its own error is stated as the gap between the two rules. The integrand has
kinks where the clip engages and x log x terms where the bag density ends,
so convergence is algebraic, and the gap is an honest bound only where it
is small next to the tolerances checked here.

The default integrator (``DivergenceSpec.for_bag``) puts a KDE bag on its
256-point grid when a cell is at most half its bandwidth, and samples every
other bag. The tests hold the grid to a relative tolerance of the oracle on
the KDE bags of all six scenarios that it takes, and to the error of 2000
importance draws; the mean of the importance estimates over seeds to a few
standard errors of the oracle, on KDE bags and on ``gmm-aic`` bags, which
the default samples (a fit can put a component at the variance floor, far
narrower than a cell); the same bar on bags widened by an outlier, on both
sides of the threshold; and the study's AUCs under the default to those of
a 4096-point grid.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from midiv import classify
from midiv import divergence as dv
from midiv.classify import EstimatorConfig, run_sim_study
from midiv.density import GMM, KDE_EPANECHNIKOV, DensityModel, _pdf_rows, fit_kde
from midiv.divergence import DivergenceSpec
from midiv.simulate import SCENARIOS, SimConfig, sample_experiment

# Relative tolerances of the default grid against the oracle. The largest
# errors measured on 40 kde-epan test bags of each scenario were 1.5e-2 (KL)
# and 6.0e-3 (BH); on 4 such bags of each scenario, 2000 importance draws
# scatter by 0.7-22 % of the KL value (standard deviation over 20 seeds).
GRID_RTOL = {"KL": 2e-2, "BH": 1e-2, "CKL": 2e-2}
TEST_BAGS = 20  # per scenario
IMPORTANCE_SEEDS = 20
K_STANDARD_ERRORS = 4.0
AUC100_TOL = 0.25  # |AUC*100| of the default grid against a 4096-point grid


class Oracle(NamedTuple):
    value: float
    error: float  # the gap between the two rules


def _rule(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``nodes``-point Gauss-Legendre points and weights on each piece
    between consecutive ``edges``."""
    t, w = leggauss(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2.0
    return ((a + b) / 2.0 + half * t).ravel(), (half * w).ravel()


def _scale(model) -> float:
    """The narrowest feature of a density: its bandwidth or smallest sd."""
    if model.kind == GMM:
        return float(np.sqrt(model.components[:, 2].min()))
    return model.bandwidth


def _rules(f_bag, refs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The coarse and the fine rule over the bag's support."""
    lo, hi = f_bag.support_hint
    models = (f_bag, *refs)
    if all(m.kind == KDE_EPANECHNIKOV for m in models):
        cuts = np.concatenate([m._table[0] for m in models])
        edges = np.unique(np.concatenate([[lo, hi], cuts[(cuts > lo) & (cuts < hi)]]))
        return [_rule(edges, 8), _rule(edges, 16)]
    panels = math.ceil((hi - lo) / (0.5 * min(_scale(m) for m in models)))
    return [_rule(np.linspace(lo, hi, n + 1), 8) for n in (panels, 2 * panels)]


def _integral(measure: str, fb, refs_at, weights, spec) -> float:
    """One rule's value of ``measure``, floored and clipped as the reducers do."""
    if measure == "BH":
        overlap = float(np.sum(weights * np.sqrt(fb * refs_at[0])))
        return -math.log(min(max(overlap, dv._TINY), 1.0))
    fr = refs_at[0]
    logratio = np.log(np.maximum(fb, dv._TINY)) - np.log(np.maximum(fr, dv._DENSITY_FLOOR))
    logratio = np.minimum(logratio, math.log(spec.ratio_clip))
    terms = fb * logratio
    if measure == "CKL":
        terms *= np.minimum(refs_at[1] / np.maximum(fr, dv._DENSITY_FLOOR), spec.ratio_clip)
    value = float(np.sum(np.where(fb > 0, weights * terms, 0.0)))
    return max(value, 0.0) if measure == "KL" else value


def quad_oracle(f_bag, f_ref, measure: str, spec: DivergenceSpec) -> Oracle:
    """KL or BH of ``f_bag`` against the density ``f_ref``, or cKL against
    the pair ``f_ref = (reference, weighting)`` (as ``divergence.ckl``), by
    Gauss-Legendre quadrature over the bag's support (see the module
    docstring); the value of the fine rule, and its gap to the coarse one."""
    refs = tuple(f_ref) if measure == "CKL" else (f_ref,)
    values = []
    for x, w in _rules(f_bag, refs):
        values.append(_integral(measure, f_bag.pdf(x), [r.pdf(x) for r in refs], w, spec))
    return Oracle(values[1], abs(values[1] - values[0]))


def _score(measure, f_bag, f_ref, spec, seed=0) -> float:
    if measure == "KL":
        return dv.kl(f_bag, f_ref, spec, seed).value
    if measure == "BH":
        return dv.bhattacharyya(f_bag, f_ref, spec, seed).value
    return dv.ckl(f_bag, *f_ref, spec, seed).value


def gaussian(mu, var):
    """N(mu, var) on +-12 sd, where the tails of both integrands are below 1e-15."""
    sd = math.sqrt(var)
    return DensityModel(kind=GMM, support_hint=(mu - 12 * sd, mu + 12 * sd),
                        components=[[1.0, mu, var]])


class TestOracleItself:
    def test_gaussian_pairs_match_closed_forms(self, monkeypatch):
        # The closed forms have no density floor: on these supports the floor
        # of 1e-12 moves KL by up to 2e-2 on these pairs.
        monkeypatch.setattr(dv, "_DENSITY_FLOOR", dv._TINY)
        spec = DivergenceSpec(ratio_clip=math.inf)
        rng = np.random.default_rng(42)
        for _ in range(50):
            m1, m2 = rng.uniform(-2, 2, 2)
            v1, v2 = rng.uniform(0.5, 2.0, 2)
            kl = 0.5 * math.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / (2 * v2) - 0.5
            bh = (m1 - m2) ** 2 / (4 * (v1 + v2)) + 0.5 * math.log(
                (v1 + v2) / (2 * math.sqrt(v1 * v2)))
            f, g = gaussian(m1, v1), gaussian(m2, v2)
            for measure, want in (("KL", kl), ("BH", bh)):
                got = quad_oracle(f, g, measure, spec)
                assert abs(got.value - want) <= 1e-10, (measure, got, want)
                assert got.error <= 1e-10

    def test_epanechnikov_pieces_are_exact_for_polynomials(self):
        # BH of a KDE against itself: the overlap is the integral of the
        # density, a quadratic on every piece, so both rules give 1.
        f = fit_kde([0.0, 0.3, 2.0, 2.1])
        got = quad_oracle(f, f, "BH", DivergenceSpec())
        assert abs(got.value) <= 1e-14 and got.error <= 1e-14


def scenario_models(scenario: str, kind: str):
    """The class densities of a 5 + 10-bag training set of a scenario and
    the densities of ``TEST_BAGS`` test bags, fitted as the classifier fits
    them."""
    est = EstimatorConfig(kind)
    train, test = sample_experiment(SimConfig.preset(scenario), 5, 10, TEST_BAGS, seed=3)
    f_pos, f_neg = classify.fit_class_densities(train, est)
    bags = [models[0] for models in classify._fit_bags(test.bags, est)]
    return f_pos[0], f_neg[0], bags


def on_grid(bags) -> list:
    """The bags that the default integrates on its grid."""
    return [f for f in bags if DivergenceSpec().for_bag([f]).integrator == "RIEMANN"]


def cases(f_pos, f_neg):
    """Every (measure, reference) pair that the classifier integrates."""
    return [("KL", f_pos), ("KL", f_neg), ("BH", f_pos), ("BH", f_neg),
            ("CKL", (f_neg, f_pos)), ("CKL", (f_pos, f_neg))]


def _size(measure, f_bag, f_ref, spec, oracle) -> float:
    """What a relative tolerance is taken of: the value, or for cKL, which
    may be near 0 or negative, at least the KL against its first reference."""
    size = abs(oracle.value)
    if measure == "CKL":
        size = max(size, quad_oracle(f_bag, f_ref[0], "KL", spec).value)
    return size


@pytest.mark.parametrize("kind", ["kde-epan", "kde-gauss"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_grid_within_tolerance_of_the_oracle(scenario, kind):
    """KL and BH on the default grid within ``GRID_RTOL`` of the oracle, whose
    own error is under a tenth of that, on the bags that the default puts
    on it; cKL is held to the importance default below."""
    spec = DivergenceSpec(integrator="RIEMANN")
    f_pos, f_neg, bags = scenario_models(scenario, kind)
    for f_bag in on_grid(bags):
        for measure, f_ref in cases(f_pos, f_neg)[:4]:
            oracle = quad_oracle(f_bag, f_ref, measure, spec)
            size = _size(measure, f_bag, f_ref, spec, oracle)
            assert oracle.error <= 0.1 * GRID_RTOL[measure] * size
            got = _score(measure, f_bag, f_ref, spec)
            assert abs(got - oracle.value) <= GRID_RTOL[measure] * size, (measure, got, oracle)


def assert_grid_meets_importance(f_bag, f_pos, f_neg, check_mean=True):
    """Per case: the grid's error is no larger than the importance default's
    root-mean-square error over seeds, or than ``GRID_RTOL``; with
    ``check_mean``, the importance mean of KL and BH lies within
    ``K_STANDARD_ERRORS`` of the oracle."""
    grid, importance = DivergenceSpec(integrator="RIEMANN"), DivergenceSpec(integrator="IMPORTANCE")
    for measure, f_ref in cases(f_pos, f_neg):
        oracle = quad_oracle(f_bag, f_ref, measure, grid)
        size = _size(measure, f_bag, f_ref, grid, oracle)
        values = _importance_rows(f_bag, f_pos, f_neg, importance, measure, f_ref)
        rms = math.sqrt(np.mean((values - oracle.value) ** 2))
        error = abs(_score(measure, f_bag, f_ref, grid) - oracle.value)
        assert error <= max(rms, GRID_RTOL[measure] * size), (measure, error, rms, oracle)
        if check_mean and measure != "CKL":
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - oracle.value) <= K_STANDARD_ERRORS * se + oracle.error


def _importance_rows(f_bag, f_pos, f_neg, spec, measure, f_ref) -> np.ndarray:
    """The importance estimates of one case, one per seed, from one stacked
    set of draws (``kl``, ``bhattacharyya`` and ``ckl`` give the same bits
    seed by seed)."""
    seeds = list(range(IMPORTANCE_SEEDS))
    x, dx = dv.evaluation_rows([f_bag] * len(seeds), spec, seeds)
    fb, fp, fn = _pdf_rows([f_bag] * len(seeds), x), f_pos.pdf(x), f_neg.pdf(x)
    at = {id(f_pos): fp, id(f_neg): fn}
    if measure == "CKL":
        return dv.reduce_ckl(fb, at[id(f_ref[0])], at[id(f_ref[1])], spec, dx).value
    reduce = dv.reduce_kl if measure == "KL" else dv.reduce_bh
    return reduce(fb, at[id(f_ref)], spec, dx).value


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_grid_against_importance_default(scenario):
    """``assert_grid_meets_importance`` on the kde-epan bags that the
    default puts on its grid.

    cKL's mean is not checked: its weight, clipped at 3e4, can put most of
    the integral on a sliver of the bag's support at the edge of a class
    density's support, where fewer than one of the 40 000 draws lands. On
    40 test bags of each scenario (``n_test=40``), 4 of 240 read 4 to 1656
    standard errors off. On the worst of them the 256-point grid read 91 %
    off, and 2000 draws 94 % (root-mean-square).
    """
    f_pos, f_neg, bags = scenario_models(scenario, "kde-epan")
    for f_bag in on_grid(bags):
        assert_grid_meets_importance(f_bag, f_pos, f_neg)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_gmm_bags_are_sampled_near_the_oracle(scenario):
    """The default samples every gmm-aic bag; the importance mean of KL and
    BH lies within ``K_STANDARD_ERRORS`` of the oracle. The grid is not
    held to it: a component at the variance floor (sd about 0.002 on sim5
    bags whose support spans 12) gets 0.04 cells per sd at 256 points,
    and the grid was then up to 44 % (KL) and 65 % (cKL) off, where 2000
    draws scattered by 1-13 %."""
    importance = DivergenceSpec(integrator="IMPORTANCE")
    f_pos, f_neg, bags = scenario_models(scenario, "gmm-aic")
    assert on_grid(bags) == []
    for f_bag in bags:
        for measure, f_ref in cases(f_pos, f_neg)[:4]:
            oracle = quad_oracle(f_bag, f_ref, measure, importance)
            values = _importance_rows(f_bag, f_pos, f_neg, importance, measure, f_ref)
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - oracle.value) <= K_STANDARD_ERRORS * se + oracle.error


@pytest.mark.parametrize("kernel", ["EPANECHNIKOV", "GAUSSIAN"])
def test_outlier_bags_on_both_sides_of_the_threshold(kernel):
    """49 N(0, 1) draws and one outlier at ``d``: the robust bandwidth rule
    keeps the bandwidth while the support grows with ``d``. The bags that the default puts on
    its grid meet ``assert_grid_meets_importance``; the others are sampled.
    Below the threshold the grid stops meeting it: measured at 1.32 cells
    per bandwidth (Epanechnikov; cKL 23 % off against 13 % for 2000 draws)
    and at 0.59 (Gaussian; 66 % against 48 %), while it held from 1.75
    and 0.78 up."""
    rng = np.random.default_rng(0)
    bulk = rng.standard_normal(49)
    f_pos = fit_kde(rng.standard_normal(300), kernel)
    f_neg = fit_kde(1.5 + 1.2 * rng.standard_normal(300), kernel)
    sampled = 0
    for d in (20, 40, 60, 80, 100, 120, 150, 200, 300, 1e4):
        f_bag = fit_kde(np.append(bulk, d), kernel)
        if on_grid([f_bag]):
            assert_grid_meets_importance(f_bag, f_pos, f_neg, check_mean=False)
        else:
            sampled += 1
    assert 2 <= sampled <= 8


def test_gmm_studies_under_the_default_are_importance_studies():
    cell, gmm = ((1, 5),), EstimatorConfig("gmm-aic")
    for scenario in SCENARIOS:
        a, b = (run_sim_study(SimConfig.preset(scenario), grid=cell, repetitions=2, seed=1,
                              estimator=gmm, spec=spec, n_test=20)
                for spec in (DivergenceSpec(), DivergenceSpec(integrator="IMPORTANCE")))
        assert a == b


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_grid_aucs_match_a_fine_grid(scenario):
    config = SimConfig.preset(scenario)
    cell = ((5, 10),)
    a = run_sim_study(config, grid=cell, repetitions=20, seed=1, spec=DivergenceSpec())
    b = run_sim_study(config, grid=cell, repetitions=20, seed=1,
                      spec=DivergenceSpec(integrator="RIEMANN", grid_points=4096))
    for m, value in a.cells[0].mean_auc.items():
        gap = 100.0 * abs(value - b.cells[0].mean_auc[m])
        assert gap <= AUC100_TOL, (m, gap)
