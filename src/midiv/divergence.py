"""Dissimilarities between an unlabelled bag's density and reference densities.

Three measures are provided:

* ``kl`` — Kullback-Leibler information, the expectation under the bag
  density of the log ratio bag/reference.
* ``bhattacharyya`` — minus the log of the overlap integral of the two
  square-rooted densities (symmetric).
* ``ckl`` — class-conditional KL: the KL integrand against the positive
  class weighted pointwise by the ratio negative/positive, so regions
  unseen by both classes stop contributing while regions seen only in the
  negative class are amplified. Designed for sparse training sets.

Integrals are approximated either by importance sampling with the bag
density itself as the proposal (the KL weights are then identically one)
or by midpoint Riemann sums over the union of the support hints. Reference
densities are floored and density ratios clipped so every score is finite;
each score carries the fraction of evaluation points where the clip or
floor engaged, and the effective sample size of the importance weights.

``check_property`` numerically certifies the three qualitative properties
that motivate the choice of measure, on exact piecewise-constant density
scenarios where subregion contributions reduce to restricted sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensityModel

__all__ = [
    "DivergenceSpec",
    "DivergenceScore",
    "kl",
    "bhattacharyya",
    "ckl",
    "rd_ratio",
    "evaluation_points",
    "densities_at",
    "reduce_kl",
    "reduce_bh",
    "reduce_ckl",
    "rd_value",
    "PropertyStage",
    "PropertyScenario",
    "CheckReport",
    "check_property",
    "default_scenario",
    "MEASURES",
]

MEASURES = ("KL", "BH", "CKL")

_TINY = 1e-300  # guards log/division only; never changes a zero-bag term
_DENSITY_FLOOR = 1e-12  # reference densities below it count as floored
_RD_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class DivergenceSpec:
    """Integral-approximation policy shared by all divergence estimators."""

    integrator: str = "IMPORTANCE"
    n_imp: int = 2000
    grid_points: int = 4096
    # Density-ratio cap. Calibrated so that the simulation study reproduces
    # the published operating characteristics; raise it when estimating
    # divergences between well-behaved overlapping densities.
    ratio_clip: float = 3e4

    def __post_init__(self):
        if self.integrator not in ("IMPORTANCE", "RIEMANN"):
            raise ValueError(f"integrator must be IMPORTANCE or RIEMANN, got {self.integrator!r}")
        for name in ("n_imp", "grid_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_imp < 100:
            raise ValueError("n_imp must be >= 100")
        if self.grid_points < 256:
            raise ValueError("grid_points must be >= 256")
        if not self.ratio_clip > 1:
            raise ValueError("ratio_clip must be > 1")


@dataclass(frozen=True)
class DivergenceScore:
    """One bag-vs-reference divergence value with estimator diagnostics."""

    value: float
    measure: str
    clipped_fraction: float
    ess: float | None = None
    low_ess: bool = False

    def __post_init__(self):
        if not 0.0 <= self.clipped_fraction <= 1.0:
            raise ValueError("clipped_fraction must lie in [0, 1]")
        if self.ess is not None and not self.ess > 0.0:
            raise ValueError("ess must be positive")

    def to_json(self) -> str:
        return json.dumps(
            {
                "measure": self.measure,
                "value": self.value,
                "clipped_fraction": self.clipped_fraction,
                "ess": self.ess,
            }
        )


# --------------------------------------------------------------------------
# the estimator core
#
# Every measure integrates a pointwise term under the bag density, over one
# set of evaluation points: an importance sample drawn from the bag density
# itself (cell width ``dx`` None; the estimate is a mean), or a midpoint
# Riemann grid over the bag and every reference density (width ``dx``).
# ``evaluation_points`` makes the points, ``densities_at`` evaluates densities
# there and the ``reduce_*`` functions turn those values into scores. A caller
# scoring one bag against several references passes them all, so every
# measure shares the points.
# Importance estimates are ``.mean()``s and Riemann products run left to
# right; summing weighted terms or re-associating moves values in the last bits.


def _riemann_grid(models: tuple[DensityModel, ...], spec: DivergenceSpec):
    lo = min(m.support_hint[0] for m in models)
    hi = max(m.support_hint[1] for m in models)
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    dx = (hi - lo) / spec.grid_points
    x = lo + dx * (np.arange(spec.grid_points) + 0.5)
    return x, dx


def evaluation_points(
    f_bag: DensityModel, refs: tuple[DensityModel, ...], spec: DivergenceSpec, seed
) -> tuple[np.ndarray, float | None]:
    """Points to integrate over under ``f_bag``, and the Riemann cell width.

    Importance sampling draws ``spec.n_imp`` points from ``f_bag`` (width
    None); the Riemann grid spans the support hints of ``f_bag`` and every
    density in ``refs`` and ignores ``seed``.
    """
    if spec.integrator == "IMPORTANCE":
        return f_bag.sample(spec.n_imp, seed), None
    return _riemann_grid((f_bag, *refs), spec)


def densities_at(x: np.ndarray, models: tuple[DensityModel, ...]) -> tuple[np.ndarray, ...]:
    """Each model's density at the points ``x``, in the order of ``x``.

    The points are sorted once and every model is evaluated on the sorted
    array (the Epanechnikov lookups then walk their tables in order). Every
    evaluation is elementwise, so scattering the values back into draw order
    gives the same bits as evaluating ``x`` directly.
    """
    order = np.argsort(x)
    xs = x[order]
    values = []
    for model in models:
        f = np.empty(x.shape)
        f[order] = model.pdf(xs)
        values.append(f)
    return tuple(values)


def _ess(weights: np.ndarray) -> float:
    s2 = float((weights * weights).sum())
    if s2 <= 0.0:
        return float(weights.size)  # all-equal (degenerate) weights
    s = float(weights.sum())
    return s * s / s2


def _fraction(mask: np.ndarray) -> float:
    return float(mask.mean()) if mask.size else 0.0


def _kl_pointwise(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec):
    """Clipped log-ratio log(fb/fr) and the mask of floored/clipped points."""
    cap = math.log(spec.ratio_clip)
    floored = fr < _DENSITY_FLOOR
    logratio = np.log(np.maximum(fb, _TINY)) - np.log(np.maximum(fr, _DENSITY_FLOOR))
    clipped = floored | (logratio > cap)
    return np.minimum(logratio, cap), clipped


def reduce_kl(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec, dx) -> DivergenceScore:
    """KL information from the bag and reference densities at the points.

    The estimate is truncated at zero: the estimand is non-negative and
    Monte-Carlo noise below zero carries no information. Riemann sums skip
    points where the bag density vanishes.
    """
    logratio, clipped = _kl_pointwise(fb, fr, spec)
    if dx is None:
        value = max(float(logratio.mean()), 0.0)
        # the proposal is the bag density itself: unit weights
        return DivergenceScore(value, "KL", _fraction(clipped), ess=float(spec.n_imp))
    active = fb > 0
    value = max(float((fb[active] * logratio[active]).sum() * dx), 0.0)
    return DivergenceScore(value, "KL", _fraction(clipped[active]))


def reduce_bh(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec, dx) -> DivergenceScore:
    """Bhattacharyya distance; the overlap integral is clamped into (0, 1]."""
    ess = None
    if dx is None:
        w = np.sqrt(fr / np.maximum(fb, _TINY))
        overlap = float(w.mean())
        ess = _ess(w)
    else:
        overlap = float(np.sqrt(fb * fr).sum() * dx)
    clipped = 1.0 if (overlap > 1.0 or overlap < _TINY) else 0.0
    overlap = min(max(overlap, _TINY), 1.0)
    low_ess = ess is not None and ess < 0.01 * spec.n_imp
    return DivergenceScore(-math.log(overlap), "BH", clipped, ess, low_ess)


def reduce_ckl(
    fb: np.ndarray, fp: np.ndarray, fn: np.ndarray, spec: DivergenceSpec, dx
) -> DivergenceScore:
    """Class-conditional KL of the bag against ``fp``, weighted by ``fn/fp``.

    The weight is clipped at ``spec.ratio_clip``. Unlike KL the value may be
    negative. Riemann sums skip points where the bag density vanishes.
    """
    logratio, clipped = _kl_pointwise(fb, fp, spec)
    w = fn / np.maximum(fp, _DENSITY_FLOOR)
    clipped |= w > spec.ratio_clip
    w = np.minimum(w, spec.ratio_clip)
    if dx is None:
        ess = _ess(w)
        value = float((w * logratio).mean())
        return DivergenceScore(value, "CKL", _fraction(clipped), ess, ess < 0.01 * spec.n_imp)
    active = fb > 0
    value = float((w[active] * fb[active] * logratio[active]).sum() * dx)
    return DivergenceScore(value, "CKL", _fraction(clipped[active]))


def rd_value(num: float, den: float) -> float:
    """The rd ratio of two divergence values; the denominator is floored at 1e-12."""
    return num / max(den, _RD_DENOMINATOR_FLOOR)


def kl(f_bag: DensityModel, f_ref: DensityModel, spec: DivergenceSpec, seed) -> DivergenceScore:
    """KL information of the bag density relative to a reference density.

    The estimate is truncated at zero (see ``reduce_kl``).
    """
    x, dx = evaluation_points(f_bag, (f_ref,), spec, seed)
    return reduce_kl(*densities_at(x, (f_bag, f_ref)), spec, dx)


def bhattacharyya(
    f_bag: DensityModel, f_ref: DensityModel, spec: DivergenceSpec, seed
) -> DivergenceScore:
    """Bhattacharyya distance; the overlap integral is clamped into (0, 1]."""
    x, dx = evaluation_points(f_bag, (f_ref,), spec, seed)
    return reduce_bh(*densities_at(x, (f_bag, f_ref)), spec, dx)


def ckl(
    f_bag: DensityModel,
    f_pos: DensityModel,
    f_neg: DensityModel,
    spec: DivergenceSpec,
    seed,
) -> DivergenceScore:
    """Class-conditional KL of the bag against the positive class.

    The KL integrand against ``f_pos`` is weighted pointwise by
    ``f_neg/f_pos`` (clipped at ``spec.ratio_clip``). Unlike KL the value
    may be negative.
    """
    x, dx = evaluation_points(f_bag, (f_pos, f_neg), spec, seed)
    return reduce_ckl(*densities_at(x, (f_bag, f_pos, f_neg)), spec, dx)


def rd_ratio(
    f_bag: DensityModel,
    f_pos: DensityModel,
    f_neg: DensityModel,
    measure: str,
    spec: DivergenceSpec,
    seed,
) -> float:
    """Ratio D(bag, pos) / D(bag, neg); small values indicate positive bags.

    Both divergences share one set of evaluation points: one importance
    sample, or one Riemann grid over the bag and both classes. The
    denominator is floored at 1e-12.
    """
    if measure not in ("KL", "BH"):
        raise ValueError(f"rd_ratio measure must be KL or BH, got {measure!r}")
    reduce = reduce_kl if measure == "KL" else reduce_bh
    x, dx = evaluation_points(f_bag, (f_pos, f_neg), spec, seed)
    fb, fp, fn = densities_at(x, (f_bag, f_pos, f_neg))
    return rd_value(reduce(fb, fp, spec, dx).value, reduce(fb, fn, spec, dx).value)


# --------------------------------------------------------------------------
# qualitative property certification on exact histogram densities
#
# Contributions are measured additively under the bag's measure. KL and
# the class-conditional KL are integrals of pointwise terms, so a region's
# contribution is the restricted sum. The Bhattacharyya distance has no
# regional decomposition (the log of an integral), so its contribution is
# taken on the affinity-deficit scale 1 - overlap, whose restricted sum
# integrand is f_bag - sqrt(f_bag * f_ref); total deficit and the distance
# are monotonically equivalent.


@dataclass(frozen=True)
class PropertyStage:
    """One point of the limit sequence: densities at a given epsilon/M."""

    param: float
    f_bag: np.ndarray
    f_pos: np.ndarray
    f_neg: np.ndarray


@dataclass(frozen=True)
class PropertyScenario:
    """Histogram densities on a shared grid plus the probed subregions."""

    edges: np.ndarray
    stages: tuple[PropertyStage, ...]
    region_main: np.ndarray  # bool mask over bins: X_M or X_eps
    region_mirror: np.ndarray | None = None  # X*_M (ratio-reversed), P1 only

    def __post_init__(self):
        nb = len(self.edges) - 1
        if nb < 1:
            raise ValueError("scenario grid needs at least one bin")
        for st in self.stages:
            for arr in (st.f_bag, st.f_pos, st.f_neg):
                if len(arr) != nb:
                    raise ValueError("scenario grids mismatched: density length != bin count")
        if len(self.region_main) != nb:
            raise ValueError("scenario grids mismatched: region mask length != bin count")
        if self.region_mirror is not None and len(self.region_mirror) != nb:
            raise ValueError("scenario grids mismatched: mirror mask length != bin count")


@dataclass(frozen=True)
class CheckReport:
    """Per-measure verdicts with the contribution trends behind them."""

    property_id: str
    passed: dict[str, bool]
    trends: dict[str, dict[str, tuple[float, ...]]] = field(repr=False, default=None)


def _stage_terms(stage: PropertyStage, widths: np.ndarray, measure: str) -> np.ndarray:
    fb, fp, fn = stage.f_bag, stage.f_pos, stage.f_neg
    if measure == "KL":
        t = np.where(fb > 0, fb * (np.log(np.maximum(fb, _TINY)) - np.log(np.maximum(fp, _TINY))), 0.0)
    elif measure == "CKL":
        w = fn / np.maximum(fp, _TINY)
        t = np.where(fb > 0, w * fb * (np.log(np.maximum(fb, _TINY)) - np.log(np.maximum(fp, _TINY))), 0.0)
    elif measure == "BH":
        t = fb - np.sqrt(fb * fp)
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return t * widths


def _monotone(seq, direction: int, slack: float) -> bool:
    return all(direction * (b - a) >= -slack for a, b in zip(seq, seq[1:]))


def check_property(property_id: str, scenario: PropertyScenario) -> CheckReport:
    """Certify one of the three divergence properties on a scenario.

    P1: subregions where the bag dominates the reference must come to
    dominate the total divergence as the ratio grows, while subregions
    where the reference dominates the bag must not.
    P2: subregions where the bag density vanishes must stop contributing.
    P3: subregions where both class densities vanish must stop contributing.

    Returns a pass/fail verdict per measure in ``MEASURES``.
    """
    if property_id not in ("P1", "P2", "P3"):
        raise ValueError(f"property_id must be P1, P2 or P3, got {property_id!r}")
    if property_id == "P1" and scenario.region_mirror is None:
        raise ValueError("P1 needs a mirror region (reference-dominant subspace)")
    widths = np.diff(np.asarray(scenario.edges, dtype=float))
    passed: dict[str, bool] = {}
    trends: dict[str, dict[str, tuple[float, ...]]] = {}
    for measure in MEASURES:
        contrib_main, share_main, share_mirror = [], [], []
        for stage in scenario.stages:
            terms = _stage_terms(stage, widths, measure)
            total = float(terms.sum())
            main = float(terms[scenario.region_main].sum())
            contrib_main.append(main)
            share_main.append(main / total if abs(total) > 0 else 0.0)
            if scenario.region_mirror is not None:
                mirror = float(terms[scenario.region_mirror].sum())
                share_mirror.append(mirror / total if abs(total) > 0 else 0.0)
        if property_id == "P1":
            ok = (
                _monotone(share_main, +1, 1e-9)
                and share_main[-1] >= 0.95
                and abs(share_mirror[-1]) <= 0.05
            )
        else:
            mags = [abs(c) for c in contrib_main]
            ok = _monotone(mags, -1, 1e-12) and mags[-1] <= 1e-3
        passed[measure] = ok
        trends[measure] = {
            "param": tuple(st.param for st in scenario.stages),
            "contribution": tuple(contrib_main),
            "share": tuple(share_main),
            "mirror_share": tuple(share_mirror),
        }
    return CheckReport(property_id=property_id, passed=passed, trends=trends)


# --------------------------------------------------------------------------
# default scenarios (uniform-histogram constructions)

_DEFAULT_EPS = tuple(10.0 ** (-2 - 3 * i) for i in range(10))


def _normalized(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    return values / float((values * widths).sum())


def p1_scenario(epsilons=_DEFAULT_EPS, n_bins: int = 100) -> PropertyScenario:
    """Bag-rich/reference-poor region vs its mirror, ratio driven to infinity.

    Region A holds bag mass 0.4 where the reference density is eps; region
    B is the mirror; the middle region keeps the two densities different so
    no measure trivially concentrates.
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    widths = np.diff(edges)
    a = slice(int(0.8 * n_bins), n_bins)
    b = slice(0, int(0.2 * n_bins))
    c1 = slice(int(0.2 * n_bins), int(0.5 * n_bins))
    c2 = slice(int(0.5 * n_bins), int(0.8 * n_bins))
    stages = []
    for eps in epsilons:
        fb = np.empty(n_bins)
        fb[a], fb[b], fb[c1], fb[c2] = 2.0, eps, 1.6, 0.4
        fp = np.empty(n_bins)
        fp[a], fp[b], fp[c1], fp[c2] = eps, 2.0, 0.4, 1.6
        fn = np.ones(n_bins)
        stages.append(
            PropertyStage(
                param=2.0 / eps,  # the bag-to-reference ratio on region A
                f_bag=_normalized(fb, widths),
                f_pos=_normalized(fp, widths),
                f_neg=_normalized(fn, widths),
            )
        )
    region_a = np.zeros(n_bins, bool)
    region_a[a] = True
    region_b = np.zeros(n_bins, bool)
    region_b[b] = True
    return PropertyScenario(
        edges=edges, stages=tuple(stages), region_main=region_a, region_mirror=region_b
    )


def p2_scenario(epsilons=_DEFAULT_EPS, n_bins: int = 100) -> PropertyScenario:
    """A bag vanishing on part of the reference's support.

    The bag is uniform on [0.1, 0.3); the reference splits its mass evenly
    between that interval and [0.5, 0.7), where the bag density is eps.
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    widths = np.diff(edges)
    bag_bins = slice(int(0.1 * n_bins), int(0.3 * n_bins))
    far_bins = slice(int(0.5 * n_bins), int(0.7 * n_bins))
    stages = []
    for eps in epsilons:
        fb = np.zeros(n_bins)
        fb[bag_bins] = 5.0
        fb[far_bins] = eps
        fp = np.zeros(n_bins)
        fp[bag_bins] = 2.5
        fp[far_bins] = 2.5
        fn = np.ones(n_bins)
        stages.append(
            PropertyStage(
                param=eps,
                f_bag=_normalized(fb, widths),
                f_pos=_normalized(np.maximum(fp, _TINY), widths),
                f_neg=_normalized(fn, widths),
            )
        )
    region = np.zeros(n_bins, bool)
    region[far_bins] = True
    return PropertyScenario(edges=edges, stages=tuple(stages), region_main=region)


def p3_scenario(epsilons=_DEFAULT_EPS, n_bins: int = 100) -> PropertyScenario:
    """A bag region unseen by both classes (the sparse-training case).

    On the probe region the positive class density is eps and the negative
    class density eps^2 (both below eps, the negative vanishing at least as
    fast), while the bag keeps mass 0.2 there.
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    widths = np.diff(edges)
    bag_bins = slice(0, int(0.2 * n_bins))
    lo = slice(0, int(0.4 * n_bins))
    hi = slice(int(0.4 * n_bins), int(0.8 * n_bins))
    unseen = slice(int(0.8 * n_bins), n_bins)
    stages = []
    for eps in epsilons:
        fb = np.zeros(n_bins)
        fb[bag_bins] = 4.0
        fb[unseen] = 1.0
        fp = np.zeros(n_bins)
        fp[lo], fp[hi], fp[unseen] = 1.5, 1.0, eps
        fn = np.zeros(n_bins)
        fn[lo], fn[hi], fn[unseen] = 1.0, 1.5, eps * eps
        stages.append(
            PropertyStage(
                param=eps,
                f_bag=_normalized(fb, widths),
                f_pos=_normalized(fp, widths),
                f_neg=_normalized(fn, widths),
            )
        )
    region = np.zeros(n_bins, bool)
    region[unseen] = True
    return PropertyScenario(edges=edges, stages=tuple(stages), region_main=region)


def default_scenario(property_id: str) -> PropertyScenario:
    builders = {"P1": p1_scenario, "P2": p2_scenario, "P3": p3_scenario}
    if property_id not in builders:
        raise ValueError(f"property_id must be P1, P2 or P3, got {property_id!r}")
    return builders[property_id]()
