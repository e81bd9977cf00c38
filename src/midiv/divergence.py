"""Dissimilarities between an unlabelled bag's density and reference densities.

Three measures are provided:

* ``kl`` — Kullback-Leibler information, the expectation under the bag
  density of the log ratio bag/reference.
* ``bhattacharyya`` — minus the log of the overlap integral of the two
  square-rooted densities (symmetric).
* ``ckl`` — class-conditional KL: the KL integrand against a reference
  density weighted pointwise by the ratio weighting/reference, so regions
  unseen by both densities stop contributing while regions seen only by
  the weighting density are amplified. Designed for sparse training sets.

Integrals are approximated by midpoint Riemann sums over the bag density's
support hint, or by importance sampling with the bag density itself as the
proposal (the KL weights are then identically one). By default each bag
takes the grid if it is a KDE that the grid resolves, and importance
sampling otherwise (see ``DivergenceSpec.for_bag``). Reference
densities are floored and density ratios clipped so every score is finite;
each score carries the fraction of evaluation points where the clip or
floor engaged, and the effective sample size of the importance weights.

``check_property`` numerically certifies the three qualitative properties
that motivate the choice of measure, on exact piecewise-constant density
scenarios where subregion contributions reduce to restricted sums. It
certifies the scorer's own KL and cKL terms, with the density floor and
without the ratio clip.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .density import GMM, DensityModel, _pdf_rows

__all__ = [
    "DivergenceSpec",
    "DivergenceScore",
    "RowScores",
    "kl",
    "bhattacharyya",
    "ckl",
    "evaluation_rows",
    "reduce_kl",
    "reduce_bh",
    "reduce_ckl",
    "rd_value",
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
# The default puts a KDE bag on its grid when a cell is at most half its
# bandwidth (an Epanechnikov kernel then spans four cells). A far outlier
# widens a bag's support and not its bandwidth: such a bag is sampled
# instead (tests/test_integral_oracle.py gives the grid's errors).
_MIN_CELLS_PER_BANDWIDTH = 2.0


@dataclass(frozen=True)
class DivergenceSpec:
    """Integral-approximation policy shared by all divergence estimators.

    ``integrator`` None (the default) chooses one per bag: see ``for_bag``.
    """

    integrator: str | None = None
    n_imp: int = 2000
    # The floor: KL and BH within 2e-2 and 1e-2 of a quadrature oracle on the
    # KDE bags it resolves, cKL no further off than 2000 draws
    # (tests/test_integral_oracle.py).
    grid_points: int = 256
    # Density-ratio cap. Calibrated so that the simulation study reproduces
    # the published operating characteristics; raise it when estimating
    # divergences between well-behaved overlapping densities.
    ratio_clip: float = 3e4

    def __post_init__(self):
        if self.integrator not in (None, "IMPORTANCE", "RIEMANN"):
            raise ValueError(
                f"integrator must be IMPORTANCE, RIEMANN or None, got {self.integrator!r}")
        for name in ("n_imp", "grid_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_imp < 100:
            raise ValueError("n_imp must be >= 100")
        if self.grid_points < 256:
            raise ValueError("grid_points must be >= 256")
        clip = self.ratio_clip
        if isinstance(clip, bool) or not isinstance(clip, numbers.Real) or not clip > 1:
            raise ValueError(f"ratio_clip must be a real number > 1, got {clip!r}")

    def for_bag(self, f_bag) -> DivergenceSpec:
        """The spec that integrates under a bag's densities ``f_bag`` (one per
        dimension): this one if it names its integrator. Otherwise a Riemann
        grid if each density is a KDE whose bandwidth spans at least
        ``_MIN_CELLS_PER_BANDWIDTH`` cells of its grid, else importance
        sampling. An outlier stretches a KDE's support and not its
        bandwidth; a GMM component can sit at the variance floor, far
        narrower than a cell."""
        if self.integrator is not None:
            return self
        on_grid = all(
            m.kind != GMM and self.grid_points * m.bandwidth
            >= _MIN_CELLS_PER_BANDWIDTH * (m.support_hint[1] - m.support_hint[0])
            for m in f_bag
        )
        return _named(self, "RIEMANN" if on_grid else "IMPORTANCE")

    @property
    def points(self) -> int:
        """Evaluation points per point set: ``n_imp``, or ``grid_points`` on a Riemann grid."""
        return self.grid_points if self.integrator == "RIEMANN" else self.n_imp

    @property
    def reads_seeds(self) -> bool:
        """Whether its point sets read one seed per bag: only importance sampling draws."""
        return self.integrator == "IMPORTANCE"


@functools.cache
def _named(spec: DivergenceSpec, integrator: str) -> DivergenceSpec:
    """``spec`` with ``integrator``: one object per pair, made once."""
    return replace(spec, integrator=integrator)


@dataclass(frozen=True)
class DivergenceScore:
    """One bag-vs-reference divergence value with estimator diagnostics."""

    value: float
    clipped_fraction: float
    ess: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.clipped_fraction <= 1.0:
            raise ValueError("clipped_fraction must lie in [0, 1]")
        if self.ess is not None and not self.ess > 0.0:
            raise ValueError("ess must be positive")


# --------------------------------------------------------------------------
# the estimator core
#
# Every measure integrates a pointwise term under the bag density, over one
# set of evaluation points: a midpoint Riemann grid over the bag's own
# support (width ``dx``), or an importance sample drawn from the bag density
# itself (cell width ``dx`` None; the estimate is a mean).
# The core works on rows: a caller scoring many bags stacks one point set per
# bag as the rows of (rows, points) arrays. ``evaluation_rows`` makes the
# points, ``density._pdf_rows`` evaluates each bag's own density on its row,
# each reference density's own ``pdf`` evaluates it on every row, and the
# ``reduce_*`` functions turn those values into scores. So each reference
# density is evaluated and each measure reduced once for all the bags, and
# every measure shares the points.
# The public ``kl``, ``bhattacharyya`` and ``ckl`` are the one-row case.
# Every row's points are in ascending order, the one order of the core: an
# integral does not depend on it, and the Epanechnikov lookups then walk their
# tables in order. Each row is summed on its own, so a row's score does not
# depend on the other rows; re-associating its sum moves values in the last
# bits.


class RowScores(NamedTuple):
    """Divergence values and their diagnostics, one per row of points (``ess``
    is None on a Riemann grid)."""

    value: np.ndarray
    clipped_fraction: np.ndarray
    ess: np.ndarray | None

    def row(self, r: int) -> DivergenceScore:
        ess = None if self.ess is None else float(self.ess[r])
        return DivergenceScore(float(self.value[r]), float(self.clipped_fraction[r]), ess)


def evaluation_rows(f_bags, spec: DivergenceSpec, seeds=None):
    """Points to integrate over under each bag density in ``f_bags``, as the
    ascending rows of one (rows, points) array, and the cell widths.

    ``spec`` names its integrator (see ``DivergenceSpec.for_bag``). A row's
    midpoint Riemann grid spans its bag's ``support_hint``, which holds the
    kernel's reach: every integrand carries the bag density, so that is
    the whole domain. Importance sampling draws each row by its bag
    density's own ``sample(spec.n_imp, seed)``, one of ``seeds`` each
    (widths None), and sorts it; only it reads the seeds
    (``spec.reads_seeds``).
    """
    if spec.integrator is None:
        raise ValueError("evaluation_rows needs a spec that names its integrator")
    if spec.reads_seeds:
        x = np.array([f.sample(spec.n_imp, seed) for f, seed in zip(f_bags, seeds, strict=True)])
        x.sort(axis=-1)
        return x, None
    lo, hi = np.array([m.support_hint for m in f_bags], dtype=float).T
    dx = (hi - lo) / spec.grid_points
    return lo[:, None] + dx[:, None] * (np.arange(spec.grid_points) + 0.5), dx


def _ess(weights: np.ndarray, count) -> np.ndarray:
    """Effective sample size of the importance weights along the last axis;
    a row of all-zero (degenerate) weights counts its ``count`` points."""
    s2 = (weights * weights).sum(axis=-1)
    s = weights.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s2 <= 0.0, count, s * s / s2)


def _bag_support(fb, dx):
    """The mask ``fb > 0`` of the points where the bag density is positive,
    and its count per row. A row with no such point has no estimate of any
    measure: it raises ``ValueError``."""
    active = fb > 0
    count = np.count_nonzero(active, axis=-1)
    if not count.all():
        where = "its importance sample" if dx is None else (
            f"its {fb.shape[-1]}-point Riemann grid: use more --grid-points or importance sampling")
        raise ValueError(f"a bag density is 0 at every point of {where}")
    return active, count


def _on_bag_support(fb, terms, clipped, weights, dx) -> RowScores:
    """Per row: the integral of ``terms``, the fraction of ``clipped`` points
    and the ESS of the importance ``weights`` (None: unit weights), over the
    points where the bag density is positive.

    All rows are reduced at once over the mask ``fb > 0``: ``terms`` and
    ``weights`` are zeroed off it, in place. The importance estimate is the
    masked sum over the active count (on a row that is active throughout,
    its ``.mean()``), the Riemann one the masked sum times the cell width. A
    row with no active point has no estimate and raises ``ValueError``.
    """
    active, count = _bag_support(fb, dx)
    off = ~active
    np.copyto(terms, 0.0, where=off)
    total = terms.sum(axis=-1)
    value = total / count if dx is None else total * dx
    fraction = np.count_nonzero(clipped & active, axis=-1) / count
    ess = None
    if dx is None:
        if weights is None:
            ess = count.astype(float)
        else:
            np.copyto(weights, 0.0, where=off)
            ess = _ess(weights, count)
    return RowScores(value, fraction, ess)


def _kl_pointwise(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec):
    """Clipped log-ratio log(fb/fr) and the mask of floored/clipped points."""
    cap = math.log(spec.ratio_clip)
    floored = fr < _DENSITY_FLOOR
    # in place: a block of rows holds few arrays of its size at once
    logratio = np.log(np.maximum(fb, _TINY))
    logratio -= np.log(np.maximum(fr, _DENSITY_FLOOR))
    clipped = floored | (logratio > cap)
    return np.minimum(logratio, cap, out=logratio), clipped


def reduce_kl(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec, dx) -> RowScores:
    """KL information per row, from the bag and reference densities at its
    points: (rows, points) arrays, with ``dx`` None or one width per row.

    The estimate is truncated at zero: the estimand is non-negative and
    Monte-Carlo noise below zero carries no information. Both integrators
    skip points where the bag density vanishes: the integrand is zero there.
    """
    logratio, clipped = _kl_pointwise(fb, fr, spec)
    terms = logratio if dx is None else fb * logratio
    scores = _on_bag_support(fb, terms, clipped, None, dx)
    # the proposal is the bag density itself: unit weights
    return scores._replace(value=np.maximum(scores.value, 0.0))


def reduce_bh(fb: np.ndarray, fr: np.ndarray, spec: DivergenceSpec, dx) -> RowScores:
    """Bhattacharyya distance per row; the overlap integral is clamped into (0, 1].

    A row with no point where the bag density is positive raises
    ``ValueError``, as in KL: its overlap would read 0 against every
    reference, and the bag as equally far from all of them.
    """
    _bag_support(fb, dx)
    ess = None
    if dx is None:
        w = np.sqrt(fr / np.maximum(fb, _TINY))
        overlap = w.mean(axis=-1)
        ess = _ess(w, w.shape[-1])
    else:
        overlap = np.sqrt(fb * fr).sum(axis=-1) * dx
    clipped = ((overlap > 1.0) | (overlap < _TINY)).astype(float)
    overlap = np.minimum(np.maximum(overlap, _TINY), 1.0)
    return RowScores(-np.log(overlap), clipped, ess)


def _ckl_weight(fr: np.ndarray, fw: np.ndarray, spec: DivergenceSpec, clipped: np.ndarray):
    """The cKL weight ``fw/fr``, ``fr`` floored and the ratio clipped at
    ``spec.ratio_clip``; clipped points are marked in ``clipped`` in place."""
    w = np.maximum(fr, _DENSITY_FLOOR)
    np.divide(fw, w, out=w)
    clipped |= w > spec.ratio_clip
    return np.minimum(w, spec.ratio_clip, out=w)


def reduce_ckl(
    fb: np.ndarray, fr: np.ndarray, fw: np.ndarray, spec: DivergenceSpec, dx
) -> RowScores:
    """Class-conditional KL per row against the reference ``fr``, weighted by ``fw/fr``.

    The weight is clipped at ``spec.ratio_clip``. Unlike KL the value may be
    negative. Both integrators skip points where the bag density vanishes.
    """
    logratio, clipped = _kl_pointwise(fb, fr, spec)
    w = _ckl_weight(fr, fw, spec, clipped)
    terms = np.multiply(w, logratio, out=logratio) if dx is None else w * fb * logratio
    return _on_bag_support(fb, terms, clipped, w, dx)


def rd_value(num, den):
    """The rd ratio of divergence values, elementwise; the denominator is floored at 1e-12."""
    return num / np.maximum(den, _RD_DENOMINATOR_FLOOR)


def _one_row(reduce, f_bag: DensityModel, refs, spec: DivergenceSpec, seed) -> DivergenceScore:
    """A public measure: ``reduce`` on one point set under ``f_bag``."""
    x, dx = evaluation_rows([f_bag], spec.for_bag([f_bag]), [seed])
    return reduce(_pdf_rows([f_bag], x), *(f.pdf(x) for f in refs), spec, dx).row(0)


def kl(f_bag: DensityModel, f_ref: DensityModel, spec: DivergenceSpec, seed) -> DivergenceScore:
    """KL information of the bag density relative to a reference density.

    The estimate is truncated at zero (see ``reduce_kl``).
    """
    return _one_row(reduce_kl, f_bag, (f_ref,), spec, seed)


def bhattacharyya(
    f_bag: DensityModel, f_ref: DensityModel, spec: DivergenceSpec, seed
) -> DivergenceScore:
    """Bhattacharyya distance; the overlap integral is clamped into (0, 1]."""
    return _one_row(reduce_bh, f_bag, (f_ref,), spec, seed)


def ckl(
    f_bag: DensityModel,
    f_ref: DensityModel,
    f_weight: DensityModel,
    spec: DivergenceSpec,
    seed,
) -> DivergenceScore:
    """Class-conditional KL of the bag against the reference density.

    The KL integrand against ``f_ref`` is weighted pointwise by
    ``f_weight/f_ref`` (clipped at ``spec.ratio_clip``). Unlike KL the value
    may be negative. The classifier's cKL score is minus this, with the
    negative class as ``f_ref`` and the positive as ``f_weight``.
    """
    return _one_row(reduce_ckl, f_bag, (f_ref, f_weight), spec, seed)


# --------------------------------------------------------------------------
# qualitative property certification on exact histogram densities
#
# Contributions are measured additively under the bag's measure. KL and
# the class-conditional KL are integrals of pointwise terms, so a region's
# contribution is the restricted sum. Their terms are the scorer's own
# (``_kl_pointwise``, ``_ckl_weight``) on a Riemann grid of the bins, with
# the density floor kept and no ratio clip: each limit drives a ratio to
# infinity, and a clip would cap it. The Bhattacharyya distance has no
# regional decomposition (the log of an integral), so its contribution is
# taken on the affinity-deficit scale 1 - overlap, whose restricted sum
# integrand is f_bag - sqrt(f_bag * f_ref); total deficit and the distance
# are monotonically equivalent. Every stage of a scenario is one row.

_UNCLIPPED = DivergenceSpec(ratio_clip=math.inf)


@dataclass(frozen=True)
class PropertyScenario:
    """Histogram densities on a shared grid plus the probed subregions.

    Row s of the (stages, bins) arrays ``f_bag``, ``f_ref`` and ``f_weight``
    is the point of the limit sequence at ``params[s]`` (its epsilon or M).
    KL and BH take ``f_ref`` as reference; cKL weights it by ``f_weight``.
    """

    edges: np.ndarray
    params: np.ndarray
    f_bag: np.ndarray
    f_ref: np.ndarray
    f_weight: np.ndarray
    region_main: np.ndarray  # bool mask over bins: X_M or X_eps
    region_mirror: np.ndarray | None = None  # X*_M (ratio-reversed), P1 only

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or not np.isfinite(edges).all():
            raise ValueError("scenario edges must be finite, with at least one bin")
        if not (np.diff(edges) > 0).all():
            raise ValueError("scenario edges must be strictly increasing")
        if np.ndim(self.params) != 1 or len(self.params) < 1:
            raise ValueError("scenario params must be a 1-D array of at least one stage")
        shape = (len(self.params), len(edges) - 1)
        for arr in (self.f_bag, self.f_ref, self.f_weight):
            if np.shape(arr) != shape:
                raise ValueError("scenario grids mismatched: density shape != (stages, bins)")
        for name, mask in (("region", self.region_main), ("mirror", self.region_mirror)):
            if mask is None and name == "mirror":
                continue
            if np.shape(mask) != shape[1:]:
                raise ValueError(f"scenario grids mismatched: {name} mask length != bin count")
            if np.asarray(mask).dtype != bool:
                raise ValueError(f"{name} mask must be boolean, got {np.asarray(mask).dtype}")


@dataclass(frozen=True)
class CheckReport:
    """Per-measure verdicts with the contribution trends behind them."""

    property_id: str
    passed: dict[str, bool]
    trends: dict[str, dict[str, tuple[float, ...]]] = field(repr=False, default=None)


def _property_terms(scenario: PropertyScenario, measure: str, spec: DivergenceSpec) -> np.ndarray:
    """A measure's (stages, bins) terms times the bin widths: the KL or cKL
    Riemann integrand of the scorer at ``spec``, or BH's affinity deficit."""
    fb, fr, fw = (np.asarray(f, float) for f in (scenario.f_bag, scenario.f_ref, scenario.f_weight))
    if measure == "BH":
        terms = fb - np.sqrt(fb * fr)
    else:
        logratio, clipped = _kl_pointwise(fb, fr, spec)
        w = 1.0 if measure == "KL" else _ckl_weight(fr, fw, spec, clipped)
        terms = w * fb * logratio
    return terms * np.diff(np.asarray(scenario.edges, dtype=float))


def _region(terms: np.ndarray, mask) -> tuple[np.ndarray, np.ndarray]:
    """Per stage: a region's contribution and its share of the total (0
    where the total is 0)."""
    # compress, not terms[:, mask]: that copy is column-major, and its row
    # sums would not be pairwise like a one-stage sum
    part = terms.compress(mask, axis=-1).sum(axis=-1)
    total = terms.sum(axis=-1)
    return part, np.divide(part, total, out=np.zeros_like(part), where=np.abs(total) > 0)


def _monotone(seq: np.ndarray, direction: int, slack: float) -> bool:
    return bool(np.all(direction * np.diff(seq) >= -slack))


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
    passed: dict[str, bool] = {}
    trends: dict[str, dict[str, tuple[float, ...]]] = {}
    for measure in MEASURES:
        terms = _property_terms(scenario, measure, _UNCLIPPED)
        contrib, share = _region(terms, scenario.region_main)
        mirror = scenario.region_mirror
        mirror_share = () if mirror is None else _region(terms, mirror)[1]
        if property_id == "P1":
            ok = _monotone(share, +1, 1e-9) and share[-1] >= 0.95 and abs(mirror_share[-1]) <= 0.05
        else:
            mags = np.abs(contrib)
            ok = _monotone(mags, -1, 1e-12) and mags[-1] <= 1e-3
        passed[measure] = bool(ok)
        trends[measure] = {
            "param": tuple(map(float, scenario.params)),
            "contribution": tuple(map(float, contrib)),
            "share": tuple(map(float, share)),
            "mirror_share": tuple(map(float, mirror_share)),
        }
    return CheckReport(property_id=property_id, passed=passed, trends=trends)


# --------------------------------------------------------------------------
# default scenarios (uniform-histogram constructions)

# The limit sequence of every scenario, and the bins of its grid on [0, 1].
_DEFAULT_EPS = tuple(10.0 ** (-2 - 3 * i) for i in range(10))
_N_BINS = 100


def _histograms(edges: np.ndarray, *pieces) -> np.ndarray:
    """(stages, bins) densities on ``edges``, each row normalised: zero but on
    the bins of each (bins, value) piece, a value being one number or a
    column of one per stage. Later pieces overwrite earlier ones."""
    f = np.zeros((len(_DEFAULT_EPS), len(edges) - 1))
    for bins, value in pieces:
        f[:, bins] = value
    return f / (f * np.diff(edges)).sum(axis=-1, keepdims=True)


def _mask(bins: slice) -> np.ndarray:
    mask = np.zeros(_N_BINS, bool)
    mask[bins] = True
    return mask


def p1_scenario() -> PropertyScenario:
    """Bag-rich/reference-poor region vs its mirror, ratio driven to infinity.

    Region A holds bag mass 0.4 where the reference density is eps; region
    B is the mirror; the middle region keeps the two densities different so
    no measure trivially concentrates.
    """
    edges = np.linspace(0.0, 1.0, _N_BINS + 1)
    eps = np.array(_DEFAULT_EPS)[:, None]
    a = slice(int(0.8 * _N_BINS), _N_BINS)
    b = slice(0, int(0.2 * _N_BINS))
    c1 = slice(int(0.2 * _N_BINS), int(0.5 * _N_BINS))
    c2 = slice(int(0.5 * _N_BINS), int(0.8 * _N_BINS))
    return PropertyScenario(
        edges=edges,
        params=2.0 / eps[:, 0],  # the bag-to-reference ratio on region A
        f_bag=_histograms(edges, (a, 2.0), (b, eps), (c1, 1.6), (c2, 0.4)),
        f_ref=_histograms(edges, (a, eps), (b, 2.0), (c1, 0.4), (c2, 1.6)),
        f_weight=_histograms(edges, (slice(None), 1.0)),
        region_main=_mask(a),
        region_mirror=_mask(b),
    )


def p2_scenario() -> PropertyScenario:
    """A bag vanishing on part of the reference's support.

    The bag is uniform on [0.1, 0.3); the reference splits its mass evenly
    between that interval and [0.5, 0.7), where the bag density is eps.
    """
    edges = np.linspace(0.0, 1.0, _N_BINS + 1)
    eps = np.array(_DEFAULT_EPS)[:, None]
    bag_bins = slice(int(0.1 * _N_BINS), int(0.3 * _N_BINS))
    far_bins = slice(int(0.5 * _N_BINS), int(0.7 * _N_BINS))
    return PropertyScenario(
        edges=edges,
        params=eps[:, 0],
        f_bag=_histograms(edges, (bag_bins, 5.0), (far_bins, eps)),
        f_ref=_histograms(edges, (slice(None), _TINY), (bag_bins, 2.5), (far_bins, 2.5)),
        f_weight=_histograms(edges, (slice(None), 1.0)),
        region_main=_mask(far_bins),
    )


def p3_scenario() -> PropertyScenario:
    """A bag region unseen by both classes (the sparse-training case).

    On the probe region the reference density is eps and the weighting
    density eps^2 (both below eps, the weighting vanishing at least as
    fast), while the bag keeps mass 0.2 there.
    """
    edges = np.linspace(0.0, 1.0, _N_BINS + 1)
    eps = np.array(_DEFAULT_EPS)[:, None]
    bag_bins = slice(0, int(0.2 * _N_BINS))
    lo = slice(0, int(0.4 * _N_BINS))
    hi = slice(int(0.4 * _N_BINS), int(0.8 * _N_BINS))
    unseen = slice(int(0.8 * _N_BINS), _N_BINS)
    return PropertyScenario(
        edges=edges,
        params=eps[:, 0],
        f_bag=_histograms(edges, (bag_bins, 4.0), (unseen, 1.0)),
        f_ref=_histograms(edges, (lo, 1.5), (hi, 1.0), (unseen, eps)),
        f_weight=_histograms(edges, (lo, 1.0), (hi, 1.5), (unseen, eps * eps)),
        region_main=_mask(unseen),
    )


def default_scenario(property_id: str) -> PropertyScenario:
    builders = {"P1": p1_scenario, "P2": p2_scenario, "P3": p3_scenario}
    if property_id not in builders:
        raise ValueError(f"property_id must be P1, P2 or P3, got {property_id!r}")
    return builders[property_id]()
