"""Bag-level classification, evaluation and the simulation study harness.

Six methods share one convention: a bag's score is low when the bag looks
positive. ``rd_kl``/``rd_bh`` threshold the ratio of bag-to-class
divergences, ``ckl`` thresholds minus the class-conditional KL against the
negative class weighted by the positive (bag mass covered only by the
positive class pulls it down), ``b2b_kl``/``b2b_bh`` score by minimum
bag-to-bag dissimilarity against each class, and ``svm_divs`` feeds
per-dimension divergences into a linear SVM and scores by signed margin.
AUC is computed exactly via the rank (Mann-Whitney) statistic and
cross-checked against the trapezoidal ROC area.

Bags are fitted in one fit phase (``_fit_bags``) and scored in one score
phase (``_score_bags``). The score phase takes blocks of bags as the rows
of (rows, points) arrays, so the bags' own densities and each reference
density are evaluated and each divergence reduced once per block rather
than once per bag, while each sampled bag draws its own points; a bag's
scores are the same bits whatever block it lands in.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import divergence as dv
from .core import Bag, Dataset, Label, PcaTransform, apply_pca, fit_pca
from .density import _blocks, _fit_kdes, _pdf_pair, _pdf_rows, _select_gmms, DensityModel
from .divergence import DivergenceSpec
from .seeds import derive_label, derive_seed
from .simulate import SimConfig, sample_experiment

__all__ = [
    "METHODS",
    "CLASS_METHODS",
    "ESTIMATORS",
    "TABLE1_GRID",
    "EstimatorConfig",
    "SvmConfig",
    "PipelineConfig",
    "ClassModel",
    "EvalReport",
    "StudyCell",
    "StudyResult",
    "fit_class_densities",
    "fit_classifier",
    "train_linear_svm",
    "score_bag",
    "auc",
    "roc_points",
    "choose_threshold",
    "accuracy_at",
    "cross_validate",
    "evaluate_holdout",
    "run_sim_study",
    "normalize_method",
]

METHODS = ("rd_bh", "rd_kl", "ckl", "b2b_kl", "b2b_bh", "svm_divs")
# The bag-to-class methods in the published table's order; their
# per-dimension values are the svm_divs features.
CLASS_METHODS = METHODS[:3]
ESTIMATORS = ("kde-epan", "kde-gauss", "gmm-aic")
TABLE1_GRID = tuple((p, n) for p in (1, 5, 10) for n in (5, 10, 25))


def normalize_method(name: str, choices=METHODS, setting: str = "method") -> str:
    method = name.strip().lower().replace("-", "_")
    if method not in choices:
        raise ValueError(f"unknown {setting} {name!r}; choose from {choices}")
    return method


@dataclass(frozen=True)
class EstimatorConfig:
    """How per-bag and per-class densities are fitted; ``kind`` is one of ``ESTIMATORS``."""

    kind: str = "kde-epan"
    bandwidth: float | None = None  # explicit KDE bandwidth; None = rule of thumb
    k_max: int = 5  # GMM-AIC model search ceiling

    def __post_init__(self):
        if self.kind not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.kind!r}; choose from {ESTIMATORS}")
        bandwidth = self.bandwidth
        if bandwidth is not None and not (_is_real(bandwidth) and 0.0 < bandwidth < np.inf):
            raise ValueError(
                f"EstimatorConfig.bandwidth must be None or positive and finite, got {bandwidth!r}"
            )
        if not _is_count(self.k_max):
            raise ValueError(f"EstimatorConfig.k_max must be an integer >= 1, got {self.k_max!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """An integer (Python or numpy, not bool) of at least 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SvmConfig:
    """Linear SVM training: passes over the training bags and the L2 weight."""

    epochs: int = 200
    lam: float = 1e-3

    def __post_init__(self):
        if not _is_count(self.epochs):
            raise ValueError(f"SvmConfig.epochs must be an integer >= 1, got {self.epochs!r}")
        if not (_is_real(self.lam) and 0.0 < self.lam < np.inf):
            raise ValueError(f"SvmConfig.lam must be positive and finite, got {self.lam!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """A classifier's settings: method, densities, divergences, optional PCA,
    threshold policy and, for ``svm_divs``, the SVM and its feature measure.

    ``threshold`` is given as ``"loocv"`` (any case), ``"fixed:<t>"`` or a
    number, and stored as ``"loocv"`` or a finite float. ``svm_divs``
    always thresholds its margin at 0 but checks the policy all the same.
    """

    method: str = "ckl"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    spec: DivergenceSpec = field(default_factory=DivergenceSpec)
    pca_components: int | None = None
    threshold: str | float = "loocv"
    svm: SvmConfig = field(default_factory=SvmConfig)
    svm_measure: str = "ckl"

    def __post_init__(self):
        if self.pca_components is not None and not _is_count(self.pca_components):
            raise ValueError(
                "PipelineConfig.pca_components must be None or an integer >= 1, "
                f"got {self.pca_components!r}"
            )
        object.__setattr__(self, "method", normalize_method(self.method))
        measure = normalize_method(self.svm_measure, CLASS_METHODS, "svm_measure")
        object.__setattr__(self, "svm_measure", measure)
        object.__setattr__(self, "threshold", _threshold_policy(self.threshold))


def _threshold_policy(policy) -> str | float:
    value = None
    if isinstance(policy, str):
        if policy.lower() == "loocv":
            return "loocv"
        if policy.lower().startswith("fixed:"):
            try:
                value = float(policy.split(":", 1)[1])
            except ValueError:
                pass
    elif _is_real(policy):
        value = float(policy)
    if value is None or not np.isfinite(value):
        raise ValueError(
            f"PipelineConfig.threshold must be 'loocv', 'fixed:<t>' or a finite number, "
            f"got {policy!r}"
        )
    return value


def _fit_columns(
    arrays, estimator: EstimatorConfig, seeds, labels: tuple, names, pooled: bool = False
) -> list[tuple[DensityModel, ...]]:
    """One density per column of each 2-D array, for a whole fit phase of
    class or bag densities: a GMM chosen by AIC, column d of ``arrays[i]``
    from ``derive_seed(seeds[i], *labels, d)``, every EM in a few stacked
    loops (see ``density._em``); or a KDE, fitted by blocks of one length
    (``density._fit_kdes``), whose rule-of-thumb bandwidth uses the robust
    spread for a bag and the plain sd for a ``pooled`` class sample. The
    first array, in order, with a column that cannot be fitted raises that
    error, prefixed with its entry of ``names``."""
    columns = [(x, seed, d) for x, seed in zip(arrays, seeds, strict=True) for d in range(x.shape[1])]
    samples = [x[:, d] for x, _, d in columns]
    if estimator.kind == "gmm-aic":
        column_seeds = [derive_seed(seed, *labels, d) for _, seed, d in columns]
        fits = (fit if isinstance(fit, ValueError) else fit[0]
                for fit in _select_gmms(samples, estimator.k_max, column_seeds))
    else:
        kernel = "EPANECHNIKOV" if estimator.kind == "kde-epan" else "GAUSSIAN"
        fits = iter(_fit_kdes(samples, kernel, estimator.bandwidth, robust_sigma=not pooled))
    out = []
    for x, name in zip(arrays, names, strict=True):
        models = tuple(next(fits) for _ in range(x.shape[1]))
        for fit in models:
            if isinstance(fit, ValueError):
                raise ValueError(f"{name}: {fit}") from fit
        out.append(models)
    return out


def fit_class_densities(
    train: Dataset, estimator: EstimatorConfig, seed
) -> tuple[tuple[DensityModel, ...], tuple[DensityModel, ...]]:
    """One density per dimension per class, fitted to pooled class instances."""
    out = []
    for label in (Label.POS, Label.NEG):
        pooled = train.pooled_instances(label)
        if pooled.shape[0] == 0:
            raise ValueError(f"training set has no {label.name} bags")
        labels = ("class", label.name)
        out += _fit_columns([pooled], estimator, [seed], labels, [f"class {label.name}"], True)
    return out[0], out[1]


def _fit_bags(bags, estimator: EstimatorConfig, seeds) -> list[tuple[DensityModel, ...]]:
    """The fit phase: every bag's per-dimension densities, one seed per bag.

    Scored bags, the training bags behind a LOOCV threshold or the svm-divs
    features, and the b2b reference bags are all fitted here.
    """
    arrays = [bag.instances for bag in bags]
    names = [f"bag {bag.id!r}" for bag in bags]
    return _fit_columns(arrays, estimator, seeds, ("bagfit",), names)


@dataclass(frozen=True)
class ClassModel:
    """A fitted pipeline: the optional PCA, the class densities (plus the
    training-bag densities for b2b) and the threshold or linear SVM."""

    pipeline: PipelineConfig
    pca: PcaTransform | None
    f_pos: tuple[DensityModel, ...]
    f_neg: tuple[DensityModel, ...]
    threshold: float | None = None
    svm_weights: np.ndarray | None = None
    svm_bias: float = 0.0
    scaler_mean: np.ndarray | None = None
    scaler_sd: np.ndarray | None = None
    train_bags: tuple[tuple[Label, tuple[DensityModel, ...]], ...] = ()

    def __post_init__(self):
        if len(self.f_neg) != self.dimension:
            raise ValueError("need one density per dimension per class")
        if self.svm_weights is not None and len(self.svm_weights) != self.dimension:
            raise ValueError("SVM weight length must equal the feature dimension")

    @property
    def dimension(self) -> int:
        return len(self.f_pos)

    def scores(self, bags, seeds) -> list[float]:
        """Scores of raw ``bags``, one seed each, under the method; lower means more positive."""
        expects = self.dimension if self.pca is None else self.pca.input_dimension
        for bag in bags:
            if bag.dimension != expects:
                raise ValueError(
                    f"bag {bag.id!r} has dimension {bag.dimension}, model expects {expects}"
                )
        if self.pca is not None:
            bags = apply_pca(self.pca, Dataset(bags, expects)).bags
        p = self.pipeline
        svm = p.method == "svm_divs"
        method = p.svm_measure if svm else p.method
        refs = (self.f_pos, self.f_neg, self.train_bags)
        fits = _fit_bags(bags, p.estimator, seeds)
        values = _score_bags(fits, seeds, p.spec, refs, (method,), svm)[method]
        if not svm:
            return values
        # Each margin sums its own row: a matrix product would round a bag's
        # margin by the rows scored with it.
        z = (np.reshape(values, (len(values), self.dimension)) - self.scaler_mean) / self.scaler_sd
        return ((z * self.svm_weights).sum(axis=1) + self.svm_bias).tolist()


# --------------------------------------------------------------------------
# the score phase

# Evaluation points per block of the score phase, whose bags are the rows of
# (rows, points) arrays (one bag at least). An Epanechnikov pdf call holds
# four arrays of a block's size at once; at this bound a run's peak memory
# stays where one-bag scoring had it.
_SCORE_BLOCK = 1 << 13

_REDUCERS = {"kl": dv.reduce_kl, "bh": dv.reduce_bh}


def _score_bags(fits, seeds, spec, refs, methods, per_dim=False) -> dict[str, list]:
    """The score phase: every fitted bag's scores under each of ``methods``.

    One list per method. Each bag's densities, from ``_fit_bags``, are
    scored with its seed against ``refs``, the class densities and the b2b
    training-bag densities, by ``_score_block``, under the integrator that
    ``spec.for_bag`` gives it: the bags of each integrator go in blocks of
    at most ``_SCORE_BLOCK`` evaluation points, and a bag's scores are the
    same bits whatever block it is in. The two class densities of each
    dimension are looked up together (``density._pdf_pair``), by one
    search set up once here for all the phase's points. Nothing is fitted
    here.
    """
    scores = {m: [None] * len(fits) for m in methods}
    f_pos, f_neg, train_bags = refs
    bag_specs = [spec.for_bag(models) for models in fits]
    pairs = None
    if any(m in CLASS_METHODS for m in methods):
        points = sum(s.points for s in bag_specs)
        pairs = [_pdf_pair(p, n, points) for p, n in zip(f_pos, f_neg)]
    for bag_spec, block in _blocks(bag_specs, _SCORE_BLOCK, lambda s: s.points):
        values = _score_block([fits[i] for i in block], [seeds[i] for i in block], bag_spec,
                              (pairs, train_bags), methods, per_dim)
        for m in methods:
            for i, value in zip(block, values[m]):
                scores[m][i] = value
    return scores


def _score_block(fits, seeds, spec, refs, methods, per_dim) -> dict[str, list]:
    """Scores of a block of bags under every requested method, one row per bag.

    Per dimension, each bag keeps its own point set, under ``spec``'s
    integrator: a Riemann grid over its own support, or importance draws
    from the seed stream ``"dim"``
    (``"feat"`` for the svm-divs features), each bag by its own ``sample``.
    ``refs`` is ``(pairs, train_bags)``: per dimension, the class densities'
    lookup from ``density._pdf_pair`` (None if no method needs them), and
    the b2b training bags. The points are the rows of one array: the bags'
    own densities are evaluated together (``density._pdf_rows``), the two
    class densities by one lookup, each training-bag density once on all
    rows, and each measure reduced once, row by row.
    Divergences are summed over dimensions before the rd ratio and the b2b
    minima are taken. With ``per_dim`` each method maps to its per-dimension
    values instead: the svm-divs features.
    """
    pairs, train_bags = refs
    train_pos = np.array([lab == Label.POS for lab, _ in train_bags], dtype=bool)
    # Summed from 0.0 in dimension order; another order moves scores in the last bits.
    totals = dict.fromkeys(methods, 0.0)
    columns = {m: [] for m in methods}
    for d in range(len(fits[0])):
        bag_models = [models[d] for models in fits]
        children = None  # a Riemann grid reads no seed, so none is derived
        if spec.reads_seeds:
            children = [derive_seed(seed, "feat" if per_dim else "dim", d) for seed in seeds]
        x, dx = dv.evaluation_rows(bag_models, spec, children)
        fb = _pdf_rows(bag_models, x)
        classes = () if pairs is None else pairs[d](x)
        terms = {m: [] for m in methods}
        if "ckl" in methods:  # reference f_neg, weighting f_pos: positive-looking bags score low
            terms["ckl"] = -dv.reduce_ckl(fb, classes[1], classes[0], spec, dx).value
        # One reference at a time, reduced by each method that reads it: the
        # class densities, or each training bag's on all rows, one per block.
        train = (models[d].pdf(x) for _, models in train_bags)
        for prefix, references in (("rd", classes), ("b2b", train)):
            reducing = [m for m in methods if m.startswith(prefix)]
            for fr in references:
                for m in reducing:
                    terms[m].append(_REDUCERS[m.split("_")[1]](fb, fr, spec, dx).value)
        for m in methods:
            divs = terms[m] if m == "ckl" else np.column_stack(terms[m])
            if per_dim:
                columns[m].append(_finish(m, divs, train_pos))
            else:
                totals[m] = totals[m] + divs
    if per_dim:
        return {m: list(np.column_stack(columns[m])) for m in methods}
    return {m: _finish(m, totals[m], train_pos).tolist() for m in methods}


def _finish(method: str, divs: np.ndarray, train_pos: np.ndarray) -> np.ndarray:
    """A method's scores, one per row, from its divergences (see ``_score_block``)."""
    if method == "ckl":
        return divs
    if method.startswith("rd"):
        return dv.rd_value(divs[:, 0], divs[:, 1])
    return divs[:, train_pos].min(axis=1) - divs[:, ~train_pos].min(axis=1)


def score_bag(model: ClassModel, bag: Bag, seed) -> float:
    """Score one bag under the model's method; lower means more positive."""
    return model.scores([bag], [seed])[0]


# --------------------------------------------------------------------------
# linear SVM on divergence features


def train_linear_svm(
    features: np.ndarray, labels: np.ndarray, config: SvmConfig, seed
) -> tuple[np.ndarray, float]:
    """L2-regularized hinge loss by seeded subgradient descent.

    ``labels`` are True for positive bags; internally positive maps to the
    -1 side so that a lower margin means a more positive-looking bag.
    """
    x = np.asarray(features, dtype=float)
    y = np.where(np.asarray(labels, dtype=bool), -1.0, 1.0)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    # The steps run on Python floats: the same float64 operations in the same
    # order as on arrays. Only the dot product may round otherwise. Any
    # summation order leaves it within d unit roundoffs of sum |x_j w_j| of
    # the exact value, so two margins differ by less than ``bound`` times
    # (sum |x_j w_j| + |b| + 1); a margin that close to 1 is taken again
    # with numpy's dot, which decides the comparison.
    rows, ys = x.tolist(), y.tolist()
    bound = 4.0 * (d + 1) * np.finfo(float).eps
    w = [0.0] * d
    b = 0.0
    t = 0
    lam = config.lam
    for _ in range(config.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            terms = [a * c for a, c in zip(rows[i], w)]
            margin = ys[i] * (sum(terms) + b)
            if abs(margin - 1.0) <= bound * (sum(map(abs, terms)) + abs(b) + 1.0):
                margin = ys[i] * (x[i] @ np.array(w) + b)
            shrink = 1.0 - eta * lam
            if margin < 1.0:
                step = eta * ys[i]
                w = [c * shrink + step * a for a, c in zip(rows[i], w)]
                b += step
            else:
                w = [c * shrink for c in w]
    return np.array(w), b


def _fit_references(train: Dataset, estimator: EstimatorConfig, seed, b2b: bool):
    """Class densities and, for the b2b methods, every training bag's densities.

    Every training bag must be labelled: the class fits skip an unlabelled
    bag, but its training score would still count toward the threshold.
    """
    for bag in train.bags:
        if bag.label is None:
            raise ValueError(f"training bag {bag.id!r} is unlabelled")
    f_pos, f_neg = fit_class_densities(train, estimator, derive_seed(seed, "class-fit"))
    ref_bags = train.bags if b2b else ()
    fits = _fit_bags(ref_bags, estimator, [derive_label(seed, "b2b", bag.id) for bag in ref_bags])
    return f_pos, f_neg, tuple((bag.label, models) for bag, models in zip(ref_bags, fits))


def fit_classifier(train: Dataset, pipeline: PipelineConfig, seed) -> ClassModel:
    """Fit the whole pipeline on a labelled training set.

    PCA, when configured, is fitted on the pooled training instances and
    the rest of the pipeline on the projected bags. A score method's LOOCV
    threshold is chosen on the training bags' scores; a fixed threshold
    scores no training bag. ``svm_divs`` trains a
    linear SVM on the standardized per-dimension ``svm_measure``
    divergences of the training bags and thresholds its margin at 0. The
    class densities are fitted once to the full training pool, so each
    training bag's scores include its own instances in its class pool.
    """
    pca = None
    if pipeline.pca_components is not None:
        pca = fit_pca(train, pipeline.pca_components)
        train = apply_pca(pca, train)
    method = pipeline.method
    refs = _fit_references(train, pipeline.estimator, seed, method.startswith("b2b"))
    f_pos, f_neg, train_bags = refs
    model = ClassModel(pipeline, pca, f_pos, f_neg, train_bags=train_bags)
    svm = method == "svm_divs"
    if not svm and pipeline.threshold != "loocv":
        return replace(model, threshold=pipeline.threshold)
    measure = pipeline.svm_measure if svm else method
    stream = "train-bag" if svm else "train-score"
    seeds = [derive_label(seed, stream, bag.id) for bag in train.bags]
    if train_bags and pipeline.estimator.kind != "gmm-aic":
        # A KDE fit does not read its seed: the b2b references are these fits.
        fits = [models for _, models in train_bags]
    else:
        fits = _fit_bags(train.bags, pipeline.estimator, seeds)
    scores = _score_bags(fits, seeds, pipeline.spec, refs, (measure,), per_dim=svm)[measure]
    if not svm:
        return replace(model, threshold=choose_threshold(scores, [b.label for b in train.bags]))
    feats = np.array(scores)
    if not np.all(np.isfinite(feats)):
        raise AssertionError("divergence features must be finite after clipping")
    labels = np.array([bag.label == Label.POS for bag in train.bags])
    mean = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    w, b = train_linear_svm((feats - mean) / sd, labels, pipeline.svm, derive_seed(seed, "svm"))
    return replace(
        model, threshold=0.0, svm_weights=w, svm_bias=b, scaler_mean=mean, scaler_sd=sd
    )


# --------------------------------------------------------------------------
# evaluation primitives


def _scores_and_pos(scores, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Scores as floats, rejecting NaN, and the positive-label mask."""
    scores = np.asarray(scores, dtype=float)
    if np.isnan(scores).any():
        raise ValueError(f"{what} needs scores without NaN")
    # Label.POS, 1, True and numpy True all equal 1; Label.NEG, 0, False and None do not.
    return scores, np.asarray(labels) == 1


def auc(scores, labels) -> float:
    """Exact Mann-Whitney AUC under the lower-score-means-positive convention.

    Equals P(score_pos < score_neg) + 0.5 * P(tie) over all positive/negative
    pairs, computed by mid-rank sums.
    """
    scores, pos = _scores_and_pos(scores, labels, "AUC")
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    mid = (ends - counts + 1 + ends) / 2.0
    ranks = mid[inverse]
    u_neg = float(ranks[~pos].sum()) - n_neg * (n_neg + 1) / 2.0
    return u_neg / (n_pos * n_neg)


def roc_points(scores, labels) -> tuple[tuple[float, float], ...]:
    """ROC staircase swept over every unique score, from (0,0) to (1,1)."""
    scores, pos = _scores_and_pos(scores, labels, "ROC")
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    uniq = np.unique(scores)
    # per class, the number of scores at or below each unique score
    fpr = np.searchsorted(np.sort(scores[~pos]), uniq, side="right") / n_neg
    tpr = np.searchsorted(np.sort(scores[pos]), uniq, side="right") / n_pos
    return ((0.0, 0.0),) + tuple(zip(fpr.tolist(), tpr.tolist()))


def _trapezoid(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


def accuracy_at(scores, labels, threshold: float) -> float:
    scores, pos = _scores_and_pos(scores, labels, "accuracy")
    pred_pos = scores < threshold
    return float((pred_pos == pos).mean())


def choose_threshold(train_scores, train_labels) -> float:
    """The LOOCV threshold from training scores, over midpoint candidates.

    Candidates are the midpoints of consecutive sorted unique scores; the
    one maximizing leave-one-out accuracy wins, ties broken toward the
    median candidate (then toward the smaller one).
    """
    scores, pos = _scores_and_pos(train_scores, train_labels, "LOOCV threshold")
    if scores.size < 2:
        raise ValueError("LOOCV threshold needs at least 2 training bags")
    uniq = np.unique(scores)
    if uniq.size == 1:
        return float(uniq[0])
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    # A candidate t classifies a positive right when its score is below t and
    # a negative when its score is not. Counting both with one sort per class
    # and dividing by n gives accuracy_at's mean bit for bit.
    neg = np.sort(scores[~pos])
    pos_below = np.searchsorted(np.sort(scores[pos]), candidates, side="left")
    neg_below = np.searchsorted(neg, candidates, side="left")
    accs = (pos_below + (neg.size - neg_below)) / scores.size
    best = np.flatnonzero(accs == accs.max())
    median_idx = (len(candidates) - 1) / 2.0
    winner = best[np.lexsort((best, np.abs(best - median_idx)))][0]
    return float(candidates[winner])


# --------------------------------------------------------------------------
# evaluation reports


@dataclass(frozen=True)
class EvalReport:
    """Per-run classification outputs: scores, ROC/AUC, folds, seeds."""

    scores: tuple[float, ...]
    labels: tuple[int, ...]
    predictions: tuple[int, ...]
    auc: float
    accuracy: float
    roc: tuple[tuple[float, float], ...]
    folds: dict
    seed: object
    accuracy_sd: float = 0.0
    fold_accuracies: tuple[float, ...] = ()
    auc_fold_mean: float | None = None
    bag_ids: tuple[str, ...] = ()

    def __post_init__(self):
        pts = self.roc
        if pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
            raise ValueError("ROC must start at (0,0) and end at (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 < x0 or y1 < y0:
                raise ValueError("ROC coordinates must be non-decreasing")
        if abs(_trapezoid(pts) - self.auc) > 1e-12:
            raise ValueError("AUC does not match the trapezoidal ROC area")

    def to_json_dict(self) -> dict:
        return {
            "scores": list(self.scores),
            "labels": list(self.labels),
            "predictions": list(self.predictions),
            "auc": self.auc,
            "accuracy": self.accuracy,
            "accuracy_sd": self.accuracy_sd,
            "fold_accuracies": list(self.fold_accuracies),
            "auc_fold_mean": self.auc_fold_mean,
            "roc": [list(p) for p in self.roc],
            "folds": {str(k): v for k, v in self.folds.items()},
            "bag_ids": list(self.bag_ids),
            "seed": str(self.seed),
        }


def _stratified_folds(bags, k_folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per bag, stratified by label, bags never split.

    Bags of each class are dealt round-robin over folds with one counter
    running across classes, so each class spreads as evenly as possible and
    k equal to the bag count yields leave-one-bag-out.
    """
    assignment = np.empty(len(bags), dtype=int)
    counter = 0
    for label in (Label.POS, Label.NEG):
        idx = np.array([i for i, b in enumerate(bags) if b.label == label])
        perm = rng.permutation(len(idx))
        for i in idx[perm]:
            assignment[i] = counter % k_folds
            counter += 1
    return assignment


def _evaluate(splits, folds, pipeline: PipelineConfig, seed) -> EvalReport:
    """Fit on each split's training bags, score its test bags, report them all.

    A split is ``(run, train, test)``. Its seeds derive from ``seed`` and the
    ``run`` labels: none for a holdout run, (repeat, fold) in
    cross-validation. The AUC and ROC pool every split's scores; accuracy is
    the mean of the per-split accuracies, and a cross-validation split that
    holds both classes adds a fold AUC.
    """
    ids, scores, labels, preds, split_acc, fold_auc = [], [], [], [], [], []
    for run, train, test in splits:
        model = fit_classifier(train, pipeline, derive_seed(seed, "fit", *run))
        s = model.scores(test.bags, [derive_label(seed, "score", *run, b.id) for b in test.bags])
        y = [int(b.label) for b in test.bags]
        ids += [b.id for b in test.bags]
        scores += s
        labels += y
        preds += [int(v < model.threshold) for v in s]
        split_acc.append(accuracy_at(s, y, model.threshold))
        if run and 0 < sum(y) < len(y):
            fold_auc.append(auc(s, y))
    return EvalReport(
        scores=tuple(scores),
        labels=tuple(labels),
        predictions=tuple(preds),
        auc=auc(scores, labels),
        accuracy=float(np.mean(split_acc)),
        roc=roc_points(scores, labels),
        folds=folds,
        seed=seed,
        accuracy_sd=float(np.std(split_acc, ddof=1)) if len(split_acc) > 1 else 0.0,
        fold_accuracies=tuple(split_acc),
        auc_fold_mean=float(np.mean(fold_auc)) if fold_auc else None,
        bag_ids=tuple(ids),
    )


def cross_validate(
    data: Dataset, k_folds: int, pipeline: PipelineConfig, repeats: int = 1, seed=0
) -> EvalReport:
    """Repeated stratified k-fold CV at the bag level.

    PCA (when configured) and class densities are fitted inside training
    folds only. Accuracy is aggregated over repeats x folds; AUC pools all
    test-fold scores.
    """
    bags = data.bags
    if any(b.label is None for b in bags):
        raise ValueError("cross-validation needs every bag labelled")
    if k_folds < 2 or k_folds > len(bags):
        raise ValueError("k_folds must lie in [2, number of bags]")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats!r}")
    for label in (Label.POS, Label.NEG):
        if len(data.with_label(label)) < 2:
            raise ValueError(f"need at least 2 {label.name} bags for stratified folds")
    folds: dict[int, dict[str, int]] = {}
    splits = []
    for rep in range(repeats):
        rng = np.random.default_rng(derive_seed(seed, "folds", rep))
        assignment = _stratified_folds(bags, k_folds, rng)
        folds[rep] = {b.id: int(f) for b, f in zip(bags, assignment)}
        for fold in range(k_folds):
            train = data.replace_bags([b for b, f in zip(bags, assignment) if f != fold])
            test = data.replace_bags([b for b, f in zip(bags, assignment) if f == fold])
            splits.append(((rep, fold), train, test))
    return _evaluate(splits, folds, pipeline, seed)


def evaluate_holdout(
    train: Dataset, test: Dataset, pipeline: PipelineConfig, seed=0
) -> EvalReport:
    """Fit on the training set, score a labelled held-out test set: the
    cross-validation loop run on one split with no seed labels."""
    if any(b.label is None for b in test.bags):
        raise ValueError("holdout evaluation needs labelled test bags")
    return _evaluate([((), train, test)], {0: {b.id: 0 for b in test.bags}}, pipeline, seed)


# --------------------------------------------------------------------------
# simulation study harness


@dataclass(frozen=True)
class StudyCell:
    pos: int
    neg: int
    mean_auc: dict[str, float]  # method -> mean AUC over repetitions, in [0, 1]
    rep_aucs: dict[str, tuple[float, ...]] = field(repr=False, default=None)


@dataclass(frozen=True)
class StudyResult:
    scenario: str
    repetitions: int
    methods: tuple[str, ...]
    cells: tuple[StudyCell, ...]
    seed: object


def _run_study_cell(
    config: SimConfig,
    repetitions: int,
    methods: tuple[str, ...],
    seed,
    estimator: EstimatorConfig,
    spec: DivergenceSpec,
    n_test: int,
    pos: int,
    neg: int,
) -> StudyCell:
    rep_aucs: dict[str, list[float]] = {m: [] for m in methods}
    need_b2b = any(m.startswith("b2b") for m in methods)
    for rep in range(repetitions):
        cell_seed = derive_seed(seed, config.scenario, pos, neg, rep)
        train, test = sample_experiment(config, pos, neg, n_test, cell_seed)
        refs = _fit_references(train, estimator, cell_seed, need_b2b)
        seeds = [derive_label(cell_seed, "bag", bag.id) for bag in test.bags]
        scores = _score_bags(_fit_bags(test.bags, estimator, seeds), seeds, spec, refs, methods)
        labels = [bag.label for bag in test.bags]
        for m in methods:
            rep_aucs[m].append(auc(scores[m], labels))
    return StudyCell(
        pos=pos,
        neg=neg,
        mean_auc={m: float(np.mean(rep_aucs[m])) for m in methods},
        rep_aucs={m: tuple(v) for m, v in rep_aucs.items()},
    )


def run_sim_study(
    config: SimConfig,
    grid=TABLE1_GRID,
    repetitions: int = 50,
    methods=CLASS_METHODS,
    seed=0,
    estimator: EstimatorConfig | None = None,
    spec: DivergenceSpec | None = None,
    n_test: int = 100,
    max_workers: int = 1,
) -> StudyResult:
    """Mean test AUC per (pos, neg) training-size cell and method.

    Every repetition draws a fresh train/test experiment, fits the class
    densities, scores the test bags under all requested methods at once,
    and records one AUC per method. Deterministic given the seed; cells
    may be computed in parallel without changing the result.
    """
    methods = tuple(normalize_method(m) for m in methods)
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods lists {', '.join(repeated)} more than once")
    if "svm_divs" in methods:
        raise ValueError("the simulation study compares score-based methods; svm_divs is not one")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions!r}")
    if n_test < 2:
        raise ValueError(f"n_test must be at least 2, one test bag per class, got {n_test!r}")
    estimator = estimator or EstimatorConfig()
    spec = spec or DivergenceSpec()
    run_cell = partial(_run_study_cell, config, repetitions, methods, seed, estimator, spec, n_test)
    poss, negs = [p for p, _ in grid], [n for _, n in grid]
    if max_workers > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The pool may start every worker at once: start no more than there are cells.
        with ProcessPoolExecutor(max_workers=min(max_workers, len(grid))) as pool:
            cells = tuple(pool.map(run_cell, poss, negs))
    else:
        cells = tuple(map(run_cell, poss, negs))
    return StudyResult(
        scenario=config.scenario,
        repetitions=repetitions,
        methods=methods,
        cells=cells,
        seed=seed,
    )

