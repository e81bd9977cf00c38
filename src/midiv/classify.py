"""Bag-level classification, evaluation and the simulation study harness.

Six methods share one convention: a bag's score is low when the bag looks
positive. ``rd_kl``/``rd_bh`` threshold the ratio of bag-to-class
divergences, ``ckl`` thresholds the class-conditional KL score (oriented
so that bag mass covered only by the positive class pulls the score down,
see ``_bundle_scores``), ``b2b_kl``/``b2b_bh`` score by minimum bag-to-bag
dissimilarity against each class, and ``svm_divs`` feeds per-dimension
divergences into a linear SVM and scores by signed margin. AUC is computed
exactly via the rank (Mann-Whitney) statistic and cross-checked against
the trapezoidal ROC area.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import divergence as dv
from .core import Bag, Dataset, Label, PcaTransform, apply_pca, fit_pca
from .density import fit_kde, select_gmm, DensityModel
from .divergence import DivergenceSpec
from .seeds import derive_seed
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


@dataclass(frozen=True)
class SvmConfig:
    """Linear SVM training: passes over the training bags and the L2 weight."""

    epochs: int = 200
    lam: float = 1e-3

    def __post_init__(self):
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 1:
            raise ValueError(f"SvmConfig.epochs must be an integer >= 1, got {epochs!r}")
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"SvmConfig.lam must be positive and finite, got {self.lam!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """A classifier's settings: method, densities, divergences, optional PCA,
    threshold policy and, for ``svm_divs``, the SVM and its feature measure."""

    method: str = "ckl"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    spec: DivergenceSpec = field(default_factory=DivergenceSpec)
    pca_components: int | None = None
    threshold: str | float = "loocv"
    svm: SvmConfig = field(default_factory=SvmConfig)
    svm_measure: str = "ckl"

    def __post_init__(self):
        object.__setattr__(self, "method", normalize_method(self.method))
        measure = normalize_method(self.svm_measure, CLASS_METHODS, "svm_measure")
        object.__setattr__(self, "svm_measure", measure)


def fit_density_1d(
    samples: np.ndarray, estimator: EstimatorConfig, seed, pooled: bool = False
) -> DensityModel:
    """A GMM chosen by AIC, or a KDE whose rule-of-thumb bandwidth uses the
    robust spread for a bag and the plain sd for a ``pooled`` class sample
    (see ``silverman_bandwidth``)."""
    if estimator.kind == "gmm-aic":
        return select_gmm(samples, estimator.k_max, seed)[0]
    kernel = "EPANECHNIKOV" if estimator.kind == "kde-epan" else "GAUSSIAN"
    return fit_kde(samples, kernel, estimator.bandwidth, robust_sigma=not pooled)


def fit_class_densities(
    train: Dataset, estimator: EstimatorConfig, seed
) -> tuple[tuple[DensityModel, ...], tuple[DensityModel, ...]]:
    """One density per dimension per class, fitted to pooled class instances."""
    out = []
    for label in (Label.POS, Label.NEG):
        pooled = train.pooled_instances(label)
        if pooled.shape[0] == 0:
            raise ValueError(f"training set has no {label.name} bags")
        models = tuple(
            fit_density_1d(
                pooled[:, d], estimator, derive_seed(seed, "class", label.name, d), pooled=True
            )
            for d in range(train.dimension)
        )
        out.append(models)
    return out[0], out[1]


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
        values = _score_bags(bags, seeds, p.estimator, p.spec, refs, (method,), svm)[method]
        if not svm:
            return values
        # The margin is taken bag by bag: one matrix product over all bags may
        # round differently.
        mean, sd, w, b = self.scaler_mean, self.scaler_sd, self.svm_weights, self.svm_bias
        return [float((s - mean) / sd @ w + b) for s in values]


# --------------------------------------------------------------------------
# per-bag scoring

_REDUCERS = {
    "rd_kl": dv.reduce_kl, "rd_bh": dv.reduce_bh, "b2b_kl": dv.reduce_kl, "b2b_bh": dv.reduce_bh
}


def _bundle_scores(
    bag_models: tuple[DensityModel, ...],
    f_pos: tuple[DensityModel, ...],
    f_neg: tuple[DensityModel, ...],
    spec: DivergenceSpec,
    seed,
    methods: tuple[str, ...],
    train_bags: tuple[tuple[Label, tuple[DensityModel, ...]], ...] = (),
    per_dim: bool = False,
) -> dict:
    """Scores of one bag under every requested method, sharing evaluation points.

    Per dimension, the divergence core makes one point set (seed stream
    ``"dim"``) over the bag and every reference density, and every measure
    is reduced on it. Divergences are summed over dimensions before the rd
    ratio and the b2b minima are taken. With ``per_dim`` each method maps to
    its per-dimension values instead: the svm-divs features, drawn from the
    seed stream ``"feat"``.
    """
    train_pos = np.array([lab == Label.POS for lab, _ in train_bags], dtype=bool)
    need_class = any(m in CLASS_METHODS for m in methods)
    # Summed from 0.0 in dimension order; another order moves scores in the last bits.
    totals = dict.fromkeys(methods, 0.0)
    rows = []
    for d, fb_model in enumerate(bag_models):
        class_refs = (f_pos[d], f_neg[d])
        train_refs = tuple(models[d] for _, models in train_bags)
        child = derive_seed(seed, "feat" if per_dim else "dim", d)
        x, dx = dv.evaluation_points(fb_model, class_refs + train_refs, spec, child)
        fb, *f_train = dv.densities_at(
            x, (fb_model,) + (class_refs if need_class else ()) + train_refs
        )
        if need_class:
            fp, fn, *f_train = f_train
        terms = {}
        for m in methods:
            if m == "ckl":
                # The bag is compared to the negative class, conditioned on the
                # positive: minus the integral of (f_pos/f_neg) * f_bag *
                # log(f_bag/f_neg). Bag mass in positive-only coverage then
                # drives the score strongly down, mass in negative-only coverage
                # drives it up, and regions unseen by both classes contribute
                # nothing, which is what makes the method robust to sparse
                # training sets.
                terms[m] = -dv.reduce_ckl(fb, fn, fp, spec, dx).value
            else:
                against = (fp, fn) if m.startswith("rd") else f_train
                terms[m] = np.array([_REDUCERS[m](fb, fr, spec, dx).value for fr in against])
        if per_dim:
            rows.append({m: _finish(m, t, train_pos) for m, t in terms.items()})
        else:
            totals = {m: totals[m] + terms[m] for m in methods}
    if per_dim:
        return {m: np.array([row[m] for row in rows]) for m in methods}
    return {m: _finish(m, totals[m], train_pos) for m in methods}


def _finish(method: str, divs, train_pos: np.ndarray) -> float:
    """A method's score from its divergences (see ``_bundle_scores``)."""
    if method == "ckl":
        return divs
    if method.startswith("rd"):
        return float(dv.rd_value(divs[0], divs[1]))
    return float(divs[train_pos].min() - divs[~train_pos].min())


def _fit_bag_models(
    bag: Bag, estimator: EstimatorConfig, seed
) -> tuple[DensityModel, ...]:
    try:
        return tuple(
            fit_density_1d(bag.column(d), estimator, derive_seed(seed, "bagfit", d))
            for d in range(bag.dimension)
        )
    except ValueError as exc:
        raise ValueError(f"bag {bag.id!r}: {exc}") from exc


def _score_bags(bags, seeds, estimator, spec, refs, methods, per_dim=False) -> dict[str, list]:
    """Every bag's scores under each of ``methods``: one list per method.

    This is the one per-bag loop. Each bag's densities are fitted from its
    seed and scored by ``_bundle_scores`` against ``refs``, the class
    densities and the b2b training-bag densities.
    """
    f_pos, f_neg, train_bags = refs
    scores = {m: [] for m in methods}
    for bag, seed in zip(bags, seeds, strict=True):
        bag_models = _fit_bag_models(bag, estimator, seed)
        bundle = _bundle_scores(bag_models, f_pos, f_neg, spec, seed, methods, train_bags, per_dim)
        for m in methods:
            scores[m].append(bundle[m])
    return scores


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
    w = np.zeros(d)
    b = 0.0
    t = 0
    lam = config.lam
    for _ in range(config.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
    return w, b


def _fit_references(train: Dataset, estimator: EstimatorConfig, seed, b2b: bool):
    """Class densities and, for the b2b methods, every training bag's densities.

    Every training bag must be labelled: the class fits skip an unlabelled
    bag, but its training score would still count toward the threshold.
    """
    for bag in train.bags:
        if bag.label is None:
            raise ValueError(f"training bag {bag.id!r} is unlabelled")
    f_pos, f_neg = fit_class_densities(train, estimator, derive_seed(seed, "class-fit"))
    train_bags = tuple(
        (bag.label, _fit_bag_models(bag, estimator, derive_seed(seed, "b2b", bag.id)))
        for bag in (train.bags if b2b else ())
    )
    return f_pos, f_neg, train_bags


def fit_classifier(train: Dataset, pipeline: PipelineConfig, seed) -> ClassModel:
    """Fit the whole pipeline on a labelled training set.

    PCA, when configured, is fitted on the pooled training instances and
    the rest of the pipeline on the projected bags. A score method's
    threshold is chosen on the training bags' scores. ``svm_divs`` trains a
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
    measure = pipeline.svm_measure if svm else method
    stream = "train-bag" if svm else "train-score"
    seeds = [derive_seed(seed, stream, bag.id) for bag in train.bags]
    scores = _score_bags(
        train.bags, seeds, pipeline.estimator, pipeline.spec, refs, (measure,), per_dim=svm
    )[measure]
    if not svm:
        t = choose_threshold(scores, [bag.label for bag in train.bags], pipeline.threshold)
        return replace(model, threshold=t)
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


def choose_threshold(train_scores, train_labels, policy="loocv") -> float:
    """Threshold from training scores: LOOCV over midpoint candidates, or fixed.

    Candidates are the midpoints of consecutive sorted unique scores; the
    one maximizing leave-one-out accuracy wins, ties broken toward the
    median candidate (then toward the smaller one).
    """
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return float(policy)
    if isinstance(policy, str) and policy.lower().startswith("fixed:"):
        return float(policy.split(":", 1)[1])
    if not (isinstance(policy, str) and policy.lower() == "loocv"):
        raise ValueError(f"threshold policy must be 'loocv', 'fixed:<t>' or a number, got {policy!r}")
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
    provenance: dict = field(repr=False, default_factory=dict)

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


def _make_report(records, folds, provenance, fold_acc, fold_auc, seed) -> EvalReport:
    scores = [r[1] for r in records]
    labels = [int(r[2]) for r in records]
    preds = [int(r[3]) for r in records]
    pooled_auc = auc(scores, labels)
    roc = roc_points(scores, labels)
    acc = float(np.mean(fold_acc))
    acc_sd = float(np.std(fold_acc, ddof=1)) if len(fold_acc) > 1 else 0.0
    return EvalReport(
        scores=tuple(scores),
        labels=tuple(labels),
        predictions=tuple(preds),
        auc=pooled_auc,
        accuracy=acc,
        roc=roc,
        folds=folds,
        seed=seed,
        accuracy_sd=acc_sd,
        fold_accuracies=tuple(fold_acc),
        auc_fold_mean=(float(np.mean(fold_auc)) if fold_auc else None),
        bag_ids=tuple(r[0] for r in records),
        provenance=provenance,
    )


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


def _fit_and_score(train: Dataset, test: Dataset, pipeline: PipelineConfig, seed, run=()):
    """Fit the pipeline on ``train``, then score the ``test`` bags.

    Seeds derive from ``seed`` and the ``run`` labels: none for a holdout
    run, (repeat, fold) in cross-validation. Returns one record (bag id,
    score, label, prediction) per test bag and the accuracy.
    """
    model = fit_classifier(train, pipeline, derive_seed(seed, "fit", *run))
    scores = model.scores(test.bags, [derive_seed(seed, "score", *run, b.id) for b in test.bags])
    records = [
        (bag.id, s, int(bag.label), int(s < model.threshold)) for bag, s in zip(test.bags, scores)
    ]
    return records, accuracy_at(scores, [bag.label for bag in test.bags], model.threshold)


def cross_validate(
    data: Dataset, k_folds: int, pipeline: PipelineConfig, repeats: int = 1, seed=0
) -> EvalReport:
    """Repeated stratified k-fold CV at the bag level.

    PCA (when configured) and class densities are fitted inside training
    folds only; the report records the training bag ids behind every fold's
    fits so the hygiene is checkable. Accuracy is aggregated over
    repeats x folds; AUC pools all test-fold scores.
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
    records = []
    folds_map: dict[int, dict[str, int]] = {}
    provenance: dict[tuple[int, int], tuple[str, ...]] = {}
    fold_acc: list[float] = []
    fold_auc: list[float] = []
    for rep in range(repeats):
        rng = np.random.default_rng(derive_seed(seed, "folds", rep))
        assignment = _stratified_folds(bags, k_folds, rng)
        folds_map[rep] = {b.id: int(f) for b, f in zip(bags, assignment)}
        for fold in range(k_folds):
            train_bags = [b for b, f in zip(bags, assignment) if f != fold]
            test_bags = [b for b, f in zip(bags, assignment) if f == fold]
            fold_records, acc = _fit_and_score(
                data.replace_bags(train_bags), data.replace_bags(test_bags), pipeline, seed,
                (rep, fold),
            )
            provenance[(rep, fold)] = tuple(sorted(b.id for b in train_bags))
            records += fold_records
            fold_acc.append(acc)
            fold_labels = [r[2] for r in fold_records]
            if 0 < sum(fold_labels) < len(fold_labels):
                fold_auc.append(auc([r[1] for r in fold_records], fold_labels))
    return _make_report(records, folds_map, provenance, fold_acc, fold_auc, seed)


def evaluate_holdout(
    train: Dataset, test: Dataset, pipeline: PipelineConfig, seed=0
) -> EvalReport:
    """Fit on the training set, score a labelled held-out test set."""
    if any(b.label is None for b in test.bags):
        raise ValueError("holdout evaluation needs labelled test bags")
    records, acc = _fit_and_score(train, test, pipeline, seed)
    provenance = {(0, 0): tuple(sorted(b.id for b in train.bags))}
    return _make_report(records, {0: {b.id: 0 for b in test.bags}}, provenance, [acc], [], seed)


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
        seeds = [derive_seed(cell_seed, "bag", bag.id) for bag in test.bags]
        scores = _score_bags(test.bags, seeds, estimator, spec, refs, methods)
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

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
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

