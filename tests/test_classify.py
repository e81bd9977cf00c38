import concurrent.futures
from functools import lru_cache, partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from midiv.classify import (
    ESTIMATORS,
    METHODS,
    EstimatorConfig,
    PipelineConfig,
    SvmConfig,
    accuracy_at,
    auc,
    choose_threshold,
    cross_validate,
    evaluate_holdout,
    fit_class_densities,
    fit_classifier,
    normalize_method,
    roc_points,
    run_sim_study,
    score_bag,
    train_linear_svm,
)
from midiv import classify, density, seeds
from midiv.classify import CLASS_METHODS, EvalReport, _stratified_folds
from midiv.core import Bag, Dataset, Label
from midiv.density import DensityModel, _pdf_rows
from midiv import divergence as dv
from midiv.divergence import DivergenceSpec, ckl
from midiv.seeds import derive_seed
from midiv.simulate import SimConfig, sample_experiment

FAST_SPEC = DivergenceSpec(integrator="IMPORTANCE", n_imp=512)
POS, NEG = Label.POS, Label.NEG


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels, dtype=bool)
    s_pos, s_neg = scores[pos], scores[~pos]
    wins = ties = 0
    for sp in s_pos:
        for sn in s_neg:
            if sp < sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(s_pos) * len(s_neg))


class TestAuc:
    def test_perfect_order(self):
        assert auc([1, 2, 3, 4], [POS, POS, NEG, NEG]) == 1.0

    def test_reversed_order(self):
        assert auc([1, 2, 3, 4], [NEG, NEG, POS, POS]) == 0.0

    def test_tie_convention(self):
        assert auc([1, 1], [POS, NEG]) == 0.5

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            scores = rng.integers(0, 8, n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [POS, POS])

    # score granularity of 1e-3 keeps float transforms strictly monotone
    granular = st.integers(-50_000, 50_000).map(lambda v: v / 1000.0)

    @given(st.lists(granular, min_size=2, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_label_flip_maps_auc_to_complement(self, scores, data):
        labels = data.draw(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)).filter(
                lambda ls: any(ls) and not all(ls)
            )
        )
        a = auc(scores, labels)
        flipped = auc([-s for s in scores], [not l for l in labels])
        assert a == pytest.approx(flipped, abs=1e-12)

    @given(st.lists(granular, min_size=2, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_transform_invariance(self, scores, data):
        labels = data.draw(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)).filter(
                lambda ls: any(ls) and not all(ls)
            )
        )
        a = auc(scores, labels)
        assert auc(np.exp(np.asarray(scores) / 25.0), labels) == pytest.approx(a, abs=1e-12)
        assert auc(3.0 * np.asarray(scores) + 7.0, labels) == pytest.approx(a, abs=1e-12)


class TestRoc:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(30)
        labels = rng.integers(0, 2, 30).astype(bool)
        labels[0], labels[1] = True, False
        pts = roc_points(scores, labels)
        assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
        assert all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(pts, pts[1:]))

    def test_trapezoid_equals_mann_whitney(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            pts = roc_points(scores, labels)
            area = sum((x1 - x0) * (y1 + y0) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
            assert area == pytest.approx(auc(scores, labels), abs=1e-12)

    def test_report_of_a_million_tied_scores(self):
        # EvalReport checks the rank AUC against the trapezoidal ROC area to
        # 1e-12. On random scores their difference grows with the bag count:
        # at most 8.7e-15 at 1e5 scores and 2.8e-14 at 3e6 (three draws each).
        rng = np.random.default_rng(53)
        scores = np.round(rng.standard_normal(1_000_000), 2)
        labels = (rng.random(scores.size) < 0.37).astype(int)
        report = EvalReport(
            scores=tuple(scores.tolist()), labels=tuple(labels.tolist()), predictions=(),
            auc=auc(scores, labels), accuracy=0.0, roc=roc_points(scores, labels), folds={},
            seed=53,
        )
        assert 0.49 < report.auc < 0.51 and len(report.roc) < 2000

    def test_counts_match_per_score_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 80))
            scores = rng.integers(0, 10, n) / 4.0  # heavy ties
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            expected = [(0.0, 0.0)] + [
                (
                    float((scores[~labels] <= v).sum()) / int((~labels).sum()),
                    float((scores[labels] <= v).sum()) / int(labels.sum()),
                )
                for v in np.unique(scores)
            ]
            assert roc_points(scores, labels) == tuple(expected)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_points([0.1, float("nan"), 0.3], [POS, NEG, NEG])


class TestNanScores:
    # auc and choose_threshold used to return a number for NaN scores.
    def test_auc_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            auc([np.nan, 1.0, 2.0], [1, 0, 1])

    def test_choose_threshold_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            choose_threshold([np.nan, 1, 2, 3], [1, 0, 1, 0])

    def test_accuracy_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            accuracy_at([np.nan, 1.0, 2.0], [1, 0, 1], 1.5)

    def test_infinite_scores_still_accepted(self):
        assert auc([-np.inf, 1.0, np.inf], [1, 1, 0]) == 1.0
        assert choose_threshold([-np.inf, 0.0, 1.0, np.inf], [1, 1, 0, 0]) == 0.5


class TestChooseThreshold:
    def test_separated_scores_median_gap(self):
        scores = [1.0, 2.0, 10.0, 11.0]
        labels = [POS, POS, NEG, NEG]
        t = choose_threshold(scores, labels)
        # all three midpoints are perfect; the median candidate wins
        assert t == pytest.approx(6.0)
        assert accuracy_at(scores, labels, t) == 1.0

    def test_interleaved_matches_exhaustive_oracle(self):
        scores = [1.0, 2.0, 3.0, 4.0]
        labels = [POS, NEG, POS, NEG]
        candidates = [1.5, 2.5, 3.5]
        accs = [accuracy_at(scores, labels, t) for t in candidates]
        best = max(accs)
        t = choose_threshold(scores, labels)
        assert accuracy_at(scores, labels, t) == best
        assert t == 1.5  # ties toward the median candidate, then the smaller

    def test_chosen_threshold_beats_neighbors(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            uniq = np.unique(scores)
            candidates = (uniq[:-1] + uniq[1:]) / 2
            t = choose_threshold(scores, labels)
            idx = int(np.argmin(np.abs(candidates - t)))
            acc = accuracy_at(scores, labels, candidates[idx])
            for j in (idx - 1, idx + 1):
                if 0 <= j < len(candidates):
                    assert acc >= accuracy_at(scores, labels, candidates[j])

    def test_equals_per_candidate_accuracy_loop_with_ties(self):
        rng = np.random.default_rng(5)
        for trial in range(51):
            n = int(rng.integers(2, 120)) if trial < 50 else 5000
            scores = rng.integers(0, 12, n) / 8.0  # heavy ties
            labels = list(rng.choice([POS, NEG], n))
            uniq = np.unique(scores)
            if uniq.size == 1:
                continue
            candidates = (uniq[:-1] + uniq[1:]) / 2.0
            accs = np.array([accuracy_at(scores, labels, t) for t in candidates])
            best = np.flatnonzero(accs == accs.max())
            median_idx = (len(candidates) - 1) / 2.0
            winner = best[np.lexsort((best, np.abs(best - median_idx)))][0]
            assert choose_threshold(scores, labels) == float(candidates[winner])

    def test_needs_two_bags(self):
        with pytest.raises(ValueError):
            choose_threshold([1.0], [POS])


LABEL_CONTAINERS = {
    "Label": lambda mask: [POS if m else NEG for m in mask],
    "int": lambda mask: [int(m) for m in mask],
    "bool": lambda mask: [bool(m) for m in mask],
    "numpy-bool": lambda mask: np.asarray(mask, dtype=bool),
    "numpy-int": lambda mask: np.asarray(mask, dtype=np.int64),
}


class TestLabelContainers:
    @pytest.mark.parametrize("container", sorted(LABEL_CONTAINERS))
    def test_auc_and_threshold_agree(self, container):
        rng = np.random.default_rng(25)
        scores = rng.integers(0, 40, 300) / 4.0
        mask = rng.integers(0, 2, 300).astype(bool)
        labels = LABEL_CONTAINERS[container](mask)
        reference = LABEL_CONTAINERS["Label"](mask)
        assert auc(scores, labels) == auc(scores, reference) == brute_force_auc(scores, mask)
        assert choose_threshold(scores, labels) == choose_threshold(scores, reference)


def make_bag(values, label, bag_id="b"):
    return Bag(id=bag_id, instances=np.asarray(values, dtype=float), label=label)


def two_class_dataset(rng, n_pos=4, n_neg=4, n_inst=30, shift=4.0, d=1):
    bags = []
    for i in range(n_pos):
        bags.append(make_bag(rng.standard_normal((n_inst, d)) + shift, POS, f"pos{i}"))
    for i in range(n_neg):
        bags.append(make_bag(rng.standard_normal((n_inst, d)), NEG, f"neg{i}"))
    return Dataset(bags=tuple(bags), dimension=d)


class TestFitClassDensities:
    def test_pools_single_pos_bag(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((50, 1))
        ds = Dataset(
            bags=(make_bag(values, POS, "p"), make_bag(rng.standard_normal((10, 1)), NEG, "n")),
            dimension=1,
        )
        f_pos, _ = fit_class_densities(ds, EstimatorConfig())
        np.testing.assert_array_equal(np.sort(f_pos[0].centers), np.sort(values[:, 0]))

    def test_pools_across_bags(self):
        rng = np.random.default_rng(5)
        bags = [make_bag(rng.standard_normal((50, 1)), NEG, f"n{i}") for i in range(10)]
        bags.append(make_bag(rng.standard_normal((5, 1)), POS, "p"))
        ds = Dataset(bags=tuple(bags), dimension=1)
        _, f_neg = fit_class_densities(ds, EstimatorConfig())
        assert f_neg[0].centers.size == 500

    def test_per_dimension_models(self):
        rng = np.random.default_rng(6)
        ds = two_class_dataset(rng, d=2)
        f_pos, f_neg = fit_class_densities(ds, EstimatorConfig())
        assert len(f_pos) == 2 and len(f_neg) == 2
        pooled = ds.pooled_instances(POS)
        np.testing.assert_array_equal(np.sort(f_pos[1].centers), np.sort(pooled[:, 1]))

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(7)
        ds = Dataset(bags=(make_bag(rng.standard_normal((20, 1)), POS, "p"),), dimension=1)
        with pytest.raises(ValueError, match="NEG"):
            fit_class_densities(ds, EstimatorConfig())

    def test_failed_fit_names_its_class(self):
        # The error used to say only "bandwidth rule needs at least 2 samples".
        rng = np.random.default_rng(7)
        ds = Dataset(
            bags=(make_bag([[0.5]], POS, "p"), make_bag(rng.standard_normal((20, 1)), NEG, "n")),
            dimension=1,
        )
        with pytest.raises(ValueError, match="^class POS: bandwidth rule needs at least 2"):
            fit_class_densities(ds, EstimatorConfig())


class TestScoreBag:
    def test_bag_from_pos_distribution_scores_low(self):
        rng = np.random.default_rng(8)
        train = two_class_dataset(rng, n_pos=5, n_neg=5, n_inst=50, shift=6.0)
        model = fit_classifier(train, PipelineConfig("rd_kl", EstimatorConfig(), FAST_SPEC), seed=0)
        pos_bag = make_bag(rng.standard_normal((80, 1)) + 6.0, None, "probe")
        assert score_bag(model, pos_bag, seed=1) < 0.2

    def test_bag_identical_to_pos_training_bag_b2b(self):
        rng = np.random.default_rng(9)
        train = two_class_dataset(rng, n_pos=3, n_neg=3, n_inst=40, shift=5.0)
        pipeline = PipelineConfig("b2b_kl", EstimatorConfig(), FAST_SPEC)
        model = fit_classifier(train, pipeline, seed=0)
        clone = Bag(id="clone", instances=train.bags[0].instances, label=None)
        assert score_bag(model, clone, seed=2) < 0.0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        train = two_class_dataset(rng)
        model = fit_classifier(train, PipelineConfig("ckl", EstimatorConfig(), FAST_SPEC), seed=0)
        with pytest.raises(ValueError, match="dimension"):
            score_bag(model, make_bag(np.zeros((3, 2)), None, "wide"), seed=0)

    @pytest.mark.parametrize("pca_components", [None, 1])
    def test_wrong_input_dimension_names_bag(self, pca_components):
        # With PCA the model takes raw bags: the projected dimension is wrong too.
        rng = np.random.default_rng(27)
        train = two_class_dataset(rng, d=2)
        pipeline = PipelineConfig("ckl", spec=FAST_SPEC, pca_components=pca_components)
        model = fit_classifier(train, pipeline, seed=0)
        for width in (1, 3):
            bag = make_bag(np.zeros((3, width)), None, f"width-{width}")
            with pytest.raises(ValueError, match=f"'width-{width}' has dimension {width}"):
                score_bag(model, bag, seed=0)

    def test_density_failure_names_bag(self):
        rng = np.random.default_rng(11)
        train = two_class_dataset(rng)
        model = fit_classifier(train, PipelineConfig("ckl", EstimatorConfig(), FAST_SPEC), seed=0)
        single = make_bag([[0.5]], None, "tiny-bag")
        with pytest.raises(ValueError, match="tiny-bag"):
            score_bag(model, single, seed=0)

    def test_explicit_bandwidth_allows_single_instance(self):
        rng = np.random.default_rng(12)
        train = two_class_dataset(rng)
        est = EstimatorConfig(bandwidth=1.0)
        model = fit_classifier(train, PipelineConfig("ckl", est, FAST_SPEC), seed=0)
        assert np.isfinite(score_bag(model, make_bag([[0.5]], None, "one"), seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        train = two_class_dataset(rng)
        model = fit_classifier(train, PipelineConfig("rd_bh", EstimatorConfig(), FAST_SPEC), seed=0)
        probe = make_bag(rng.standard_normal((20, 1)), None, "p")
        assert score_bag(model, probe, seed=5) == score_bag(model, probe, seed=5)


class TestEstimatorConfig:
    @pytest.mark.parametrize("kind", ["kde_gauss", "KDE-EPAN", "gmm"])
    def test_only_listed_estimators(self, kind):
        with pytest.raises(ValueError, match="estimator"):
            EstimatorConfig(kind=kind)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("inf"), float("nan"), True])
    def test_rejects_non_positive_or_non_finite_bandwidth(self, bandwidth):
        # inf used to fail only after loading, -1 inside the first fit.
        with pytest.raises(ValueError, match="EstimatorConfig.bandwidth"):
            EstimatorConfig(bandwidth=bandwidth)

    @pytest.mark.parametrize("k_max", [0, -1, 2.5, True])
    def test_rejects_k_max_below_one_or_non_integer(self, k_max):
        # k_max=0 used to pass silently under kde-epan.
        with pytest.raises(ValueError, match="EstimatorConfig.k_max"):
            EstimatorConfig(k_max=k_max)

    def test_numpy_values_accepted(self):
        est = EstimatorConfig(bandwidth=np.float64(0.3), k_max=np.int64(3))
        assert (est.bandwidth, est.k_max) == (0.3, 3)


class TestPipelineConfig:
    @pytest.mark.parametrize("measure", ["b2b_kl", "svm-divs", "foo"])
    def test_invalid_svm_measure_rejected(self, measure):
        with pytest.raises(ValueError, match="svm_measure"):
            PipelineConfig(method="svm_divs", svm_measure=measure)

    @pytest.mark.parametrize("components", [0, -1, 1.5, True, "2"])
    def test_invalid_pca_components_rejected(self, components):
        # 0 used to fail later inside fit_pca without naming the setting; True fitted 1 component.
        with pytest.raises(ValueError, match="PipelineConfig.pca_components"):
            PipelineConfig(pca_components=components)

    def test_numpy_pca_components_accepted(self):
        assert PipelineConfig(pca_components=np.int64(2)).pca_components == 2

    def test_names_normalised(self):
        pipeline = PipelineConfig(method="SVM-Divs", svm_measure=" RD-KL")
        assert (pipeline.method, pipeline.svm_measure) == ("svm_divs", "rd_kl")

    @pytest.mark.parametrize(
        "given, stored",
        [("loocv", "loocv"), ("LOOCV", "loocv"), ("LooCV", "loocv"), ("fixed:0.5", 0.5),
         ("FIXED:-2", -2.0), (0.8, 0.8), (1, 1.0), (np.float64(0.25), 0.25)],
    )
    def test_threshold_spellings(self, given, stored):
        threshold = PipelineConfig("ckl", threshold=given).threshold
        assert threshold == stored and type(threshold) is type(stored)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "threshold",
        ["garbage", "fixed:abc", "fixed:", "fixed:nan", "fixed:inf", float("nan"), True, None],
    )
    def test_invalid_threshold_rejected(self, method, threshold):
        # svm-divs used to accept any policy; the score methods rejected it
        # only after the class densities were fitted.
        with pytest.raises(ValueError, match="threshold"):
            PipelineConfig(method, threshold=threshold)


class TestUnlabelledTrainingBags:
    """An unlabelled training bag is left out of the class fits but would
    still count toward the LOOCV threshold, so fitting rejects it."""

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_rejects_and_names_bag(self, method):
        rng = np.random.default_rng(24)
        stray = make_bag(rng.standard_normal((30, 1)) + 4.0, None, "stray-bag")
        train = Dataset(bags=two_class_dataset(rng).bags + (stray,), dimension=1)
        with pytest.raises(ValueError, match="stray-bag"):
            fit_classifier(train, PipelineConfig(method, EstimatorConfig(), FAST_SPEC), seed=0)


def _count_scored_bags(monkeypatch) -> list:
    """Every bag the score phase scores, in order: the rows of its blocks."""
    calls = []
    score_block = classify._score_block

    def counting(*args, **kwargs):
        calls.extend(args[0])
        return score_block(*args, **kwargs)

    monkeypatch.setattr(classify, "_score_block", counting)
    return calls


class TestFixedThreshold:
    @pytest.mark.parametrize("method", METHODS[:5])
    def test_scores_no_training_bag(self, method, monkeypatch):
        # A fixed threshold used to score every training bag and drop the scores.
        rng = np.random.default_rng(29)
        train = two_class_dataset(rng)
        if not method.startswith("b2b"):  # b2b fits every training bag as a reference
            train = Dataset(train.bags + (make_bag([[0.5]], NEG, "one"),), dimension=1)
        calls = _count_scored_bags(monkeypatch)
        pipeline = PipelineConfig(method, EstimatorConfig(), FAST_SPEC, threshold="fixed:0.5")
        model = fit_classifier(train, pipeline, seed=0)
        assert model.threshold == 0.5 and calls == []
        probes = [make_bag(rng.standard_normal((20, 1)), None, f"p{i}") for i in range(2)]
        model.scores(probes, [1, 2])
        assert len(calls) == 2

    def test_same_test_scores_as_loocv(self):
        rng = np.random.default_rng(31)
        train = two_class_dataset(rng)
        probes = [make_bag(rng.standard_normal((20, 1)), None, f"p{i}") for i in range(3)]
        scores = [
            fit_classifier(train, PipelineConfig("ckl", spec=FAST_SPEC, threshold=t), 0).scores(
                probes, [1, 2, 3]
            )
            for t in ("loocv", 0.0)
        ]
        assert scores[0] == scores[1]


class TestKdeFitsOnce:
    """A KDE fit does not read its seed: none is derived for it, and the b2b
    references are also the training bags' fits for the LOOCV threshold."""

    def test_b2b_fits_each_training_bag_once(self, monkeypatch):
        calls = []
        fit_kdes = classify._fit_kdes

        def spy(samples, *args, **kwargs):
            calls.extend(samples)
            return fit_kdes(samples, *args, **kwargs)

        monkeypatch.setattr(classify, "_fit_kdes", spy)
        train = two_class_dataset(np.random.default_rng(33), n_pos=3, n_neg=3)
        fit_classifier(train, PipelineConfig("b2b_kl", EstimatorConfig(), FAST_SPEC), seed=0)
        # two class fits and six bag fits; the bags used to be fitted twice (14)
        assert len(calls) == 8

    @pytest.mark.parametrize("kind", ESTIMATORS)
    def test_fit_phase_derives_no_seed(self, monkeypatch, kind):
        # A gmm-aic fit phase derived one seed per bag and dimension.
        calls = []
        derive = classify.derive_seed
        monkeypatch.setattr(classify, "derive_seed", lambda *a: calls.append(a) or derive(*a))
        bags = two_class_dataset(np.random.default_rng(34), n_pos=1, n_neg=1, d=2).bags
        classify._fit_bags(bags, EstimatorConfig(kind))
        assert calls == []


@lru_cache(maxsize=None)
def _order_case(method, kind):
    """A fitted model and six probe bags with their seeds."""
    rng = np.random.default_rng(32)
    train = two_class_dataset(rng, n_pos=3, n_neg=3, n_inst=20, shift=2.0)
    model = fit_classifier(train, PipelineConfig(method, EstimatorConfig(kind), FAST_SPEC), 0)
    probes = two_class_dataset(rng, n_pos=3, n_neg=3, n_inst=20, shift=2.0).bags
    return model, probes, tuple(derive_seed(5, b.id) for b in probes)


class TestOrderAndBatching:
    """Scores do not depend on the order the bags come in or on how they are batched."""

    @pytest.mark.parametrize("kind", ESTIMATORS)
    @pytest.mark.parametrize("method", METHODS)
    @given(order=st.permutations(range(6)), cut=st.integers(0, 6))
    @settings(max_examples=3, deadline=None)
    def test_shuffled_or_split_scores_are_score_bag_calls(self, method, kind, order, cut):
        model, bags, seeds = _order_case(method, kind)
        one_by_one = [score_bag(model, b, s) for b, s in zip(bags, seeds)]
        shuffled = model.scores([bags[i] for i in order], [seeds[i] for i in order])
        assert shuffled == [one_by_one[i] for i in order]
        split = model.scores(bags[:cut], seeds[:cut]) + model.scores(bags[cut:], seeds[cut:])
        assert split == one_by_one


DEFAULT_SCORE_BLOCK = classify._SCORE_BLOCK


def mixed_dataset(rng, n_pos=3, n_neg=3, d=2, prefix=""):
    """Labelled bags of 6 to 25 instances in ``d`` dimensions; bags of one size repeat."""
    sizes = [6, 25, 11, 6, 18, 11, 25, 9]
    bags = [
        make_bag(rng.standard_normal((sizes[i % 8], d)) + (1.5 if i < n_pos else 0.0),
                 POS if i < n_pos else NEG, f"{prefix}{i}")
        for i in range(n_pos + n_neg)
    ]
    return Dataset(bags=tuple(bags), dimension=d)


class _Gappy:
    """A bag density whose importance sample puts every fifth point far
    outside its support: the bag density is 0 there."""

    def __init__(self, model):
        self.model, self.support_hint = model, model.support_hint

    def sample(self, n, seed):
        x = self.model.sample(n, seed)
        x[::5] = self.support_hint[1] + 1e3
        return x

    def pdf(self, x):
        return self.model.pdf(x)


class _PdfOnly:
    """A class density that is not a ``DensityModel``: only ``pdf`` and
    ``support_hint``, as an exact class density has."""

    def __init__(self, model):
        self.pdf, self.support_hint = model.pdf, model.support_hint


class TestStackedScorePhase:
    """The score phase scores blocks of bags as rows: every score is the
    bits of a block of one bag."""

    @pytest.mark.parametrize("per_dim", [False, True])
    @pytest.mark.parametrize("integrator", ["IMPORTANCE", "RIEMANN"])
    @pytest.mark.parametrize("kind", ESTIMATORS)
    def test_blocks_equal_one_bag_blocks(self, kind, integrator, per_dim, monkeypatch):
        spec = DivergenceSpec(integrator=integrator, n_imp=128, grid_points=256)
        est = EstimatorConfig(kind)
        rng = np.random.default_rng(45)
        train = mixed_dataset(rng)
        probes = mixed_dataset(rng, 4, 4, prefix="p").bags
        refs = classify._fit_references(train, est, b2b=True)
        seeds = [derive_seed(2, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)
        fits[2] = tuple(_Gappy(m) for m in fits[2])
        assert (fits[2][0].pdf(fits[2][0].sample(spec.n_imp, 0)) == 0).any()
        assert DEFAULT_SCORE_BLOCK // spec.points > len(probes)  # one block holds them all
        methods = CLASS_METHODS if per_dim else METHODS[:5]

        def scores(block):
            monkeypatch.setattr(classify, "_SCORE_BLOCK", block)
            got = classify._score_bags(fits, seeds, spec, refs, methods, per_dim)
            return {m: [np.asarray(v).tolist() for v in got[m]] for m in methods}

        one_bag = scores(1)
        assert scores(DEFAULT_SCORE_BLOCK) == one_bag
        assert scores(3 * spec.points) == one_bag

    @given(
        lengths=st.lists(st.integers(2, 60), min_size=2, max_size=8),
        kind=st.sampled_from(["kde-epan", "kde-gauss"]),
        bandwidth=st.sampled_from([None, 0.3, 2.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_mixed_bag_lengths_equal_one_bag_blocks(self, lengths, kind, bandwidth, seed):
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=100)
        est = EstimatorConfig(kind, bandwidth)
        rng = np.random.default_rng(seed)
        train = mixed_dataset(rng, 3, 3, d=1)
        probes = [make_bag(rng.standard_normal((n, 1)) * rng.uniform(0.3, 3.0), POS, f"p{i}")
                  for i, n in enumerate(lengths)]
        refs = classify._fit_references(train, est, b2b=True)
        seeds = [derive_seed(seed, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)
        methods = METHODS[:5]

        def scores(block):
            with mock.patch.object(classify, "_SCORE_BLOCK", block):
                return classify._score_bags(fits, seeds, spec, refs, methods)

        one_bag = scores(1)
        assert scores(3 * spec.points) == one_bag
        assert scores(DEFAULT_SCORE_BLOCK) == one_bag

    @pytest.mark.parametrize("integrator", ["IMPORTANCE", "RIEMANN"])
    @pytest.mark.parametrize("kind", ESTIMATORS)
    def test_duck_typed_class_densities_score_as_the_models_they_wrap(self, kind, integrator):
        spec = DivergenceSpec(integrator=integrator, n_imp=128, grid_points=256)
        est = EstimatorConfig(kind)
        rng = np.random.default_rng(48)
        f_pos, f_neg, _ = classify._fit_references(mixed_dataset(rng), est, b2b=False)
        probes = mixed_dataset(rng, 4, 4, prefix="p").bags
        seeds = [derive_seed(2, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)
        ducks = tuple(tuple(_PdfOnly(m) for m in f) for f in (f_pos, f_neg))
        want = classify._score_bags(fits, seeds, spec, (f_pos, f_neg, ()), CLASS_METHODS)
        assert classify._score_bags(fits, seeds, spec, (*ducks, ()), CLASS_METHODS) == want

    @pytest.mark.parametrize("per_dim", [False, True])
    @pytest.mark.parametrize("kind", ["kde-epan", "kde-gauss"])
    def test_riemann_score_phase_derives_no_seed_and_draws_nothing(self, kind, per_dim,
                                                                   monkeypatch):
        # The score phase derived a "dim" or "feat" seed per bag and
        # dimension, which only importance draws read.
        rng = np.random.default_rng(50)
        est = EstimatorConfig(kind)
        refs = classify._fit_references(mixed_dataset(rng), est, b2b=True)
        probes = mixed_dataset(rng, 4, 4, prefix="p").bags
        seeds = [derive_seed(3, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)

        def forbidden(*args):
            raise AssertionError("called in a Riemann score phase")

        monkeypatch.setattr(classify, "derive_seed", forbidden)
        monkeypatch.setattr(DensityModel, "sample", forbidden)
        methods = CLASS_METHODS if per_dim else METHODS[:5]
        got = classify._score_bags(fits, seeds, DivergenceSpec(), refs, methods, per_dim)
        assert all(len(got[m]) == len(probes) for m in methods)

    @pytest.mark.parametrize("per_dim", [False, True])
    @pytest.mark.parametrize("kind", ["kde-epan", "kde-gauss"])
    def test_default_scores_each_bag_under_its_own_integrator(self, kind, per_dim):
        # Bags with an outlier in one dimension are sampled, the others put
        # on a grid; each scores as it does alone under its own integrator.
        rng = np.random.default_rng(51)
        est = EstimatorConfig(kind)
        refs = classify._fit_references(mixed_dataset(rng), est, b2b=True)
        probes = list(mixed_dataset(rng, 4, 4, prefix="p").bags)
        for i in (1, 4):
            x = rng.standard_normal((20, 2))
            x[0, i % 2] = 1e4
            probes.insert(i, make_bag(x, POS, f"o{i}"))
        seeds = [derive_seed(4, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)
        spec = DivergenceSpec()
        integrators = [spec.for_bag(models).integrator for models in fits]
        assert integrators.count("IMPORTANCE") == 2 and integrators[1] == integrators[4]
        methods = CLASS_METHODS if per_dim else METHODS[:5]
        got = classify._score_bags(fits, seeds, spec, refs, methods, per_dim)
        for i, models in enumerate(fits):
            alone = classify._score_bags([models], [seeds[i]], spec.for_bag(models), refs,
                                         methods, per_dim)
            for m in methods:
                assert np.asarray(got[m][i]).tolist() == np.asarray(alone[m][0]).tolist()

    @pytest.mark.parametrize("kind", ["kde-epan", "kde-gauss"])
    def test_kde_blocks_take_the_stacked_path(self, kind, monkeypatch):
        """Per-row calls would give the same bits, so only the calls tell:
        each bag is drawn by its own ``sample`` call, and an Epanechnikov
        block's bag densities are one ``_pdf_rows`` call, with no ``pdf``
        call per bag."""
        rng = np.random.default_rng(49)
        est = EstimatorConfig(kind)
        refs = classify._fit_references(mixed_dataset(rng, d=1), est, b2b=False)
        probes = mixed_dataset(rng, 4, 4, d=1, prefix="p").bags
        seeds = [derive_seed(3, b.id) for b in probes]
        fits = classify._fit_bags(probes, est)
        bags = [id(models[0]) for models in fits]
        calls = []  # (name, ids of the models it was called on)

        def spy(owner, name, models_of):
            function = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append((name, [id(m) for m in models_of(args)]))
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(DensityModel, "sample", lambda args: args[:1])
        spy(DensityModel, "pdf", lambda args: args[:1])
        spy(classify, "_pdf_rows", lambda args: args[0])
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=128)
        assert DEFAULT_SCORE_BLOCK // spec.points > len(probes)  # one block holds them all
        classify._score_bags(fits, seeds, spec, refs, ("ckl",))
        on_bags = [(name, ids) for name, ids in calls if set(ids) & set(bags)]
        drawn = [("sample", [b]) for b in bags]
        if kind == "kde-epan":
            assert on_bags == drawn + [("_pdf_rows", bags)]
        else:  # a Gaussian bag's density is its own pdf call
            assert on_bags == drawn + [("_pdf_rows", bags)] + [("pdf", [b]) for b in bags]

    @pytest.mark.parametrize("method", METHODS)
    def test_fitted_pipeline_equal_with_one_bag_blocks(self, method, monkeypatch):
        rng = np.random.default_rng(46)
        train = mixed_dataset(rng, 4, 4)
        probes = mixed_dataset(rng, 3, 3, prefix="p").bags
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=200)
        pipeline = PipelineConfig(method, EstimatorConfig("kde-gauss"), spec)

        def fit_and_score(block):
            monkeypatch.setattr(classify, "_SCORE_BLOCK", block)
            model = fit_classifier(train, pipeline, seed=3)
            weights = None if model.svm_weights is None else model.svm_weights.tolist()
            seeds = [derive_seed(4, b.id) for b in probes]
            return model.threshold, weights, model.scores(probes, seeds)

        assert fit_and_score(DEFAULT_SCORE_BLOCK) == fit_and_score(1)

    @pytest.mark.parametrize("d", [2, 5])
    def test_svm_margin_does_not_depend_on_the_bags_scored_with_it(self, d):
        # A matrix product over all bags would round each margin by the rows around it.
        rng = np.random.default_rng(47)
        train = mixed_dataset(rng, 4, 4, d=d)
        probes = mixed_dataset(rng, 8, 8, d=d, prefix="p").bags
        pipeline = PipelineConfig("svm_divs", EstimatorConfig("kde-gauss"), FAST_SPEC)
        model = fit_classifier(train, pipeline, seed=3)
        seeds = [derive_seed(4, b.id) for b in probes]
        alone = [model.scores([bag], [seed])[0] for bag, seed in zip(probes, seeds)]
        assert model.scores(probes, seeds) == alone


class TestOneScoringPath:
    """Held-out and study scores are the public score_bag's, bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    def test_holdout_scores_are_score_bag_calls(self, method):
        train, test = sample_experiment(SimConfig.preset("sim1", n_instances=20), 3, 3, 6, seed=8)
        est, seed = EstimatorConfig(), 4
        pipeline = PipelineConfig(method, est, FAST_SPEC)
        report = evaluate_holdout(train, test, pipeline, seed=seed)
        model = fit_classifier(train, pipeline, derive_seed(seed, "fit"))
        expected = [score_bag(model, b, derive_seed(seed, "score", b.id)) for b in test.bags]
        assert report.scores == tuple(expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_pca_holdout_scores_are_score_bag_calls_on_raw_bags(self, method):
        rng = np.random.default_rng(26)
        train = two_class_dataset(rng, n_pos=3, n_neg=3, n_inst=20, shift=2.0, d=2)
        test = two_class_dataset(rng, n_pos=3, n_neg=3, n_inst=20, shift=2.0, d=2)
        pipeline = PipelineConfig(method, EstimatorConfig(), FAST_SPEC, pca_components=1)
        report = evaluate_holdout(train, test, pipeline, seed=4)
        model = fit_classifier(train, pipeline, derive_seed(4, "fit"))
        assert model.pca.input_dimension == 2 and model.dimension == 1
        expected = [score_bag(model, b, derive_seed(4, "score", b.id)) for b in test.bags]
        assert report.scores == tuple(expected)

    def test_study_aucs_are_score_bag_aucs(self):
        config = SimConfig.preset("sim1", n_instances=20)
        methods = ("rd_bh", "rd_kl", "ckl", "b2b_kl", "b2b_bh")
        res = run_sim_study(
            config, grid=((2, 3),), repetitions=1, methods=methods, seed=7, spec=FAST_SPEC,
            n_test=8,
        )
        cell_seed = derive_seed(7, "sim1", 2, 3, 0)
        train, test = sample_experiment(config, 2, 3, 8, cell_seed)
        labels = [b.label for b in test.bags]
        for m in methods:
            pipeline = PipelineConfig(m, EstimatorConfig(), FAST_SPEC, threshold=0.0)
            model = fit_classifier(train, pipeline, cell_seed)
            scores = [score_bag(model, b, derive_seed(cell_seed, "bag", b.id)) for b in test.bags]
            assert res.cells[0].rep_aucs[m] == (auc(scores, labels),), m


class TestScoreBagMatchesPublicDivergences:
    """The classifier and the public divergence functions share one estimator."""

    @pytest.mark.parametrize("integrator", ["IMPORTANCE", "RIEMANN"])
    @pytest.mark.parametrize("kind", ESTIMATORS)
    def test_one_dimensional_scores_equal_exactly(self, kind, integrator):
        spec = DivergenceSpec(integrator=integrator, n_imp=200, grid_points=512)
        est = EstimatorConfig(kind=kind)
        train, test = sample_experiment(SimConfig.preset("sim1", n_instances=30), 3, 3, 4, seed=5)
        for method in ("rd_kl", "rd_bh", "ckl"):
            model = fit_classifier(train, PipelineConfig(method, est, spec, threshold=0.0), seed=11)
            f_pos, f_neg = model.f_pos[0], model.f_neg[0]
            for i, bag in enumerate(test.bags):
                s = derive_seed(3, i)
                bag_model = classify._fit_bags([bag], est)[0][0]
                points_seed = derive_seed(s, "dim", 0)
                if method == "ckl":
                    expected = -ckl(bag_model, f_neg, f_pos, spec, points_seed).value
                else:
                    reduce = dv.reduce_kl if method == "rd_kl" else dv.reduce_bh
                    x, dx = dv.evaluation_rows([bag_model], spec, [points_seed])
                    fb, fp, fn = _pdf_rows([bag_model], x), f_pos.pdf(x), f_neg.pdf(x)
                    expected = dv.rd_value(
                        reduce(fb, fp, spec, dx).value[0], reduce(fb, fn, spec, dx).value[0]
                    )
                assert score_bag(model, bag, s) == expected, (method, bag.id)

    @pytest.mark.parametrize("integrator", [None, "IMPORTANCE"])
    def test_ckl_score_is_minus_ckl_against_the_negative_class(self, integrator):
        # The classifier's cKL takes the negative class as reference and the
        # positive as weighting; the public ckl names both roles.
        spec = DivergenceSpec(integrator=integrator, n_imp=200)
        est = EstimatorConfig()
        train, test = sample_experiment(SimConfig.preset("sim1", n_instances=30), 3, 3, 4, seed=6)
        model = fit_classifier(train, PipelineConfig("ckl", est, spec, threshold=0.0), seed=12)
        for i, bag in enumerate(test.bags):
            s = derive_seed(5, i)
            f_bag = classify._fit_bags([bag], est)[0][0]
            points_seed = derive_seed(s, "dim", 0)
            named = ckl(f_bag, f_ref=model.f_neg[0], f_weight=model.f_pos[0], spec=spec,
                        seed=points_seed)
            assert score_bag(model, bag, s) == -named.value, bag.id


class TestSvmConfig:
    @pytest.mark.parametrize("lam", [0.0, -1e-3, float("inf"), float("nan"), True, "0.1", None])
    def test_rejects_non_positive_or_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="SvmConfig.lam"):
            SvmConfig(lam=lam)

    @pytest.mark.parametrize("epochs", [0, -1, 2.5, True])
    def test_rejects_epochs_below_one_or_non_integer(self, epochs):
        with pytest.raises(ValueError, match="SvmConfig.epochs"):
            SvmConfig(epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        assert SvmConfig(epochs=np.int64(3)).epochs == 3


def svm_oracle(features, labels, config, seed):
    """``train_linear_svm`` on numpy arrays, step by step, and every margin it took."""
    x = np.asarray(features, dtype=float)
    y = np.where(np.asarray(labels, dtype=bool), -1.0, 1.0)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = 0.0
    t = 0
    margins = []
    for _ in range(config.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (config.lam * t)
            margin = y[i] * (x[i] @ w + b)
            margins.append(margin)
            w *= 1.0 - eta * config.lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
    return w, b, np.array(margins)


class TestLinearSvmBits:
    """The Python-float loop gives the numpy loop's weights bit for bit."""

    def test_random_problems(self):
        rng = np.random.default_rng(40)
        for seed in range(200):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 9))
            x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
            y = rng.random(n) < 0.5
            config = SvmConfig(epochs=int(rng.integers(1, 40)), lam=float(10 ** rng.uniform(-3, 1)))
            w, b = train_linear_svm(x, y, config, seed)
            want_w, want_b, _ = svm_oracle(x, y, config, seed)
            assert np.array_equal(w, want_w) and b == want_b, seed

    def test_margins_within_the_rounding_bound(self):
        # Two bags of one label at lam = 1: the first step sets w = y x and
        # b = y, so the second margin is 1 + x . x' in either order. With
        # x = (1, v) and x' = (-fl(u v), u) a sequential dot gives exactly 1.
        # A dot with a fused multiply-add, as numpy's is on x86-64 with FMA,
        # gives 1 less the rounding error of u v, below 1 for about one pair
        # in five; there the numpy loop takes a step that a sequential dot
        # would skip.
        rng = np.random.default_rng(41)
        near = 0
        for seed in range(40):
            u, v = rng.uniform(0.5, 2.0, 2).tolist()
            x = np.array([[1.0, v], [-(u * v), u]])
            config = SvmConfig(epochs=3, lam=1.0)
            w, b = train_linear_svm(x, [True, True], config, seed)
            want_w, want_b, margins = svm_oracle(x, [True, True], config, seed)
            assert np.array_equal(w, want_w) and b == want_b, seed
            near += abs(margins[1] - 1.0) < 1e-15
        assert near == 40


class TestLinearSvm:
    def test_separable_training_accuracy(self):
        x = np.array([[0.0, 0.0]] * 20 + [[4.0, 4.0]] * 20)
        y = np.array([True] * 20 + [False] * 20)
        mean, sd = x.mean(0), np.where(x.std(0) > 0, x.std(0), 1.0)
        w, b = train_linear_svm((x - mean) / sd, y, SvmConfig(), seed=0)
        margins = (x - mean) / sd @ w + b
        assert np.all((margins < 0) == y)

    def test_no_signal_gives_flat_model(self):
        x = np.ones((40, 2))
        y = np.array([True, False] * 20)
        w, b = train_linear_svm(x - x.mean(0), y, SvmConfig(), seed=0)
        np.testing.assert_allclose(w, 0.0, atol=1e-12)
        margins = (x - x.mean(0)) @ w + b
        preds = margins < 0
        assert np.all(preds == preds[0])  # constant predictions
        assert np.mean(preds == y) == pytest.approx(0.5)

    def test_huge_regularization_kills_weights(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((30, 3))
        y = rng.integers(0, 2, 30).astype(bool)
        w, _ = train_linear_svm(x, y, SvmConfig(lam=1e9), seed=0)
        assert np.linalg.norm(w) < 1e-6

    def test_svm_on_divergences_separates_shifted_classes(self):
        rng = np.random.default_rng(15)
        train = two_class_dataset(rng, n_pos=6, n_neg=6, n_inst=40, shift=6.0, d=2)
        model = fit_classifier(
            train,
            PipelineConfig(
                "svm_divs", EstimatorConfig("kde-gauss"), FAST_SPEC, svm=SvmConfig(),
                svm_measure="ckl",
            ),
            seed=0,
        )
        assert model.svm_weights.shape == (2,)
        correct = 0
        for bag in train.bags:
            s = score_bag(model, bag, seed=3)
            correct += (s < 0) == (bag.label == POS)
        assert correct >= 10  # 12 training bags, near-separable features


class TestCrossValidate:
    def test_leave_one_bag_out_fold_count(self):
        rng = np.random.default_rng(16)
        data = two_class_dataset(rng, n_pos=5, n_neg=5, shift=5.0)
        pipeline = PipelineConfig(method="ckl", spec=FAST_SPEC)
        report = cross_validate(data, 10, pipeline, repeats=1, seed=0)
        folds = set(report.folds[0].values())
        assert folds == set(range(10))
        assert len(report.scores) == 10

    def test_repeats_aggregate(self):
        rng = np.random.default_rng(17)
        data = two_class_dataset(rng, n_pos=4, n_neg=4, shift=5.0)
        pipeline = PipelineConfig(method="rd_kl", spec=FAST_SPEC)
        report = cross_validate(data, 2, pipeline, repeats=3, seed=0)
        assert len(report.fold_accuracies) == 6
        assert len(report.scores) == 24  # every bag scored once per repeat
        assert 0.0 <= report.auc <= 1.0
        assert report.accuracy_sd >= 0.0

    def test_fold_assignment_deterministic(self):
        rng = np.random.default_rng(18)
        data = two_class_dataset(rng)
        pipeline = PipelineConfig(method="ckl", spec=FAST_SPEC)
        r1 = cross_validate(data, 4, pipeline, repeats=2, seed=9)
        r2 = cross_validate(data, 4, pipeline, repeats=2, seed=9)
        assert r1.folds == r2.folds and r1.scores == r2.scores

    def test_fold_hygiene_fits_exactly_the_bags_outside_the_fold(self, monkeypatch):
        # Every fit, PCA included, sees the bags outside its fold and no other.
        fitted = []

        def spy(train, pipeline, seed):
            fitted.append({b.id for b in train.bags})
            return fit_classifier(train, pipeline, seed)

        monkeypatch.setattr(classify, "fit_classifier", spy)
        rng = np.random.default_rng(19)
        data = two_class_dataset(rng, n_pos=4, n_neg=4)
        pipeline = PipelineConfig(method="ckl", spec=FAST_SPEC, pca_components=1)
        report = cross_validate(data, 4, pipeline, repeats=2, seed=0)
        assert len(fitted) == 2 * 4  # one fit per (rep, fold), rep-major
        for rep, assignment in report.folds.items():
            for fold in range(4):
                outside = {bag_id for bag_id, f in assignment.items() if f != fold}
                assert fitted[rep * 4 + fold] == outside

    def test_stratification_keeps_classes_in_folds(self):
        rng = np.random.default_rng(20)
        data = two_class_dataset(rng, n_pos=6, n_neg=6)
        pipeline = PipelineConfig(method="ckl", spec=FAST_SPEC)
        report = cross_validate(data, 3, pipeline, repeats=1, seed=0)
        by_fold = {}
        labels = {b.id: b.label for b in data.bags}
        for bag_id, fold in report.folds[0].items():
            by_fold.setdefault(fold, []).append(labels[bag_id])
        for members in by_fold.values():
            assert POS in members and NEG in members

    def test_class_with_one_bag_rejected(self):
        rng = np.random.default_rng(21)
        data = two_class_dataset(rng, n_pos=1, n_neg=5)
        with pytest.raises(ValueError, match="at least 2"):
            cross_validate(data, 2, PipelineConfig(spec=FAST_SPEC), seed=0)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected(self, repeats):
        # Zero repeats used to fail later with "AUC needs both classes present".
        data = two_class_dataset(np.random.default_rng(28))
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            cross_validate(data, 2, PipelineConfig(spec=FAST_SPEC), repeats=repeats, seed=0)

    @given(st.integers(2, 12), st.integers(2, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_stratified_folds_fill_every_fold_and_keep_both_classes(self, n_pos, n_neg, data):
        n = n_pos + n_neg
        k = data.draw(st.integers(2, n), label="k")
        labels = data.draw(st.permutations([POS] * n_pos + [NEG] * n_neg), label="labels")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        bags = [make_bag([[0.0]], label, f"b{i}") for i, label in enumerate(labels)]
        assignment = _stratified_folds(bags, k, np.random.default_rng(seed))
        assert set(assignment.tolist()) == set(range(k))
        for fold in range(k):
            assert {b.label for b, f in zip(bags, assignment) if f != fold} == {POS, NEG}

    def test_unlabelled_bag_rejected(self):
        rng = np.random.default_rng(22)
        bags = two_class_dataset(rng).bags + (make_bag(rng.standard_normal((5, 1)), None, "u"),)
        data = Dataset(bags=bags, dimension=1)
        with pytest.raises(ValueError, match="labelled"):
            cross_validate(data, 2, PipelineConfig(spec=FAST_SPEC), seed=0)


class TestEvaluateHoldout:
    def test_report_fields_consistent(self):
        cfg = SimConfig.preset("sim1", n_instances=30)
        train, test = sample_experiment(cfg, 3, 3, 20, seed=4)
        pipeline = PipelineConfig(method="ckl", spec=FAST_SPEC)
        report = evaluate_holdout(train, test, pipeline, seed=0)
        assert len(report.scores) == 20 and len(report.predictions) == 20
        assert report.roc[0] == (0.0, 0.0) and report.roc[-1] == (1.0, 1.0)
        assert 0.0 <= report.auc <= 1.0
        assert report.fold_accuracies == (report.accuracy,) and report.auc_fold_mean is None
        doc = report.to_json_dict()
        assert set(doc) >= {"scores", "labels", "auc", "accuracy", "roc", "folds", "seed"}


class TestLabelsHashedWhenRead:
    """A per-bag seed label is hashed the first time a seed is derived from
    it: a bag that draws nothing hashes none."""

    @pytest.mark.parametrize("kind, integrator, read", [
        ("kde-epan", None, False), ("kde-epan", "IMPORTANCE", True), ("gmm-aic", None, True)])
    def test_holdout_hashes_one_label_per_bag_that_reads_its_seed(
            self, kind, integrator, read, monkeypatch):
        train, test = sample_experiment(SimConfig.preset("sim2", n_instances=10), 4, 4, 10, seed=6)
        spec = DivergenceSpec(integrator=integrator, n_imp=128)
        pipeline = PipelineConfig("ckl", EstimatorConfig(kind), spec)
        want = evaluate_holdout(train, test, pipeline, seed=3)
        hashed = []
        entropy = seeds._entropy
        monkeypatch.setattr(seeds, "_entropy", lambda parts: hashed.append(parts) or entropy(parts))
        got = evaluate_holdout(train, test, pipeline, seed=3)
        assert got == want
        labels = sorted(p[-1] for p in hashed if p[1:2] in (("score",), ("train-score",)))
        bags = [b.id for b in train.bags + test.bags]
        if read:
            assert labels == sorted(bags)
        else:  # every bag of this default run is on its grid
            fits = classify._fit_bags(test.bags, pipeline.estimator)
            assert {spec.for_bag(m).integrator for m in fits} == {"RIEMANN"}
            assert labels == []


class TestRunSimStudy:
    def test_structure_and_determinism(self):
        cfg = SimConfig.preset("sim1", n_instances=20)
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=256)
        a = run_sim_study(cfg, grid=((2, 3),), repetitions=2, seed=5, spec=spec, n_test=10)
        b = run_sim_study(cfg, grid=((2, 3),), repetitions=2, seed=5, spec=spec, n_test=10)
        assert a.cells[0].mean_auc == b.cells[0].mean_auc
        assert set(a.cells[0].mean_auc) == {"rd_bh", "rd_kl", "ckl"}
        assert len(a.cells[0].rep_aucs["ckl"]) == 2

    def test_b2b_methods_supported(self):
        cfg = SimConfig.preset("sim1", n_instances=20)
        spec = DivergenceSpec(integrator="IMPORTANCE", n_imp=256)
        res = run_sim_study(
            cfg, grid=((2, 2),), repetitions=1, methods=("b2b_kl", "b2b_bh"), seed=1,
            spec=spec, n_test=8,
        )
        for m in ("b2b_kl", "b2b_bh"):
            assert 0.0 <= res.cells[0].mean_auc[m] <= 1.0

    @pytest.mark.parametrize(
        "kwargs", [{"repetitions": 0}, {"repetitions": -2}, {"n_test": 1}, {"n_test": 0}]
    )
    def test_empty_study_rejected_naming_setting(self, kwargs):
        # repetitions=0 used to give NaN mean AUCs; n_test=1 failed in auc().
        (setting,) = kwargs
        with pytest.raises(ValueError, match=f"{setting} must be at least"):
            run_sim_study(SimConfig.preset("sim1"), grid=((2, 2),), seed=0, **kwargs)

    @pytest.mark.parametrize("methods", [("ckl", "ckl"), ("ckl", "CKL"), ("rd-kl", "ckl", "RD_KL")])
    def test_repeated_method_rejected_before_sampling(self, methods, monkeypatch):
        # Used to run the whole study, then fail in auc() with a boolean index error.
        def no_sampling(*args):
            raise AssertionError("sampled before the methods were checked")

        monkeypatch.setattr(classify, "sample_experiment", no_sampling)
        repeated = normalize_method(methods[-1])
        with pytest.raises(ValueError, match=f"methods lists {repeated} more than once"):
            run_sim_study(SimConfig.preset("sim1"), grid=((2, 2),), methods=methods, seed=0)

    def test_workers_capped_at_cell_count(self, monkeypatch):
        # The pool used to start MIDIV_THREADS processes whatever the grid size.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        study = partial(
            run_sim_study, SimConfig.preset("sim1", n_instances=10), grid=((1, 2), (2, 1)),
            repetitions=1, seed=0, spec=DivergenceSpec(integrator="IMPORTANCE", n_imp=128),
            n_test=4,
        )
        pooled = study(max_workers=64)
        assert started == [2]
        assert pooled == study(max_workers=1)

    def test_real_pool_matches_serial(self, monkeypatch):
        # The other pool tests run one cell or a serial fake and start no process.
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __exit__(self, *exc):
                started.append(len(self._processes))
                return super().__exit__(*exc)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        study = partial(
            run_sim_study, SimConfig.preset("sim1", n_instances=10), grid=((1, 2), (2, 1)),
            repetitions=1, seed=0, spec=DivergenceSpec(integrator="IMPORTANCE", n_imp=128),
            n_test=4,
        )
        assert study(max_workers=2) == study(max_workers=1)
        assert started == [2]

    def test_svm_not_a_study_method(self):
        cfg = SimConfig.preset("sim1")
        with pytest.raises(ValueError, match="svm"):
            run_sim_study(cfg, grid=((2, 2),), repetitions=1, methods=("svm_divs",), seed=0)


class TestScoreOrderingConvention:
    def test_label_flip_complements_auc_exactly(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(4, 60))
            scores = rng.integers(1, 12, n) / 4.0  # positive, with ties
            labels = rng.integers(0, 2, n).astype(bool)
            if labels.all() or not labels.any():
                continue
            a = auc(scores, labels)
            assert auc(scores, ~labels) == pytest.approx(1.0 - a, abs=1e-12)
            # swapping class roles in a ratio score reciprocates it
            assert auc(1.0 / scores, ~labels) == pytest.approx(a, abs=1e-12)
            # for difference-style scores the swap negates
            assert auc(-scores, ~labels) == pytest.approx(a, abs=1e-12)

    def test_label_flip_complements_auc_for_rd(self):
        # scoring with classes swapped inverts the ranking direction
        rng = np.random.default_rng(23)
        cfg = SimConfig.preset("sim1", n_instances=30)
        train, test = sample_experiment(cfg, 4, 4, 20, seed=11)
        est = EstimatorConfig()
        model = fit_classifier(train, PipelineConfig("rd_kl", est, FAST_SPEC), seed=0)
        swapped = Dataset(
            bags=tuple(
                Bag(id=b.id, instances=b.instances, label=POS if b.label == NEG else NEG)
                for b in train.bags
            ),
            dimension=1,
        )
        model_swapped = fit_classifier(swapped, PipelineConfig("rd_kl", est, FAST_SPEC), seed=0)
        scores = [score_bag(model, b, seed=i) for i, b in enumerate(test.bags)]
        scores_swapped = [score_bag(model_swapped, b, seed=i) for i, b in enumerate(test.bags)]
        labels = [b.label for b in test.bags]
        flipped_labels = [POS if l == NEG else NEG for l in labels]
        a = auc(scores, labels)
        b = auc(scores_swapped, flipped_labels)
        # swapping roles turns the ratio into its reciprocal; AUC complements
        assert a == pytest.approx(1.0 - auc(scores_swapped, labels), abs=0.25)
        assert b == pytest.approx(a, abs=0.25)


class TestGmmFitsReadNoOrderAndNoSeed:
    """Under gmm-aic every fit is a function of its sample's multiset and
    reads no seed. The k-means++ starts this replaced picked values by their
    index in file order, from seeds derived from the run seed."""

    @given(scenario=st.sampled_from(["sim1", "sim2", "sim3", "sim4", "sim5", "sim6"]),
           seed=st.integers(0, 999), method=st.sampled_from(METHODS),
           integrator=st.sampled_from([None, "RIEMANN"]), within=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_holdout_scores_ignore_the_order_of_training_instances_and_bags(
            self, scenario, seed, method, integrator, within):
        # The SVM takes its training bags in order, so svm-divs is checked on
        # shuffled instances only.
        assume(within or method != "svm_divs")
        train, test = sample_experiment(SimConfig.preset(scenario, n_instances=20), 3, 3, 6, seed)
        rng = np.random.default_rng(seed)
        if within:
            bags = [Bag(b.id, b.instances[rng.permutation(len(b.instances))], b.label)
                    for b in train.bags]
        else:
            bags = [train.bags[i] for i in rng.permutation(len(train.bags))]
        pipeline = PipelineConfig(method, EstimatorConfig("gmm-aic"),
                                  DivergenceSpec(integrator=integrator))
        want = evaluate_holdout(train, test, pipeline, seed=1)
        got = evaluate_holdout(train.replace_bags(bags), test, pipeline, seed=1)
        assert np.array_equal(np.array(got.scores).view(np.int64), np.array(want.scores).view(np.int64))

    def test_classifier_fits_the_same_densities_under_any_seed(self):
        train, _ = sample_experiment(SimConfig.preset("sim3", n_instances=20), 3, 3, 2, seed=4)
        pipeline = PipelineConfig("b2b_kl", EstimatorConfig("gmm-aic"))
        a, b = (fit_classifier(train, pipeline, seed) for seed in (1, 2))
        models = [(m.f_pos + m.f_neg + sum((fits for _, fits in m.train_bags), ())) for m in (a, b)]
        assert len(models[0]) == len(models[1]) == 2 + len(train.bags)
        for x, y in zip(*models):
            assert np.array_equal(x.components.view(np.int64), y.components.view(np.int64))
