"""Qualitative property certification of the three divergence measures.

The scenarios are exact piecewise-constant densities, so every subregion
contribution is a finite sum and the pass/fail verdicts are decisive:
P1 must hold for KL and CKL but not BH, P2 for all three, and P3 only for
CKL. The KL and CKL terms are the scorer's own, floored and unclipped.
"""

import dataclasses

import numpy as np
import pytest

from midiv.divergence import (
    _UNCLIPPED,
    MEASURES,
    DivergenceSpec,
    PropertyScenario,
    _property_terms,
    check_property,
    default_scenario,
    p1_scenario,
    p2_scenario,
    p3_scenario,
    reduce_ckl,
    reduce_kl,
)


class TestPropertyPattern:
    def test_p1_pattern(self):
        report = check_property("P1", default_scenario("P1"))
        assert report.passed == {"KL": True, "BH": False, "CKL": True}

    def test_p2_pattern(self):
        report = check_property("P2", default_scenario("P2"))
        assert report.passed == {"KL": True, "BH": True, "CKL": True}

    def test_p3_pattern(self):
        report = check_property("P3", default_scenario("P3"))
        assert report.passed == {"KL": False, "BH": False, "CKL": True}

    def test_full_pattern_matrix(self):
        expected = {
            "P1": {"KL": True, "BH": False, "CKL": True},
            "P2": {"KL": True, "BH": True, "CKL": True},
            "P3": {"KL": False, "BH": False, "CKL": True},
        }
        got = {p: check_property(p, default_scenario(p)).passed for p in expected}
        assert got == expected


class TestTrends:
    def test_p1_kl_share_grows_to_dominate(self):
        report = check_property("P1", p1_scenario())
        shares = report.trends["KL"]["share"]
        assert all(b >= a - 1e-9 for a, b in zip(shares, shares[1:]))
        assert shares[-1] >= 0.95

    def test_p1_bh_share_plateaus_below_dominance(self):
        report = check_property("P1", p1_scenario())
        assert report.trends["BH"]["share"][-1] < 0.95

    def test_p1_mirror_region_never_dominates(self):
        report = check_property("P1", p1_scenario())
        for measure in MEASURES:
            assert abs(report.trends[measure]["mirror_share"][-1]) <= 0.05

    def test_p2_contributions_vanish(self):
        report = check_property("P2", p2_scenario())
        for measure in MEASURES:
            contribs = report.trends[measure]["contribution"]
            assert abs(contribs[-1]) <= 1e-3

    def test_p3_kl_contribution_diverges(self):
        report = check_property("P3", p3_scenario())
        contribs = report.trends["KL"]["contribution"]
        assert contribs[-1] > contribs[0] > 0

    def test_p3_bh_contribution_stays_bounded_away_from_zero(self):
        report = check_property("P3", p3_scenario())
        assert report.trends["BH"]["contribution"][-1] > 0.1

    def test_p3_ckl_contribution_vanishes(self):
        report = check_property("P3", p3_scenario())
        assert abs(report.trends["CKL"]["contribution"][-1]) < 1e-6


class TestScorerTerms:
    """The certified terms are the scorer's: summed over a scenario's bins
    they give ``reduce_kl``/``reduce_ckl`` on that Riemann grid."""

    @pytest.mark.parametrize("spec", [DivergenceSpec(), _UNCLIPPED], ids=["clipped", "unclipped"])
    @pytest.mark.parametrize("scenario", [p1_scenario, p3_scenario])
    def test_term_sums_are_the_reducers_values(self, scenario, spec):
        sc = scenario()
        dx = np.full(len(sc.params), sc.edges[1] - sc.edges[0])  # uniform bins, one width per row
        fb, fr, fw = sc.f_bag, sc.f_ref, sc.f_weight
        np.testing.assert_allclose(
            _property_terms(sc, "KL", spec).sum(axis=-1),
            reduce_kl(fb, fr, spec, dx).value,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            _property_terms(sc, "CKL", spec).sum(axis=-1),
            reduce_ckl(fb, fr, fw, spec, dx).value,
            rtol=1e-12,
        )


class TestWhatTheClipCosts:
    @staticmethod
    def kl_share(spec):
        sc = p1_scenario()
        terms = _property_terms(sc, "KL", spec)
        return terms[-1, sc.region_main].sum() / terms[-1].sum()

    def test_calibrated_clip_loses_p1_for_kl(self):
        assert DivergenceSpec().ratio_clip == 3e4
        assert self.kl_share(DivergenceSpec()) < 0.95  # 0.892

    def test_unclipped_kl_keeps_p1(self):
        assert self.kl_share(_UNCLIPPED) >= 0.95  # 0.958


class TestClassifierCklOrientation:
    """The classifier takes the negative class as cKL's reference and the
    positive as its weighting: the default scenarios with the roles swapped."""

    @pytest.mark.parametrize("property_id, holds", [("P1", False), ("P2", True), ("P3", False)])
    def test_swapped_class_roles(self, property_id, holds):
        sc = default_scenario(property_id)
        swapped = dataclasses.replace(sc, f_ref=sc.f_weight, f_weight=sc.f_ref)
        assert check_property(property_id, swapped).passed["CKL"] is holds


class TestTwoNegativeClassConstruction:
    """Two references that differ only where the bag density vanishes must
    become equally dissimilar from the bag as that density goes to zero."""

    @staticmethod
    def histogram_kl(fb, fa, widths):
        mask = fb > 0
        return float(
            (fb[mask] * (np.log(fb[mask]) - np.log(np.maximum(fa[mask], 1e-300))) * widths[mask]).sum()
        )

    def test_kl_equal_dissimilarity_in_the_limit(self):
        n = 100
        widths = np.full(n, 1.0 / n)
        gaps = []
        for eps in (1e-2, 1e-6, 1e-12, 1e-20):
            fb = np.zeros(n)
            fb[10:30] = 5.0
            fb[50:90] = eps
            fb /= (fb * widths).sum()
            ref_a = np.zeros(n)  # half its mass where the bag lives, half at one far block
            ref_a[10:30] = 2.5
            ref_a[50:70] = 2.5
            ref_b = np.zeros(n)  # same, but the far mass split across two blocks
            ref_b[10:30] = 2.5
            ref_b[50:70] = 1.25
            ref_b[70:90] = 1.25
            gaps.append(
                abs(self.histogram_kl(fb, ref_a, widths) - self.histogram_kl(fb, ref_b, widths))
            )
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6


class TestScenarioValidation:
    def test_mismatched_density_length(self):
        edges = np.linspace(0, 1, 11)
        densities = dict(f_bag=np.ones((1, 9)), f_ref=np.ones((1, 10)), f_weight=np.ones((1, 10)))
        with pytest.raises(ValueError, match="mismatch"):
            PropertyScenario(
                edges=edges, params=np.ones(1), **densities, region_main=np.zeros(10, bool)
            )

    def test_mismatched_region_mask(self):
        edges = np.linspace(0, 1, 11)
        densities = dict(f_bag=np.ones((1, 10)), f_ref=np.ones((1, 10)), f_weight=np.ones((1, 10)))
        with pytest.raises(ValueError, match="mismatch"):
            PropertyScenario(
                edges=edges, params=np.ones(1), **densities, region_main=np.zeros(4, bool)
            )

    @pytest.mark.parametrize(
        "scenario, mask", [(p3_scenario, "region_main"), (p1_scenario, "region_mirror")]
    )
    def test_integer_mask_rejected(self, scenario, mask):
        # A 0/1 mask of the right length used to pass, then index bins 0 and 1:
        # P3 reported CKL False, its last contribution 2.62.
        sc = scenario()
        with pytest.raises(ValueError, match="boolean"):
            dataclasses.replace(sc, **{mask: getattr(sc, mask).astype(int)})

    def test_decreasing_edges_rejected(self):
        # Reversed edges used to give negative widths: P3's KL contribution
        # came out -13.35 in place of 13.35.
        sc = p3_scenario()
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(sc, edges=sc.edges[::-1])
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(sc, edges=np.r_[0.0, 0.0, sc.edges[2:]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_edges_rejected(self, bad):
        sc = p3_scenario()
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(sc, edges=np.r_[sc.edges[:-1], bad])

    def test_p1_requires_mirror_region(self):
        scenario = p2_scenario()
        with pytest.raises(ValueError, match="mirror"):
            check_property("P1", scenario)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            check_property("P4", p2_scenario())
