"""The CLI's outputs, byte for byte, against recorded sha256 hashes.

A small matrix of in-process ``midiv`` runs covers every scenario, every
method, every estimator and both integrators. Each run's output files
(``manifest.json`` aside: it records the wall time) must hash to the values
in ``GOLDEN``. A refactor keeps them; a change that means to move outputs
re-records them and says why.

The hashes hold for numpy 2.4.6, the version the continuous-integration job
pins; another numpy may round differently, so the test skips there.
"""

import hashlib

import numpy as np
import pytest

from midiv.cli import main

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason=f"golden hashes were recorded with numpy 2.4.6; this is numpy {np.__version__}",
)

SCENARIOS = ("sim1", "sim2", "sim3", "sim4", "sim5", "sim6")
METHODS = ("rd-bh", "rd-kl", "ckl", "b2b-kl", "b2b-bh", "svm-divs")
TABLE_CELL = ["--cell", "pos=1,neg=5", "--reps", "2", "--test", "20", "--n-instances", "20"]

# case name -> argv without the output directory; {sim}, {cv} and {mixed}
# name the shared input files.
CASES = {
    **{
        f"simulate-{s}": ["simulate", "--scenario", s, "--pos", "3", "--neg", "3", "--test", "6",
                          "--n-instances", "12", "--seed", "5"]
        for s in SCENARIOS
    },
    **{
        f"holdout-{m}": ["evaluate", "--train", "{sim}/train.csv", "--test", "{sim}/test.csv",
                         "--method", m, "--seed", "2"]
        for m in METHODS
    },
    **{
        f"cv-{m}": ["evaluate", "--train", "{cv}", "--folds", "2", "--pca", "1", "--method", m,
                    "--n-imp", "500", "--seed", "3"]
        for m in ("ckl", "svm-divs")
    },
    # The default samples GMM bags (DivergenceSpec.for_bag): the importance bytes.
    "holdout-gmm-aic": ["evaluate", "--train", "{sim}/train.csv", "--test", "{sim}/test.csv",
                        "--estimator", "gmm-aic", "--seed", "2"],
    "cv-gmm-aic": ["evaluate", "--train", "{mixed}", "--folds", "2", "--estimator", "gmm-aic",
                   "--n-imp", "500", "--seed", "3"],
    # KDE scoring of bags of mixed sizes: the b2b references, the dense
    # Gaussian features and a finer Riemann grid over each bag's support.
    "cv-mixed-b2b-kl": ["evaluate", "--train", "{mixed}", "--folds", "2", "--method", "b2b-kl",
                        "--estimator", "kde-epan", "--n-imp", "500", "--seed", "3"],
    "cv-mixed-svm-divs": ["evaluate", "--train", "{mixed}", "--folds", "2", "--method", "svm-divs",
                          "--estimator", "kde-gauss", "--n-imp", "500", "--seed", "3"],
    "cv-mixed-riemann": ["evaluate", "--train", "{mixed}", "--folds", "2", "--method", "rd-kl",
                         "--integrator", "riemann", "--grid-points", "1024", "--seed", "3"],
    "table1-kde-epan": ["table1", "--scenario", "sim4", "--estimator", "kde-epan",
                        "--methods", ",".join(METHODS[:5]), "--seed", "4", *TABLE_CELL],
    "table1-kde-gauss": ["table1", "--scenario", "sim3", "--estimator", "kde-gauss",
                         "--seed", "4", *TABLE_CELL],
    "table1-gmm-aic": ["table1", "--scenario", "sim6", "--estimator", "gmm-aic",
                       "--seed", "4", *TABLE_CELL],
    "table1-riemann": ["table1", "--scenario", "sim2", "--integrator", "riemann",
                       "--grid-points", "1024", "--seed", "4", *TABLE_CELL],
    # Importance sampling on KDE bags, which the default puts on a grid:
    # these keep the bytes that the cases without "-importance" had when
    # importance sampling was the default for every bag.
    "holdout-ckl-importance": ["evaluate", "--train", "{sim}/train.csv", "--test",
                               "{sim}/test.csv", "--method", "ckl", "--integrator", "importance",
                               "--seed", "2"],
    "cv-mixed-svm-divs-importance": ["evaluate", "--train", "{mixed}", "--folds", "2", "--method",
                                     "svm-divs", "--estimator", "kde-gauss", "--integrator",
                                     "importance", "--n-imp", "500", "--seed", "3"],
    "table1-kde-epan-importance": ["table1", "--scenario", "sim4", "--estimator", "kde-epan",
                                   "--methods", ",".join(METHODS[:5]), "--integrator",
                                   "importance", "--seed", "4", *TABLE_CELL],
}

# Recorded from a reference build with numpy 2.4.6.
GOLDEN = {
    "cv-ckl": {
        "report.json": "ae78541df400ea3ee3e0df560e88c21e074a2f92140ee0a8f89393ebacaa87bd",
        "roc.csv": "f4c6bbe6003136ef8c6455b144d4602d4ab15ab076af68fd15b99c5caa109489",
    },
    "cv-gmm-aic": {
        "report.json": "fb3c288c79a80c8201c6acad9e5a610cf10e9da9091eecb2d9ea5a53702831a5",
        "roc.csv": "133265ac7e58a43ba9253e17c067cb2a07ec8f8e6850292d2be527deac2ae2df",
    },
    "cv-mixed-b2b-kl": {
        "report.json": "c07d665ba467ea5357509d1a510e91183643cc19f0575e31ffe0e719a1fc27ad",
        "roc.csv": "50fe2adbc3017e369903bee4b964d327ce23fe75c82b881587e6031eb00a6075",
    },
    "cv-mixed-riemann": {
        "report.json": "c6c6eab7c6121ccdc4bb6cf7afff1eb10b4f181750b9195a55ac07859f0969bf",
        "roc.csv": "50fe2adbc3017e369903bee4b964d327ce23fe75c82b881587e6031eb00a6075",
    },
    "cv-mixed-svm-divs": {
        "report.json": "d9ddc335f4ce7daf7ed8248eaaa0f3220bed76976d82a46d2f1db0cf24204e5b",
        "roc.csv": "d1dbfea9f7e38f760f9633fe099e2c060fbae1ec639855f07bac1c9507987226",
    },
    "cv-mixed-svm-divs-importance": {
        "report.json": "f01cd121c97c6541924b822bddfa3ac1e2fc3e1c1c0d9ff6202f80a4c9c14548",
        "roc.csv": "3144890353f2ab420deccad8afb6e339ab03aea1cded7168cbb0cd529e821481",
    },
    "cv-svm-divs": {
        "report.json": "ee65b2ae408eeee7b73359a69695f623f166818cd74ac828e3a75257b330228b",
        "roc.csv": "260b05354cfd548eca5ae24b9ae36bb6e9d2b88f185ee209b679a3a1e9207ac8",
    },
    "holdout-b2b-bh": {
        "report.json": "7f2f25ca755fce33beede8226b73b5159cf9dc96c3ce5a69790d5ac6a4a6be9d",
        "roc.csv": "1313be2f6c649564e0c8be0225261a94153a92e49a95b2fa2e3a59c603c9c6c0",
    },
    "holdout-b2b-kl": {
        "report.json": "699fe461e80ddda7d5e9d211a3767082aff941d4df33c90b2149fabd1c1a8227",
        "roc.csv": "f3a0a6f88b86ce71d81ace290ac4a1442e10f12110ce475def89436160b246c2",
    },
    "holdout-ckl": {
        "report.json": "3dbece9e909cf9811104b367e62d2c5d3d3ce2566fc1a575d08b1c07128cb77b",
        "roc.csv": "d951bf2daf02f51d01c22854f45dc62a2fb2758c6015f105d62672ac970f09ac",
    },
    "holdout-ckl-importance": {
        "report.json": "754409cb6288eae174a49b02310a119fc2c1f071e9f2407e4500e19ce49eebb5",
        "roc.csv": "d951bf2daf02f51d01c22854f45dc62a2fb2758c6015f105d62672ac970f09ac",
    },
    "holdout-gmm-aic": {
        "report.json": "78eac7b378bd0ae67ba538fe42a713ba2342b1f2417ff1c17e4c9e0fdf335c82",
        "roc.csv": "d951bf2daf02f51d01c22854f45dc62a2fb2758c6015f105d62672ac970f09ac",
    },
    "holdout-rd-bh": {
        "report.json": "16c5dcdba8de10e49ddc96e0e1d74e586b89e50709c9a5d1cee2587baacbdecd",
        "roc.csv": "e8e0ca4cf53fe265b8665dc9b58302ade24d7929b99ed0c485d039c7a7fd8e4e",
    },
    "holdout-rd-kl": {
        "report.json": "adad3e5a4cd9e3d2899341618c0a396ff13cfe9c38ae7dbcf737520e945b1435",
        "roc.csv": "ddf652047904af1b9b0f860cff7fc9433ee40e184d50b703226fe27bac48e94e",
    },
    "holdout-svm-divs": {
        "report.json": "c95fb5ef8276e537f5746ed90f4dea6e2e6480ef26b6b3d1ea479c9fd1e7d237",
        "roc.csv": "d951bf2daf02f51d01c22854f45dc62a2fb2758c6015f105d62672ac970f09ac",
    },
    "simulate-sim1": {
        "latents.json": "3707feef5806d49c88b734b987077cd115e8682440b4f5c5e879e9edd7a7fa47",
        "test.csv": "9e84531b6005a50a4b4c9bfefad7a3058d8b2ee4ac4b05d55ab4672264a888a9",
        "train.csv": "251d5a24cadc18ab0165a94e7da33a2a7886dcf8d2ba9482cbeefd1af2cdecde",
    },
    "simulate-sim2": {
        "latents.json": "026a2cf0d6ea081284c0286175102b23276dfb37f81eb7f9c77fc7ecd600df24",
        "test.csv": "9ec02a0f2785489117cd7914d2976fe2b9cef3e5c8f3463d0e2af9d1bcc71f6e",
        "train.csv": "251d5a24cadc18ab0165a94e7da33a2a7886dcf8d2ba9482cbeefd1af2cdecde",
    },
    "simulate-sim3": {
        "latents.json": "307023d5822745c4e7891ce06221cdd8ef1c4ffe3c19879b2561c89bbaaabee9",
        "test.csv": "d983068b89b41f75993b3a6cb245672b465abb981f648796159cfe4618d694f0",
        "train.csv": "9da3a500c143d508140d23518dcbfff0b8cacf2f6be44ee4b1307e78a3d55f9b",
    },
    "simulate-sim4": {
        "latents.json": "7dcd2dd9d992b5436fd5cfe6ad6a1435ea4061cb8ba65fff741fe7ec57465f8f",
        "test.csv": "c00d0f14c8d00020867dab36319662d8d892c67d15689c099385dd9bb9089048",
        "train.csv": "5dee7983cb45c41675e991d651acc2c7b98ae4b4ea1a760ca3790450616a8239",
    },
    "simulate-sim5": {
        "latents.json": "b9e4b856892b471274672e344384ba3b793e550518fa98f8a2669e2a769835bd",
        "test.csv": "0cdcfedebd4bf0b92fec488103de6758813a7af4cf2bca0e6ee1141cca261ad3",
        "train.csv": "2d46c69b637489dd9e94dd3a75ef49bed9ce53b276804809968d036dddaf2afb",
    },
    "simulate-sim6": {
        "latents.json": "1762f17179f36f35fc3778dd1f49ffd9c84143bb55834e7da5777610db3b7ca9",
        "test.csv": "31a887e2e0fd13bb34acef446bcf6f81e3297cc15524894208836c666e72c943",
        "train.csv": "de32e10d82705c7bcffc5335a8d53a23e980222f3af3fc7436a4f51e1b199d22",
    },
    "table1-gmm-aic": {
        "table_long.csv": "d6fd397bd1c577652381060efea3dd2981caf8874ae5f68f89eee73fa53ad678",
        "table_wide.csv": "6d1d80a27449cd1d024581c4facdcffae9eda01b08fd675af08ad490dd15040c",
    },
    "table1-kde-epan": {
        "table_long.csv": "11c7f3fc57aeec020bfb7ab634cdd3f43011001efc75d2ebf0e40cab41b9521c",
        "table_wide.csv": "69ac2c9693cc19e38628bef260981959d14f9e18f4fe7395857a69628ae3d7aa",
    },
    "table1-kde-epan-importance": {
        "table_long.csv": "88aae2db4c22a28a157d9252f2651bd02cb46fff78dafc40f64fb34b78262821",
        "table_wide.csv": "19558a177f4ac6f777ac286157b1a58d315f5a32f9b96c856431362b7ae38bba",
    },
    "table1-kde-gauss": {
        "table_long.csv": "4b97f307ff785db49800690db0442faf8063ae5a745cffa32d83fade03df5ba2",
        "table_wide.csv": "38b0071ae66ebdc6951bcb4644fa9015473fa9f938e44034fbf603bf1014fa1e",
    },
    "table1-riemann": {
        "table_long.csv": "129aa49d31c1d7df7bc82a9f79d2a09c7162c8722ebc5358e0384b226efafabc",
        "table_wide.csv": "1e681a45a61bba8d423890c413c5e1c3b5eb4e398934455126114a95df4a22e4",
    },
}


def _write_cv_data(path):
    """Eight labelled two-feature bags; positive bags are shifted in f1."""
    rng = np.random.default_rng(3)
    lines = ["bag_id,label,f1,f2"]
    for i in range(8):
        label = int(i < 4)
        x = rng.standard_normal((15, 2)) + [1.5 * label, 0.0]
        lines += [f"b{i},{label},{a!r},{b!r}" for a, b in x.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_mixed_cv_data(path):
    """Ten labelled two-feature bags of 12 to 20 instances: bags of one size
    share a stacked EM group, and a 12-instance bag is too small for k = 5."""
    rng = np.random.default_rng(8)
    lines = ["bag_id,label,f1,f2"]
    for i, size in enumerate((12, 20, 15, 12, 17, 20, 12, 15, 18, 20)):
        label = i % 2
        x = rng.standard_normal((size, 2)) + [0.0, 1.2 * label]
        lines += [f"m{i},{label},{a!r},{b!r}" for a, b in x.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    sim = root / "sim"
    assert main(["simulate", "--scenario", "sim1", "--pos", "5", "--neg", "5", "--test", "12",
                 "--n-instances", "20", "--seed", "11", "-o", str(sim)]) == 0
    cv = root / "cv.csv"
    _write_cv_data(cv)
    mixed = root / "mixed.csv"
    _write_mixed_cv_data(mixed)
    return {"sim": str(sim), "cv": str(cv), "mixed": str(mixed)}


def output_hashes(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_hashes(case, inputs, tmp_path):
    argv = [arg.format(**inputs) for arg in CASES[case]]
    assert main(argv + ["-o", str(tmp_path)]) == 0
    assert output_hashes(tmp_path) == GOLDEN[case]
