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

# case name -> argv without the output directory; {sim} and {cv} name the
# shared input files.
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
    "table1-kde-epan": ["table1", "--scenario", "sim4", "--estimator", "kde-epan",
                        "--methods", ",".join(METHODS[:5]), "--seed", "4", *TABLE_CELL],
    "table1-kde-gauss": ["table1", "--scenario", "sim3", "--estimator", "kde-gauss",
                         "--seed", "4", *TABLE_CELL],
    "table1-gmm-aic": ["table1", "--scenario", "sim6", "--estimator", "gmm-aic",
                       "--seed", "4", *TABLE_CELL],
    "table1-riemann": ["table1", "--scenario", "sim2", "--integrator", "riemann",
                       "--grid-points", "1024", "--seed", "4", *TABLE_CELL],
}

# Recorded from a reference build with numpy 2.4.6.
GOLDEN = {
    "cv-ckl": {
        "report.json": "13fc91c2380c312a1eef5c5500810e70a31b2d6a2b51ea396ecd0f4fb5323a43",
        "roc.csv": "f4c6bbe6003136ef8c6455b144d4602d4ab15ab076af68fd15b99c5caa109489",
    },
    "cv-svm-divs": {
        "report.json": "8b0661739f8b40f825448010fa7e0dd22880e9e99e5f48ca39bcbb0d7f61eb4c",
        "roc.csv": "f4c6bbe6003136ef8c6455b144d4602d4ab15ab076af68fd15b99c5caa109489",
    },
    "holdout-b2b-bh": {
        "report.json": "80a8d903b054c40ff15ad966f327c553c1211fbe0bd8a78fc25eb1ce9aa6a4c1",
        "roc.csv": "5216e7ae2e7d9b383ae68ab0084104270a9d663fd8859a57470a106cdf0d8726",
    },
    "holdout-b2b-kl": {
        "report.json": "638dcd46b411da74e5dd413cb9f2d4ff053315ab651e16c74abae4c200c526dd",
        "roc.csv": "f56abde9dcfd79cccf36d0f1d9cafa1836dee59a95db6d807071904feb5b60a8",
    },
    "holdout-ckl": {
        "report.json": "ecf59619c7bbb1719b924f0b32fb8868b18d3503ebd904907025fd65f066d66a",
        "roc.csv": "d951bf2daf02f51d01c22854f45dc62a2fb2758c6015f105d62672ac970f09ac",
    },
    "holdout-rd-bh": {
        "report.json": "f1d5555507eaac1b1b6a8003dbe32594f4a37afc1db7dd6a62c099c1134b9508",
        "roc.csv": "e8e0ca4cf53fe265b8665dc9b58302ade24d7929b99ed0c485d039c7a7fd8e4e",
    },
    "holdout-rd-kl": {
        "report.json": "aa5d42aaa79fe2eb7d8d7f7f1988ce96f1be65070909bb323fcf23b9f1a60127",
        "roc.csv": "ddf652047904af1b9b0f860cff7fc9433ee40e184d50b703226fe27bac48e94e",
    },
    "holdout-svm-divs": {
        "report.json": "5e90db5d19ca4ec0956eb3bbaa6f5136fa33630dbf1904a97f93668309df1963",
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
        "table_long.csv": "a1db6b79bea5dc12e6a95f9282f8097d715d790b8d96705b9dae044ab926a064",
        "table_wide.csv": "5f480a1ffe2ae2d35e4887176ca14285e46eb80e6e7c3c921e6ea64daf8cd0b4",
    },
    "table1-kde-epan": {
        "table_long.csv": "88aae2db4c22a28a157d9252f2651bd02cb46fff78dafc40f64fb34b78262821",
        "table_wide.csv": "19558a177f4ac6f777ac286157b1a58d315f5a32f9b96c856431362b7ae38bba",
    },
    "table1-kde-gauss": {
        "table_long.csv": "671380f93e8884714af99ab2558279a3424de2537e39703bd5394fb34c0024c9",
        "table_wide.csv": "945dd18cbb931532415a745bb70d2b5d0e440ef17df254f5d63031fbbda3487d",
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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    sim = root / "sim"
    assert main(["simulate", "--scenario", "sim1", "--pos", "5", "--neg", "5", "--test", "12",
                 "--n-instances", "20", "--seed", "11", "-o", str(sim)]) == 0
    cv = root / "cv.csv"
    _write_cv_data(cv)
    return {"sim": str(sim), "cv": str(cv)}


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
