"""The benchmark's four workloads: inputs made from a seed, one CLI argv per op.

Each op is one ``midiv`` command. The program sees only the argv built here
and the BAG_CSV files written at set-up; every size and seed comes from this
file, so a later change to the program cannot change what is measured.

Why these four, and which mechanism each one exercises and bypasses:

- ``table1-epan``: one repetition of the sim1 study per op, Epanechnikov KDE.
  Importance sampling and Epanechnikov ``pdf`` carry it; no file I/O, no EM.
- ``table1-gmm``: the same ops, with 20 test bags instead of 100 and GMM-AIC
  densities. EM fitting carries it; mixture ``pdf`` evaluation is small.
- ``cv-svm-gauss``: 4-fold CV of ``svm-divs`` on 10 + 10 3-feature bags with
  PCA to 2.
  The only workload with dense Gaussian KDE, PCA, multi-column I/O and the SVM.
- ``holdout-manybags``: ``ckl`` on 1000 + 1000 small sim2 bags. Per-bag fixed
  costs, the LOOCV threshold, ROC at large n, CSV reading and report writing
  carry it; the numeric kernels are small.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The published training-size grid, fixed here so the benchmark's inputs do
# not follow changes to the program's own constant.
GRID = tuple((p, n) for p in (1, 5, 10) for n in (5, 10, 25))
TABLE1_METHODS = ("rd_bh", "rd_kl", "ckl")
# The paper's ordering of the run-mean AUC on sim1, best first.
TABLE1_ORDER = ("ckl", "rd_kl", "rd_bh")
# cv-svm-gauss ops cycle over this many independent datasets, so that its
# auc100 averages over datasets rather than over re-seeded folds of one.
CV_FILES = 4


def op_seed(seed: int, i: int) -> int:
    """The --seed passed to op ``i`` of a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    min_ops: int  # every run does at least these; auc100 is their mean
    trace_ops: int  # fixed op count of a traced run, so its counts repeat
    block: int = 1  # a time-bounded run ends on a multiple of this many ops

    def prepare(self, midiv, workdir: Path, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def argv(self, inputs: dict, i: int, out: Path) -> list[str]:
        raise NotImplementedError

    def bags(self, inputs: dict, i: int) -> int:
        """Held-out bags scored by op ``i``, counted from its input sizes."""
        raise NotImplementedError

    def check(self, out: Path, inputs: dict, i: int) -> tuple[list[str], dict[str, float]]:
        """Errors found in op ``i``'s outputs, and its AUC per method."""
        raise NotImplementedError


@dataclass(frozen=True)
class Table1(Workload):
    estimator: str = "kde-epan"
    test: int = 100  # test bags per op

    def prepare(self, midiv, workdir, seed, smoke):
        n_test, n_instances = (20, 20) if smoke else (self.test, 50)
        return {"seed": seed, "test": n_test, "n_instances": n_instances}

    def argv(self, inputs, i, out):
        pos, neg = GRID[i % len(GRID)]
        return [
            "table1", "--scenario", "sim1", "--cell", f"pos={pos},neg={neg}", "--reps", "1",
            "--estimator", self.estimator, "--test", str(inputs["test"]),
            "--n-instances", str(inputs["n_instances"]),
            "--seed", str(op_seed(inputs["seed"], i)), "-o", str(out),
        ]

    def bags(self, inputs, i):
        return inputs["test"]

    def check(self, out, inputs, i):
        return check_table_long(out / "table_long.csv", GRID[i % len(GRID)])


def _bag_csv(midiv, path: Path, bags: list) -> None:
    dim = bags[0].dimension
    midiv.core.write_dataset(midiv.core.Dataset(bags=tuple(bags), dimension=dim), path)


@dataclass(frozen=True)
class CrossValidation(Workload):
    def prepare(self, midiv, workdir, seed, smoke):
        # Bag sizes cycle through 15..20 instances (8..10 in smoke mode). They
        # do not depend on the seed, so the dense Gaussian KDE does the same
        # number of kernel evaluations on every seed.
        per_class, smallest, sizes = (5, 8, 3) if smoke else (10, 15, 6)
        label = midiv.core.Label
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for k in range(CV_FILES):
            bags = []
            for i in range(2 * per_class):
                lab = label.POS if i < per_class else label.NEG
                n = smallest + i % sizes
                ss = np.random.SeedSequence([seed, k, i])
                cols = [
                    midiv.simulate.sample_bag(
                        midiv.simulate.SimConfig.preset(scn, n_instances=n), lab, child
                    ).bag.instances[:, 0]
                    for scn, child in zip(("sim1", "sim3", "sim5"), ss.spawn(3))
                ]
                bags.append(midiv.core.Bag(id=f"b{i:03d}", instances=np.column_stack(cols), label=lab))
            path = workdir / f"cv{k}.csv"
            _bag_csv(midiv, path, bags)
            files.append(str(path))
        return {"seed": seed, "files": files, "n_bags": 2 * per_class}

    def argv(self, inputs, i, out):
        return [
            "evaluate", "--train", inputs["files"][i % len(inputs["files"])], "--folds", "4",
            "--pca", "2", "--method", "svm-divs", "--estimator", "kde-gauss",
            "--seed", str(op_seed(inputs["seed"], i)), "-o", str(out),
        ]

    def bags(self, inputs, i):
        return inputs["n_bags"]  # every bag is scored once per CV repeat

    def check(self, out, inputs, i):
        return check_report(out, inputs["n_bags"])


@dataclass(frozen=True)
class Holdout(Workload):
    def prepare(self, midiv, workdir, seed, smoke):
        per_class = 50 if smoke else 500
        config = midiv.simulate.SimConfig.preset("sim2", n_instances=10)
        label = midiv.core.Label
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for part, stream in (("train", 0), ("test", 1)):
            bags = [
                midiv.simulate.sample_bag(
                    config,
                    label.POS if i < per_class else label.NEG,
                    np.random.SeedSequence([seed, stream, i]),
                    bag_id=f"{part}{i:05d}",
                ).bag
                for i in range(2 * per_class)
            ]
            paths[part] = workdir / f"{part}.csv"
            _bag_csv(midiv, paths[part], bags)
        return {"seed": seed, "train": str(paths["train"]), "test": str(paths["test"]),
                "n_test": 2 * per_class}

    def argv(self, inputs, i, out):
        return [
            "evaluate", "--train", inputs["train"], "--test", inputs["test"],
            "--method", "ckl", "--n-imp", "100",
            "--seed", str(op_seed(inputs["seed"], i)), "-o", str(out),
        ]

    def bags(self, inputs, i):
        return inputs["n_test"]

    def check(self, out, inputs, i):
        return check_report(out, inputs["n_test"])


WORKLOADS = {
    w.name: w
    for w in (
        Table1("table1-epan", min_ops=5 * len(GRID), trace_ops=5 * len(GRID), block=len(GRID),
               estimator="kde-epan"),
        Table1("table1-gmm", min_ops=4 * len(GRID), trace_ops=len(GRID), block=len(GRID),
               estimator="gmm-aic", test=20),
        CrossValidation("cv-svm-gauss", min_ops=4, trace_ops=4),
        Holdout("holdout-manybags", min_ops=4, trace_ops=4),
    )
}


# --------------------------------------------------------------------------
# output checks: every op, no golden file


def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Brute-force pairwise AUC, lower score meaning positive, ties count half."""
    pos, neg = scores[positive], scores[~positive]
    less = np.count_nonzero(pos[:, None] < neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (less + 0.5 * ties) / (pos.size * neg.size)


def check_roc(points: list) -> list[str]:
    errors = []
    if not points or tuple(points[0]) != (0.0, 0.0) or tuple(points[-1]) != (1.0, 1.0):
        errors.append("ROC does not run from (0,0) to (1,1)")
    if any(x1 < x0 or y1 < y0 for (x0, y0), (x1, y1) in zip(points, points[1:])):
        errors.append("ROC is not monotone")
    return errors


def check_report(out: Path, n_bags: int) -> tuple[list[str], dict[str, float]]:
    """``report.json`` and ``roc.csv`` of one ``evaluate`` op."""
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        with (out / "roc.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        roc = [(float(a), float(b)) for a, b in rows[1:]]
        scores = np.asarray(report["scores"], dtype=float)
        positive = np.asarray(report["labels"]) == 1
        reported = float(report["auc"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable evaluate outputs: {exc!r}"], {}
    errors = []
    if scores.size != n_bags:
        errors.append(f"{scores.size} scores for {n_bags} bags")
    if not np.all(np.isfinite(scores)):
        errors.append("non-finite score")
    if not (positive.any() and (~positive).any()):
        errors.append("report holds one class only")
    elif abs(mann_whitney_auc(scores, positive) - reported) > 1e-12:
        errors.append(f"auc {reported!r} differs from the pairwise count")
    errors += check_roc(roc)
    if roc != [tuple(p) for p in report.get("roc", [])]:
        errors.append("roc.csv differs from the report's ROC")
    return errors, {"auc": reported}


def check_table_long(path: Path, cell: tuple[int, int]) -> tuple[list[str], dict[str, float]]:
    """``table_long.csv`` of one single-cell ``table1`` op."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        aucs = {r["method"]: float(r["auc100"]) / 100.0 for r in rows}
        cells = {(int(r["pos"]), int(r["neg"])) for r in rows}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable table_long.csv: {exc!r}"], {}
    errors = []
    if sorted(aucs) != sorted(TABLE1_METHODS) or len(rows) != len(TABLE1_METHODS):
        errors.append(f"table_long.csv methods {sorted(aucs)}")
    if cells != {cell}:
        errors.append(f"table_long.csv cells {sorted(cells)}, expected {cell}")
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in aucs.values()):
        errors.append(f"AUC outside [0, 1]: {aucs}")
    return errors, aucs
