"""Command-line front end: simulate, evaluate, reproduce the AUC table.

Exit codes: 0 on success, 1 on runtime failure (message on stderr), 2 on
usage errors. All randomness flows from --seed through labeled hashing, so
re-running a command (or replaying its manifest) reproduces every output
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    CLASS_METHODS,
    ESTIMATORS,
    METHODS,
    EstimatorConfig,
    PipelineConfig,
    SvmConfig,
    TABLE1_GRID,
    cross_validate,
    evaluate_holdout,
    normalize_method,
    run_sim_study,
)
from .core import Dataset, load_dataset, write_dataset
from .divergence import DivergenceSpec
from .simulate import SCENARIOS, SimConfig, sample_experiment_bags

__all__ = ["main", "RunManifest", "REFERENCE_AUC100"]

# Published reference AUC*100 values for the six simulation scenarios,
# keyed by (scenario, pos, neg). Written next to fresh results for the
# diff column; never used as a test oracle (Monte-Carlo tolerances apply).
_REFERENCE_ROWS = {
    # scenario, pos: (neg5: rBH rKL cKL, neg10: ..., neg25: ...)
    ("sim1", 1): (61, 69, 85, 62, 72, 89, 61, 73, 92),
    ("sim1", 5): (63, 75, 86, 64, 82, 94, 68, 84, 97),
    ("sim1", 10): (69, 86, 87, 73, 91, 95, 75, 91, 98),
    ("sim2", 1): (57, 61, 75, 59, 61, 78, 58, 55, 75),
    ("sim2", 5): (59, 67, 79, 60, 68, 84, 62, 63, 85),
    ("sim2", 10): (64, 77, 80, 66, 78, 86, 68, 72, 86),
    ("sim3", 1): (51, 55, 71, 52, 58, 73, 50, 57, 74),
    ("sim3", 5): (53, 61, 76, 53, 66, 81, 52, 65, 83),
    ("sim3", 10): (58, 73, 78, 58, 76, 84, 57, 76, 87),
    ("sim4", 1): (55, 61, 70, 56, 62, 73, 56, 58, 69),
    ("sim4", 5): (56, 63, 75, 57, 64, 81, 59, 59, 80),
    ("sim4", 10): (60, 74, 77, 62, 76, 85, 63, 69, 84),
    ("sim5", 1): (64, 61, 62, 67, 63, 66, 64, 62, 67),
    ("sim5", 5): (73, 69, 63, 74, 70, 67, 75, 71, 72),
    ("sim5", 10): (74, 70, 62, 75, 73, 69, 76, 74, 72),
    ("sim6", 1): (68, 68, 67, 66, 68, 68, 68, 71, 68),
    ("sim6", 5): (65, 64, 67, 68, 68, 69, 70, 71, 74),
    ("sim6", 10): (66, 64, 66, 70, 69, 72, 72, 73, 74),
}

REFERENCE_AUC100: dict[tuple[str, int, int], dict[str, int]] = {
    (scn, pos, neg): dict(zip(CLASS_METHODS, vals[3 * j : 3 * j + 3]))
    for (scn, pos), vals in _REFERENCE_ROWS.items()
    for j, neg in enumerate((5, 10, 25))
}


@dataclass
class RunManifest:
    """Record of one CLI run, sufficient to replay it byte for byte."""

    command: str
    argv: list[str]
    config: dict
    seed: int
    versions: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # path -> sha256
    outputs: list[str] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    cwd: str = ""  # the run's working directory, which relative paths in argv start from

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out: Path, args, argv, started: float, outputs, inputs=()) -> None:
    """``out/manifest.json`` for the command in ``args``; ``inputs`` are hashed."""
    config = {
        k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k != "func"
    }
    RunManifest(
        command=args.command,
        argv=argv,
        config=config,
        seed=args.seed,
        versions={"midiv": __version__, "numpy": np.__version__, "python": sys.version.split()[0]},
        inputs={str(path): _sha256(path) for path in inputs},
        outputs=[str(path) for path in outputs],
        wall_clock_seconds=time.perf_counter() - started,
        cwd=os.getcwd(),
    ).write(out / "manifest.json")


def _max_workers() -> int:
    raw = os.environ.get("MIDIV_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MIDIV_THREADS must be a positive integer, got {raw!r}")
    return workers


def _divergence_spec(args) -> DivergenceSpec:
    return DivergenceSpec(
        integrator=args.integrator and args.integrator.upper(),
        n_imp=args.n_imp,
        grid_points=args.grid_points,
        ratio_clip=args.ratio_clip,
    )


def _estimator(args) -> EstimatorConfig:
    return EstimatorConfig(kind=args.estimator, bandwidth=args.bandwidth, k_max=args.k_max)


# --------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, argv) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    config = SimConfig.preset(args.scenario, n_instances=args.n_instances)
    train_gen, test_gen = sample_experiment_bags(config, args.pos, args.neg, args.test, args.seed)
    train = Dataset(bags=tuple(g.bag for g in train_gen), dimension=1, name=f"{args.scenario}-train")
    test = Dataset(bags=tuple(g.bag for g in test_gen), dimension=1, name=f"{args.scenario}-test")
    train_path, test_path = out / "train.csv", out / "test.csv"
    latent_path = out / "latents.json"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    latents = {g.bag.id: dict(g.latent, true_label=int(g.bag.label)) for g in train_gen + test_gen}
    latent_path.write_text(json.dumps(latents, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out, args, argv, started, [train_path, test_path, latent_path])
    print(f"wrote {train_path}, {test_path}, {latent_path}")
    return 0


def _write_roc_csv(report, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in report.roc:
            writer.writerow([repr(fpr), repr(tpr)])


def _report_json(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` for a report.

    ``indent`` selects json's pure-Python encoder. The report's lists (the
    scores, labels, predictions, bag ids and ROC points) are encoded by the
    C encoder instead, one call each, and laid out as ``indent=2`` lays
    them out.
    """
    fields = []
    for key, value in sorted(data.items()):
        if key == "roc":  # pairs of numbers, whose text holds no ", "
            items = json.dumps([c for point in value for c in point])[1:-1].split(", ")
            pairs = (f"{x},\n      {y}" for x, y in zip(items[::2], items[1::2]))
            text = "[\n    [\n      " + "\n    ],\n    [\n      ".join(pairs) + "\n    ]\n  ]"
        elif isinstance(value, list) and value:
            text = "[\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def cmd_evaluate(args, argv) -> int:
    pipeline = PipelineConfig(
        method=args.method,
        estimator=_estimator(args),
        spec=_divergence_spec(args),
        pca_components=args.pca,
        threshold=args.threshold,
        svm=SvmConfig(epochs=args.svm_epochs, lam=args.svm_lambda),
        svm_measure=args.svm_measure,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    train = load_dataset(args.train)
    if args.test is not None:
        test = load_dataset(args.test)
        report = evaluate_holdout(train, test, pipeline, seed=args.seed)
    else:
        report = cross_validate(train, args.folds, pipeline, repeats=args.repeats, seed=args.seed)
    report_path, roc_path = out / "report.json", out / "roc.csv"
    report_path.write_text(_report_json(report.to_json_dict()), encoding="utf-8")
    _write_roc_csv(report, roc_path)
    inputs = [args.train] + ([] if args.test is None else [args.test])
    _write_manifest(out, args, argv, started, [report_path, roc_path], inputs)
    print(f"auc={report.auc:.4f} accuracy={report.accuracy:.4f} -> {report_path}")
    return 0


def _parse_cell(text: str) -> tuple[int, int]:
    """``pos=<p>,neg=<n>``: exactly these two keys, each once."""
    try:
        pairs = [p.split("=", 1) for p in text.split(",")]
        parts = dict(pairs)
        if len(pairs) == 2 and parts.keys() == {"pos", "neg"}:
            return int(parts["pos"]), int(parts["neg"])
    except ValueError:
        pass
    raise ValueError(f"--cell must look like pos=1,neg=5, got {text!r}")


def cmd_table1(args, argv) -> int:
    scenarios = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    grid = TABLE1_GRID if args.cell is None else (_parse_cell(args.cell),)
    methods = tuple(normalize_method(m) for m in args.methods.split(","))
    estimator = _estimator(args)
    spec = _divergence_spec(args)
    max_workers = _max_workers()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    results = []
    for scenario in scenarios:
        config = SimConfig.preset(scenario, n_instances=args.n_instances)
        results.append(
            run_sim_study(
                config,
                grid=grid,
                repetitions=args.reps,
                methods=methods,
                seed=args.seed,
                estimator=estimator,
                spec=spec,
                n_test=args.test,
                max_workers=max_workers,
            )
        )
    long_path = out / "table_long.csv"
    wide_path = out / "table_wide.csv"
    _write_table_long(results, methods, long_path)
    _write_table_wide(results, methods, wide_path)
    _write_manifest(out, args, argv, started, [long_path, wide_path])
    print(f"wrote {long_path}, {wide_path}")
    return 0


def _formatted(scenario: str, cell, method: str) -> tuple:
    """A cell's AUC·100 for ``method``, its published reference and their
    difference, as table text ("" for a reference the paper does not give)."""
    value = 100.0 * cell.mean_auc[method]
    ref = REFERENCE_AUC100.get((scenario, cell.pos, cell.neg), {}).get(method)
    return f"{value:.2f}", "" if ref is None else ref, "" if ref is None else f"{value - ref:+.2f}"


def _write_table_long(results, methods, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "pos", "neg", "method", "auc100", "ref_auc100", "diff"])
        for res in results:
            for cell in res.cells:
                for m in methods:
                    writer.writerow([res.scenario, cell.pos, cell.neg, m,
                                     *_formatted(res.scenario, cell, m)])


def _write_table_wide(results, methods, path: Path) -> None:
    """Published-table layout: one row per scenario x pos, neg x method columns.

    Every scenario has a cell at each (pos, neg) of the grid."""
    negs = sorted({cell.neg for res in results for cell in res.cells})
    columns = [f"{m}_neg{neg}" for neg in negs for m in methods]
    header = ["scenario", "pos", *columns, *(f"diff_{c}" for c in columns)]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for res in results:
            for pos in sorted({c.pos for c in res.cells}):
                by_neg = {c.neg: c for c in res.cells if c.pos == pos}
                row = [_formatted(res.scenario, by_neg[neg], m) for neg in negs for m in methods]
                writer.writerow([res.scenario, pos, *(r[0] for r in row), *(r[2] for r in row)])


def cmd_replay(args, argv) -> int:
    """Re-run a manifest's argv in the run's working directory, after checking its inputs."""
    manifest = RunManifest.load(args.manifest)
    # A manifest without the record, or whose directory is gone, replays from
    # the current directory; the input hashes still guard what is read.
    run_dir = Path(manifest.cwd) if Path(manifest.cwd).is_dir() else Path.cwd()
    for path, digest in manifest.inputs.items():
        path = run_dir / path
        if _sha256(path) != digest:
            raise ValueError(f"input {path} has changed since the recorded run (sha256 differs)")
    # flags appended to the argv win: argparse keeps an option's last value
    replay_argv = manifest.argv + _recorded_settings(manifest)
    if args.out_dir is not None:
        replay_argv.append(f"--out-dir={Path(args.out_dir).resolve()}")
    here = os.getcwd()
    os.chdir(run_dir)
    try:
        return main(replay_argv)
    finally:
        os.chdir(here)


def _recorded_settings(manifest: RunManifest) -> list[str]:
    """``--<setting>=<value>`` for each setting of the manifest's ``config``
    that its argv parses to another value today: argv leaves defaults out,
    and a default may have changed since the run."""
    try:
        parsed = vars(build_parser().parse_args(manifest.argv))
    except SystemExit:  # the replay's own parse reports it
        return []
    changed = {k: v for k, v in manifest.config.items() if k in parsed and parsed[k] != v}
    return [f"--{k.replace('_', '-')}={v}" for k, v in changed.items()]


# --------------------------------------------------------------------------
# argument parsing


def _dashed(names) -> list[str]:
    return [n.replace("_", "-") for n in names]


def _add_divergence_flags(p: argparse.ArgumentParser) -> None:
    spec, est = DivergenceSpec(), EstimatorConfig()  # the one source of the defaults
    p.add_argument(
        "--integrator", choices=["importance", "riemann"], default=spec.integrator,
        help="default: a Riemann grid for KDE bags that it resolves, else importance sampling")
    p.add_argument("--n-imp", type=int, default=spec.n_imp, help="importance-sample count")
    p.add_argument("--grid-points", type=int, default=spec.grid_points, help="Riemann grid points")
    p.add_argument("--ratio-clip", type=float, default=spec.ratio_clip, help="density-ratio clip")
    p.add_argument(
        "--estimator", choices=list(ESTIMATORS), default=est.kind, help="density estimator")
    p.add_argument("--bandwidth", type=float, default=est.bandwidth, help="explicit KDE bandwidth")
    p.add_argument("--k-max", type=int, default=est.k_max, help="GMM-AIC component ceiling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midiv",
        description="Bag classification by bag-to-class density divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a train/test experiment as BAG_CSV")
    p_sim.add_argument("--scenario", choices=list(SCENARIOS), required=True)
    p_sim.add_argument("--pos", type=int, default=5, help="positive training bags")
    p_sim.add_argument("--neg", type=int, default=5, help="negative training bags")
    p_sim.add_argument("--test", type=int, default=100, help="test bags (balanced)")
    p_sim.add_argument("--n-instances", type=int, default=50, help="instances per bag")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("-o", "--out-dir", default="out")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="fit, score and report on BAG_CSV data")
    p_eval.add_argument("--train", required=True, help="training BAG_CSV path")
    p_eval.add_argument("--test", default=None, help="held-out BAG_CSV path (else cross-validate)")
    p_eval.add_argument("--method", choices=_dashed(METHODS), default="ckl")
    p_eval.add_argument("--threshold", default="loocv", help="'loocv' or 'fixed:<t>'")
    p_eval.add_argument("--folds", type=int, default=4, help="CV folds when no test file given")
    p_eval.add_argument("--repeats", type=int, default=1, help="CV repetitions")
    p_eval.add_argument("--pca", type=int, default=None, help="PCA components (default: none)")
    p_eval.add_argument(
        "--svm-measure", choices=_dashed(CLASS_METHODS), default="ckl",
        help="feature measure for svm-divs",
    )
    p_eval.add_argument("--svm-epochs", type=int, default=200)
    p_eval.add_argument("--svm-lambda", type=float, default=1e-3)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("-o", "--out-dir", default="out")
    _add_divergence_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_tab = sub.add_parser("table1", help="mean AUC over the training-size grid")
    p_tab.add_argument("--scenario", choices=list(SCENARIOS) + ["all"], default="sim1")
    p_tab.add_argument("--reps", type=int, default=50)
    p_tab.add_argument("--cell", default=None, help="restrict to one cell, e.g. pos=1,neg=5")
    p_tab.add_argument("--methods", default=",".join(_dashed(CLASS_METHODS)))
    p_tab.add_argument("--test", type=int, default=100, help="test bags per repetition")
    p_tab.add_argument("--n-instances", type=int, default=50)
    p_tab.add_argument("--seed", type=int, default=0)
    p_tab.add_argument("-o", "--out-dir", default="out")
    _add_divergence_flags(p_tab)
    p_tab.set_defaults(func=cmd_table1)

    p_rep = sub.add_parser("replay", help="re-run a command from its manifest")
    p_rep.add_argument("manifest", help="path to a manifest.json")
    p_rep.add_argument("-o", "--out-dir", default=None, help="redirect outputs")
    p_rep.set_defaults(func=cmd_replay, seed=0)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
