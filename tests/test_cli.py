import hashlib
import json
import os

import numpy as np
import pytest

from midiv import classify, cli, fit_classifier, load_dataset, score_bag
from midiv.classify import EstimatorConfig, PipelineConfig
from midiv.cli import REFERENCE_AUC100, RunManifest, build_parser, main
from midiv.divergence import DivergenceSpec
from midiv.seeds import derive_seed


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return main([str(a) for a in args])


FAST_EVAL = ["--integrator", "importance", "--n-imp", "500"]


class TestSimulateCommand:
    def test_writes_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--scenario", "sim1", "--pos", "2", "--neg", "3",
                    "--test", "8", "--seed", "7", "-o", out])
        assert code == 0
        for name in ("train.csv", "test.csv", "latents.json", "manifest.json"):
            assert (out / name).exists()
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.command == "simulate" and manifest.seed == 7
        for path in manifest.outputs:
            assert os.path.exists(path)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--scenario", "sim2", "--pos", "2", "--neg", "2",
                "--test", "6", "--seed", "3"]
        assert run(args + ["-o", a]) == 0
        assert run(args + ["-o", b]) == 0
        for name in ("train.csv", "test.csv", "latents.json"):
            assert digest(a / name) == digest(b / name)

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--scenario", "sim9", "-o", tmp_path])
        assert code == 2
        assert "scenario" in capsys.readouterr().err

    def test_latents_carry_true_labels(self, tmp_path):
        out = tmp_path / "sim"
        run(["simulate", "--scenario", "sim1", "--pos", "1", "--neg", "1",
             "--test", "2", "--seed", "1", "-o", out])
        latents = json.loads((out / "latents.json").read_text())
        assert {rec["true_label"] for rec in latents.values()} == {0, 1}
        assert any("tau" in rec for rec in latents.values())


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(["simulate", "--scenario", "sim1", "--pos", "4", "--neg", "4",
                "--test", "16", "--seed", "11", "-o", out])
    assert code == 0
    return out


class TestEvaluateCommand:
    def test_holdout_report(self, sim_files, tmp_path):
        out = tmp_path / "eval"
        code = run(["evaluate", "--train", sim_files / "train.csv",
                    "--test", sim_files / "test.csv", "--method", "ckl",
                    "--estimator", "kde-epan", "--seed", "2", "-o", out] + FAST_EVAL)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert len(report["scores"]) == 16 and len(report["predictions"]) == 16
        roc_lines = (out / "roc.csv").read_text().strip().splitlines()
        assert roc_lines[0] == "fpr,tpr" and len(roc_lines) > 2
        manifest = RunManifest.load(out / "manifest.json")
        assert str(sim_files / "train.csv") in manifest.inputs

    @pytest.mark.parametrize("n", [0, 1, 3, 500])
    def test_report_text_is_the_indented_json_dump(self, n):
        # The writer lays out the report's lists itself, with the C encoder.
        scores = [0.1 * i - 7.3 for i in range(n)] + [float("nan"), float("inf"), -float("inf")]
        data = {
            "scores": scores, "labels": [i % 2 for i in range(n)],
            "predictions": [i % 3 == 0 for i in range(n)], "auc": 0.5, "accuracy": 1.0 / 3.0,
            "accuracy_sd": 0.0, "fold_accuracies": [0.25] * (n % 3), "auc_fold_mean": None,
            "roc": [[0.0, 0.0]] + [[i / (n + 1), 1e-300 * i] for i in range(n)] + [[1.0, 1.0]],
            "folds": {"0": {"bag, \"1\"": 0, "é\n": 1}} if n else {},
            "bag_ids": [f"bag, {i} é\"\\" for i in range(n)], "seed": "12",
        }
        assert cli._report_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_cross_validation_mode(self, sim_files, tmp_path):
        out = tmp_path / "cv"
        code = run(["evaluate", "--train", sim_files / "train.csv", "--folds", "2",
                    "--repeats", "2", "--method", "rd-kl", "--threshold", "loocv",
                    "--seed", "2", "-o", out] + FAST_EVAL)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["fold_accuracies"]) == 4
        assert report["folds"]  # per-repeat assignments recorded

    def test_fixed_threshold_and_riemann(self, sim_files, tmp_path):
        out = tmp_path / "fx"
        code = run(["evaluate", "--train", sim_files / "train.csv",
                    "--test", sim_files / "test.csv", "--method", "rd-kl",
                    "--threshold", "fixed:1.0", "--integrator", "riemann",
                    "--grid-points", "512", "--seed", "2", "-o", out])
        assert code == 0

    def test_missing_test_file_runtime_error(self, sim_files, tmp_path, capsys):
        code = run(["evaluate", "--train", sim_files / "train.csv",
                    "--test", tmp_path / "nope.csv", "-o", tmp_path / "o"] + FAST_EVAL)
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_method_usage_error(self, sim_files, tmp_path):
        code = run(["evaluate", "--train", sim_files / "train.csv",
                    "--method", "magic", "-o", tmp_path / "o"])
        assert code == 2

    @pytest.mark.parametrize("measure", ["b2b-kl", "foo"])
    def test_bad_svm_measure_usage_error(self, sim_files, tmp_path, capsys, measure):
        code = run(["evaluate", "--train", sim_files / "train.csv", "--method", "svm-divs",
                    "--svm-measure", measure, "-o", tmp_path / "o"])
        assert code == 2
        assert "--svm-measure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unlabelled_training_bag_runtime_error(self, sim_files, tmp_path, capsys):
        train = tmp_path / "train_na.csv"
        rows = [f"stray,NA,{0.1 * i!r}" for i in range(20)]
        train.write_text((sim_files / "train.csv").read_text() + "\n".join(rows) + "\n")
        code = run(["evaluate", "--train", train, "--test", sim_files / "test.csv",
                    "-o", tmp_path / "o"] + FAST_EVAL)
        assert code == 1
        assert "stray" in capsys.readouterr().err

    def test_zero_svm_lambda_runtime_error(self, sim_files, tmp_path, capsys):
        code = run(["evaluate", "--train", sim_files / "train.csv", "--method", "svm-divs",
                    "--svm-lambda", "0", "-o", tmp_path / "o"] + FAST_EVAL)
        assert code == 1
        assert "SvmConfig.lam must be positive" in capsys.readouterr().err

    def test_zero_repeats_runtime_error(self, sim_files, tmp_path, capsys):
        # Used to fail with "AUC needs both classes present".
        out = tmp_path / "o"
        code = run(["evaluate", "--train", sim_files / "train.csv", "--folds", "2",
                    "--repeats", "0", "-o", out] + FAST_EVAL)
        assert code == 1
        assert "repeats must be at least 1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("method", ["rd-bh", "rd-kl", "ckl", "b2b-kl", "b2b-bh", "svm-divs"])
    @pytest.mark.parametrize("threshold", ["garbage", "fixed:abc"])
    def test_bad_threshold_rejected_before_fitting(
        self, sim_files, tmp_path, capsys, monkeypatch, method, threshold
    ):
        # svm-divs used to exit 0 and record the policy; the score methods
        # failed only after the class densities were fitted.
        def no_fit(*args, **kwargs):
            raise AssertionError("a density was fitted")

        monkeypatch.setattr(classify, "_fit_columns", no_fit)
        out = tmp_path / "o"
        code = run(["evaluate", "--train", sim_files / "train.csv", "--test",
                    sim_files / "test.csv", "--method", method, "--threshold", threshold,
                    "-o", out] + FAST_EVAL)
        assert code == 1
        assert "PipelineConfig.threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--bandwidth", "inf"], "EstimatorConfig.bandwidth"),
         (["--bandwidth", "-1"], "EstimatorConfig.bandwidth"),
         (["--k-max", "0"], "EstimatorConfig.k_max")],
    )
    def test_bad_estimator_settings_runtime_error(self, sim_files, tmp_path, capsys, flags, message):
        # --bandwidth inf failed after loading, -1 inside the first fit; --k-max 0 exited 0.
        out = tmp_path / "o"
        code = run(["evaluate", "--train", sim_files / "train.csv", "--test",
                    sim_files / "test.csv", "-o", out] + flags + FAST_EVAL)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_pca_runtime_error_before_loading(self, tmp_path, capsys):
        # --pca 0 used to fail inside the first fit with "m must be in [1, 1], got 0".
        out = tmp_path / "o"
        code = run(["evaluate", "--train", tmp_path / "nope.csv", "--pca", "0", "-o", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "PipelineConfig.pca_components" in err and "nope.csv" not in err
        assert not out.exists()

    def test_svm_divs_method(self, sim_files, tmp_path):
        out = tmp_path / "svm"
        code = run(["evaluate", "--train", sim_files / "train.csv",
                    "--test", sim_files / "test.csv", "--method", "svm-divs",
                    "--svm-measure", "ckl", "--seed", "2", "-o", out] + FAST_EVAL)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["scores"]) == 16

    def test_pca_gmm_cv_pipeline_on_multivariate_data(self, tmp_path):
        # 2-D bags, PCA to the first component, GMM-AIC class densities,
        # 4-fold cross-validation
        import numpy as np

        rng = np.random.default_rng(33)
        path = tmp_path / "multi.csv"
        lines = ["bag_id,label,f1,f2"]
        for i in range(8):
            label = 1 if i % 2 == 0 else 0
            shift = 3.0 if label else 0.0
            for _ in range(25):
                u = rng.standard_normal() + shift
                v = 0.5 * u + 0.1 * rng.standard_normal()
                lines.append(f"bag{i},{label},{u!r},{v!r}")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "gmmcv"
        code = run(["evaluate", "--train", path, "--folds", "4", "--pca", "1",
                    "--estimator", "gmm-aic", "--k-max", "3", "--method", "ckl",
                    "--seed", "3", "-o", out] + FAST_EVAL)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["fold_accuracies"]) == 4
        assert report["auc"] > 0.8  # well-separated classes survive the pipeline
        holdout = tmp_path / "gmmho"
        code = run(["evaluate", "--train", path, "--test", path, "--pca", "1",
                    "--method", "rd-kl", "--seed", "3", "-o", holdout] + FAST_EVAL)
        assert code == 0


class TestTable1Command:
    def test_single_cell_layout(self, tmp_path):
        out = tmp_path / "tab"
        code = run(["table1", "--scenario", "sim1", "--cell", "pos=1,neg=5",
                    "--reps", "2", "--seed", "5", "-o", out] + FAST_EVAL)
        assert code == 0
        lines = (out / "table_long.csv").read_text().strip().splitlines()
        assert lines[0] == "scenario,pos,neg,method,auc100,ref_auc100,diff"
        rows = [l.split(",") for l in lines[1:]]
        assert {r[3] for r in rows} == {"rd_bh", "rd_kl", "ckl"}
        ref_row = next(r for r in rows if r[3] == "ckl")
        assert ref_row[5] == "85" and ref_row[6] != ""  # published value with diff
        wide = (out / "table_wide.csv").read_text().splitlines()
        assert wide[0].startswith("scenario,pos,")
        assert "diff_ckl_neg5" in wide[0]

    @pytest.mark.parametrize(
        "flags, message",
        [(["--reps", "0"], "repetitions must be at least 1"),
         (["--test", "1"], "n_test must be at least 2")],
    )
    def test_empty_study_runtime_error(self, tmp_path, capsys, flags, message):
        # --reps 0 used to exit 0 with nan AUC rows; --test 1 failed inside auc().
        out = tmp_path / "tab"
        code = run(["table1", "--scenario", "sim1", "--cell", "pos=1,neg=5", "--seed", "5",
                    "-o", out] + flags + FAST_EVAL)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (out / "table_long.csv").exists() and not (out / "table_wide.csv").exists()

    def test_reference_values_embedded(self):
        assert REFERENCE_AUC100[("sim1", 1, 5)] == {"rd_bh": 61, "rd_kl": 69, "ckl": 85}
        assert REFERENCE_AUC100[("sim5", 10, 10)] == {"rd_bh": 75, "rd_kl": 73, "ckl": 69}
        assert len(REFERENCE_AUC100) == 54  # 6 scenarios x 9 cells

    @pytest.mark.parametrize(
        "cell", ["pos=1", "pos=1,neg=5,foo=9", "pos=1,neg=5,pos=2", "pos=1,neg=x", "pos=1;neg=5"]
    )
    def test_bad_cell_spec(self, tmp_path, capsys, cell):
        # A stray key such as foo=9 used to run silently.
        code = run(["table1", "--cell", cell, "-o", tmp_path / "t"])
        assert code == 1
        assert "--cell must look like pos=1,neg=5" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("methods", ["ckl,ckl", "ckl,CKL"])
    def test_repeated_method_runtime_error(self, tmp_path, capsys, methods):
        # Used to run the whole study, then fail with a boolean index error.
        out = tmp_path / "tab"
        code = run(["table1", "--cell", "pos=1,neg=5", "--methods", methods, "--reps", "1",
                    "-o", out] + FAST_EVAL)
        assert code == 1
        assert "methods lists ckl more than once" in capsys.readouterr().err
        assert not (out / "table_long.csv").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", ""])
    def test_bad_thread_count_runtime_error(self, tmp_path, capsys, monkeypatch, threads):
        # Used to run serial without a word.
        monkeypatch.setenv("MIDIV_THREADS", threads)
        out = tmp_path / "tab"
        code = run(["table1", "--cell", "pos=1,neg=5", "--reps", "1", "-o", out] + FAST_EVAL)
        assert code == 1
        assert "MIDIV_THREADS must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_class_fit_names_its_class(self, tmp_path, capsys):
        # The one positive bag pools one instance; the error did not say which class failed.
        code = run(["table1", "--cell", "pos=1,neg=5", "--n-instances", "1", "--reps", "1",
                    "-o", tmp_path / "tab"] + FAST_EVAL)
        assert code == 1
        assert "error: class POS: bandwidth rule needs at least 2 samples" in capsys.readouterr().err

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        args = ["table1", "--scenario", "sim1", "--cell", "pos=1,neg=5", "--reps", "2",
                "--seed", "5"] + FAST_EVAL
        serial, parallel = tmp_path / "s", tmp_path / "p"
        monkeypatch.setenv("MIDIV_THREADS", "1")
        assert run(args + ["-o", serial]) == 0
        monkeypatch.setenv("MIDIV_THREADS", "2")
        assert run(args + ["-o", parallel]) == 0
        assert digest(serial / "table_long.csv") == digest(parallel / "table_long.csv")


class TestReplay:
    def test_replay_simulate_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        run(["simulate", "--scenario", "sim3", "--pos", "2", "--neg", "2",
             "--test", "4", "--seed", "13", "-o", first])
        redo = tmp_path / "redo"
        code = run(["replay", first / "manifest.json", "-o", redo])
        assert code == 0
        for name in ("train.csv", "test.csv", "latents.json"):
            assert digest(first / name) == digest(redo / name)

    def test_replay_evaluate_byte_identical(self, sim_files, tmp_path):
        first = tmp_path / "first"
        run(["evaluate", "--train", sim_files / "train.csv",
             "--test", sim_files / "test.csv", "--method", "rd-bh",
             "--seed", "21", "-o", first] + FAST_EVAL)
        redo = tmp_path / "redo"
        assert run(["replay", first / "manifest.json", "-o", redo]) == 0
        assert digest(first / "report.json") == digest(redo / "report.json")
        assert digest(first / "roc.csv") == digest(redo / "roc.csv")

    def test_replay_rejects_changed_input(self, sim_files, tmp_path, capsys):
        # The input hashes were recorded but never checked: an edited train.csv
        # replayed with exit 0 and a different report.json.
        train = tmp_path / "train.csv"
        train.write_bytes((sim_files / "train.csv").read_bytes())
        first = tmp_path / "first"
        assert run(["evaluate", "--train", train, "--test", sim_files / "test.csv",
                    "--seed", "21", "-o", first] + FAST_EVAL) == 0
        lines = train.read_text().splitlines()
        bag_id, label, value = lines[1].split(",")
        lines[1] = f"{bag_id},{label},{float(value) + 0.5!r}"
        train.write_text("\n".join(lines) + "\n")
        redo = tmp_path / "redo"
        assert run(["replay", first / "manifest.json", "-o", redo]) == 1
        err = capsys.readouterr().err
        assert str(train) in err and "sha256" in err
        assert not redo.exists()

    def test_replay_from_another_directory(self, tmp_path, monkeypatch):
        # Relative inputs were read from the replaying directory:
        # "[Errno 2] No such file or directory: 'sim/test.csv'".
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert run(["simulate", "--scenario", "sim1", "--pos", "2", "--neg", "2", "--test", "6",
                    "--seed", "1", "-o", "sim"]) == 0
        assert run(["evaluate", "--train", "sim/train.csv", "--test", "sim/test.csv",
                    "--seed", "1", "-o", "eval"] + FAST_EVAL) == 0
        monkeypatch.chdir(tmp_path)
        assert run(["replay", "run/eval/manifest.json", "-o", "redo"]) == 0
        assert os.getcwd() == str(tmp_path)
        for name in ("report.json", "roc.csv"):
            assert digest(run_dir / "eval" / name) == digest(tmp_path / "redo" / name)

    def test_replay_when_run_directory_is_gone(self, tmp_path):
        first = tmp_path / "first"
        assert run(["simulate", "--scenario", "sim1", "--pos", "1", "--neg", "1",
                    "--test", "2", "--seed", "4", "-o", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["cwd"] = str(tmp_path / "gone")
        (first / "manifest.json").write_text(json.dumps(manifest))
        redo = tmp_path / "redo"
        assert run(["replay", first / "manifest.json", "-o", redo]) == 0
        assert digest(first / "train.csv") == digest(redo / "train.csv")

    def test_replay_missing_manifest(self, tmp_path, capsys):
        assert run(["replay", tmp_path / "none.json"]) == 1

    @pytest.mark.parametrize("flags, old_defaults", [
        # argv leaves a default out; a run made when importance sampling with
        # a 4096-point grid was the default recorded them only in its config
        (["--integrator", "importance"], {"integrator": "importance", "grid_points": 4096}),
        (["--grid-points", "4096"], {"integrator": "riemann", "grid_points": 4096}),
    ])
    def test_replay_keeps_settings_whose_default_changed(
        self, sim_files, tmp_path, flags, old_defaults
    ):
        # Replay re-ran the argv under today's defaults: an importance run
        # recorded before the Riemann default replayed on a grid.
        first = tmp_path / "first"
        assert run(["evaluate", "--train", sim_files / "train.csv", "--test",
                    sim_files / "test.csv", "--seed", "21", "-o", first] + flags) == 0
        path = first / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["argv"] = [a for a in manifest["argv"] if a not in flags]
        manifest["config"].update(old_defaults)
        path.write_text(json.dumps(manifest))
        redo = tmp_path / "redo"
        assert run(["replay", path, "-o", redo]) == 0
        assert digest(first / "report.json") == digest(redo / "report.json")

    def test_replay_gmm_aic_on_integer_valued_bags(self, tmp_path):
        # Bags of 3 to 5 distinct integers, 15 instances each: the k-means++
        # starts of every size above a bag's distinct values reach a
        # distance total of 0.
        rng = np.random.default_rng(57)
        for name, prefix in (("train", "t"), ("test", "p")):
            lines = ["bag_id,label,x"]
            for i in range(8):
                d = int(rng.integers(3, 6))
                values = rng.permutation(np.concatenate([np.arange(d), rng.integers(0, d, 15 - d)]))
                lines += [f"{prefix}{i},{int(i < 4)},{v}" for v in (values + 2 * (i < 4)).tolist()]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        first = tmp_path / "first"
        assert run(["evaluate", "--train", tmp_path / "train.csv", "--test", tmp_path / "test.csv",
                    "--estimator", "gmm-aic", "--seed", "5", "-o", first]) == 0
        redo = tmp_path / "redo"
        assert run(["replay", first / "manifest.json", "-o", redo]) == 0
        assert digest(first / "report.json") == digest(redo / "report.json")
        # each test bag scores alone as in its block
        pipeline = PipelineConfig(estimator=EstimatorConfig("gmm-aic"))
        model = fit_classifier(load_dataset(tmp_path / "train.csv"), pipeline, derive_seed(5, "fit"))
        test = load_dataset(tmp_path / "test.csv")
        alone = [score_bag(model, bag, derive_seed(5, "score", bag.id)) for bag in test.bags]
        assert json.loads((first / "report.json").read_text())["scores"] == alone


def test_parser_defaults_are_the_dataclass_defaults():
    spec, est = DivergenceSpec(), EstimatorConfig()
    for command in ("evaluate", "table1"):
        args = build_parser().parse_args([command] + (["--train", "x"] if command == "evaluate"
                                                      else []))
        assert cli._divergence_spec(args) == spec
        assert EstimatorConfig(args.estimator, args.bandwidth, args.k_max) == est


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["simulate", "--scenario", "sim1", "--frobnicate", "-o", tmp_path]) == 2
