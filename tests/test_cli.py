import hashlib
import json
import os

import pytest

from midiv.cli import REFERENCE_AUC100, RunManifest, main


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return main([str(a) for a in args])


FAST_EVAL = ["--n-imp", "500"]


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

    def test_bad_cell_spec(self, tmp_path, capsys):
        code = run(["table1", "--cell", "pos=1", "-o", tmp_path / "t"])
        assert code == 1
        assert "cell" in capsys.readouterr().err

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

    def test_replay_missing_manifest(self, tmp_path, capsys):
        assert run(["replay", tmp_path / "none.json"]) == 1


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["simulate", "--scenario", "sim1", "--frobnicate", "-o", tmp_path]) == 2
