"""Self-test of the benchmark at tiny sizes. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- every workload's result line names exactly the metrics of BENCHMARK.json;
- two traced runs with one seed give identical count metrics and outputs;
- the output checks reject a tampered report, ROC and table, and a failing op.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import run_op
from tracing import DETERMINISTIC_COUNTS
from workloads import WORKLOADS, check_report, check_roc, check_table_long, mann_whitney_auc

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """Report and result of one smoke run with a fixed op count."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", "--ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exit {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result_contract(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)


def test_workloads() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        _, result = run(name, trace=0)
        check_result_contract(result, "end_to_end")
        report_a, traced_a = run(name, trace=1)
        report_b, traced_b = run(name, trace=1)
        check_result_contract(traced_a, "per_layer")
        for key in DETERMINISTIC_COUNTS:
            a, b = traced_a["metrics"][key]["value"], traced_b["metrics"][key]["value"]
            assert a == b, f"{name}: {key} {a} != {b}"
        assert report_a["op_output_sha256"] == report_b["op_output_sha256"], name
        print(f"ok {name}: " + ", ".join(
            f"{k}={traced_a['metrics'][k]['value']}" for k in DETERMINISTIC_COUNTS))


def test_checks_reject_tampering() -> None:
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(40)
    positive = np.arange(40) < 20
    auc = mann_whitney_auc(scores, positive)
    assert abs(mann_whitney_auc(np.r_[0.0, 0.0], np.array([True, False])) - 0.5) < 1e-15
    work = ROOT / ".perfbench_out"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp)
        roc = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]

        def write(auc_value, roc_points, score_list):
            (out / "report.json").write_text(json.dumps(
                {"scores": score_list, "labels": [int(p) for p in positive],
                 "auc": auc_value, "roc": roc_points}))
            (out / "roc.csv").write_text(
                "fpr,tpr\n" + "".join(f"{a!r},{b!r}\n" for a, b in roc_points))

        write(auc, roc, list(scores))
        assert check_report(out, 40)[0] == []
        write(auc + 1e-9, roc, list(scores))
        assert check_report(out, 40)[0], "a wrong AUC passed"
        write(auc, roc[1:], list(scores))
        assert check_report(out, 40)[0], "a ROC not starting at (0,0) passed"
        write(auc, roc, list(scores[:-1]) + [float("inf")])
        assert check_report(out, 40)[0], "a non-finite score passed"
        assert check_report(out, 41)[0], "a missing bag passed"
        assert check_roc([(0.0, 0.0), (0.6, 0.5), (0.5, 1.0), (1.0, 1.0)])

        table = out / "table_long.csv"
        header = "scenario,pos,neg,method,auc100,ref_auc100,diff\n"
        rows = "".join(f"sim1,1,5,{m},{v},,\n" for m, v in (("rd_bh", 60), ("rd_kl", 70), ("ckl", 90)))
        table.write_text(header + rows)
        assert check_table_long(table, (1, 5))[0] == []
        table.write_text(header + rows.replace("ckl,90", "ckl,101"))
        assert check_table_long(table, (1, 5))[0], "an AUC above 1 passed"
        table.write_text(header + rows.replace("sim1,1,5,ckl,90,,\n", ""))
        assert check_table_long(table, (1, 5))[0], "a missing method passed"

        inputs = {"seed": 1, "test": 2, "n_instances": 2}
        for main in (lambda argv: 1, lambda argv: 1 / 0):
            assert run_op(main, WORKLOADS["table1-epan"], inputs, 0, out / "op").errors, \
                "a failing op passed"
    print("ok output checks reject tampered outputs")


if __name__ == "__main__":
    test_checks_reject_tampering()
    test_workloads()
    print("selftest passed")
