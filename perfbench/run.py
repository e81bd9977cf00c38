"""midiv benchmark: in-process CLI ops, end-to-end metrics or per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1-epan --seed 1 --seconds 20 --trace 0

Each op is one ``midiv`` command called through ``midiv.cli.main(argv)`` in
this process, with the program's defaults (``MIDIV_THREADS`` unset). Ops run
one after another (a closed loop with one client) until ``--seconds`` of op
time has passed, at least the workload's ``min_ops`` ops are done and the op
count is a whole number of the workload's ``block`` (table1 runs end on a
whole pass through the grid, so every cell weighs the same). Every
op's outputs are checked. ``--trace 0`` reports the end-to-end metrics; their
times are scaled to a reference host speed, measured by a fixed calibration
loop run between the ops (see ``measure``), because the speed of a shared
host drifts by up to half between runs.
``--trace 1`` runs the workload's fixed op list traced and then untraced and
reports the per-layer metrics. The last line of stdout is the result JSON;
the line before it is a report with the run context, op latencies, output
hashes and layer shares, also written to ``.perfbench_out/``.

``--smoke`` shrinks every input and ``--ops N`` fixes the op count; the
self-test (``python3 perfbench/selftest.py``) uses both.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, install, layer_metrics, unit_of
from workloads import GRID, TABLE1_ORDER, WORKLOADS, Table1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Calibration time spent per second of set-up or op time in an untraced run.
CALIBRATION_SHARE = 0.1
CALIBRATION_BATCH = 4  # units run back to back after one warm-up unit
# The median calibration unit on the reference host, a 2-core x86-64 VM with
# Python 3.11 and numpy 2; it fixes the scale of the reported times only.
CALIBRATION_REFERENCE_S = 0.022
THREAD_ENV = ("MIDIV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@dataclass
class Op:
    index: int
    latency: float
    bags: int
    errors: list[str] = field(default_factory=list)
    aucs: dict[str, float] = field(default_factory=dict)
    output_sha256: str = ""
    bytes_written: int = 0


def import_midiv():
    """A fresh import of ``midiv`` from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "midiv" or m.startswith("midiv.")]:
        del sys.modules[name]
    midiv = importlib.import_module("midiv")
    importlib.import_module("midiv.cli")
    if not Path(midiv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported midiv from {midiv.__file__}, not from {SRC}")
    return midiv


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over the op's output files except the manifest (it holds wall
    clock time), and their total size in bytes."""
    digest, size = hashlib.sha256(), 0
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        size += len(data)
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), size


def run_op(main, workload, inputs: dict, i: int, out: Path) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    argv = workload.argv(inputs, i, out)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:  # an op failure is counted, the run goes on
        code = repr(exc)
    op = Op(index=i, latency=time.perf_counter() - start, bags=workload.bags(inputs, i))
    if code != 0:
        op.errors.append(f"op {i} {' '.join(argv)}: exit {code} {stderr.getvalue().strip()[-300:]}")
        return op
    errors, op.aucs = workload.check(out, inputs, i)
    op.errors += [f"op {i}: {e}" for e in errors]
    op.output_sha256, op.bytes_written = output_digest(out)
    return op


def setup(workload, work: Path, seed: int, smoke: bool):
    """Import midiv, make the inputs from the seed and run one small warm-up op."""
    start = time.perf_counter()
    midiv = import_midiv()
    inputs = workload.prepare(midiv, work / "inputs", seed, smoke)
    warm_inputs = workload.prepare(midiv, work / "warm", seed, True)
    warm = run_op(midiv.cli.main, workload, warm_inputs, 0, work / "out")
    if warm.errors:
        raise RuntimeError(f"warm-up failed: {warm.errors[0]}")
    return time.perf_counter() - start, midiv, inputs


def calibrate() -> float:
    """Seconds for a fixed numpy-only loop: the host's speed at the time."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal(100_000)
    c = np.sort(rng.standard_normal(2_000))
    start = time.perf_counter()
    for _ in range(10):
        np.searchsorted(c, a)
        np.exp(-0.5 * a * a).sum()
        np.sort(a)
    return time.perf_counter() - start


_UNIT_RNG = np.random.default_rng(54321)
_UNIT_POINTS = _UNIT_RNG.standard_normal(80_000)
_UNIT_CENTERS = np.sort(_UNIT_RNG.standard_normal(2_000))


def calibration_unit() -> float:
    """Seconds for a small fixed loop, half numpy and half pure Python.

    It shares no code with midiv, so a change to the program cannot move it;
    only the host's speed does.
    """
    start = time.perf_counter()
    np.searchsorted(_UNIT_CENTERS, _UNIT_POINTS)
    np.exp(-0.5 * _UNIT_POINTS * _UNIT_POINTS).sum()
    np.sort(_UNIT_POINTS)
    table: dict[int, float] = {}
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - start


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "midiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(seed: int, threads_env: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": threads_env,
        "seed": seed,
    }


def table1_order_errors(ops: list[Op]) -> list[str]:
    """The run-mean AUC must keep the paper's order cKL > rKL > rBH."""
    means = {m: statistics.fmean(op.aucs[m] for op in ops) for m in TABLE1_ORDER}
    ranked = [means[m] for m in TABLE1_ORDER]
    if all(a > b for a, b in zip(ranked, ranked[1:])):
        return []
    return [f"run-mean AUC {means} breaks the order {' > '.join(TABLE1_ORDER)}"]


def quality(workload, ops: list[Op]) -> tuple[float, list[str]]:
    """auc100 over the run's first ``min_ops`` ops, and run-level check errors.

    A fixed prefix keeps auc100 a function of the seed alone.
    """
    prefix = ops[: workload.min_ops]
    if any(op.errors for op in prefix):
        return 0.0, []  # the run fails on the ops' own errors
    auc100 = 100.0 * statistics.fmean(statistics.fmean(op.aucs.values()) for op in prefix)
    full_grid = isinstance(workload, Table1) and len(prefix) >= len(GRID)
    return auc100, table1_order_errors(prefix) if full_grid else []


def measure(workload, work, args):
    """Untraced run: end-to-end metrics, in seconds of the reference host.

    After each set-up and each op, calibration units run for about
    ``CALIBRATION_SHARE`` of its time. The median unit over the run, divided
    by ``CALIBRATION_REFERENCE_S``, is the host's slowdown during the run;
    every time metric is divided by it. The raw figures are in the report.
    """
    units: list[float] = []
    owed = 0.0  # calibration units owed; they run in warm batches

    def calibrate_for(seconds: float, flush: bool = False) -> None:
        nonlocal owed
        owed += CALIBRATION_SHARE * seconds / CALIBRATION_REFERENCE_S
        if owed >= CALIBRATION_BATCH or flush:
            calibration_unit()  # warms the caches; not counted
            n = max(1, round(owed))
            units.extend(calibration_unit() for _ in range(n))
            owed -= n

    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(setup(workload, work, args.seed, args.smoke))
        calibrate_for(setups[-1][0])
    _, midiv, inputs = setups[-1]
    ops, spent, i = [], 0.0, 0
    while (i < args.ops) if args.ops else (i < workload.min_ops or spent < args.seconds or i % workload.block):
        ops.append(run_op(midiv.cli.main, workload, inputs, i, work / "out"))
        spent += ops[-1].latency
        calibrate_for(ops[-1].latency)
        i += 1
    calibrate_for(0.0, flush=True)
    latencies = [op.latency for op in ops]
    auc100, errors = quality(workload, ops)
    slowdown = statistics.median(units) / CALIBRATION_REFERENCE_S
    raw = {
        "setup_s": statistics.median(s[0] for s in setups),
        "bags_per_s": sum(op.bags for op in ops) / spent,
        "op_p50_s": statistics.median(latencies),
    }
    metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "bags_per_s": (raw["bags_per_s"] * slowdown, "bags/s"),
        "op_p50_s": (raw["op_p50_s"] / slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "auc100": (auc100, "AUCx100"),
    }
    extra = {
        "host_slowdown": slowdown,
        "calibration_units": len(units),
        "calibration_unit_s": {"median": statistics.median(units), "min": min(units),
                               "max": max(units)},
        "raw": raw,
        "setup_s_each": [s[0] for s in setups],
    }
    if len(ops) >= 100:  # at least ten ops lie beyond the p90
        raw["op_p90_s"] = statistics.quantiles(latencies, n=10)[8]
        extra["op_p90_s"] = raw["op_p90_s"] / slowdown
    return ops, metrics, errors, extra


def measure_traced(workload, work, args):
    """Traced run of a fixed op list, then the same ops untraced."""
    _, midiv, inputs = setup(workload, work, args.seed, args.smoke)
    n = args.ops or workload.trace_ops
    tracer = Tracer()
    install(tracer, midiv)
    main = tracer.wrap("cli.self", midiv.cli.main)
    start = time.perf_counter()
    traced = []
    for i in range(n):
        tracer.op = i
        traced.append(run_op(main, workload, inputs, i, work / "out"))
        tracer.counts["cli.bytes_written"] += traced[-1].bytes_written
    traced_wall = time.perf_counter() - start
    tracer.restore()
    plain = [run_op(midiv.cli.main, workload, inputs, i, work / "out") for i in range(n)]
    layer, errors = layer_metrics(tracer, traced_wall)
    for a, b in zip(traced, plain):
        if not (a.errors or b.errors) and a.output_sha256 != b.output_sha256:
            errors.append(f"op {a.index}: traced and untraced outputs differ")
    layer["trace.overhead_ratio"] = sum(op.latency for op in traced) / sum(op.latency for op in plain)
    _, quality_errors = quality(workload, traced)
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    times = {k: v for k, v in layer.items() if k.endswith("_s") and k != "trace.unattributed_s"}
    extra = {
        "traced_wall_s": traced_wall,
        "layer_share": {k: v / traced_wall for k, v in sorted(times.items(), key=lambda kv: -kv[1])},
        "largest_self_time": max(times, key=times.get),
        "boundaries_not_found": tracer.unpatched,
        "untraced_latencies_s": [op.latency for op in plain],
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return traced + plain, metrics, errors + quality_errors, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--ops", type=int, default=0, help="fixed op count (0: time-bounded)")
    args = parser.parse_args(argv)
    if args.ops < 0 or args.seconds < 0:
        parser.error("--ops and --seconds must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "midiv" / "__init__.py").is_file():
        print(f"error: no midiv source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads_env = {k: os.environ.get(k) for k in THREAD_ENV}
    os.environ.pop("MIDIV_THREADS", None)  # the program's default: one worker
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    calibration_before = calibrate()
    try:
        ops, metrics, errors, extra = (measure_traced if args.trace else measure)(workload, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration_after = calibrate()
    failed = [op for op in ops if op.errors]
    errors = [e for op in failed for e in op.errors][:20] + errors
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "context": dict(run_context(args.seed, threads_env), op_count=len(ops)),
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "error_rate": len(failed) / len(ops),
        "op_latencies_s": [op.latency for op in ops],
        "op_output_sha256": [op.output_sha256 for op in ops],
        "run_output_sha256": hashlib.sha256("".join(op.output_sha256 for op in ops).encode()).hexdigest(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **extra,
        "errors": errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for e in errors:
        print(f"FAIL: {e}")
    print(json.dumps({"report": report}))
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
