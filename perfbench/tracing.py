"""Spans and counts at midiv's module boundaries, recorded from outside.

The program is not edited: ``install`` replaces the names through which one
module calls into another (``midiv.cli.load_dataset``,
``midiv.classify.fit_kde``, ``DensityModel.pdf``, ...) with wrappers that
record a span, and ``restore`` puts the originals back. Spans stay in memory
until the run ends. A span's self time is its duration minus that of its
direct children; a layer's time is the sum of its spans' self times, so the
layer times of a run add up to the time spent inside ops.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

# Span names; each layer time metric is the name plus "_s".
SPAN_NAMES = (
    "cli.self",
    "core.load",
    "core.pca",
    "density.fit",
    "density.pdf_epan",
    "density.pdf_gauss",
    "density.pdf_gmm",
    "density.sample",
    "divergence.reduce",
    "simulate.sample",
    "seeds.derive",
    "classify.self",
    "classify.threshold",
    "classify.roc",
    "classify.auc",
    "classify.svm",
)
COUNT_NAMES = (
    "core.load_bytes",
    "density.fit_calls",
    "density.em_fits",
    "density.em_iterations",
    "density.pdf_calls",
    "density.pdf_points",
    "density.gauss_kernel_evals",
    "density.sample_points",
    "divergence.scorer_calls",
    "simulate.bags",
    "seeds.derive_calls",
    "classify.bags_scored",
    "classify.threshold_candidates",
    "classify.svm_steps",
    "cli.bytes_written",
)
_UNITS = {"core.load_bytes": "bytes", "cli.bytes_written": "bytes",
          "density.em_converged_ratio": "ratio", "trace.overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else _UNITS.get(metric, "count")


# Count metrics that must repeat exactly between two traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "density.em_iterations",
    "density.pdf_points",
    "seeds.derive_calls",
    "classify.bags_scored",
    "classify.svm_steps",
    "classify.threshold_candidates",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.unpatched: list[str] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's first argument. ``count(counts, args, kwargs, result)``
        runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args[0]) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Wrap ``owner.attr``. A boundary the program no longer has is listed
        in ``unpatched``; its time then falls to the calling layer."""
        original = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            self.unpatched.append(label)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# --------------------------------------------------------------------------
# the boundaries


def _add(key, value_of=lambda a, k, r: 1):
    def count(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)
    return count


def _count_pdf(counts, args, kwargs, result):
    model, x = args[0], args[1]
    points = getattr(x, "size", 1)
    counts["density.pdf_calls"] += 1
    counts["density.pdf_points"] += points
    if model.kind == "KDE_GAUSSIAN":
        counts["density.gauss_kernel_evals"] += points * model.centers.size


def _count_em(counts, args, kwargs, result):
    counts["density.em_fits"] += 1
    counts["density.em_iterations"] += len(result[3])
    counts["density.em_converged"] += bool(result[4])


def _count_threshold(counts, args, kwargs, result):
    scores = args[0]
    policy = args[2] if len(args) > 2 else kwargs.get("policy", "loocv")
    if str(policy).lower() == "loocv":  # one candidate between each pair of unique scores
        counts["classify.threshold_candidates"] += max(len(set(map(float, scores))) - 1, 0)


def _count_svm(counts, args, kwargs, result):
    features, config = args[0], args[2]
    counts["classify.svm_steps"] += len(features) * config.epochs


def _study_bags(args, kwargs, result):
    reps = sum(len(next(iter(c.rep_aucs.values()))) for c in result.cells)
    return reps * kwargs.get("n_test", 100)  # run_sim_study's default test size


_PDF_SPAN = {"KDE_EPANECHNIKOV": "density.pdf_epan", "KDE_GAUSSIAN": "density.pdf_gauss",
             "GMM": "density.pdf_gmm"}


def install(tracer: Tracer, midiv) -> None:
    """Wrap every boundary of the freshly imported ``midiv`` package."""
    cli, classify, density = midiv.cli, midiv.classify, midiv.density
    p = tracer.patch
    p(cli, "load_dataset", "core.load", _add("core.load_bytes", lambda a, k, r: os.path.getsize(a[0])))
    p(cli, "run_sim_study", "classify.self", _add("classify.bags_scored", _study_bags))
    for entry in ("cross_validate", "evaluate_holdout"):
        p(cli, entry, "classify.self", _add("classify.bags_scored", lambda a, k, r: len(r.scores)))
    p(classify, "fit_pca", "core.pca")
    p(classify, "apply_pca", "core.pca")
    p(classify, "fit_kde", "density.fit", _add("density.fit_calls"))
    p(classify, "select_gmm", "density.fit", _add("density.fit_calls"))
    p(density, "fit_gmm", "density.fit")  # select_gmm looks it up in density
    p(density, "_em_once", "density.fit", _count_em)
    p(density.DensityModel, "pdf", lambda model: _PDF_SPAN[model.kind], _count_pdf)
    p(density.DensityModel, "sample", "density.sample",
      _add("density.sample_points", lambda a, k, r: len(r)))
    # Until the divergence core is split out, classify's two fused per-bag
    # scorers are the divergence boundary.
    for scorer in ("_bundle_scores", "_divergence_features"):
        p(classify, scorer, "divergence.reduce", _add("divergence.scorer_calls"))
    p(classify, "sample_experiment", "simulate.sample",
      _add("simulate.bags", lambda a, k, r: len(r[0]) + len(r[1])))
    p(classify, "derive_seed", "seeds.derive", _add("seeds.derive_calls"))
    p(classify, "choose_threshold", "classify.threshold", _count_threshold)
    p(classify, "roc_points", "classify.roc")
    p(classify, "auc", "classify.auc")
    p(classify, "train_linear_svm", "classify.svm", _count_svm)


# --------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, traced_wall: float) -> tuple[dict[str, float], list[str]]:
    """Self time per layer and counts, plus the errors of the span bookkeeping.

    ``trace.unattributed_s`` is the traced wall time outside every op span:
    the benchmark's own output checks and loop.
    """
    errors = []
    spans = tracer.spans
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name = Counter()
    for span, t in zip(spans, self_time):
        by_name[span[0]] += t
    if any(end < start for _, start, end, _, _ in spans) or any(t < -1e-9 for t in self_time):
        errors.append("spans are not properly nested")
    unknown = set(by_name) - set(SPAN_NAMES)
    if unknown:
        errors.append(f"unknown spans {sorted(unknown)}")
    in_ops = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    unattributed = traced_wall - in_ops
    total = sum(by_name.values()) + unattributed
    if abs(total - traced_wall) > 1e-6 * max(traced_wall, 1.0):
        errors.append(f"self times + unattributed = {total!r}, traced wall {traced_wall!r}")
    metrics = {f"{name}_s": by_name.get(name, 0.0) for name in SPAN_NAMES}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNT_NAMES})
    fits = tracer.counts.get("density.em_fits", 0)
    metrics["density.em_converged_ratio"] = tracer.counts.get("density.em_converged", 0) / fits if fits else 0.0
    metrics["trace.unattributed_s"] = unattributed
    return metrics, errors
