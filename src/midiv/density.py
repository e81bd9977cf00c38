"""Univariate density estimation: KDE and Gaussian mixtures fitted by EM.

Every fitted model is an immutable :class:`DensityModel` that can be
evaluated exactly (analytic kernel/mixture sums), sampled from, and
serialized to JSON. The Epanechnikov evaluator exploits the kernel's
compact support: with sorted centers and prefix sums one query costs
O(log n) instead of O(n), which keeps large experiment sweeps cheap. The
Gaussian evaluator sums every center densely, in cache-sized blocks of
points computed in place. Every evaluation is elementwise in the query
points, so a value does not depend on the order or the number of the other
points: the divergence estimators sort each point set once and evaluate
every density on it, which keeps the Epanechnikov lookups in order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .seeds import as_seed_sequence

__all__ = [
    "KDE_EPANECHNIKOV",
    "KDE_GAUSSIAN",
    "GMM",
    "DensityModel",
    "EmFitReport",
    "fit_kde",
    "fit_gmm",
    "select_gmm",
    "silverman_bandwidth",
]

KDE_EPANECHNIKOV = "KDE_EPANECHNIKOV"
KDE_GAUSSIAN = "KDE_GAUSSIAN"
GMM = "GMM"

# Support padding in bandwidths: the Epanechnikov kernel is exactly zero
# beyond one bandwidth; the Gaussian kernel is negligible beyond five.
_SUPPORT_PAD = {KDE_EPANECHNIKOV: 1.0, KDE_GAUSSIAN: 5.0}
_GMM_SUPPORT_SIGMAS = 5.0
# EM: k-means++ restarts per fit, the iteration cap, and the early-stopping
# tolerance at which select_gmm compares candidate sizes.
_EM_RESTARTS = 3
_EM_MAX_ITER = 500
_SELECTION_TOL = 3e-4

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Points x centers per block of the dense Gaussian sum (two float64 buffers
# of this size stay in cache).
_GAUSS_BLOCK = 1 << 15


def _epanechnikov_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse CDF of the Epanechnikov kernel on [-1, 1].

    The CDF is the cubic 0.75*(u - u^3/3 + 2/3); the root in [-1, 1] has
    the closed trigonometric form below.
    """
    p = np.asarray(p, dtype=float)
    u = 2.0 * np.cos((np.arccos(1.0 - 2.0 * p) + 4.0 * np.pi) / 3.0)
    return np.clip(u, -1.0, 1.0)


def silverman_bandwidth(samples: np.ndarray, kind: str, robust: bool = True) -> float:
    """Rule-of-thumb bandwidth h = C * sigma * n^(-1/5).

    With ``robust`` (the default) sigma is min(sample sd, IQR/1.349), the
    right scale for unimodal samples such as a single bag. For pooled
    multimodal samples (class-level fits) the robust spread collapses onto
    the dominant mode and under-smooths badly, so ``robust=False`` uses the
    plain sample sd. C is 1.06 for ``KDE_GAUSSIAN`` and 2.345 for
    ``KDE_EPANECHNIKOV``; h decreases strictly with n for fixed spread.
    """
    if kind not in _SUPPORT_PAD:
        raise ValueError(f"kind must be {KDE_EPANECHNIKOV} or {KDE_GAUSSIAN}, got {kind!r}")
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("bandwidth rule needs at least 2 samples; pass an explicit bandwidth")
    sd = float(np.std(x, ddof=1))
    if robust:
        q75, q25 = np.percentile(x, [75, 25])
        iqr = float(q75 - q25)
        sigma = min(sd, iqr / 1.349) if iqr > 0 else sd
    else:
        sigma = sd
    if sigma <= 0:
        raise ValueError("zero sample variance, bandwidth rule degenerates; pass an explicit bandwidth")
    c = 1.06 if kind == KDE_GAUSSIAN else 2.345
    return c * sigma * n ** (-0.2)


@dataclass(frozen=True)
class DensityModel:
    """An evaluable, sampleable univariate density (KDE or GMM).

    ``support_hint`` is the interval outside which the density is treated
    as ~0 for quadrature. KDE models carry kernel ``centers`` and a
    ``bandwidth``; GMM models carry ``components`` rows (weight, mean,
    variance).
    """

    kind: str
    support_hint: tuple[float, float]
    bandwidth: float | None = None
    centers: np.ndarray | None = None
    components: np.ndarray | None = None
    # Derived lookup tables for the fast Epanechnikov evaluator.
    _sorted: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _cum1: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _cum2: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _shift: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        lo, hi = float(self.support_hint[0]), float(self.support_hint[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid support_hint {self.support_hint}")
        object.__setattr__(self, "support_hint", (lo, hi))
        if self.kind in (KDE_EPANECHNIKOV, KDE_GAUSSIAN):
            if self.bandwidth is None or not self.bandwidth > 0:
                raise ValueError("KDE bandwidth must be positive")
            centers = np.asarray(self.centers, dtype=float).ravel()
            if centers.size < 1 or not np.all(np.isfinite(centers)):
                raise ValueError("KDE centers must be a non-empty finite array")
            centers = centers.copy()
            centers.setflags(write=False)
            object.__setattr__(self, "centers", centers)
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
            shift = float(centers.mean())
            srt = np.sort(centers - shift)
            object.__setattr__(self, "_shift", shift)
            object.__setattr__(self, "_sorted", srt)
            object.__setattr__(self, "_cum1", np.concatenate(([0.0], np.cumsum(srt))))
            object.__setattr__(self, "_cum2", np.concatenate(([0.0], np.cumsum(srt**2))))
        elif self.kind == GMM:
            comp = np.atleast_2d(np.asarray(self.components, dtype=float))
            if comp.shape[1] != 3:
                raise ValueError("GMM components must be rows of (weight, mean, variance)")
            w, var = comp[:, 0], comp[:, 2]
            if np.any(var <= 0):
                raise ValueError("GMM variances must be positive")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("GMM weights must be non-negative and sum to 1 within 1e-12")
            comp = comp.copy()
            comp.setflags(write=False)
            object.__setattr__(self, "components", comp)
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")

    # -- evaluation --------------------------------------------------------

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).ravel()
        if self.kind == KDE_EPANECHNIKOV:
            out = self._epan_pdf(xf)
        elif self.kind == KDE_GAUSSIAN:
            out = self._gauss_pdf(xf)
        else:
            out = self._gmm_pdf(xf)
        out = out.reshape(np.atleast_1d(x).shape)
        return float(out[0]) if scalar else out

    def _epan_pdf(self, x: np.ndarray) -> np.ndarray:
        h = self.bandwidth
        n = self._sorted.size
        z = x - self._shift
        lo = np.searchsorted(self._sorted, z - h, side="left")
        hi = np.searchsorted(self._sorted, z + h, side="right")
        m = (hi - lo).astype(float)
        s1 = self._cum1[hi] - self._cum1[lo]
        s2 = self._cum2[hi] - self._cum2[lo]
        # sum over in-window centers of (z - c)^2, expanded with prefix sums
        quad = m * z * z - 2.0 * z * s1 + s2
        f = 0.75 / (n * h) * (m - quad / (h * h))
        return np.maximum(f, 0.0)

    def _gauss_pdf(self, x: np.ndarray) -> np.ndarray:
        h = self.bandwidth
        centers = self.centers
        n = centers.size
        out = np.empty(x.size)
        rows = max(1, _GAUSS_BLOCK // n)
        u = np.empty((min(rows, x.size), n))
        t = np.empty_like(u)
        for start in range(0, x.size, rows):
            stop = min(start + rows, x.size)
            ub, tb = u[: stop - start], t[: stop - start]
            # exp(-0.5 * u * u) with u = (x - c) / h, in that order: each
            # point's row sum is then the same bits whatever the block.
            np.subtract(x[start:stop, None], centers, out=ub)
            np.divide(ub, h, out=ub)
            np.multiply(ub, -0.5, out=tb)
            np.multiply(tb, ub, out=tb)
            np.exp(tb, out=tb)
            tb.sum(axis=1, out=out[start:stop])
        out /= n * h * _SQRT_2PI
        return out

    def _gmm_pdf(self, x: np.ndarray) -> np.ndarray:
        w = self.components[:, 0]
        mu = self.components[:, 1]
        var = self.components[:, 2]
        d = x[:, None] - mu[None, :]
        return (w / np.sqrt(2.0 * np.pi * var) * np.exp(-0.5 * d * d / var)).sum(axis=1)

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, seed) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        if self.kind == GMM:
            w = self.components[:, 0]
            comp = rng.choice(w.size, size=n, p=w / w.sum())
            mu = self.components[comp, 1]
            sd = np.sqrt(self.components[comp, 2])
            return mu + sd * rng.standard_normal(n)
        idx = rng.integers(0, self.centers.size, size=n)
        base = self.centers[idx]
        if self.kind == KDE_GAUSSIAN:
            return base + self.bandwidth * rng.standard_normal(n)
        return base + self.bandwidth * _epanechnikov_ppf(rng.random(n))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc: dict = {"kind": self.kind, "support_hint": list(self.support_hint)}
        if self.kind == GMM:
            doc["components"] = [list(row) for row in self.components]
        else:
            doc["bandwidth"] = self.bandwidth
            doc["centers"] = list(self.centers)
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "DensityModel":
        doc = json.loads(text)
        return cls(
            kind=doc["kind"],
            support_hint=tuple(doc["support_hint"]),
            bandwidth=doc.get("bandwidth"),
            centers=None if "centers" not in doc else np.asarray(doc["centers"]),
            components=None if "components" not in doc else np.asarray(doc["components"]),
        )


@dataclass(frozen=True)
class EmFitReport:
    """Outcome of one EM fit: chosen size, fit quality and iteration trace."""

    component_count: int
    log_likelihood: float
    aic: float
    iterations: int
    converged: bool
    log_likelihood_trace: tuple[float, ...] = field(repr=False, default=())


def fit_kde(
    samples: Sequence[float],
    kernel: str = "EPANECHNIKOV",
    bandwidth: float | None = None,
    robust_sigma: bool = True,
) -> DensityModel:
    """Fit a kernel density estimate; bandwidth defaults to the rule of thumb.

    ``kernel`` is ``"EPANECHNIKOV"`` or ``"GAUSSIAN"``. With an explicit
    bandwidth a single sample is allowed; the automatic rule needs at least
    2 samples with positive spread. ``robust_sigma`` selects the spread
    estimate of the rule (see :func:`silverman_bandwidth`).
    """
    if kernel not in ("EPANECHNIKOV", "GAUSSIAN"):
        raise ValueError(f"kernel must be 'EPANECHNIKOV' or 'GAUSSIAN', got {kernel!r}")
    kind = f"KDE_{kernel}"
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 1 or not np.all(np.isfinite(x)):
        raise ValueError("samples must be non-empty and finite")
    if bandwidth is None:
        h = silverman_bandwidth(x, kind, robust=robust_sigma)
    else:
        h = float(bandwidth)
        if not h > 0:
            raise ValueError("bandwidth must be positive")
    pad = _SUPPORT_PAD[kind] * h
    return DensityModel(
        kind=kind,
        support_hint=(float(x.min()) - pad, float(x.max()) + pad),
        bandwidth=h,
        centers=x,
    )


def _log_gmm_matrix(x: np.ndarray, w: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """log(w_j * N(x_i; mu_j, var_j)) as an (n, k) matrix."""
    d = x[:, None] - mu[None, :]
    return np.log(w)[None, :] - 0.5 * (np.log(2.0 * np.pi * var)[None, :] + d * d / var[None, :])


def _logsumexp(rows: np.ndarray) -> np.ndarray:
    m = rows.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))).ravel()


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    means = np.empty(k)
    means[0] = x[rng.integers(x.size)]
    for j in range(1, k):
        d2 = np.min((x[:, None] - means[None, :j]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            means[j] = x[rng.integers(x.size)]
        else:
            means[j] = x[rng.choice(x.size, p=d2 / total)]
    return means


def _em_once(
    x: np.ndarray, k: int, rng: np.random.Generator, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], bool]:
    n = x.size
    sample_var = float(np.var(x))
    var_floor = 1e-6 * sample_var
    w = np.full(k, 1.0 / k)
    mu = _kmeanspp_means(x, k, rng)
    var = np.full(k, sample_var)
    trace: list[float] = []
    converged = False
    prev = -np.inf
    for _ in range(_EM_MAX_ITER):
        log_joint = _log_gmm_matrix(x, w, mu, var)
        log_norm = _logsumexp(log_joint)
        ll = float(log_norm.sum())
        trace.append(ll)
        if np.isfinite(prev) and abs(ll - prev) <= tol * max(1.0, abs(prev)):
            converged = True
            break
        prev = ll
        resp = np.exp(log_joint - log_norm[:, None])
        nj = resp.sum(axis=0)
        nj = np.maximum(nj, 1e-300)
        w = nj / n
        mu = (resp * x[:, None]).sum(axis=0) / nj
        d = x[:, None] - mu[None, :]
        var = (resp * d * d).sum(axis=0) / nj
        var = np.maximum(var, var_floor)
    return w, mu, var, trace, converged


def fit_gmm(
    samples: Sequence[float], k: int, seed, tol: float = 1e-8
) -> tuple[DensityModel, EmFitReport]:
    """Fit a k-component univariate GMM by EM, deterministic given seed.

    Runs three EM fits of at most 500 iterations from k-means++
    initializations and keeps the best final log-likelihood. A variance
    floor of 1e-6 times the sample variance is applied at every M-step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 3 * k:
        raise ValueError(f"need at least {3 * k} samples to fit k={k} components, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if np.var(x) <= 0:
        raise ValueError("zero sample variance; GMM fit is degenerate")
    ss = as_seed_sequence(seed)
    best = None
    for child in ss.spawn(_EM_RESTARTS):
        rng = np.random.default_rng(child)
        w, mu, var, trace, converged = _em_once(x, k, rng, tol)
        if best is None or trace[-1] > best[3][-1]:
            best = (w, mu, var, trace, converged)
    w, mu, var, trace, converged = best
    order = np.argsort(mu)  # canonical component order
    w, mu, var = w[order], mu[order], var[order]
    w = w / w.sum()
    ll = trace[-1]
    n_params = 3 * k - 1
    report = EmFitReport(
        component_count=k,
        log_likelihood=ll,
        aic=2.0 * n_params - 2.0 * ll,
        iterations=len(trace),
        converged=converged,
        log_likelihood_trace=tuple(trace),
    )
    sd = np.sqrt(var)
    model = DensityModel(
        kind=GMM,
        support_hint=(
            float(np.min(mu - _GMM_SUPPORT_SIGMAS * sd)),
            float(np.max(mu + _GMM_SUPPORT_SIGMAS * sd)),
        ),
        components=np.column_stack([w, mu, var]),
    )
    return model, report


def select_gmm(samples: Sequence[float], k_max: int, seed) -> tuple[DensityModel, EmFitReport]:
    """Fit k = 1..k_max and return the fit with minimum AIC (ties: smaller k).

    Candidate sizes are compared with early-stopped EM fits (tolerance
    3e-4): running every candidate to full convergence lets spurious
    maximizers (single-point spikes, split components) squeeze out tiny
    likelihood gains that routinely beat the AIC penalty, which breaks the
    selection. The winning size is then refitted at ``fit_gmm``'s strict
    default tolerance and that fully converged fit is returned.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ss = as_seed_sequence(seed)
    children = ss.spawn(k_max)
    best_k: int | None = None
    best_aic = np.inf
    last_error: Exception | None = None
    for k in range(1, k_max + 1):
        try:
            _, report = fit_gmm(samples, k, children[k - 1], tol=_SELECTION_TOL)
        except ValueError as exc:
            last_error = exc
            continue
        if report.aic < best_aic:
            best_k, best_aic = k, report.aic
    if best_k is None:
        raise ValueError(f"no GMM size in 1..{k_max} could be fitted: {last_error}")
    return fit_gmm(samples, best_k, children[best_k - 1])

