"""Univariate density estimation: KDE and Gaussian mixtures fitted by EM.

Every fitted model is an immutable :class:`DensityModel` that can be
evaluated exactly (analytic kernel/mixture sums) and sampled from. The
Epanechnikov evaluator exploits the kernel's compact support: the KDE is
one quadratic between consecutive breakpoints c +- h, so a table of the
sorted breakpoints and each piece's coefficients, local to the piece,
gives a query in one O(log n) search and one Horner step, exact at any
offset of the data. The Gaussian evaluator sums every center densely, in
cache-sized blocks of points computed in place. Every evaluation is
elementwise in the query points, so a value does not depend on the order
or the number of the other points. The divergence estimators evaluate
every density on ascending points, which keeps the Epanechnikov searches
in order.

Many small bags are handled as rows, grouped by shape and cut into blocks
of bounded memory (``_blocks``). ``_fit_kdes`` fits the samples of one
length block by block, and ``_pdf_rows`` evaluates a block of Epanechnikov
bag densities, each at its own row of points; any other block goes row by
row. ``DensityModel.pdf`` is the one-row case, and a row's values do not
depend on the other rows. Two Epanechnikov densities at the same points,
the two classes of a score phase, share one search of their merged
breakpoints (``_pdf_pair``). Every draw is a model's own
``DensityModel.sample``, one bag at a time.

Gaussian mixtures are fitted by one stacked EM (``_em``): every run of a
fit phase, from the start (w, mu, var) it is given, is a row of a few
stacked loops, one per block of a sample length and size, so the Python
overhead of a fit phase does not grow with its number of runs. A row's sums
over samples are numpy's pairwise sums of that row alone, so a run's result
is the same bits whatever is fitted with it; ``fit_gmm`` and ``select_gmm``
fit one sample through the same path. The restarts of a fit start from
k-means++ means that one generator on the fit's seed draws one after
another; the fits of a block of one sample length and size draw theirs
together (``_kmeanspp_starts``). A fit to convergence (``fit_gmm``, and the
continuation of ``select_gmm``'s winning run) is accelerated by SQUAREM
extrapolation with a monotone safeguard (``_Squarem``); the early-stopped
fits that compare sizes are plain EM, since their early stop is what keeps
the selection from rewarding spurious maximizers.
"""

from __future__ import annotations

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
# EM: k-means++ restarts per fit, the iteration cap, and the stopping
# tolerances per sample (a run stops once one EM step changes its
# log-likelihood by at most tol * n): the early one at which select_gmm
# compares candidate sizes and the strict one of every fit to convergence.
_EM_RESTARTS = 3
_EM_MAX_ITER = 500
_SELECTION_TOL = 7e-4
_STRICT_TOL = 1e-8
# Elements per (rows, k, n) array of the stacked EM: it bounds the memory a
# fit phase of many samples takes at once.
_EM_BLOCK = 1 << 16
# Centers per block of rows of the Epanechnikov table build: it bounds the
# memory a fit phase of many samples takes at once.
_TABLE_BLOCK = 1 << 11
# SQUAREM's bound on the step length |a|: its start and the factor by which
# it grows while a step reaches it, or shrinks when an extrapolation is
# rejected (the defaults of Varadhan's SQUAREM package).
_SQUAREM_STEP0 = 1.0
_SQUAREM_STEP_GROWTH = 4.0

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


def _blocks(keys, limit: int, size):
    """``(key, indices)`` blocks of the positions of ``keys``: each key's
    positions in order, its keys in first-seen order, cut into blocks of at
    most ``max(1, limit // size(key))`` positions (a key of size 0 in
    blocks of ``limit``)."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, members in groups.items():
        step = max(1, limit // max(1, size(key)))
        for start in range(0, len(members), step):
            yield key, members[start : start + step]


def silverman_bandwidth(samples: np.ndarray, kind: str, robust: bool = True) -> float:
    """Rule-of-thumb bandwidth h = C * sigma * n^(-1/5).

    With ``robust`` (the default) sigma is min(sample sd, IQR/1.349), the
    right scale for unimodal samples such as a single bag. For pooled
    multimodal samples (class-level fits) the robust spread collapses onto
    the dominant mode and under-smooths badly, so ``robust=False`` uses the
    plain sample sd. C is 1.06 for ``KDE_GAUSSIAN`` and 2.345 for
    ``KDE_EPANECHNIKOV``; h decreases strictly with n for fixed spread.
    """
    x = np.asarray(samples, dtype=float).reshape(1, -1)
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return _unwrap(_bandwidths(x, kind, robust)[0])


def _bandwidths(x: np.ndarray, kind: str, robust: bool) -> list:
    """``silverman_bandwidth`` of every row of the (rows, n) array ``x``: a
    float, or the row's ``ValueError`` in its place."""
    if kind not in _SUPPORT_PAD:
        raise ValueError(f"kind must be {KDE_EPANECHNIKOV} or {KDE_GAUSSIAN}, got {kind!r}")
    rows, n = x.shape
    if n < 2:
        message = "bandwidth rule needs at least 2 samples; pass an explicit bandwidth"
        return [ValueError(message) for _ in range(rows)]
    # A spread beyond the float range overflows (to inf, or to NaN where
    # overflowed sums cancel); such a row is rejected below, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.std(x, ddof=1, axis=1)
        sigma = sd = np.where(np.isnan(sd), np.inf, sd)
        if robust:
            q75, q25 = np.percentile(x, [75, 25], axis=1)
            iqr = q75 - q25
            scaled = iqr / 1.349
            sigma = np.where((iqr > 0) & (scaled < sd), scaled, sd)
        c = 1.06 if kind == KDE_GAUSSIAN else 2.345
        h = c * sigma * n ** (-0.2)
    zero = "zero sample variance, bandwidth rule degenerates; pass an explicit bandwidth"
    over = "sample spread overflows, bandwidth rule degenerates; pass an explicit bandwidth"
    return [ValueError(zero) if s <= 0 else b if b < math.inf else ValueError(over)
            for s, b in zip(sigma.tolist(), h.tolist())]


def _epan_tables(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The piecewise-quadratic tables of the Epanechnikov KDEs with the
    centers of the rows of the (rows, n) array ``x`` and the bandwidths
    ``h``: (rows, 4, 2n + 1), one (4, 2n + 1) table per row.

    Between two consecutive breakpoints c +- h the centers within reach are
    fixed, so the density is one quadratic there. A table's first row holds
    the 2n sorted breakpoints b and a copy of the last one; piece j is
    [b[j - 1], b[j]), and pieces 0 and 2n lie beyond the outermost
    breakpoints. Rows 1 to 3 hold each piece's coefficients q2, q1 and q0 in
    the local coordinate t = x - b[j], about the piece's right breakpoint,
    with the kernel's 0.75 / (n h) taken in: the density is
    q0 + t (q1 + t q2), and 0 on the outer pieces.

    A piece's window sums, of its centers' offsets d and of d * d, run over
    the sorted breakpoints: a center is added at c - h and taken off at
    c + h. No window spans a segment boundary, where a center is out of
    reach of its left neighbour from every point, so each offset is taken
    from its own segment's midrange. The running sums are compensated (each
    step's rounding error is summed alongside, by TwoSum), so a window sum
    is exact to its own rounding however long its segment and at any
    offset of the data; an empty window's sums are 0. The squared offsets
    about the piece's breakpoint are then the window's spread about its
    mean plus the mean's distance, which loses no digits to the anchor.
    The coefficients scale as 1 / h^3: a bandwidth beyond about 1e100, or
    below 1e-100, under- or overflows them.
    """
    rows, n = x.shape
    h = h[:, None]
    srt = np.sort(x, axis=1)
    both = np.empty((rows, 2 * n))
    lower, upper = np.subtract(srt, h, out=both[:, :n]), np.add(srt, h, out=both[:, n:])
    # A segment starts at each center out of reach of its left neighbour.
    starts = np.ones((rows, n), dtype=bool)
    np.greater_equal(lower[:, 1:], upper[:, :-1], out=starts[:, 1:])
    flat, first = srt.ravel(), np.flatnonzero(starts)
    last = np.append(first, flat.size)[1:] - 1
    anchor = (0.5 * (flat[first] + flat[last]))[np.cumsum(starts.ravel()) - 1]
    order = np.argsort(both, axis=1, kind="stable")  # two sorted runs, merged
    table = np.empty((rows, 4, 2 * n + 1))
    b = table[:, 0]
    both.take(order + np.arange(0, rows * 2 * n, 2 * n)[:, None], out=b[:, :-1], mode="clip")
    b[:, -1] = b[:, -2]
    del both, lower, upper
    sign = np.where(order < n, 1.0, -1.0)  # a center enters at c - h, leaves at c + h
    order %= n
    order += np.arange(0, rows * n, n)[:, None]  # the breakpoint's center, flat
    # The window of the piece right of sorted breakpoint j is the sorted
    # centers [lo, up): up of them have entered at or left of it, lo have left.
    up = np.cumsum(sign > 0, axis=1)
    lo = np.arange(1, 2 * n + 1) - up
    m = (up - lo).astype(float)
    del up
    # the piece's right breakpoint less its window's anchor
    np.minimum(lo, n - 1, out=lo)
    lo += np.arange(0, rows * n, n)[:, None]
    delta = anchor.take(lo)
    del lo
    np.subtract(b[:, 1:], delta, out=delta)
    # the window sums, and the rounding error of each step from the sum before it
    d = np.subtract(flat, anchor)
    step = np.stack([d, d * d]).take(order, axis=1)
    del order, d, anchor
    step *= sign
    del sign
    total = np.cumsum(step, axis=2)
    after, before = total[:, :, 1:], total[:, :, :-1]
    added = after - before
    step[:, :, 1:] -= added
    np.subtract(after, added, out=added)
    np.subtract(before, added, out=added)
    step[:, :, 1:] += added
    del added
    step[:, :, 0] = 0.0
    total += np.cumsum(step, axis=2, out=step)
    del step
    np.copyto(total, 0.0, where=m == 0)  # an empty window's residue
    s1, s2 = total
    # About the breakpoint: s1 - m delta, and s2 / (h h) as
    # (s2 - s1 mean) / h / h + m ((mean - delta) / h)^2, with no h * h to
    # overflow.
    mean = s1 / np.maximum(m, 1.0)
    s2 -= s1 * mean
    s2 /= h
    s2 /= h
    mean -= delta
    mean /= h
    mean *= mean
    mean *= m
    s2 += mean
    delta *= m
    s1 -= delta
    # the kernel sum  m - (m t t - 2 t s1) / (h h) - s2, times 0.75 / (n h)
    scale = 0.75 / (n * h)
    per_hh = scale / h / h
    table[:, 1:, 0] = 0.0
    np.multiply(m, -per_hh, out=table[:, 1, 1:])
    np.multiply(s1, 2.0 * per_hh, out=table[:, 2, 1:])
    np.subtract(m, s2, out=s2)
    np.multiply(s2, scale, out=table[:, 3, 1:])
    return table


@dataclass(frozen=True, slots=True)
class DensityModel:
    """An evaluable, sampleable univariate density (KDE or GMM).

    ``support_hint`` is the interval outside which the density is treated
    as ~0 for quadrature. KDE models carry kernel ``centers`` and a
    ``bandwidth``; GMM models carry ``components`` rows (weight, mean,
    variance). An Epanechnikov KDE also carries the piecewise-quadratic
    table of its evaluator (see ``_epan_tables``).
    """

    kind: str
    support_hint: tuple[float, float]
    bandwidth: float | None = None
    centers: np.ndarray | None = None
    components: np.ndarray | None = None
    _table: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        lo, hi = float(self.support_hint[0]), float(self.support_hint[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid support_hint {self.support_hint}")
        object.__setattr__(self, "support_hint", (lo, hi))
        if self.kind in (KDE_EPANECHNIKOV, KDE_GAUSSIAN):
            if self.bandwidth is None or not 0 < self.bandwidth < math.inf:
                raise ValueError("KDE bandwidth must be positive and finite")
            centers = np.asarray(self.centers, dtype=float).ravel()
            if centers.size < 1 or not np.isfinite(centers).all():
                raise ValueError("KDE centers must be a non-empty finite array")
            centers = centers.copy()
            centers.setflags(write=False)
            object.__setattr__(self, "centers", centers)
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
            if self.kind == KDE_EPANECHNIKOV:
                table = _epan_tables(centers[None, :], np.array([self.bandwidth]))[0]
                object.__setattr__(self, "_table", table)
        elif self.kind == GMM:
            comp = np.atleast_2d(np.asarray(self.components, dtype=float))
            if comp.shape[1] != 3:
                raise ValueError("GMM components must be rows of (weight, mean, variance)")
            if not np.isfinite(comp).all():
                raise ValueError("GMM components must be finite")
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
            out = _epan_pdf([self], xf[None, :])
        elif self.kind == KDE_GAUSSIAN:
            out = self._gauss_pdf(xf)
        else:
            out = self._gmm_pdf(xf)
        out = out.reshape(np.atleast_1d(x).shape)
        return float(out[0]) if scalar else out

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
        """``n`` draws from the density, deterministic given ``seed``.

        The generator calls, in this order, are the contract that keeps
        outputs byte-identical: a generator from ``seed``; for a KDE the
        center indices ``integers(0, centers.size, size=n)``, then the
        kernel draws, ``standard_normal(n)`` (Gaussian) or the inverse CDF
        of ``random(n)`` (Epanechnikov), and the sample is center +
        bandwidth * kernel draw; for a GMM the component indices
        ``choice(k, size=n, p=weights)``, then ``standard_normal(n)``.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        if self.kind == GMM:
            w = self.components[:, 0]
            comp = rng.choice(w.size, size=n, p=w / w.sum())
            mu = self.components[comp, 1]
            sd = np.sqrt(self.components[comp, 2])
            return mu + sd * rng.standard_normal(n)
        centers = self.centers[rng.integers(0, self.centers.size, size=n)]
        if self.kind == KDE_GAUSSIAN:
            return centers + self.bandwidth * rng.standard_normal(n)
        return centers + self.bandwidth * _epanechnikov_ppf(rng.random(n))


def _epan_pdf(models, x: np.ndarray) -> np.ndarray:
    """Row r of the (rows, points) array ``x`` evaluated by the Epanechnikov
    KDE ``models[r]``; the rows' center counts may differ.

    Each point's piece is searched in its row's breakpoints, row by row, and
    the pieces' quadratics are evaluated by one ``_epan_horner`` call on
    every row at once.
    """
    if len(models) == 1:
        table = models[0]._table
        j = table[0, :-1].searchsorted(x, side="right")
    else:
        j = np.empty(x.shape, dtype=np.intp)
        for r, m in enumerate(models):
            j[r] = m._table[0, :-1].searchsorted(x[r], side="right")
        # the tables end to end, each row's indices shifted into its own
        j += np.cumsum([0] + [m._table.shape[1] for m in models[:-1]])[:, None]
        table = np.concatenate([m._table for m in models], axis=1)
    return _epan_horner(table, j, x)


def _epan_horner(table: np.ndarray, j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Epanechnikov KDE of ``table`` at the points ``x``, each in the
    piece ``j`` of the same shape that a right-sided search of its
    breakpoints gives: the piece's quadratic by one Horner step (see
    ``_epan_tables``). The arithmetic is elementwise, so a value is the same
    bits whatever else is evaluated with it. It runs in place, and holds at
    most three arrays of the size of ``x`` besides ``j``.
    """
    b, q2, q1, q0 = table
    # q0 + t (q1 + t q2) with t = x - b
    t = b.take(j)
    np.subtract(x, t, out=t)
    out = q2.take(j)
    out *= t
    q = q1.take(j)
    out += q
    out *= t
    q0.take(j, out=q, mode="clip")  # every index is in range; "raise" would buffer the output
    out += q
    return np.maximum(out, 0.0, out=out)


def _pdf_pair(a, b, points: int):
    """A function of (rows, points) arrays ``x``, of ``points`` points in
    all, that gives ``(a.pdf(x), b.pdf(x))``, the same bits.

    When ``a`` and ``b`` are both Epanechnikov KDEs, the points are searched
    once, in the sorted union of the two tables' breakpoints, built here
    once. A point's position k in the union is the count of breakpoints at
    or left of it, so ``a``'s piece is the count of ``a``'s among them
    (read from one count array) and ``b``'s is k less that count: the pieces
    that a search of each table gives. Each table then takes its own Horner
    step. Building the union costs about what searching its own size in
    points saves, so fewer ``points`` than that (one bag's, say) and any
    other pair of densities call each density's own ``pdf``.
    """
    epan = all(isinstance(m, DensityModel) and m.kind == KDE_EPANECHNIKOV for m in (a, b))
    if not epan or points < a._table.shape[1] + b._table.shape[1] - 2:
        return lambda x: (a.pdf(x), b.pdf(x))
    both = np.concatenate([a._table[0, :-1], b._table[0, :-1]])
    order = both.argsort(kind="stable")  # two sorted runs, merged
    union = both[order]
    counts = np.zeros(union.size + 1, dtype=np.intp)  # a's breakpoints before each position
    np.cumsum(order < a._table.shape[1] - 1, out=counts[1:])
    del both, order

    def pdfs(x):
        j = union.searchsorted(x, side="right")
        ja = counts.take(j)
        j -= ja  # b's pieces
        fa = _epan_horner(a._table, ja, x)
        del ja
        return fa, _epan_horner(b._table, j, x)

    return pdfs


def _pdf_rows(models, x: np.ndarray) -> np.ndarray:
    """Row r of the (rows, points) array ``x`` evaluated by ``models[r]``.

    A block of Epanechnikov KDEs is one ``_epan_pdf`` call; in any other
    block each row (a GMM, a Gaussian KDE, or any object with a ``pdf``)
    calls its own ``pdf``.
    """
    kinds = {m.kind if isinstance(m, DensityModel) else None for m in models}
    if kinds == {KDE_EPANECHNIKOV}:
        return _epan_pdf(models, x)
    return np.array([m.pdf(row) for m, row in zip(models, x, strict=True)])


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
    return _unwrap(_fit_kdes([samples], kernel, bandwidth, robust_sigma)[0])


def _fit_kdes(samples, kernel: str, bandwidth: float | None, robust_sigma: bool) -> list:
    """``fit_kde`` of every sample: the samples of one length are the rows
    of a few blocks of at most ``_TABLE_BLOCK`` centers, each checked, given
    its bandwidths and support and built into its Epanechnikov tables as one
    array. A sample that cannot be fitted gets its ``ValueError`` in its
    place."""
    if kernel not in ("EPANECHNIKOV", "GAUSSIAN"):
        raise ValueError(f"kernel must be 'EPANECHNIKOV' or 'GAUSSIAN', got {kernel!r}")
    kind = f"KDE_{kernel}"
    flat = [np.asarray(x, dtype=float).ravel() for x in samples]
    out: list = [None] * len(flat)
    for n, members in _blocks([x.size for x in flat], _TABLE_BLOCK, lambda n: n):
        x = np.array([flat[i] for i in members]).reshape(len(members), n)
        fitted = np.isfinite(x).all(axis=1) & (n > 0)
        for i in np.array(members)[~fitted]:
            out[i] = ValueError("samples must be non-empty and finite")
        members, x = [i for i, ok in zip(members, fitted) if ok], x[fitted]
        if not members:
            continue
        if bandwidth is None:
            hs = _bandwidths(x, kind, robust_sigma)
        else:
            h = float(bandwidth)
            hs = [h if h > 0 else ValueError("bandwidth must be positive") for _ in members]
        h = np.array([np.nan if isinstance(h, ValueError) else h for h in hs])
        pad = _SUPPORT_PAD[kind] * h
        support = np.column_stack([x.min(axis=1) - pad, x.max(axis=1) + pad])
        ok = np.isfinite(support).all(axis=1)  # a NaN bandwidth is a failed rule
        for r in np.flatnonzero(~ok):
            out[members[r]] = hs[r] if np.isnan(h[r]) else ValueError(
                f"invalid support_hint {tuple(support[r].tolist())}")
        x.setflags(write=False)
        rows = np.flatnonzero(ok)
        tables = _epan_tables(x[rows], h[rows]) if kind == KDE_EPANECHNIKOV else [None] * rows.size
        for r, table in zip(rows.tolist(), tables):
            out[members[r]] = _fitted_kde(kind, tuple(support[r].tolist()), hs[r], x[r], table)
    return out


def _fitted_kde(kind: str, support_hint, bandwidth: float, centers, table) -> DensityModel:
    """A KDE of the fit phase, whose group has already checked its centers
    (a read-only row), its bandwidth and its support and built its table:
    ``__post_init__``'s checks and copies are not made again."""
    model = object.__new__(DensityModel)
    for name, value in (("kind", kind), ("support_hint", support_hint), ("bandwidth", bandwidth),
                        ("centers", centers), ("components", None), ("_table", table)):
        object.__setattr__(model, name, value)
    return model


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    means = np.empty(k)
    means[0] = x[rng.integers(x.size)]
    d2 = np.full(x.size, np.inf)  # each sample's squared distance to its nearest mean
    for j in range(1, k):
        np.minimum(d2, (x - means[j - 1]) ** 2, out=d2)
        total = d2.sum()
        if total <= 0:
            means[j] = x[rng.integers(x.size)]
        else:
            means[j] = x[rng.choice(x.size, p=d2 / total)]
    return means


def _kmeanspp_starts(x: np.ndarray, k: int, seeds) -> np.ndarray:
    """The (jobs, ``_EM_RESTARTS``, 3, k) starts (w, mu, var) of the fits of
    the rows of the (jobs, n) array ``x``: equal weights, the row's variance,
    and the means of ``_kmeanspp_means`` called once per restart on one
    generator on the job's seed, ``seeds[j]``.

    Every restart takes each step together. It draws its first index and
    then the k - 1 uniforms that ``Generator.choice`` would draw one at a
    time, and an index is read as ``choice`` reads it:
    ``cdf = cumsum(d2 / total)``, ``cdf /= cdf[-1]``, the count of
    ``cdf <= u``. A restart whose distance total is not positive and finite
    at some step draws differently there, so its job is redone by
    ``_kmeanspp_means`` from a fresh generator on its seed.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = [(rng.integers(x.shape[1]), rng.random(k - 1)) for rng in rngs for _ in range(_EM_RESTARTS)]
    starts = np.empty((len(x), _EM_RESTARTS, 3, k))
    starts[:, :, 0] = 1.0 / k
    starts[:, :, 2] = np.var(x, axis=1)[:, None, None]  # each row's, as np.var of the row alone
    x = np.repeat(x, _EM_RESTARTS, axis=0)
    rows = np.arange(len(x))
    means = np.empty((len(x), k))
    means[:, 0] = x[rows, [first for first, _ in draws]]
    u = np.array([uniforms for _, uniforms in draws])
    d2 = np.full(x.shape, np.inf)  # each sample's squared distance to its nearest mean
    redo = np.zeros(len(x), dtype=bool)
    for j in range(1, k):
        np.minimum(d2, (x - means[:, j - 1 : j]) ** 2, out=d2)
        total = d2.sum(axis=1)
        redo |= ~((total > 0) & (total < np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):  # rows to redo only
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
        means[:, j] = x[rows, np.count_nonzero(cdf <= u[:, j - 1 : j], axis=1)]
    means = means.reshape(len(rngs), _EM_RESTARTS, k)
    for j in np.flatnonzero(redo.reshape(len(rngs), _EM_RESTARTS).any(axis=1)):
        rng = np.random.default_rng(seeds[j])
        means[j] = [_kmeanspp_means(x[j * _EM_RESTARTS], k, rng) for _ in range(_EM_RESTARTS)]
    starts[:, :, 1] = means
    return starts


def _em(jobs, tol: float, accelerate: bool = False) -> list:
    """EM for every job ``(x, start)`` in ``jobs`` at once: ``(w, mu, var,
    log-likelihood trace, converged, evaluations)`` per job, in order.

    A job fits the k components of ``start``, a (w, mu, var) of k each, to
    the sample ``x`` of n values, and stops once one EM step changes its
    log-likelihood by at most ``tol * n``, or after ``_EM_MAX_ITER``
    evaluations of the EM map. With ``accelerate`` the runs take SQUAREM
    cycles (see ``_Squarem``); the trace then holds the log-likelihood of
    every point the run moved to, and ``evaluations`` also counts the
    extrapolations it rejected. Jobs of one n and k are stacked as the rows
    of blocks of at most ``_EM_BLOCK`` elements per (rows, k, n) array,
    iterated together, and a row leaves the stack when it stops. Each row is
    summed on its own, in a fixed order, so a run's result is the same bits
    whatever is stacked with it. Runs padded to a common k with inert
    components (log-weight -inf in every E-step, SQUAREM norms taken per k)
    keep those bits too, but in one stack they saved only 11 % of the plain
    and 6 % of the accelerated EM time of the ``table1-gmm`` benchmark.
    Padding to a common n would not keep them: it changes how the sums over
    samples round.
    """
    out: list = [None] * len(jobs)
    keys = [(x.size, len(start[0])) for x, start in jobs]
    for _, block in _blocks(keys, _EM_BLOCK, lambda key: key[0] * key[1]):
        x = np.array([jobs[i][0] for i in block])
        start = np.array([jobs[i][1] for i in block])
        for i, fit in zip(block, _em_stack(x, start, tol, accelerate)):
            out[i] = fit
    return out


def _em_stack(x: np.ndarray, start: np.ndarray, tol: float, accelerate: bool) -> list:
    """``_em`` for the rows of the (rows, n) samples ``x``, from the (rows, 3,
    k) starts ``start``.

    The arrays are (rows, k, n), so every elementwise step runs along n and
    every sum over samples is numpy's pairwise sum of one contiguous row;
    sums over components add one component after another. Every loop
    evaluates the EM map once for each row: an E-step at the row's point,
    then the M-step from it.
    """
    (count, n), k = x.shape, start.shape[2]
    var_floor = 1e-6 * np.var(x, axis=1)[:, None]  # each row's, as np.var of the row alone
    x = x[:, None, :]
    w, mu, var = start.transpose(1, 0, 2)
    rows = np.arange(count)  # the runs still iterating, in stack order
    lls = np.empty((count, 8))  # each run's log-likelihood per evaluation, widened as needed
    evaluations = np.full(count, _EM_MAX_ITER)
    stopped = np.empty((3, count, k))  # w, mu and var of each run when it stops
    converged = np.zeros(count, dtype=bool)
    prev = np.full(count, np.nan)  # each row's last value on its trace
    squarem = _Squarem(count, k) if accelerate else None
    # The loop's only (rows, k, n) arrays: every step writes into one of them.
    log_joint = np.empty((count, k, n))
    resp = np.empty_like(log_joint)
    for it in range(_EM_MAX_ITER):
        # log(w) - 0.5 * log(2 pi var) - 0.5 / var * d * d with d = x - mu
        np.subtract(x, mu[:, :, None], out=log_joint)
        np.multiply(log_joint, log_joint, out=log_joint)
        np.multiply(log_joint, (-0.5 / var)[:, :, None], out=log_joint)
        np.add(log_joint, (np.log(w) - 0.5 * np.log(2.0 * np.pi * var))[:, :, None], out=log_joint)
        m = log_joint.max(axis=1)
        np.exp(np.subtract(log_joint, m[:, None, :], out=resp), out=resp)
        total = resp.sum(axis=1)  # at least 1: the largest term is exp(0)
        ll = (m + np.log(total)).sum(axis=1)
        if it == lls.shape[1]:
            lls = np.concatenate([lls, np.empty_like(lls)], axis=1)
        lls[rows, it] = ll
        # A rejected extrapolation stays off its row's trace: its value is
        # marked NaN, which no point on a trace has. Convergence is judged
        # on EM steps only.
        phase = it % 3
        kept, em_step = (None, True) if squarem is None else squarem.judge(phase, ll)
        if kept is not None:
            lls[rows[~kept], it] = np.nan
        # The change is only compared where the previous value is finite;
        # where it is not, its arithmetic must not warn.
        with np.errstate(invalid="ignore"):
            done = em_step & np.isfinite(prev) & (np.abs(ll - prev) <= tol * n)
        prev = ll if kept is None else np.where(kept, ll, prev)
        if done.any():
            stopped[:, rows[done]] = w[done], mu[done], var[done]
            converged[rows[done]] = True
            evaluations[rows[done]] = it + 1
            keep = ~done
            x, w, mu, var, var_floor = x[keep], w[keep], mu[keep], var[keep], var_floor[keep]
            rows, ll, resp, total = rows[keep], ll[keep], resp[keep], total[keep]
            prev = prev[keep]
            if squarem is not None:
                squarem.keep(keep)
            if rows.size == 0:
                break
            log_joint = np.empty_like(resp)
        point = w, mu, var
        np.divide(resp, total[:, None, :], out=resp)
        nj = np.maximum(resp.sum(axis=2), 1e-300)
        w = nj / n
        mu = np.multiply(resp, x, out=log_joint).sum(axis=2) / nj
        d = np.subtract(x, mu[:, :, None], out=log_joint)
        np.multiply(resp, d, out=resp)
        var = np.multiply(resp, d, out=resp).sum(axis=2) / nj
        var = np.maximum(var, var_floor)
        del d  # a view of the buffer: a compaction must free it
        if squarem is not None:
            w, mu, var = squarem.step(phase, point, (w, mu, var), ll, var_floor)
    if squarem is not None:  # a row at the cap ends one EM step past its trace
        w, mu, var = squarem.last_em_step(phase, (w, mu, var))
    stopped[:, rows] = w, mu, var  # the runs that reached the cap, if any
    traces = [lls[r, :e] for r, e in enumerate(evaluations.tolist())]
    if squarem is not None:
        traces = [t[~np.isnan(t)] for t in traces]
    return [
        (*stopped[:, r], t.copy(), c, e)
        for r, (t, c, e) in enumerate(zip(traces, converged.tolist(), evaluations.tolist()))
    ]


def _free(w, mu, var) -> np.ndarray:
    """(rows, 3, k): the mixture in (log w, mu, log var), where SQUAREM steps."""
    t = np.empty((len(w), 3, w.shape[1]))
    np.log(w, out=t[:, 0])
    t[:, 1] = mu
    np.log(var, out=t[:, 2])
    return t


class _Squarem:
    """SQUAREM cycles for the rows of one EM stack (Varadhan & Roland 2008,
    Scand. J. Statist. 35(2), scheme S3), three EM-map evaluations each.

    From a point t0, two EM steps give t1 and t2. With r = t1 - t0,
    v = t2 - t1 - r and the step a = -|r|/|v|, clipped to [-limit, -1], the
    row moves to t0 - 2 a r + a^2 v, in (log w, mu, log var) so that the
    weights stay on the simplex and the variances above the floor, and the
    cycle's third evaluation is the EM step from there. An extrapolated
    point is kept only if its log-likelihood is at least t1's, so no
    extrapolation lowers a trace; otherwise the row goes on from t2, as
    plain EM would, and its limit shrinks. Each row's limit starts at 1 (a plain cycle) and
    grows while the step reaches it. Every row of a stack is at the same
    phase of its cycle, ``it % 3``, so the bookkeeping is a few stacked
    steps per evaluation.
    """

    def __init__(self, rows: int, k: int):
        self.alpha = np.full(rows, -1.0)
        self.limit = np.full(rows, _SQUAREM_STEP0)
        self.t0 = np.empty((rows, 3, k))
        self.t2 = np.empty((3, rows, k))  # w, mu and var
        self.ll1 = np.empty(rows)  # the log-likelihood at t1
        self.kept = np.ones(rows, dtype=bool)

    def keep(self, keep: np.ndarray) -> None:
        self.alpha, self.limit, self.ll1 = self.alpha[keep], self.limit[keep], self.ll1[keep]
        self.t0, self.t2, self.kept = self.t0[keep], self.t2[:, keep], self.kept[keep]

    def judge(self, phase: int, ll: np.ndarray):
        """Which rows' points go on their traces (None: every row's), and
        which were EM steps."""
        if phase != 2:
            return None, True
        extrapolated = self.alpha < -1.0
        self.kept = ~extrapolated | (ll >= self.ll1)
        return self.kept, ~extrapolated

    def step(self, phase: int, point, mapped, ll: np.ndarray, var_floor: np.ndarray):
        """The next point of every row, from its evaluated ``point`` and that
        point's EM step ``mapped``."""
        if phase == 0:
            self.t0 = _free(*point)
            return mapped
        if phase == 2:
            dropped = ~self.kept
            if not dropped.any():
                return mapped
            shrunk = self.limit[dropped] / _SQUAREM_STEP_GROWTH
            self.limit[dropped] = np.maximum(shrunk, _SQUAREM_STEP0)
            return tuple(np.where(dropped[:, None], b, a) for a, b in zip(mapped, self.t2))
        t1 = _free(*point)
        self.t2[:] = mapped
        self.ll1 = ll
        r = t1 - self.t0
        v = _free(*mapped) - t1 - r
        shape = (len(r), 3 * r.shape[2])
        with np.errstate(divide="ignore", invalid="ignore"):
            a = -np.sqrt((r * r).reshape(shape).sum(axis=1) / (v * v).reshape(shape).sum(axis=1))
        a = np.where(np.isfinite(a), np.maximum(np.minimum(a, -1.0), -self.limit), -1.0)
        self.limit = np.where(a == -self.limit, self.limit * _SQUAREM_STEP_GROWTH, self.limit)
        self.alpha = a
        plain = a == -1.0
        if plain.all():
            return mapped
        s = a[:, None, None]
        t = self.t0 - 2.0 * s * r + s * s * v
        # weights relative to the largest, floored so that none underflows to 0
        lw = np.maximum(t[:, 0] - t[:, 0].max(axis=1, keepdims=True), -700.0)
        w = np.exp(lw)
        w /= w.sum(axis=1)[:, None]
        var = np.maximum(np.exp(t[:, 2]), var_floor)
        plain = plain[:, None]
        return (np.where(plain, mapped[0], w), np.where(plain, mapped[1], t[:, 1]),
                np.where(plain, mapped[2], var))

    def last_em_step(self, phase: int, point):
        """The rows' points one EM step past their traces: after phase 1 the
        point is an extrapolation not yet evaluated, so it is t2."""
        return tuple(self.t2) if phase == 1 else point


def _gmm_sample(samples, k: int) -> np.ndarray:
    """``samples`` as a flat float array, checked for a k-component fit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 3 * k:
        raise ValueError(f"need at least {3 * k} samples to fit k={k} components, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        var = np.var(x)
    if not var < np.inf:
        raise ValueError("sample variance overflows; GMM fit is degenerate")
    if var <= 0:
        raise ValueError("zero sample variance; GMM fit is degenerate")
    return x


def _gmm_result(k: int, fit) -> tuple[DensityModel, EmFitReport]:
    """The model and report of a k-component EM fit ``(w, mu, var, trace,
    converged, evaluations)``."""
    w, mu, var, trace, converged, evaluations = fit
    order = np.argsort(mu)  # canonical component order
    w, mu, var = w[order], mu[order], var[order]
    w = w / w.sum()
    ll = float(trace[-1])
    n_params = 3 * k - 1
    report = EmFitReport(
        component_count=k,
        log_likelihood=ll,
        aic=2.0 * n_params - 2.0 * ll,
        iterations=evaluations,
        converged=converged,
        log_likelihood_trace=tuple(trace.tolist()),
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


def _best_runs(samples, ks, seeds, tol: float, accelerate: bool) -> list:
    """The best of the ``_EM_RESTARTS`` runs of every (sample, k, seed) job by
    final log-likelihood, every run in one ``_em`` call. The jobs' starts
    are drawn by ``_kmeanspp_starts``, in the blocks of one sample length and
    size that ``_em`` stacks. A job whose sample cannot be fitted gets its
    ``ValueError`` in its place."""
    results: list = [None] * len(samples)
    jobs, owners = [], []
    for i, (sample, k, seed) in enumerate(zip(samples, ks, seeds, strict=True)):
        try:
            x = _gmm_sample(sample, k)
        except ValueError as exc:
            results[i] = exc
            continue
        jobs.append((x, k, seed))
        owners.append(i)
    runs: list = [None] * len(jobs)
    keys = [(x.size, k) for x, k, _ in jobs]
    for (_, k), block in _blocks(keys, _EM_BLOCK, lambda key: key[0] * key[1] * _EM_RESTARTS):
        starts = _kmeanspp_starts(np.array([jobs[j][0] for j in block]), k, [jobs[j][2] for j in block])
        for j, job_starts in zip(block, starts):
            runs[j] = [(jobs[j][0], start) for start in job_starts]
    fits = iter(_em([run for job in runs for run in job], tol, accelerate))
    for i in owners:  # max keeps the first of equal bests
        results[i] = max((next(fits) for _ in range(_EM_RESTARTS)), key=lambda fit: fit[3][-1])
    return results


def _result_or_error(k: int, best):
    """``_gmm_result`` of a job's best run, or the ``ValueError`` of the job or the result."""
    if isinstance(best, ValueError):
        return best
    try:
        return _gmm_result(k, best)
    except ValueError as exc:
        return exc


def _select_gmms(samples, k_max: int, seeds) -> list:
    """``select_gmm`` of every sample, one seed each: every selection fit in one
    ``_em`` call, then the continuation of every winning run in another.

    A candidate size's AIC is read from its best run's log-likelihood; only
    the sizes that could win are built into a model, in AIC order, and a
    size whose model ``_gmm_result`` rejects is passed over. A sample that
    cannot be fitted gets its ``ValueError`` in its place.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    children = [as_seed_sequence(seed).spawn(k_max) for seed in seeds]
    sizes = range(1, k_max + 1)
    selection = _best_runs(
        [sample for sample in samples for _ in sizes],
        [k for _ in samples for k in sizes],
        [child for row in children for child in row],
        _SELECTION_TOL,
        accelerate=False,
    )
    results: list = [None] * len(samples)
    winners = []
    for i in range(len(samples)):
        fits = dict(zip(sizes, selection[i * k_max : (i + 1) * k_max]))
        aics = {
            k: 2.0 * (3 * k - 1) - 2.0 * float(fit[3][-1])
            for k, fit in fits.items() if not isinstance(fit, ValueError)
        }
        # the least AIC wins, ties to the smaller size; NaN and +inf never win
        ranked = sorted((aic, k) for k, aic in aics.items() if aic < np.inf)
        valid = (k for _, k in ranked if not isinstance(_result_or_error(k, fits[k]), ValueError))
        best_k = next(valid, None)
        if best_k is None:
            errors = [_result_or_error(k, fit) for k, fit in fits.items()]
            last_error = next((e for e in reversed(errors) if isinstance(e, ValueError)), None)
            results[i] = ValueError(f"no GMM size in 1..{k_max} could be fitted: {last_error}")
            continue
        winners.append((i, best_k, fits[best_k]))
    continued = _em([(_gmm_sample(samples[i], k), fit[:3]) for i, k, fit in winners],
                    _STRICT_TOL, accelerate=True)
    for (i, k, fit), (w, mu, var, trace, converged, evaluations) in zip(winners, continued):
        # A converged run stopped at its trace's last point, where the
        # continuation's trace starts; one at the cap stopped one step past it.
        trace = np.concatenate([fit[3], trace[1:] if fit[4] else trace])
        results[i] = _result_or_error(k, (w, mu, var, trace, converged, fit[5] + evaluations))
    return results


def _unwrap(result):
    if isinstance(result, ValueError):
        raise result
    return result


def fit_gmm(samples: Sequence[float], k: int, seed) -> tuple[DensityModel, EmFitReport]:
    """Fit a k-component univariate GMM by EM, deterministic given seed.

    Runs three SQUAREM-accelerated EM fits from k-means++ initializations,
    all drawn from one generator on ``seed``, each until one EM step moves
    the log-likelihood by at most 1e-8 per sample or for at most 500 EM-map
    evaluations, and keeps the best final log-likelihood.
    A variance floor of 1e-6 times the sample variance is applied at every
    M-step. The report's ``iterations`` counts the evaluations, rejected
    extrapolations included; its trace holds the log-likelihood of every
    point the fit moved to, and never decreases beyond rounding.
    """
    fit = _best_runs([samples], [k], [as_seed_sequence(seed)], _STRICT_TOL, accelerate=True)[0]
    return _unwrap(_result_or_error(k, fit))


def select_gmm(samples: Sequence[float], k_max: int, seed) -> tuple[DensityModel, EmFitReport]:
    """Fit k = 1..k_max and return the fit with minimum AIC (ties: smaller k).

    Candidate sizes are compared with early-stopped EM fits, which stop once
    one EM step moves the log-likelihood by at most 7e-4 per sample: running
    every candidate to full convergence lets spurious maximizers
    (single-point spikes, split components) squeeze out tiny likelihood
    gains that routinely beat the AIC penalty, which breaks the selection.
    These fits are plain EM, three restarts of at most 500 iterations each,
    as in ``fit_gmm``. The winning size's best run is then continued from
    where it stopped to ``fit_gmm``'s strict tolerance (1e-8 per sample),
    SQUAREM-accelerated, and that fit is returned. Its report
    covers the whole run: ``iterations`` counts the selection run's
    evaluations and the continuation's, and the trace is the selection
    run's, continued.
    """
    return _unwrap(_select_gmms([samples], k_max, [seed])[0])
