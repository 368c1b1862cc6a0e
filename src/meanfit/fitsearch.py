"""Histogram fitting, MSE scoring, and grid sweeps over kernel/shape parameters.

A histogram is fitted by treating bin centers as observations, bin counts as
frequency weights, and multiplying in the kernel weight ``u(center)``; a bin
with a non-positive center, a zero count or a zero kernel weight is dropped.
Fit quality is the mean squared difference between the empirical bin density
``count / (total * width)`` and the fitted density, over every bin with a
positive center, zero-count bins included (an empty bin is honest evidence of
density 0).  A fit is either finite or a typed failure, checked in this order:
no kept bin (``EmptyDataError``), no solution for the mean statistic
(``NoSolutionError``), theta outside its domain, a non-finite log-likelihood,
a non-finite MSE (each ``DomainError``); a point fails with the first check it
fails.  ``fit_surface`` scores a whole (shape x kernel) grid in bounded chunks
of shape rows, the closed form and the checks one array pass per chunk and the
density grid of the MSE one bounded block at a time (the shapes' constants are
the columns of one model, ``shape_columns``); ``fit_histogram`` is its
one-point surface, and a sweep, a grid search with deterministic tie-breaking,
is its ``best()`` and ``profile()``.  Every weighted sum is ``means._dot``'s,
as on the scalar path, in 8192-term blocks where it has more than 8191 terms:
no fit or log-likelihood depends on the BLAS thread count or its inputs' layout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, EmptyDataError, NoSolutionError, SweepError
from .expfam import FamilyModel, shape_columns
from .means import _dot
from .wmle import WeightKernel, _kernel_weights, _loglik_at_max

__all__ = [
    "FitReport",
    "FitSurface",
    "Histogram",
    "KernelComparison",
    "SweepGrid",
    "compare_kernels",
    "fit_histogram",
    "fit_surface",
]

_FIT_ERRORS = (DomainError, EmptyDataError, NoSolutionError)
_BLOCK = 2**17   # doubles (1 MiB) in the density grid of a fit_surface block


@dataclass(frozen=True)
class Histogram:
    """Strictly increasing bin edges of finite widths plus non-negative
    counts; so every center, halved before the sum, is finite."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.atleast_1d(np.asarray(self.edges, dtype=float))
        counts = np.atleast_1d(np.asarray(self.counts, dtype=float))
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("histogram needs at least two bin edges")
        with np.errstate(all="ignore"):
            widths, total = np.diff(edges), counts.sum()
        # A non-finite edge makes a width next to it non-finite.
        if not np.all((0.0 < widths) & (widths < np.inf)):
            raise DomainError("bin edges must be finite and strictly increasing, with finite widths")
        if counts.shape != (edges.size - 1,):
            raise DomainError("counts must have one entry per bin")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise DomainError("counts must be finite and non-negative")
        if not np.isfinite(total):
            raise DomainError("counts must be finite and non-negative, with a finite sum")
        if not np.any(counts > 0.0):
            raise DomainError("at least one count must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def nbins(self) -> int:
        return self.counts.size

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * self.edges[:-1] + 0.5 * self.edges[1:]

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class FitReport:
    """One fitted (model, kernel) combination on one histogram."""

    model: str
    kernel: str
    beta: float | None
    alpha: float | None
    theta_hat: float
    mse: float
    loglik: float
    dropped_bins: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive grid lo, lo+step, ..., hi, none past hi; a point rounding near 0 is 0."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and math.isfinite(self.step)):
            raise DomainError("grid bounds and step must be finite")
        if self.lo > self.hi:
            raise DomainError("grid needs lo <= hi")
        if self.step <= 0.0:
            raise DomainError("grid step must be positive")
        # np.arange cannot index more bytes than an intp counts, nor inf points.
        if not (self.hi - self.lo) / self.step < np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise DomainError("grid has too many points")

    def points(self) -> np.ndarray:
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9))
        pts = np.minimum(self.lo + self.step * np.arange(n + 1), self.hi)
        pts[1:][np.abs(pts[1:]) <= 4 * np.spacing(max(abs(self.lo), abs(self.hi)))] = 0.0
        return pts


@dataclass(frozen=True)
class KernelComparison:
    """Per-kernel win percentages for one model over a set of histograms."""

    model: str
    pct_unit: float
    pct_power: float
    pct_log1p: float
    mean_improvement: float
    n_scored: int
    failures: tuple[str, ...]


def fit_histogram(model: FamilyModel, hist: Histogram, kernel: WeightKernel) -> FitReport:
    """Closed-form fit of one model/kernel pair, scored by MSE: the one-point
    ``fit_surface``, raising its failure."""
    return fit_surface(model, hist, (kernel,)).report(0, 0)


def _report_key(report: FitReport) -> tuple:
    # Ties go to the exponent of smallest magnitude, then the smaller
    # exponent, then the smaller shape; completion order never matters.
    beta = report.beta if report.beta is not None else 0.0
    return (report.mse, abs(beta), beta, report.alpha or 0.0)


@dataclass(frozen=True)
class FitSurface:
    """Closed-form fits of one model at every (shape, kernel) grid point.

    Row ``i`` is the model at shape ``alphas[i]`` (one row, the model itself,
    when no shapes are swept) and column ``j`` is ``kernels[j]``.  A failed
    point is NaN in ``theta_hat``, ``mse`` and ``loglik``, and ``failures``
    keeps its exception, the first failed check of the module docstring,
    keyed ``(i, j)`` in row-major order.  ``dropped_bins`` depends on the
    kernel only.
    """

    model: str
    alphas: tuple
    kernels: tuple
    shape_swept: bool
    theta_hat: np.ndarray
    mse: np.ndarray
    loglik: np.ndarray
    dropped_bins: np.ndarray
    failures: dict

    def report(self, i: int, j: int) -> FitReport:
        """The report of point ``(i, j)``; a failed point raises its exception."""
        if (i, j) in self.failures:
            raise self.failures[(i, j)]
        kernel = self.kernels[j]
        return FitReport(
            model=self.model,
            kernel=kernel.kind,
            beta=kernel.beta,
            alpha=self.alphas[i],
            theta_hat=float(self.theta_hat[i, j]),
            mse=float(self.mse[i, j]),
            loglik=float(self.loglik[i, j]),
            dropped_bins=int(self.dropped_bins[j]),
        )

    def best(self, columns: slice = slice(None)) -> FitReport:
        """The minimal-MSE point among the kernel ``columns`` (all of them by
        default), ties broken by ``_report_key``.

        When every such point failed, ``SweepError.causes`` holds one
        ``(beta, exception)`` pair per point, or ``((shape, beta), exception)``
        when shapes are swept.
        """
        cols = np.arange(len(self.kernels))[columns]
        mse = self.mse[:, cols]
        ok = ~np.isnan(mse)
        if not ok.any():
            chosen = set(cols.tolist())
            failed = [(i, j, exc) for (i, j), exc in self.failures.items() if j in chosen]
            if self.shape_swept:
                causes = [((self.alphas[i], self.kernels[j].beta), exc) for i, j, exc in failed]
                raise SweepError("every point of the shape sweep failed", causes)
            causes = [(self.kernels[j].beta, exc) for _, j, exc in failed]
            raise SweepError("every exponent in the sweep failed", causes)
        tied = np.argwhere(mse == mse[ok].min())
        reports = (self.report(int(i), int(cols[j])) for i, j in tied)
        return min(reports, key=_report_key)

    def profile(self) -> list[tuple[float, float]]:
        """``(beta, mse)`` per kernel: the minimum over shapes, NaN where
        every shape failed."""
        lowest = np.fmin.reduce(self.mse, axis=0)
        return [(kernel.beta, float(v)) for kernel, v in zip(self.kernels, lowest)]


def fit_surface(model: FamilyModel, hist: Histogram, kernels,
                shapes=None) -> FitSurface:
    """Fit ``model`` to ``hist`` at every (shape, kernel) pair in one pass.

    Each point is the closed-form fit of the shaped model under the kernel,
    scored and checked as the module docstring says: ``m = V @ T`` with the
    v-weights ``V = W / W.sum(1)``, one dot per chunk, where a ``T = -x^p``
    that overflowed to ``-inf`` makes ``m = -inf`` for each kernel that keeps
    its bin; then the closed forms over all ``m``.  Every point fits and
    scores the same bins, those with a positive center.  A chunk is as many
    shape rows as about 16 ``rows x kernels`` and 4 ``rows x bins`` arrays
    fit in ``_BLOCK`` doubles (at least one).  Its MSE grid goes through grid
    blocks, as many rows as one ``_BLOCK``-double scratch buffer, the only
    ``rows x kernels x bins`` array, holds (at least one, at most a chunk's).
    So memory stays bounded, and no result depends on where a chunk or block
    ends.
    ``shapes`` sweeps the ``alpha`` hyperparameter with the other
    hyperparameters fixed, every shape a row of one ``shape_columns`` model;
    a shape that ``catalog`` rejects fails its row with ``catalog``'s error.
    """
    kernels = tuple(kernels)
    if not kernels:
        raise EmptyDataError("a fit surface needs at least one kernel")
    if shapes is None:
        alphas = (model.hyper.get("alpha"),)
    else:
        if "alpha" not in model.hyper:
            raise DomainError(f"{model.name} has no shape hyperparameter to sweep")
        shapes = np.atleast_1d(np.asarray(shapes, dtype=float))
        if shapes.ndim != 1 or shapes.size == 0 or not np.all(shapes > 0.0):
            raise DomainError("shape grid values must be positive")
        alphas = tuple(shapes.tolist())

    # Every chunk fits and scores the bins of positive center x, and only those;
    # a bin that every kernel drops is left out of the sums, so that a kernel
    # keeping all the others sums the same bins as the scalar path.
    centers = hist.centers
    positive = centers > 0.0
    xs = centers[positive]
    w = _kernel_weights(kernels, xs, hist.counts[positive])
    keep = w > 0.0
    dropped_bins = hist.nbins - np.count_nonzero(keep, axis=1)
    # compress, not w[:, used], whose rows are strided: ``sum`` adds a strided
    # row in another order than the scalar path's contiguous one.
    used = keep.any(axis=0)
    w, keep = np.compress(used, w, axis=1), np.compress(used, keep, axis=1)
    with np.errstate(all="ignore"):
        observed = (hist.counts / (hist.total * hist.widths))[positive]
        wsum = w.sum(axis=1)
        v = w / wsum[:, None]
        # Every x is positive, so ln x is finite; and it is shape-free.
        mean_log = _dot(v, np.log(xs[used]))

    fits = np.full((3, len(alphas), len(kernels)), np.nan)   # theta, MSE, log-likelihood
    spec, rejected = shape_columns(model, shapes)
    failures = {(i, j): exc for i, exc in rejected.items() for j in range(len(kernels))}
    fitted = [i for i in range(len(alphas)) if i not in rejected]
    # A chunk's closed form holds about 16 (rows x kernels) and 4 (rows x
    # bins) arrays, and a grid block is never longer: about one block each.
    chunk = max(1, _BLOCK // (16 * len(kernels) + 4 * hist.nbins))
    rows = max(1, min(len(fitted), _BLOCK // (len(kernels) * hist.nbins), chunk))
    scratch = np.empty(rows * len(kernels) * hist.nbins)
    for index in (fitted[start:start + chunk] for start in range(0, len(fitted), chunk)):
        # The rows are increasing, so as many as the grid has are all of them.
        part = spec if len(index) == len(alphas) else spec.rows(index)
        with np.errstate(all="ignore"):
            # Each constant is a column, so every step is one array operation
            # over the chunk, but for the powers x^p, base^(1/q) and theta^q:
            # each takes one numpy call per row, since numpy rounds a power with
            # a scalar exponent of 2, 0.5 or -1 otherwise than with an array.
            ln_a = part.log_base(xs)
            t = np.broadcast_to(part.suff_stat(xs), ln_a.shape)
            tx = np.compress(used, t, axis=1)[:, None, :]
            # A dropped bin's v-weight is 0: only a T = -inf there adds a NaN.
            overflow = np.isinf(tx)
            m = _dot(v, np.where(overflow, 0.0, tx))
            if overflow.any():
                m[overflow[:, 0] @ keep.T] = -np.inf
            theta = part.mean_inverse(m)
            eta = part.natural_param(theta)
            log_norm = part.log_normalizer(theta)
            loglik = _loglik_at_max(part, np.log(theta), wsum, mean_log)
            mse = np.empty(theta.shape)
            for b in (slice(start, start + rows) for start in range(0, len(index), rows)):
                # ln a + eta T - H in log_pdf's order; each einsum element is one product.
                shape = (*theta[b].shape, xs.size)
                density = np.einsum("bk,bn->bkn", eta[b], t[b],
                                    out=scratch[:math.prod(shape)].reshape(shape))
                density += ln_a[b, None, :]
                density -= log_norm[b, :, None]
                np.exp(density, out=density)
                np.subtract(observed, density, out=density)
                np.square(density, out=density)
                mse[b] = density.sum(axis=2) / xs.size
            bad_theta = ~((0.0 < theta) & (theta < np.inf))
        checks = (
            (wsum == 0.0, lambda r, j: EmptyDataError("every histogram bin was dropped")),
            (~(np.isfinite(m) & (m < 0.0)), lambda r, j: NoSolutionError(
                f"{part.name}: mean statistic {float(m[r, j])!r} outside the attainable range "
                f"(negative reals)")),
            (bad_theta, lambda r, j: DomainError(
                f"{part.name}: theta={float(theta[r, j])!r} outside the open domain (0.0, inf)")),
            (~np.isfinite(loglik), lambda r, j: DomainError(
                f"{part.name}: log-likelihood {float(loglik[r, j])!r} at "
                f"theta={float(theta[r, j])!r} is not finite")),
            (~np.isfinite(mse), lambda r, j: DomainError(
                f"{part.name}: MSE {float(mse[r, j])!r} at theta={float(theta[r, j])!r} "
                f"is not finite")),
        )
        failed = np.zeros(theta.shape, dtype=bool)
        for mask, _ in checks:
            failed |= mask
        if failed.any():
            for mask, error in checks:
                for r, j in np.argwhere(np.broadcast_to(mask, theta.shape)).tolist():
                    failures.setdefault((index[r], j), error(r, j))   # the first failed check wins
            theta[failed] = mse[failed] = loglik[failed] = np.nan
        fits[:, index] = theta, mse, loglik
    return FitSurface(
        model=model.name,
        alphas=alphas,
        kernels=kernels,
        shape_swept=shapes is not None,
        theta_hat=fits[0],
        mse=fits[1],
        loglik=fits[2],
        dropped_bins=dropped_bins,
        failures=dict(sorted(failures.items())),
    )


def compare_kernels(models, hists, beta_grid: SweepGrid,
                    tie_epsilon: float = 1e-3) -> list[KernelComparison]:
    """Count, per model, how often each kernel attains the minimal MSE.

    A model's scores are one table, a row per histogram of the unit, best
    power and log1p MSE, NaN where that fit failed; a row with any score is
    scored.  MSEs within a relative ``tie_epsilon`` of a row's minimum tie, so
    several kernels may win one histogram and percentages can sum above 100.
    The improvement is the mean of the signed ``(mse_unit - mse_power) /
    mse_unit`` (0 where ``mse_unit`` is 0) over the rows where both scored;
    with 0 on the grid, whose power kernel is the unit kernel, it is never
    negative.
    """
    models = list(models)
    hists = list(hists)
    if not models or not hists:
        raise EmptyDataError("compare_kernels needs at least one model and one histogram")
    if not (math.isfinite(tie_epsilon) and tie_epsilon >= 0.0):
        raise DomainError("tie epsilon must be finite and non-negative")

    # Columns 0 and 1 are the unit and log1p kernels, the rest the power grid.
    kernels = [WeightKernel.unit(), WeightKernel.log_shift(),
               *map(WeightKernel.power, beta_grid.points())]
    results = []
    for model in models:
        scores = np.full((len(hists), 3), np.nan)   # unit, power, log1p MSE
        failures = []
        for idx, hist in enumerate(hists):
            surface = fit_surface(model, hist, kernels)
            attempts = (
                ("unit", lambda: surface.report(0, 0)),
                ("power", lambda: surface.best(slice(2, None))),
                ("log1p", lambda: surface.report(0, 1)),
            )
            for col, (label, attempt) in enumerate(attempts):
                try:
                    scores[idx, col] = attempt().mse
                except (SweepError, *_FIT_ERRORS) as exc:
                    failures.append(f"histogram {idx}: {label}: {exc}")
        n_scored = int(np.count_nonzero(~np.isnan(scores).all(axis=1)))
        # fmin skips a failed score without nanmin's all-NaN warning; NaN never wins.
        floor = np.fmin.reduce(scores, axis=1, keepdims=True)
        wins = np.count_nonzero(scores <= floor * (1.0 + tie_epsilon), axis=0)
        unit, power = scores[:, 0], scores[:, 1]
        both = ~np.isnan(scores[:, :2]).any(axis=1)
        gain = np.divide(unit - power, unit, out=np.zeros(len(hists)), where=unit > 0.0)
        results.append(KernelComparison(
            model.name, *(100.0 * wins / max(n_scored, 1)).tolist(),
            float(np.mean(gain[both])) if both.any() else 0.0, n_scored, tuple(failures)))
    return results
