"""Histogram fitting, MSE scoring, and grid sweeps over kernel/shape parameters.

A histogram is fitted by treating bin centers as observations, bin counts as
frequency weights, and multiplying in the kernel weight ``u(center)``; a bin
with a non-positive center, a zero count or a zero kernel weight is dropped.
Fit quality is the mean squared difference between the empirical bin density
``count / (total * width)`` and the fitted density, over every bin whose
center lies in the model support, zero-count bins included (an empty bin is
honest evidence of density 0).  A fit is either finite or a typed failure,
checked in this order: no kept bin (``EmptyDataError``), a non-finite kernel
weight (``DomainError``), no solution for the mean statistic
(``NoSolutionError``), theta outside its domain, a non-finite log-likelihood,
a non-finite MSE (each ``DomainError``).  ``fit_surface`` scores a whole
(shape x kernel) grid in one pass; ``fit_histogram`` is its one-point surface,
and the sweeps, grid searches with deterministic tie-breaking, are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyDataError, NoSolutionError, SweepError
from .expfam import FamilyModel, catalog, in_support
from .wmle import WeightKernel, _kernel_weights, _loglik_at_max

__all__ = [
    "FitReport",
    "FitSurface",
    "Histogram",
    "KernelComparison",
    "SweepGrid",
    "beta_mse_profile",
    "compare_kernels",
    "fit_histogram",
    "fit_surface",
    "sweep_beta",
    "sweep_shape",
]

_FIT_ERRORS = (DomainError, EmptyDataError, NoSolutionError)


@dataclass(frozen=True)
class Histogram:
    """Strictly increasing bin edges plus non-negative counts."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = np.atleast_1d(np.asarray(self.edges, dtype=float))
        counts = np.atleast_1d(np.asarray(self.counts, dtype=float))
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("histogram needs at least two bin edges")
        if not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0.0):
            raise DomainError("bin edges must be finite and strictly increasing")
        if counts.shape != (edges.size - 1,):
            raise DomainError("counts must have one entry per bin")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise DomainError("counts must be finite and non-negative")
        if not np.any(counts > 0.0):
            raise DomainError("at least one count must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def nbins(self) -> int:
        return self.counts.size

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

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
        return {
            "model": self.model,
            "kernel": self.kernel,
            "beta": self.beta,
            "alpha": self.alpha,
            "theta_hat": self.theta_hat,
            "mse": self.mse,
            "loglik": self.loglik,
            "dropped_bins": self.dropped_bins,
        }


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive arithmetic grid lo, lo+step, ..., hi."""

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

    def points(self) -> np.ndarray:
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9))
        return self.lo + self.step * np.arange(n + 1)


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


def _report_key(report: FitReport, alpha_last: float = 0.0) -> tuple:
    # Ties go to the exponent of smallest magnitude, then the smaller
    # exponent, then the smaller shape; completion order never matters.
    beta = report.beta if report.beta is not None else 0.0
    return (report.mse, abs(beta), beta, alpha_last)


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
        return min(reports, key=lambda r: _report_key(r, r.alpha if self.shape_swept else 0.0))

    def profile(self) -> list[tuple[float, float]]:
        """``(beta, mse)`` per kernel: the minimum over shapes, NaN where
        every shape failed."""
        lowest = np.fmin.reduce(self.mse, axis=0)
        return [(kernel.beta, float(v)) for kernel, v in zip(self.kernels, lowest)]


def fit_surface(model: FamilyModel, hist: Histogram, kernels,
                shapes=None) -> FitSurface:
    """Fit ``model`` to ``hist`` at every (shape, kernel) pair in one pass.

    Each point is the closed-form fit of the shaped model under the kernel,
    scored and checked as the module docstring says, and one shape row is a
    few ``kernels x bins`` array reductions: ``m = V @ T`` with the v-weights
    ``V = W / W.sum(1)``, and the closed forms over the vector of ``m``.
    ``shapes`` sweeps the ``alpha`` hyperparameter with the other
    hyperparameters fixed; a shape that ``catalog`` rejects fails its row.
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
        fixed = {k: v for k, v in model.hyper.items() if k != "alpha"}

    # Kernel weights count * u(center) of the positive centers, one row per
    # kernel.  The bins that every kernel drops are left out here, so that a
    # kernel keeping all the others sums the same bins as the scalar path.
    centers = hist.centers
    w = _kernel_weights(kernels, centers, np.where(centers > 0.0, hist.counts, 0.0))
    keep = w > 0.0
    dropped_bins = hist.nbins - np.count_nonzero(keep, axis=1)
    # compress, not w[:, used], which is strided: a strided row sums in
    # another order than the scalar path's contiguous one.
    used = keep.any(axis=0)
    x, w, keep = centers[used], np.compress(used, w, axis=1), np.compress(used, keep, axis=1)
    row_keep = None if keep.all() else keep
    # Only a log1p weight can overflow: a power kernel's sum is anchored.
    bad_weights = ~np.isfinite(w).all(axis=1)
    with np.errstate(all="ignore"):
        empirical = hist.counts / (hist.total * hist.widths)
        wsum = w.sum(axis=1)
        v = w / wsum[:, None]
        # Every x is positive, so ln x is finite; and it is shape-free.
        mean_log = _row_dots(v, np.log(x)[None])

    theta_hat, mse, loglik = np.full((3, len(alphas), len(kernels)), np.nan)
    failures = {}
    for i, alpha in enumerate(alphas):
        try:
            row_model = model if shapes is None else catalog(model.name, alpha=alpha, **fixed)
        except DomainError as exc:
            failures.update(((i, j), exc) for j in range(len(kernels)))
            continue
        theta_hat[i], mse[i], loglik[i], row_failures = _fit_row(
            row_model, x, v, wsum, bad_weights, mean_log, row_keep, centers, empirical)
        failures.update(((i, j), exc) for j, exc in row_failures)
    return FitSurface(
        model=model.name,
        alphas=alphas,
        kernels=kernels,
        shape_swept=shapes is not None,
        theta_hat=theta_hat,
        mse=mse,
        loglik=loglik,
        dropped_bins=dropped_bins,
        failures=failures,
    )


def _fit_row(model: FamilyModel, x, v, wsum, bad_weights, mean_log, keep, centers, empirical):
    """One shape row of ``fit_surface``: every kernel's v-weights ``v`` at once.

    ``wsum`` holds the total weights (0 where no bin is kept), ``bad_weights``
    flags a non-finite weight, ``mean_log`` is ``sum v ln x``.  ``keep`` is
    None when every kernel keeps every bin of ``x``; otherwise the row dots
    mask out the dropped bins.  The MSE is ``mean((count / (total * width) -
    exp(log_pdf(center)))^2)`` over the centers in the support, zero counts
    included.

    Returns theta, MSE and log-likelihood per kernel (NaN where failed) and
    the ``(column, exception)`` failures, checked in order: no kept bin, a
    non-finite weight, no solution for ``m``, theta outside its domain, a
    non-finite log-likelihood, a non-finite MSE.
    """
    with np.errstate(all="ignore"):
        t = model.suff_stat(x)
        m = _row_dots(v, t[None] if keep is None else np.where(keep, t, 0.0))
        theta = model.mean_inverse(m)
        loglik = _loglik_at_max(model, np.log(theta), wsum, mean_log)
        # Every center of x is positive, hence in the support, so the MSE
        # has a bin to compare once a bin is kept.
        support = in_support(model, centers)
        fitted = np.exp(model.log_pdf(theta[:, None], centers[support]))
        mse = ((empirical[support] - fitted) ** 2).sum(axis=1) / fitted.shape[1]
        lo, hi = model.theta_domain
        bad_theta = ~((lo < theta) & (theta < hi) & np.isfinite(theta))
    name = model.name
    checks = (
        (wsum == 0.0, lambda j: EmptyDataError("every histogram bin was dropped")),
        (bad_weights, lambda j: DomainError("weights must be finite and strictly positive")),
        (~(np.isfinite(m) & (m < 0.0)), lambda j: NoSolutionError(
            f"{name}: mean statistic {float(m[j])!r} outside the attainable range "
            f"(negative reals)")),
        (bad_theta, lambda j: DomainError(
            f"{name}: theta={float(theta[j])!r} outside the open domain ({lo}, {hi})")),
        (~np.isfinite(loglik), lambda j: DomainError(
            f"{name}: log-likelihood {float(loglik[j])!r} at theta={float(theta[j])!r} "
            f"is not finite")),
        (~np.isfinite(mse), lambda j: DomainError(
            f"{name}: MSE {float(mse[j])!r} at theta={float(theta[j])!r} is not finite")),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if not failed.any():
        return theta, mse, loglik, []
    failures = {}
    for mask, error in checks:
        for j in np.flatnonzero(mask):
            failures.setdefault(int(j), error(j))   # the first failed check wins
    return (np.where(failed, np.nan, theta), np.where(failed, np.nan, mse),
            np.where(failed, np.nan, loglik), sorted(failures.items()))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[k] @ b[k] per row (b may be one row, shared by every row of a),
    # through the BLAS dot that the scalar path's ``weights @ values`` uses,
    # so both sum in the same order.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _power_kernels(grid: SweepGrid) -> list[WeightKernel]:
    return [WeightKernel.power(beta) for beta in grid.points()]


def sweep_beta(model: FamilyModel, hist: Histogram, grid: SweepGrid) -> FitReport:
    """Best power-kernel fit over an exponent grid (minimal MSE wins)."""
    return fit_surface(model, hist, _power_kernels(grid)).best()


def sweep_shape(model: FamilyModel, hist: Histogram, shape_grid: SweepGrid,
                kernel: WeightKernel | None = None,
                beta_grid: SweepGrid | None = None) -> FitReport:
    """Best fit over a shape-hyperparameter grid, optionally crossed with a
    power-exponent grid.

    Only models carrying a shape hyperparameter (weibull, gen-half-normal,
    gen-gamma) can be swept.  When ``beta_grid`` is given the ``kernel``
    argument is ignored and power kernels from the grid are used instead.
    """
    if beta_grid is not None:
        kernels = _power_kernels(beta_grid)
    else:
        kernels = [kernel if kernel is not None else WeightKernel.unit()]
    return fit_surface(model, hist, kernels, shape_grid.points()).best()


def beta_mse_profile(model: FamilyModel, hist: Histogram, grid: SweepGrid,
                     shape_grid: SweepGrid | None = None) -> list[tuple[float, float]]:
    """(beta, mse) rows for every grid exponent; NaN marks failed points.

    With ``shape_grid`` the reported MSE at each beta is the best over the
    shape grid, so the profile stays one row per exponent.
    """
    shapes = shape_grid.points() if shape_grid is not None else None
    return fit_surface(model, hist, _power_kernels(grid), shapes).profile()


def compare_kernels(models, hists, beta_grid: SweepGrid,
                    tie_epsilon: float = 1e-3) -> list[KernelComparison]:
    """Count, per model, how often each kernel attains the minimal MSE.

    MSEs within a relative ``tie_epsilon`` of the per-histogram minimum are
    treated as identical, so several kernels may win the same histogram and
    percentages can sum above 100.  The improvement column is the mean of
    ``|mse_unit - mse_power| / mse_unit`` over histograms where both fits
    succeeded.
    """
    models = list(models)
    hists = list(hists)
    if not models or not hists:
        raise EmptyDataError("compare_kernels needs at least one model and one histogram")
    if tie_epsilon < 0.0:
        raise DomainError("tie epsilon must be non-negative")

    # Columns 0 and 1 are the unit and log1p kernels, the rest the power grid.
    kernels = [WeightKernel.unit(), WeightKernel.log_shift(), *_power_kernels(beta_grid)]
    results = []
    for model in models:
        wins = {"unit": 0, "power": 0, "log1p": 0}
        improvements = []
        failures = []
        n_scored = 0
        for idx, hist in enumerate(hists):
            surface = fit_surface(model, hist, kernels)
            scores = {}
            attempts = (
                ("unit", lambda: surface.report(0, 0)),
                ("power", lambda: surface.best(slice(2, None))),
                ("log1p", lambda: surface.report(0, 1)),
            )
            for label, attempt in attempts:
                try:
                    scores[label] = attempt().mse
                except (SweepError, *_FIT_ERRORS) as exc:
                    failures.append(f"histogram {idx}: {label}: {exc}")
            if not scores:
                continue
            n_scored += 1
            floor = min(scores.values())
            for label, mse in scores.items():
                if mse <= floor * (1.0 + tie_epsilon):
                    wins[label] += 1
            if "unit" in scores and "power" in scores:
                unit_mse = scores["unit"]
                if unit_mse > 0.0:
                    improvements.append(abs(unit_mse - scores["power"]) / unit_mse)
                else:
                    improvements.append(0.0)
        denom = max(n_scored, 1)
        results.append(
            KernelComparison(
                model=model.name,
                pct_unit=100.0 * wins["unit"] / denom,
                pct_power=100.0 * wins["power"] / denom,
                pct_log1p=100.0 * wins["log1p"] / denom,
                mean_improvement=float(np.mean(improvements)) if improvements else 0.0,
                n_scored=n_scored,
                failures=tuple(failures),
            )
        )
    return results
