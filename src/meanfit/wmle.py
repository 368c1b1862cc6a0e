"""Weighted likelihood estimation for the exponential-family catalog.

Data points carry a strictly positive, theta-free relevance weight ``u(x)``.
The weighted log-likelihood of a catalog model is

    sum_i u_i * (ln a(x_i) + eta(theta) * T(x_i) - H(theta))

whose unique critical point is ``theta = mean_inverse(sum v T)`` with the
v-weights ``v = u / sum u``: a weighted generalized mean.  ``mle_closed_form``
evaluates it; ``mle_numeric`` maximizes the likelihood directly and serves as
an independent cross-check.  The weighted least-squares functional
``sum u (T(x) - O(theta))^2`` has the same critical point when ``O`` is the
model mean function, which ``lse_critical`` exposes.  Every weighted sum is
``means._dot``'s, in 8192-term blocks where it has more than 8191 terms: no
fit or log-likelihood depends on the BLAS thread count or its inputs' layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyDataError, NoSolutionError
from .expfam import FamilyModel, _check_support, _checked_theta, stat_mean_inverse
from .means import _PowerSums, _dot, _normal

__all__ = [
    "KERNEL_KINDS",
    "MleResult",
    "WeightKernel",
    "WeightedSeries",
    "apply_kernel",
    "lse_critical",
    "lse_objective",
    "mle_closed_form",
    "mle_numeric",
    "sufficient_mean",
    "weighted_loglik",
]

KERNEL_KINDS = ("unit", "power", "log1p")

# A power kernel's weights are anchored where their sum W exceeds 2^1012 too:
# the maximum log-likelihood is W times the per-unit term c0 + (d - 1) sum v
# ln x + h (ln theta - 1/q), whose logarithms of doubles are each below 745 in
# magnitude, so with moderate constants (|d - 1| + |h| up to 5) it stays
# within the 2^12 left below the largest double.
_ANCHOR_ABOVE = 2.0**1012


@dataclass(frozen=True)
class WeightKernel:
    """A theta-free relevance weight u(x): 1, x**beta, or ln(x+1)."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        if self.kind == "power":
            if self.beta is None or not math.isfinite(float(self.beta)):
                raise DomainError("power kernel needs a finite exponent")
            object.__setattr__(self, "beta", float(self.beta))
        elif self.beta is not None:
            raise DomainError(f"{self.kind} kernel takes no exponent")

    @classmethod
    def unit(cls) -> "WeightKernel":
        return cls("unit")

    @classmethod
    def power(cls, beta) -> "WeightKernel":
        return cls("power", beta)

    @classmethod
    def log_shift(cls) -> "WeightKernel":
        """The ln(x+1) kernel (reported under the label 'log1p')."""
        return cls("log1p")

    def weights(self, x) -> np.ndarray:
        """Evaluate u(x) elementwise."""
        xs = np.asarray(x, dtype=float)
        if self.kind == "unit":
            return np.ones_like(xs)
        if self.kind == "power":
            return np.power(xs, self.beta)
        return np.log1p(xs)


@dataclass(frozen=True)
class WeightedSeries:
    """Non-negative values paired with strictly positive weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        ws = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("weighted series needs at least one point")
        if ws.shape != vals.shape:
            raise DomainError("values and weights must have matching lengths")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise DomainError("values must be finite and non-negative")
        if not np.all(np.isfinite(ws)) or np.any(ws <= 0.0):
            raise DomainError("weights must be finite and strictly positive")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", ws)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class MleResult:
    """A maximizer of the weighted log-likelihood.

    ``curvature`` is the second derivative of the weighted log-likelihood at
    ``theta_hat``; it is negative at every true maximum.
    """

    theta_hat: float
    loglik: float
    curvature: float


def _kernel_weights(kernels, xs: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``base * u(x)``, one row per kernel; a power kernel whose plain sum is not
    a normal double below ``_ANCHOR_ABOVE`` takes ``(base / b*) (x / x*)^beta``,
    ``b* x*^beta`` the largest weight, by ``ln base + beta ln x``, among the
    points of positive base weight (unless all of them are at 0)."""
    positive = base > 0.0
    with np.errstate(all="ignore"):
        w = np.where(positive, base * np.array([kernel.weights(xs) for kernel in kernels]), 0.0)
        totals = w.sum(axis=1)
        for i in np.flatnonzero(~_normal(totals) | (totals > _ANCHOR_ABOVE)):
            kernel = kernels[i]
            if kernel.kind == "power" and np.any(xs[positive]):
                sums = _PowerSums(xs[positive], base[positive])
                w[i, positive] = sums.relative(kernel.beta, sums.dominant(kernel.beta))
    return w


def apply_kernel(values, kernel: WeightKernel, base_weights=None) -> tuple[WeightedSeries, int]:
    """Attach kernel weights to a value series.

    Each point receives ``u(x) * base_weight`` (base weights default to 1),
    up to a scale ``_kernel_weights`` may factor out.  Points whose combined
    weight is zero are dropped; their count is returned alongside the series.
    """
    xs = np.atleast_1d(np.asarray(values, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise EmptyDataError("no values to weight")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise DomainError("values must be finite and non-negative")
    if base_weights is None:
        base = np.ones_like(xs)
    else:
        base = np.atleast_1d(np.asarray(base_weights, dtype=float))
        if base.shape != xs.shape:
            raise DomainError("base weights must match the series length")
        if not np.all(np.isfinite(base)) or np.any(base < 0.0):
            raise DomainError("base weights must be finite and non-negative")
    if kernel.kind == "power" and kernel.beta < 0.0 and np.any(xs == 0.0):
        raise DomainError("power kernel with negative exponent requires strictly positive values")
    combined = _kernel_weights((kernel,), xs, base)[0]
    keep = combined > 0.0
    dropped = int(xs.size - np.count_nonzero(keep))
    if not keep.any():
        raise EmptyDataError("every point received zero weight")
    return WeightedSeries(xs[keep], combined[keep]), dropped


def weighted_loglik(model: FamilyModel, theta, data: WeightedSeries) -> float:
    """Weighted log-likelihood sum u (ln a + eta(theta) T - H(theta))."""
    th = _checked_theta(model, theta)
    _check_support(model, data.values)
    return float(_dot(data.weights, model.log_pdf(th, data.values)))


def sufficient_mean(model: FamilyModel, data: WeightedSeries) -> float:
    """Weight-averaged sufficient statistic ``sum v T(x)``, ``v = u / sum u``."""
    _check_support(model, data.values)
    return float(_dot(data.weights / data.total_weight, model.suff_stat(data.values)))


def _loglik_at_max(model: FamilyModel, log_theta, total, mean_log):
    """``sum u ln f`` at the maximizer theta, where ``eta(theta) m = -h/q``:
    ``W (c0 + (d - 1) sum v ln x + h (ln theta - 1/q))`` with ``W = sum u``.
    ``mean_log`` is ``sum v ln x``, or 0 where ``d == 1`` admits ``x = 0``."""
    return total * (model.c0 + (model.d - 1.0) * mean_log
                    + model.h * (log_theta - 1.0 / model.q))


def mle_closed_form(model: FamilyModel, data: WeightedSeries) -> MleResult:
    """Closed-form weighted MLE and maximum: invert the mean function at ``m``.

    At the maximizer the second derivative of the weighted log-likelihood
    reduces to ``-eta'(theta) * r'(theta) * sum(u) = -q h sum(u) / theta^2``
    (with ``r`` the mean function, so ``eta' * r' = eta'^2 * Var[T]``), hence
    it is negative whenever the estimate exists.  A non-finite
    log-likelihood raises ``DomainError``.
    """
    m = sufficient_mean(model, data)
    theta = stat_mean_inverse(model, m)
    v = data.weights / data.total_weight
    mean_log = 0.0 if model.d == 1.0 else float(_dot(v, np.log(data.values)))
    loglik = _loglik_at_max(model, math.log(theta), data.total_weight, mean_log)
    if not math.isfinite(loglik):
        raise DomainError(f"{model.name}: log-likelihood {loglik!r} at theta={theta!r} is not finite")
    # Divided twice, not by theta**2, so that it overflows to inf without raising.
    curvature = -model.q * model.h * data.total_weight / theta / theta
    return MleResult(theta_hat=theta, loglik=loglik, curvature=curvature)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def mle_numeric(model: FamilyModel, data: WeightedSeries) -> MleResult:
    """Maximize the weighted log-likelihood directly (no closed form used).

    Golden-section search over log(theta) on ``[1e-6, 1e6]`` to ``1e-9``, so
    the search is scale-free and bounds the relative theta error.  A
    maximizer pinned to an edge triggers up to three tenfold expansions of
    that edge before giving up.  The returned curvature is a central second
    difference of the log-likelihood, keeping this estimate fully independent
    of the closed-form path.
    """
    _check_support(model, data.values)

    def objective(t: float) -> float:
        return weighted_loglik(model, math.exp(t), data)

    a, b = math.log(1e-6), math.log(1e6)
    expansions = 0
    while True:
        t_hat = _golden_max(objective, a, b, 1e-9)
        margin = 0.02 * (b - a)
        if t_hat - a < margin:
            a -= math.log(10.0)
        elif b - t_hat < margin:
            b += math.log(10.0)
        else:
            break
        expansions += 1
        if expansions > 3:
            raise NoSolutionError("no interior likelihood maximum inside the expanded bracket")
    theta = math.exp(t_hat)
    loglik = weighted_loglik(model, theta, data)
    h = theta * 1e-4
    curvature = (
        weighted_loglik(model, theta + h, data)
        - 2.0 * loglik
        + weighted_loglik(model, theta - h, data)
    ) / h**2
    return MleResult(theta_hat=theta, loglik=loglik, curvature=curvature)


def lse_objective(model: FamilyModel, data: WeightedSeries, theta, transform) -> float:
    """Weighted least-squares functional ``sum u (T(x) - O(theta))^2``."""
    th = _checked_theta(model, theta)
    _check_support(model, data.values)
    residual = model.suff_stat(data.values) - float(transform(th))
    return float(_dot(data.weights, residual**2))


def lse_critical(model: FamilyModel, data: WeightedSeries, transform, transform_inverse) -> float:
    """Critical point of the weighted least-squares functional.

    ``transform`` and ``transform_inverse`` must be a strictly monotone pair
    on the theta domain; the critical point is ``transform_inverse`` of the
    weighted sufficient mean.  With the model mean function as transform this
    coincides exactly with the closed-form MLE.
    """
    m = sufficient_mean(model, data)
    theta = float(transform_inverse(m))
    back = float(transform(theta))
    if not math.isclose(back, m, rel_tol=1e-6, abs_tol=1e-12):
        raise DomainError("transform/inverse pair is inconsistent at the critical point")
    return theta
