"""Generalized central tendencies: Kolmogorov f-mean, Holder and Lehmer families.

The Holder (power) family generalizes the Pythagorean means through an
exponent ``alpha``: arithmetic at 1, geometric in the ``alpha -> 0`` limit,
harmonic at -1, min/max at the infinite limits.  The Lehmer family is the
ratio-of-power-sums alternative: arithmetic at 1, harmonic at 0, and
geometric at 0.5 for two values only (for more values the two differ).  Both
families accept optional relevance weights, are bounded by the data extremes,
and are non-decreasing in ``alpha``.

Inputs are one-dimensional collections of finite non-negative reals; weights
must be finite and strictly positive.  Exponents may be ``+/-math.inf``
(max/min limits); NaN is rejected.  Zero values are admitted only where the
exponent applied to them keeps every power finite.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "GEOMETRIC_CUTOFF",
    "holder_lehmer_link",
    "holder_mean",
    "kolmogorov_mean",
    "lehmer_mean",
    "mean_curve",
    "v_weights",
]

#: Below this magnitude the Holder exponent is routed to the analytic
#: geometric-mean branch; x**alpha loses its signal that close to zero.
GEOMETRIC_CUTOFF = 1e-9

# Factoring an extreme value out of the power sums is only worth the extra
# rounding when overflow is actually in reach.
_RESCALE_ALPHA = 30.0
_RESCALE_SPREAD = 1e6
# A plain power sum below the smallest normal double has lost precision.
_TINY = float(np.finfo(float).tiny)


def _as_values(values) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(values, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("values must form a non-empty one-dimensional series")
    if not np.all(np.isfinite(xs)):
        raise DomainError("values must all be finite")
    if np.any(xs < 0.0):
        raise DomainError("values must be non-negative")
    return xs


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    ws = np.atleast_1d(np.asarray(weights, dtype=float))
    if ws.shape != (n,):
        raise DomainError(f"expected {n} weights, got {ws.size}")
    if not np.all(np.isfinite(ws)) or np.any(ws <= 0.0):
        raise DomainError("weights must be finite and strictly positive")
    return ws


def _checked_alpha(alpha) -> float:
    a = float(alpha)
    if math.isnan(a):
        raise DomainError("exponent must not be NaN")
    return a


def _reject_zeros(xmin: float, alpha: float) -> None:
    if xmin == 0.0:
        raise DomainError(f"zero values are not admitted for exponent {alpha}")


class _PowerSums:
    """Weighted power sums ``sum w (x / anchor)^p`` of one validated series,
    each computed once per exponent and anchor."""

    def __init__(self, xs: np.ndarray, ws: np.ndarray):
        self.xs = xs
        self.ws = ws
        self.wsum = ws.sum()
        self.xmin = float(xs.min())
        self.xmax = float(xs.max())
        self._sums = {}

    def __call__(self, p: float, anchor: float | None) -> float:
        key = (p, anchor)
        if key not in self._sums:
            # A plain power may overflow; anchored at the minimum for a
            # negative exponent, x / anchor may overflow to inf, whose power
            # is then exactly 0.
            with np.errstate(over="ignore"):
                scaled = self.xs if anchor is None else self.xs / anchor
                self._sums[key] = np.power(scaled, p) @ self.ws
        return self._sums[key]

    def anchored(self, exponents, steering: float) -> tuple[float | None, list]:
        """The sums at ``exponents`` over one shared anchor, None for plain sums.

        The extreme value that dominates at exponent ``steering`` (the
        maximum for a positive one, the minimum otherwise) is factored out
        up front when ``|steering| > 30`` and the spread exceeds 1e6, and
        after the fact when a plain sum overflows to inf or underflows below
        the smallest normal double; its own term is then ``w * 1``.  An
        all-zero series keeps its plain sums.
        """
        extreme = self.xmax if steering > 0.0 else self.xmin
        up_front = abs(steering) > _RESCALE_ALPHA and not (
            self.xmin > 0.0 and self.xmax / self.xmin <= _RESCALE_SPREAD)
        anchor = extreme if up_front and self.xmax > 0.0 else None
        sums = [self(p, anchor) for p in exponents]
        if anchor is None and self.xmax > 0.0 and not all(_TINY <= s < math.inf for s in sums):
            anchor = extreme
            sums = [self(p, anchor) for p in exponents]
        return anchor, sums


def _holder_at(sums: _PowerSums, a: float) -> float:
    if a == math.inf:
        return sums.xmax
    if a == -math.inf:
        _reject_zeros(sums.xmin, a)
        return sums.xmin
    if abs(a) < GEOMETRIC_CUTOFF:
        _reject_zeros(sums.xmin, a)
        return float(np.exp(np.log(sums.xs) @ sums.ws / sums.wsum))
    if a < 0.0:
        _reject_zeros(sums.xmin, a)
    anchor, (total,) = sums.anchored((a,), a)
    mean = total / sums.wsum
    if anchor is None:
        return float(mean ** (1.0 / a))
    return float(anchor * mean ** (1.0 / a))


def _lehmer_at(sums: _PowerSums, a: float) -> float:
    if a == math.inf:
        return sums.xmax
    if a == -math.inf:
        _reject_zeros(sums.xmin, a)
        return sums.xmin
    if a < 1.0:
        _reject_zeros(sums.xmin, a)
    anchor, (num, den) = sums.anchored((a, a - 1.0), a if a >= 1.0 else a - 1.0)
    if den == 0.0:
        raise DomainError("Lehmer denominator vanished (all values zero)")
    ratio = num / den
    return float(ratio if anchor is None else anchor * ratio)


_MEAN_AT = {"holder": _holder_at, "lehmer": _lehmer_at}


def kolmogorov_mean(values, transform: Callable[[float], float],
                    inverse: Callable[[float], float]) -> float:
    """Generalized f-mean ``inverse(mean(transform(x_i)))``.

    ``transform`` must be continuous and increasing on the data range and
    ``inverse`` must be its true inverse; both are trusted as supplied.
    """
    xs = _as_values(values)
    fx = np.empty(xs.size)
    for i, x in enumerate(xs):
        try:
            y = float(transform(x))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"transform failed at x={x!r}: {exc}") from exc
        if not math.isfinite(y):
            raise DomainError(f"transform produced a non-finite value at x={x!r}")
        fx[i] = y
    return float(inverse(fx.mean()))


def mean_curve(values, alphas, family: str, weights=None) -> list[float]:
    """Holder or Lehmer means of one series at every exponent of ``alphas``.

    ``values`` and ``weights`` are validated once, and each weighted power
    sum is computed once, so on a grid of step ``1/k`` the Lehmer numerator
    at ``a`` is the denominator at ``a + 1``.  Every exponent takes the
    branches of ``holder_mean`` or ``lehmer_mean``, in grid order; the first
    exponent that fails raises its ``DomainError``.
    """
    mean_at = _MEAN_AT.get(family.lower())
    if mean_at is None:
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    xs = _as_values(values)
    sums = _PowerSums(xs, _as_weights(weights, xs.size))
    return [mean_at(sums, _checked_alpha(alpha)) for alpha in alphas]


def holder_mean(values, alpha, weights=None) -> float:
    """Weighted Holder (power) mean ``(sum w x^a / sum w)^(1/a)``.

    ``alpha=0`` (and any ``|alpha| < GEOMETRIC_CUTOFF``) evaluates the
    weighted geometric mean analytically; ``+/-inf`` return max/min.
    Non-positive exponents require strictly positive values.
    """
    return mean_curve(values, (alpha,), "holder", weights)[0]


def lehmer_mean(values, alpha, weights=None) -> float:
    """Weighted Lehmer mean ``sum w x^a / sum w x^(a-1)``.

    ``+/-inf`` return max/min.  Exponents below 1 require strictly positive
    values so that ``x^(a-1)`` stays finite.
    """
    return mean_curve(values, (alpha,), "lehmer", weights)[0]


def v_weights(values, alpha, family: str) -> np.ndarray:
    """Per-value relevance weights ``x^(alpha-1)`` of the chosen family.

    Holder weights are normalized by ``n`` (they sum to the (alpha-1)-power
    mean raised to ``alpha-1``); Lehmer weights are normalized by their own
    sum and therefore always sum to one.
    """
    xs = _as_values(values)
    a = _checked_alpha(alpha)
    if not math.isfinite(a):
        raise DomainError("v-weights need a finite exponent")
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    if a < 1.0:
        _reject_zeros(float(xs.min()), a)
    powers = np.power(xs, a - 1.0)
    if kind == "holder":
        return powers / xs.size
    return powers / powers.sum()


def holder_lehmer_link(values, alpha) -> tuple[float, float]:
    """Two routes to one number: sum-normalized Holder vs ``lehmer^(1/alpha)``.

    Renormalizing the Holder v-weights by their own sum collapses the Holder
    mean onto ``(sum x^a / sum x^(a-1))^(1/a)``, which is exactly the Lehmer
    mean raised to ``1/alpha``.  Both evaluations are returned so callers can
    check the identity to floating tolerance.
    """
    xs = _as_values(values)
    a = _checked_alpha(alpha)
    if not math.isfinite(a) or a == 0.0:
        raise DomainError("the rescaled-weight identity needs a finite nonzero exponent")
    if a < 1.0:
        _reject_zeros(float(xs.min()), a)
    num = float(np.power(xs, a).sum())
    den = float(np.power(xs, a - 1.0).sum())
    rescaled_holder = (num / den) ** (1.0 / a)
    via_lehmer = lehmer_mean(xs, a) ** (1.0 / a)
    return rescaled_holder, via_lehmer
