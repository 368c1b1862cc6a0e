"""Generalized central tendencies: Kolmogorov f-mean, Holder and Lehmer families.

The Holder (power) family generalizes the Pythagorean means through an
exponent ``alpha``: arithmetic at 1, geometric in the ``alpha -> 0`` limit,
harmonic at -1, min/max at the infinite limits.  The Lehmer family is the
ratio-of-power-sums alternative: arithmetic at 1, harmonic at 0, and
geometric at 0.5 for two values only (for more values the two differ).  Both
families accept optional relevance weights, are bounded by the data extremes,
and are non-decreasing in ``alpha``.

Inputs are one-dimensional collections of finite non-negative reals; weights
must be finite and strictly positive, with a finite sum.  Exponents may be
``+/-math.inf`` (max/min limits); NaN is rejected.  Zero values are admitted
only where the exponent applied to them keeps every power finite.
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

# A power sum below the smallest normal double has lost precision.
_TINY = float(np.finfo(float).tiny)


def _normal(s) -> bool:
    return _TINY <= s < math.inf


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
    with np.errstate(over="ignore"):
        if not np.isfinite(ws.sum()) or np.any(ws <= 0.0):
            raise DomainError("weights must be finite and strictly positive, with a finite sum")
    return ws


def _checked_alpha(alpha) -> float:
    a = float(alpha)
    if math.isnan(a):
        raise DomainError("exponent must not be NaN")
    return a


class _PowerSums:
    """Weighted power sums of one validated series, each computed once per
    exponent and anchor.

    Anchored at ``anchor``, a term is ``(x / anchor)^p``: ``x^p / anchor^p``
    while ``anchor^p`` is a normal double, so that no term is lost to a ratio
    beyond the double range, and the power of the ratio otherwise.  Callers
    ignore overflow: a plain power may overflow, and so may ``x / anchor``,
    whose power is then exactly 0.
    """

    def __init__(self, xs: np.ndarray, ws: np.ndarray):
        self.xs = xs
        self.ws = ws
        self.wsum = ws.sum()
        self.xmin = float(xs.min())
        self.xmax = float(xs.max())
        self._sums = {}

    def extreme(self, p: float) -> float:
        """The value whose power dominates at exponent ``p``."""
        return self.xmax if p >= 0.0 else self.xmin

    def terms(self, p: float, anchor: float | None = None) -> np.ndarray:
        if anchor is None:
            return np.power(self.xs, p)
        scale = np.power(anchor, p)
        if _normal(scale):
            return np.power(self.xs, p) / scale
        return np.power(self.xs / anchor, p)

    def __call__(self, p: float, anchor: float | None = None) -> float:
        """``sum w (x / anchor)^p``, plain for no anchor."""
        key = (p, anchor)
        if key not in self._sums:
            with np.errstate(over="ignore"):
                self._sums[key] = self.terms(p, anchor) @ self.ws
        return self._sums[key]

    def anchored(self, p: float) -> tuple[float | None, float]:
        """``(anchor, sum)`` with ``sum w x^p = anchor^p * sum``: no anchor
        and the plain sum while that is a normal finite double, else the
        extreme that dominates at ``p``, whose own term is then ``w * 1``.
        An all-zero series keeps its plain sums."""
        total = self(p)
        if _normal(total) or self.xmax == 0.0:
            return None, total
        return self.extreme(p), self(p, self.extreme(p))


def _mean_at(sums: _PowerSums, a: float, lehmer: bool) -> float:
    geometric = not lehmer and abs(a) < GEOMETRIC_CUTOFF
    if sums.xmin == 0.0 and (a < (1.0 if lehmer else 0.0) or geometric):
        raise DomainError(f"zero values are not admitted for exponent {a}")
    if math.isinf(a):
        return sums.xmax if a > 0.0 else sums.xmin
    if geometric:
        return float(np.exp(np.log(sums.xs) @ (sums.ws / sums.wsum)))
    if not lehmer:
        anchor, total = sums.anchored(a)
        mean = (total / sums.wsum) ** (1.0 / a)
        return float(mean if anchor is None else anchor * mean)
    (top, num), (bottom, den) = sums.anchored(a), sums.anchored(a - 1.0)
    if top is not None or bottom is not None:
        top, bottom = sums.extreme(a), sums.extreme(a - 1.0)
        num, den = sums(a, top), sums(a - 1.0, bottom)
    if den == 0.0:
        raise DomainError("Lehmer denominator vanished (all values zero)")
    if top == bottom:
        return float(num / den if top is None else top * (num / den))
    # For 0 <= a < 1 the extremes differ, and the scale x_max^a x_min^(1-a)
    # lies between them; in log space no factor leaves the double range.
    return math.exp(a * math.log(top) + (1.0 - a) * math.log(bottom) + math.log(num / den))


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
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    xs = _as_values(values)
    sums = _PowerSums(xs, _as_weights(weights, xs.size))
    return [_mean_at(sums, _checked_alpha(alpha), kind == "lehmer") for alpha in alphas]


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
    mean raised to ``alpha-1``).  Lehmer weights are the terms
    ``(x / x*)^(alpha-1)`` relative to the dominant value ``x*``, normalized
    by their own sum.  Weights that are not finite raise ``DomainError``.
    """
    xs = _as_values(values)
    a = _checked_alpha(alpha)
    if not math.isfinite(a):
        raise DomainError("v-weights need a finite exponent")
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    sums = _PowerSums(xs, np.ones(xs.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind == "holder":
            v = sums.terms(a - 1.0) / xs.size
        else:
            terms = sums.terms(a - 1.0, sums.extreme(a - 1.0))
            v = terms / terms.sum()
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{kind} v-weights are not finite at exponent {a}")
    return v


def holder_lehmer_link(values, alpha) -> tuple[float, float]:
    """Two routes to one number: sum-normalized Holder vs ``lehmer^(1/alpha)``.

    Renormalizing the Holder v-weights by their own sum gives the Lehmer
    v-weights ``v``, so the Holder mean becomes ``(v . x)^(1/a)``, which is
    exactly the Lehmer mean raised to ``1/alpha``.  Both evaluations are
    returned so callers can check the identity to floating tolerance; where
    either leaves the normal doubles, ``DomainError`` is raised.
    """
    xs = _as_values(values)
    a = _checked_alpha(alpha)
    if not math.isfinite(a) or a == 0.0:
        raise DomainError("the rescaled-weight identity needs a finite nonzero exponent")
    v = v_weights(xs, a, "lehmer")
    with np.errstate(divide="ignore", over="ignore"):
        # A v-weight below the normal doubles has lost its digits, so its
        # value's share of the mean must be below one ulp of the dominant's.
        shares = a * (np.log(xs[v < _TINY]) - np.log(xs.max() if a >= 1.0 else xs.min()))
        bases = [v @ xs, lehmer_mean(xs, a)]
        routes = np.power(bases, 1.0 / a)
    if np.any(shares > math.log(np.finfo(float).eps)) or not all(map(_normal, [*bases, *routes])):
        raise DomainError(f"the rescaled-weight identity leaves the normal doubles at exponent {a}")
    return float(routes[0]), float(routes[1])
