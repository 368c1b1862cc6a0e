"""Generalized central tendencies: weighted Gini means.

Holder and Lehmer means are weighted Gini means (C. Gini, Metron 13, 1938)
``G(r, s) = (S(r) / S(s))^(1/(r-s))``, ``S(t) = sum w x^t``: Holder(a) is
``G(a, 0)`` (arithmetic at 1, geometric at 0, harmonic at -1), Lehmer(a) is
``G(a, a-1)`` (arithmetic at 1, harmonic at 0, geometric at 0.5 for two
values only), and both are non-decreasing in ``a``.  The Kolmogorov f-mean
with ``f = ln``, the geometric mean, is Holder(0).  One rule evaluates every
``G``: max or min at an infinite exponent; the limit ``exp(sum w x^s ln x /
S(s))`` where ``|r - s| < GEOMETRIC_CUTOFF``; else the root of the quotient
of the two sums, in log space where they need two anchors or the quotient
leaves the normal doubles.  Every mean lies within the data range, to rounding.

A sum of more than 8192 terms is one BLAS dot per block of 8192, too short
for OpenBLAS to split across threads, and the block sums are added exactly,
in order.  Its rounding error grows with the block, not with the series, and
no result depends on the BLAS thread count.

Inputs are one-dimensional collections of finite non-negative reals; weights
must be finite and strictly positive, with a finite sum.  Exponents may be
``+/-math.inf`` (max/min limits); NaN is rejected.  Zero values are admitted
only where every power of them is finite and no ``r = s`` limit is taken.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "GEOMETRIC_CUTOFF",
    "gini_mean",
    "holder_lehmer_link",
    "holder_mean",
    "lehmer_mean",
    "mean_curve",
    "v_weights",
]

#: ``G(r, s)`` is its ``r = s`` limit where ``|r - s|`` is below this; 1/(r-s) amplifies rounding.
GEOMETRIC_CUTOFF = 1e-9

# A power sum below the smallest normal double has lost precision.
_TINY = float(np.finfo(float).tiny)

# Terms per BLAS dot in ``_dot``: below the 10 000 from which OpenBLAS splits
# a dot across its threads.
_DOT_BLOCK = 8192


def _normal(s):
    """Whether ``s`` is a normal finite double; elementwise for an array."""
    return (_TINY <= s) & (s < math.inf)


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``sum a*b`` of two equal-length series: one BLAS dot per block of
    ``_DOT_BLOCK`` terms, and the block sums and the tail's dot added exactly,
    in order.  A series of at most one block is all tail: the plain ``a @ b``."""
    n = a.size - a.size % _DOT_BLOCK
    blocks = np.matmul(a[:n].reshape(-1, 1, _DOT_BLOCK), b[:n].reshape(-1, _DOT_BLOCK, 1))
    parts = [*blocks.ravel().tolist(), a[n:] @ b[n:]]
    try:
        return np.float64(math.fsum(parts))
    except OverflowError:
        # The exact sum is beyond the doubles; the terms of every sum that
        # can get there are non-negative.
        return np.float64(math.inf)


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
    where both powers are normal doubles, so that no term is lost to a ratio
    beyond the double range, and the power of the ratio elsewhere.  Callers
    ignore overflow: a plain power may overflow, and so may ``x / anchor``,
    whose power is then exactly 0.
    """

    def __init__(self, xs: np.ndarray, ws: np.ndarray):
        self.xs = xs
        self.ws = ws
        self.xmin = float(xs.min())
        self.xmax = float(xs.max())
        self._sums = {}

    def extreme(self, p: float) -> float:
        """The value whose power dominates at exponent ``p``."""
        return self.xmax if p >= 0.0 else self.xmin

    def terms(self, p: float, anchor: float | None = None) -> np.ndarray:
        powers = np.power(self.xs, p)
        if anchor is None:
            return powers
        scale = np.power(anchor, p)
        ratios = np.power(self.xs / anchor, p)
        if not _normal(scale):
            return ratios
        return np.where(powers < _TINY, ratios, powers / scale)

    def __call__(self, p: float, anchor: float | None = None) -> float:
        """``sum w (x / anchor)^p``, plain for no anchor."""
        key = (p, anchor)
        if key not in self._sums:
            with np.errstate(over="ignore"):
                self._sums[key] = _dot(self.terms(p, anchor), self.ws)
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


def _gini_at(sums: _PowerSums, r: float, s: float) -> float:
    if sums.xmin == 0.0 and (min(r, s) < 0.0 or abs(r - s) < GEOMETRIC_CUTOFF):
        raise DomainError(f"zero values are not admitted for exponent {r}")
    if math.isinf(r) or math.isinf(s):
        return sums.xmax if r + s > 0.0 else sums.xmin
    if abs(r - s) < GEOMETRIC_CUTOFF:
        with np.errstate(over="ignore"):
            v = sums.ws * sums.terms(s, sums.anchored(s)[0])
        return float(np.exp(_dot(np.log(sums.xs), v / v.sum())))
    (top, num), (bottom, den) = sums.anchored(r), sums.anchored(s)
    if top is not None or bottom is not None:
        # The terms of S(0) are 1 whatever the anchor, so it takes its partner's.
        top, bottom = sums.extreme(r or s), sums.extreme(s or r)
        num, den = sums(r, top), sums(s, bottom)
    if den == 0.0:
        raise DomainError("the denominator power sum vanished (all values zero)")
    with np.errstate(over="ignore"):
        quotient = num / den
    # Unanchored, a Lehmer quotient (r - s = 1) is the mean, subnormal or not.
    if top == bottom and (num == 0.0 or _normal(quotient) or (r - s == 1.0 and top is None)):
        with np.errstate(over="ignore"):
            mean = quotient ** (1.0 / (r - s))
            mean = mean if top is None else top * mean
        if math.isfinite(mean):
            return float(mean)
    # Two anchors, a quotient beyond the normal doubles, or a root that rounds
    # past them: in log space.  A mean beyond the data range by more than this
    # sum's rounding lost digits.
    parts = (r * math.log(top or 1.0), -s * math.log(bottom or 1.0), math.log(num), -math.log(den))
    log_mean, slack = sum(parts) / (r - s), 4 * math.ulp(1.0) * sum(map(abs, parts)) / abs(r - s)
    low, high = math.log(sums.xmin) if sums.xmin > 0.0 else -math.inf, math.log(sums.xmax)
    if not low - slack <= log_mean <= high + slack:
        raise DomainError(f"the mean leaves the data range at exponent {r}")
    return min(max(math.exp(min(log_mean, high)), sums.xmin), sums.xmax)


def mean_curve(values, alphas, family: str, weights=None) -> list[float]:
    """Holder ``G(a, 0)`` or Lehmer ``G(a, a-1)`` means at every exponent of ``alphas``.

    ``values`` and ``weights`` are validated once, and each weighted power
    sum is computed once, so on a grid of step ``1/k`` the Lehmer numerator
    at ``a`` is the denominator at ``a + 1``.  The first exponent that fails,
    in grid order, raises its ``DomainError``.
    """
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    xs = _as_values(values)
    sums = _PowerSums(xs, _as_weights(weights, xs.size))
    return [_gini_at(sums, a, a - 1.0 if kind == "lehmer" else 0.0)
            for a in map(_checked_alpha, alphas)]


def gini_mean(values, r, s, weights=None) -> float:
    """Weighted Gini mean ``(sum w x^r / sum w x^s)^(1/(r-s))``, its ``r = s``
    limit ``exp(sum w x^s ln x / sum w x^s)`` where ``|r - s| < GEOMETRIC_CUTOFF``.

    Infinite exponents of one sign give max or min; NaN exponents, and
    infinite ones of opposite signs, raise ``DomainError``.
    """
    r, s = _checked_alpha(r), _checked_alpha(s)
    if math.isnan(r + s):
        raise DomainError("exponents must not be infinite with opposite signs")
    xs = _as_values(values)
    return _gini_at(_PowerSums(xs, _as_weights(weights, xs.size)), r, s)


def holder_mean(values, alpha, weights=None) -> float:
    """Weighted Holder (power) mean ``(sum w x^a / sum w)^(1/a)``, ``G(a, 0)``.

    ``alpha=0`` (and any ``|alpha| < GEOMETRIC_CUTOFF``) evaluates the
    weighted geometric mean analytically; ``+/-inf`` return max/min.
    Non-positive exponents require strictly positive values.
    """
    return mean_curve(values, (alpha,), "holder", weights)[0]


def lehmer_mean(values, alpha, weights=None) -> float:
    """Weighted Lehmer mean ``sum w x^a / sum w x^(a-1)``, ``G(a, a-1)``.

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
        bases = [_dot(v, xs), lehmer_mean(xs, a)]
        routes = np.power(bases, 1.0 / a)
    if np.any(shares > math.log(np.finfo(float).eps)) or not all(map(_normal, [*bases, *routes])):
        raise DomainError(f"the rescaled-weight identity leaves the normal doubles at exponent {a}")
    return float(routes[0]), float(routes[1])
