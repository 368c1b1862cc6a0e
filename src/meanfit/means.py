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
leaves the normal doubles.  A plain sum that may have lost digits, one that
is not finite or is below ``(sum w + n)`` times the smallest normal double,
is taken over its largest term ``w x^p``, found by ``ln w + p ln x``: so a
weight beyond the double range still scales its power.  Every mean is
clamped to the data range, which it can leave only by rounding.

A sum of more than 8192 terms is one BLAS dot per block of 8192, too short
for OpenBLAS to split across threads, and the block sums are added exactly,
in order.  Its rounding error grows with the block, not with the series.  A
plain sum ``sum w x^p`` takes its powers a slice of 4 blocks at a time into
one buffer, so it allocates no array of the series' length.  On a series of
at least two slices with no zero value, ``mean_curve`` computes the plain
sums of its grid on one thread per CPU the process may run on, but on no
more threads than the series has slices, so that their buffers together
never hold more than the series' length.  Each sum is the same block dots
added exactly, whichever thread takes it, so no result depends on the CPU
count or the BLAS thread count.

Inputs are one-dimensional collections of finite non-negative reals; weights
must be finite and strictly positive, with a finite sum.  Exponents may be
``+/-math.inf`` (max/min limits); NaN is rejected.  Zero values are admitted
only where every power of them is finite and no ``r = s`` limit is taken.
"""

from __future__ import annotations

import math
import os
import threading

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

# Terms per slice of a plain power sum: whole blocks, 256 KiB of doubles.
# ``mean_curve`` starts at most one thread per slice of the series, so a
# series of fewer than two slices is summed on the calling thread alone.  A
# one-block slice makes a sum slower; a larger slice starts threads later.
_CHUNK = 4 * _DOT_BLOCK


def _normal(s):
    """Whether ``s`` is a normal finite double; elementwise for an array."""
    return (_TINY <= s) & (s < math.inf)


def _dot_parts(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The parts of ``sum a*b`` of two equal-length series: one BLAS dot per
    block of ``_DOT_BLOCK`` terms, then the tail's dot.  A series of at most
    one block is all tail: the plain ``a @ b``."""
    n = a.size - a.size % _DOT_BLOCK
    blocks = np.matmul(a[:n].reshape(-1, 1, _DOT_BLOCK), b[:n].reshape(-1, _DOT_BLOCK, 1))
    return [*blocks.ravel().tolist(), float(a[n:] @ b[n:])]


def _exact_sum(parts: list[float]) -> np.float64:
    try:
        return np.float64(math.fsum(parts))
    except OverflowError:
        # The exact sum is beyond the doubles; the terms of every sum that
        # can get there are non-negative.
        return np.float64(math.inf)


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``sum a*b`` of two equal-length series: its ``_dot_parts`` added
    exactly, in order."""
    return _exact_sum(_dot_parts(a, b))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        # A power or term below the normal doubles is off by at most half the
        # smallest subnormal, so a plain sum of at least this keeps its digits.
        self.floor = (float(ws.sum()) + xs.size) * _TINY
        self._sums = {}

    def dominant(self, p: float) -> int:
        """The index of the largest term ``w x^p``, by ``ln w + p ln x``."""
        logs = np.log(self.ws)
        if p:   # 0^0 is 1, and no zero value meets a negative exponent
            with np.errstate(divide="ignore"):
                logs += p * np.log(self.xs)
        return int(np.argmax(logs))

    def terms(self, p: float, anchor: float | None = None) -> np.ndarray:
        powers = np.power(self.xs, p)
        if anchor is None:
            return powers
        scale = np.power(anchor, p)
        ratios = np.power(self.xs / anchor, p)
        if not _normal(scale):
            return ratios
        return np.where(powers < _TINY, ratios, powers / scale)

    def relative(self, p: float, i: int) -> np.ndarray:
        """The terms of ``sum w x^p`` over the term at index ``i``:
        ``(w / w_i) (x / x_i)^p``.  Where a factor leaves the normal doubles,
        the term is ``exp(ln(w / w_i) + p ln(x / x_i))``, so that a weight
        beyond the double range still scales a power of the ratio."""
        with np.errstate(all="ignore"):
            scales = self.ws / self.ws[i]
            powers = self.terms(p, float(self.xs[i]))
            terms = scales * powers
            lost = np.flatnonzero(~(_normal(scales) & _normal(powers)))
            if lost.size:
                logs = np.log(self.ws[lost]) - math.log(self.ws[i])
                if p:   # 0^0 is 1
                    logs += p * (np.log(self.xs[lost]) - math.log(self.xs[i]))
                terms[lost] = np.exp(logs)
        return terms

    def _plain(self, p: float) -> np.float64:
        """``sum w x^p`` as ``_dot(self.terms(p), self.ws)`` adds it: the same
        block dots, of powers taken ``_CHUNK`` at a time into one buffer."""
        buf = np.empty(min(_CHUNK, self.xs.size))
        parts = []
        with np.errstate(over="ignore"):
            for start in range(0, self.xs.size, _CHUNK):
                xs, ws = self.xs[start:start + _CHUNK], self.ws[start:start + _CHUNK]
                parts += _dot_parts(np.power(xs, p, out=buf[:xs.size]), ws)
        return _exact_sum(parts)

    def __call__(self, p: float, i: int | None = None) -> float:
        """``sum w x^p``, or ``sum (w / w_i) (x / x_i)^p`` for an index ``i``."""
        key = (p, i)
        if key not in self._sums:
            if i is None:
                self._sums[key] = self._plain(p)
            else:
                terms = self.relative(p, i)
                self._sums[key] = _dot(terms, np.ones(terms.size))
        return self._sums[key]

    def plain(self, p: float) -> bool:
        """Whether the plain sum at ``p`` keeps its digits: it is finite and
        at least ``floor``.  An all-zero series keeps its plain sums."""
        return self.floor <= self(p) < math.inf or self.xmax == 0.0

    def log_scale(self, p: float, i: int | None) -> float:
        """``ln(w_i x_i^p)``, the log of what the sum over index ``i`` leaves out."""
        if i is None:
            return 0.0
        return math.log(self.ws[i]) + (p * math.log(self.xs[i]) if p else 0.0)


def _gini_at(sums: _PowerSums, r: float, s: float) -> float:
    if sums.xmin == 0.0 and (min(r, s) < 0.0 or abs(r - s) < GEOMETRIC_CUTOFF):
        raise DomainError(f"zero values are not admitted for exponent {r}")
    if math.isinf(r) or math.isinf(s):
        return sums.xmax if r + s > 0.0 else sums.xmin
    if abs(r - s) < GEOMETRIC_CUTOFF:
        with np.errstate(over="ignore"):
            v = sums.ws * sums.terms(s) if sums.plain(s) else sums.relative(s, sums.dominant(s))
        return min(max(float(np.exp(_dot(np.log(sums.xs), v / v.sum()))), sums.xmin), sums.xmax)
    top = bottom = None
    num, den = sums(r), sums(s)
    if not (sums.plain(r) and sums.plain(s)):
        # Both sums over the largest term of the one at r (at s where r is 0),
        # or each over its own where one of them then leaves the normal doubles.
        top = bottom = sums.dominant(r or s)
        num, den = sums(r, top), sums(s, bottom)
        if not (_normal(num) and _normal(den)):
            top, bottom = sums.dominant(r), sums.dominant(s)
            num, den = sums(r, top), sums(s, bottom)
    if den == 0.0:
        raise DomainError("the denominator power sum vanished (all values zero)")
    with np.errstate(over="ignore"):
        quotient = num / den
    # Unanchored, a Lehmer quotient (r - s = 1) is the mean, subnormal or not.
    if top == bottom and (num == 0.0 or _normal(quotient) or (r - s == 1.0 and top is None)):
        with np.errstate(over="ignore"):
            mean = quotient ** (1.0 / (r - s))
            mean = mean if top is None else float(sums.xs[top]) * mean
        if math.isfinite(mean):
            return min(max(float(mean), sums.xmin), sums.xmax)
    # Two anchors, a quotient beyond the normal doubles, or a root that rounds
    # past them: in log space.  A mean beyond the data range by more than this
    # sum's rounding lost digits.
    parts = (sums.log_scale(r, top), -sums.log_scale(s, bottom), math.log(num), -math.log(den))
    log_mean, slack = sum(parts) / (r - s), 4 * math.ulp(1.0) * sum(map(abs, parts)) / abs(r - s)
    low, high = math.log(sums.xmin) if sums.xmin > 0.0 else -math.inf, math.log(sums.xmax)
    if not low - slack <= log_mean <= high + slack:
        raise DomainError(f"the mean leaves the data range at exponent {r}")
    return min(max(math.exp(min(log_mean, high)), sums.xmin), sums.xmax)


def _sum_on_threads(sums: _PowerSums, exponents: list[float], workers: int) -> None:
    """Compute the plain sum at every exponent, which ``sums`` then keeps:
    on up to ``workers`` threads, the calling thread one of them, each taking
    the exponents in turn.  Every thread is joined before an exception of any
    of them is raised."""
    workers = min(workers, len(exponents))
    if workers < 2:
        return
    errors = []

    def take(share):
        try:
            for p in share:
                sums(p)
        except Exception as exc:   # raised in the calling thread, once all are joined
            errors.append(exc)

    threads = [threading.Thread(target=take, args=(exponents[k::workers],))
               for k in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        take(exponents[::workers])
    finally:
        for thread in threads:
            if thread.ident is not None:   # started
                thread.join()
    if errors:
        raise errors[0]


def mean_curve(values, alphas, family: str, weights=None) -> list[float]:
    """Holder ``G(a, 0)`` or Lehmer ``G(a, a-1)`` means at every exponent of ``alphas``.

    ``values`` and ``weights`` are validated once, and each weighted power
    sum is computed once, so on a grid of step ``1/k`` the Lehmer numerator
    at ``a`` is the denominator at ``a + 1``.  On a series of at least two
    slices of ``_CHUNK`` values, none of them 0, the plain sums are computed
    first, on one thread per CPU and per slice at most.  The first exponent
    that fails, in grid order, raises its ``DomainError``.
    """
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    xs = _as_values(values)
    sums = _PowerSums(xs, _as_weights(weights, xs.size))
    alphas = list(alphas)

    def partner(a):
        return a - 1.0 if kind == "lehmer" else 0.0

    # On data with a 0, a negative exponent must raise before any power is taken.
    workers = min(_cpu_count(), xs.size // _CHUNK) if sums.xmin > 0.0 else 1
    if workers > 1:
        # The plain sums the means below take, up to the first exponent that
        # fails its check; the loop below raises that failure in grid order.
        exponents = {}
        for alpha in alphas:
            try:
                a = _checked_alpha(alpha)
            except Exception:
                break
            if math.isfinite(a):
                s = partner(a)
                exponents.update(dict.fromkeys((s,) if abs(a - s) < GEOMETRIC_CUTOFF else (a, s)))
        _sum_on_threads(sums, list(exponents), workers)
    return [_gini_at(sums, a, partner(a)) for a in map(_checked_alpha, alphas)]


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
            terms = sums.terms(a - 1.0, sums.xmax if a >= 1.0 else sums.xmin)
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
