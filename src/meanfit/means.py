"""Generalized central tendencies: weighted Gini means.

Holder and Lehmer means are weighted Gini means (C. Gini, Metron 13, 1938)
``G(r, s) = (S(r) / S(s))^(1/(r-s))``, ``S(t) = sum w x^t``: Holder(a) is
``G(a, 0)`` (arithmetic at 1, geometric at 0, harmonic at -1), Lehmer(a) is
``G(a, a-1)`` (arithmetic at 1, harmonic at 0, geometric at 0.5 for two
values only), and both are non-decreasing in ``a``.  The Kolmogorov f-mean
with ``f = ln``, the geometric mean, is Holder(0).  One rule evaluates every
``G``: max or min at an infinite exponent; where ``|r - s| <
GEOMETRIC_CUTOFF``, the limit ``exp(L(s) / S(s))`` of the two sums ``S(s)``
and ``L(s) = sum w x^s ln x``; else the root of ``S(r) / S(s)``, in log space
where the sums need two anchors or the quotient leaves the normal doubles.
One anchor rule serves every sum that may have lost digits, one not finite
or below ``(sum w + n)`` times the smallest normal double, and the v-weights:
its terms are taken over the largest term ``w x^p``, found by ``ln w + p
ln(x / x')`` from the extreme value ``x'``, so a weight beyond the double
range still scales its power.  Every mean is clamped to the data range,
which it can leave only by rounding; a limit whose sums are not finite raises.

Every weighted sum of the library is ``_dot``'s: one of more than 8191
terms is one BLAS dot per block of 8192 terms of contiguous operands, too
short for OpenBLAS to split across threads, and the block sums are added
exactly, in order.  So no fit, log-likelihood or mean depends on the BLAS
thread count or its inputs' layout, and a sum's rounding error grows with
the block, not the series.  A call to ``mean_curve`` or ``gini_mean`` takes
all its sums ``S`` and ``L`` in one pass over the series: each slice of 4
blocks goes to the next free of one thread per CPU the process may run on,
but of no more threads than the series has slices, and is powered at every
exponent into that thread's one buffer, so no array of the series' length is
allocated; the block dots kept, 40 bytes per slice and sum, outgrow the
series only past 13,107 sums.  The threads are joined before the pass
returns.  Each slice is the same block dots whichever thread takes it, so no
result depends on the CPU count either.

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
# A pass over the series has at most one thread per slice, so a series of
# fewer than two slices is summed on the calling thread alone.  A one-block
# slice makes a sum slower; a larger slice starts threads later.
_CHUNK = 4 * _DOT_BLOCK


def _normal(s):
    """Whether ``s`` is a normal finite double; elementwise for an array."""
    return (_TINY <= s) & (s < math.inf)


def _dot_parts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The parts of ``sum a*b`` over the last axis of contiguous operands, broadcast
    over the leading ones: one BLAS dot per block of ``_DOT_BLOCK`` terms, then
    the tail's dot.  A series of fewer than one block is all tail: ``a @ b``."""
    n = a.shape[-1] - a.shape[-1] % _DOT_BLOCK
    blocks = np.matmul(a[..., :n].reshape(*a.shape[:-1], -1, 1, _DOT_BLOCK),
                       b[..., :n].reshape(*b.shape[:-1], -1, _DOT_BLOCK, 1))
    tail = np.matmul(a[..., None, n:], b[..., n:, None])
    return np.concatenate([blocks, tail[..., None, :, :]], axis=-3)[..., 0, 0]


def _exact_sum(parts: list[float]) -> float:
    """``parts`` added exactly and rounded once; NaN where they hold both infinities."""
    try:
        return math.fsum(parts)
    except OverflowError:   # a partial sum left the doubles; one of the scaled parts cannot
        scale = 2.0 ** len(parts).bit_length()
        return _exact_sum([part / scale for part in parts]) * scale
    except ValueError:   # inf - inf
        return math.nan


def _dot(a, b):
    """``sum a*b`` over the last axis, broadcast over the leading ones, of contiguous
    copies of strided operands: below ``_DOT_BLOCK`` terms one batched BLAS call,
    one dot per pair; else each pair's ``_dot_parts`` added exactly, in order."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape[-1] < _DOT_BLOCK:
        return np.matmul(a[..., None, :], b[..., None])[..., 0, 0][()]
    parts = _dot_parts(a, b)
    sums = [_exact_sum(pair) for pair in parts.reshape(-1, parts.shape[-1]).tolist()]
    return np.reshape(sums, parts.shape[:-1])[()]


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
    """Weighted power sums of one validated series, and their ``ln x`` sums, each taken once."""

    def __init__(self, xs: np.ndarray, ws: np.ndarray):
        self.xs, self.ws = np.ascontiguousarray(xs), np.ascontiguousarray(ws)
        self.xmin, self.xmax = float(xs.min()), float(xs.max())
        # A power or term below the normal doubles is off by at most half the
        # smallest subnormal, so a plain sum of at least this keeps its digits.
        self.floor = (float(self.ws.sum()) + xs.size) * _TINY
        self._sums = {}

    def dominant(self, p: float) -> int:
        """The index of the largest term ``w x^p``, by ``ln w + p ln(x / x')``,
        ``x'`` ``xmax`` for ``p > 0`` else ``xmin``, which no positive ``x`` overflows."""
        logs = np.log(self.ws)
        if p:   # 0^0 is 1, and 0^p, for p < 0, is the largest term
            extreme = self.xmax if p > 0.0 else self.xmin
            with np.errstate(divide="ignore", over="ignore"):
                logs += p * (np.log(self.xs) - (math.log(extreme) if extreme else 0.0))
        return int(np.argmax(logs))

    def relative(self, p: float, i: int) -> np.ndarray:
        """The terms of ``sum w x^p`` over the term at index ``i``: ``(w / w_i)
        (x / x_i)^p``, the power of the ratio as ``x^p / x_i^p`` where both are
        normal doubles, so that no term is lost to a ratio beyond the doubles.
        Where a factor leaves the normal doubles, the term is ``exp(ln(w / w_i)
        + p ln(x / x_i))``, so a weight beyond the doubles still scales it."""
        with np.errstate(all="ignore"):
            scales = self.ws / self.ws[i]
            powers, scale = np.power(self.xs, p), np.power(self.xs[i], p)
            ratios = np.power(self.xs / self.xs[i], p)
            if _normal(scale):
                ratios = np.where(powers < _TINY, ratios, powers / scale)
            terms = scales * ratios
            lost = np.flatnonzero(~(_normal(scales) & _normal(ratios)))
            if lost.size:
                logs = np.log(self.ws[lost]) - math.log(self.ws[i])
                if p:   # 0^0 is 1; over a zero x_i, every ratio is infinite or NaN
                    anchor = math.log(self.xs[i]) if self.xs[i] else -math.inf
                    logs += p * (np.log(self.xs[lost]) - anchor)
                terms[lost] = np.exp(logs)
        return terms

    def take(self, exponents, log_exponents=()) -> None:
        """Take the plain sums ``sum w x^p`` at ``exponents`` and the log sums
        ``sum w x^p ln x`` at ``log_exponents``, from the block dots of
        ``_dot(x^p, w)`` and ``_dot(x^p ln x, w)``, in one pass that keeps 5 block
        dots per slice per sum.  Each slice goes to the next free of one thread
        per CPU, but of no more threads than the series has slices, which powers
        it at every exponent, and its ``ln x`` at every log one, into its own
        buffer; every thread is joined before the pass ends.  Sums taken already
        or at an exponent not finite are skipped, and on a series with a zero, log
        sums and negative exponents too (``_gini_at`` raises first)."""
        keys = [*((p, None, False) for p in exponents), *((p, None, True) for p in log_exponents)]
        todo = [(p, i, log) for p, i, log in dict.fromkeys(keys) if math.isfinite(p)
                and (p, i, log) not in self._sums and (p >= 0.0 and not log or self.xmin > 0.0)]
        if not todo:
            return
        n = self.xs.size
        count, helpers = -(-n // _CHUNK), min(_cpu_count(), n // _CHUNK) - 1
        # A slice left out stays NaN in ``dots``, and so do its sums.
        dots = np.full((len(todo), count, _CHUNK // _DOT_BLOCK + 1), math.nan)
        errors, lock, slices = [], threading.Lock(), iter(range(count))

        def next_slice():
            with lock:
                return next(slices, None)

        def work():
            buf = np.empty((1 + any(log for *_, log in todo), min(_CHUNK, n)))
            try:
                with np.errstate(over="ignore"):
                    for k in iter(next_slice, None):
                        xs, ws = (a[k * _CHUNK:(k + 1) * _CHUNK] for a in (self.xs, self.ws))
                        for j, (p, _, log) in enumerate(todo):
                            powers = np.power(xs, p, out=buf[0, :xs.size])
                            if log:
                                powers *= np.log(xs, out=buf[1, :xs.size])
                            parts = _dot_parts(powers, ws)
                            dots[j, k, :parts.size], dots[j, k, parts.size:] = parts, 0.0
            except Exception as exc:   # raised once every thread is joined
                errors.append(exc)

        threads = []
        for _ in range(helpers):
            thread = threading.Thread(target=work)
            try:
                thread.start()
            except RuntimeError:   # can't start new thread: the others take its slices
                break
            threads.append(thread)
        try:
            work()
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        for key, row in zip(todo, dots.reshape(len(todo), -1)):
            self._sums[key] = np.float64(_exact_sum(row.tolist()))

    def __call__(self, p: float, i: int | None = None, log: bool = False) -> float:
        """``sum w x^p``, or its terms over the one at index ``i``; times ``ln x`` if ``log``."""
        key = (p, i, log)
        if key not in self._sums:
            if i is None:
                self.take(() if log else (p,), (p,) if log else ())
            else:
                terms = self.relative(p, i)
                self._sums[key] = _dot(terms, np.log(self.xs) if log else np.ones(terms.size))
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
        # L(s) / S(s) of the plain sums where they keep their digits; no anchor changes it.
        i = None if sums.plain(s) and math.isfinite(sums(s, log=True)) else sums.dominant(s)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.exp(sums(s, i, log=True) / sums(s, i)))
        if math.isnan(mean):   # inf / inf: no anchor kept the sums finite
            raise DomainError(f"the limit mean is not finite at exponent {r}")
        return min(max(mean, sums.xmin), sums.xmax)
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


def _gini_means(values, pairs, weights) -> list[float]:
    """The means ``G(r, s)`` at ``pairs`` of one series, from the sums of one pass."""
    xs = _as_values(values)
    sums = _PowerSums(xs, _as_weights(weights, xs.size))
    limits = [s for r, s in pairs if abs(r - s) < GEOMETRIC_CUTOFF]
    sums.take([p for pair in pairs for p in pair], limits)
    return [_gini_at(sums, _checked_alpha(r), s) for r, s in pairs]


def mean_curve(values, alphas, family: str, weights=None) -> list[float]:
    """Holder ``G(a, 0)`` or Lehmer ``G(a, a-1)`` means at every exponent of ``alphas``.

    ``values`` and ``weights`` are validated once, and each weighted power
    sum is computed once, all in one pass over the series, so on a grid of
    step ``1/k`` the Lehmer numerator at ``a`` is the denominator at ``a + 1``.
    The first exponent that fails, in grid order, raises its ``DomainError``.
    """
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    pairs = [(a, a - 1.0 if kind == "lehmer" else 0.0) for a in map(float, alphas)]
    return _gini_means(values, pairs, weights)


def gini_mean(values, r, s, weights=None) -> float:
    """Weighted Gini mean ``(sum w x^r / sum w x^s)^(1/(r-s))``, its ``r = s``
    limit ``exp(sum w x^s ln x / sum w x^s)`` where ``|r - s| < GEOMETRIC_CUTOFF``.

    Infinite exponents of one sign give max or min; NaN exponents, and
    infinite ones of opposite signs, raise ``DomainError``.
    """
    r, s = _checked_alpha(r), _checked_alpha(s)
    if math.isnan(r + s):
        raise DomainError("exponents must not be infinite with opposite signs")
    return _gini_means(values, [(r, s)], weights)[0]


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
    mean raised to ``alpha-1``).  Lehmer weights are the terms ``(x /
    x*)^(alpha-1)`` over the largest, as an anchored power sum takes them,
    normalized by their own sum.  Weights not finite raise ``DomainError``.
    """
    xs = _as_values(values)
    a = _checked_alpha(alpha)
    if not math.isfinite(a):
        raise DomainError("v-weights need a finite exponent")
    kind = family.lower()
    if kind not in ("holder", "lehmer"):
        raise DomainError(f"unknown mean family {family!r} (use 'holder' or 'lehmer')")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind == "holder":
            v = np.power(xs, a - 1.0) / xs.size
        else:
            sums = _PowerSums(xs, np.ones(xs.size))
            terms = sums.relative(a - 1.0, sums.dominant(a - 1.0))
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
        # A v-weight below the normal doubles has lost its digits, so its value's
        # share of the mean must be below one ulp of the anchor's, the largest v.
        shares = a * (np.log(xs[v < _TINY]) - np.log(xs[np.argmax(v)]))
        bases = [_dot(v, xs), lehmer_mean(xs, a)]
        routes = np.power(bases, 1.0 / a)
    if np.any(shares > math.log(np.finfo(float).eps)) or not all(map(_normal, [*bases, *routes])):
        raise DomainError(f"the rescaled-weight identity leaves the normal doubles at exponent {a}")
    return float(routes[0]), float(routes[1])
