"""Shared test infrastructure: catalog instances, reference samplers, CDFs.

The samplers are test-only oracles (inverse-CDF / standard transforms); their
own correctness is pinned by the Kolmogorov-Smirnov suite in test_expfam.py.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import erf, gammainc, gammaincc

from meanfit import DomainError, EmptyDataError, FitReport, NoSolutionError, apply_kernel, \
    build_histogram, catalog, mle_closed_form, pdf
import meanfit
from meanfit import fitsearch
from meanfit.fitsearch import _report_key
from meanfit.means import GEOMETRIC_CUTOFF


def desk_models():
    """One representative instance of each catalog family."""
    return [
        catalog("exponential"),
        catalog("weibull", alpha=1.7),
        catalog("std-lognormal"),
        catalog("half-normal"),
        catalog("gen-half-normal", alpha=0.8),
        catalog("gamma", k=2.5),
        catalog("inv-gamma", k=3.0),
        catalog("gen-gamma", alpha=1.5, b=2.2),
    ]


def model_ids():
    return [m.name for m in desk_models()]


def sample_model(model, theta, n, rng):
    """Draw n variates from the model at the given theta."""
    name = model.name
    if name == "exponential":
        return rng.exponential(1.0 / theta, n)
    if name == "weibull":
        return rng.weibull(model.hyper["alpha"], n) / theta
    if name == "std-lognormal":
        return np.exp(rng.standard_normal(n) / theta)
    if name == "half-normal":
        return np.abs(rng.standard_normal(n)) / theta
    if name == "gen-half-normal":
        a = model.hyper["alpha"]
        return np.abs(rng.standard_normal(n)) ** (1.0 / a) / theta
    if name == "gamma":
        return rng.gamma(model.hyper["k"], 1.0 / theta, n)
    if name == "inv-gamma":
        return theta / rng.gamma(model.hyper["k"], 1.0, n)
    if name == "gen-gamma":
        a, b = model.hyper["alpha"], model.hyper["b"]
        return rng.gamma(b / a, 1.0, n) ** (1.0 / a) / theta
    raise AssertionError(f"no sampler for {name}")


def model_cdf(model, theta):
    """Closed-form CDF, used to KS-validate the samplers."""
    name = model.name
    if name == "exponential":
        return lambda x: 1.0 - np.exp(-theta * np.asarray(x, float))
    if name == "weibull":
        a = model.hyper["alpha"]
        return lambda x: 1.0 - np.exp(-((theta * np.asarray(x, float)) ** a))
    if name == "std-lognormal":
        return lambda x: 0.5 * (1.0 + erf(theta * np.log(np.asarray(x, float)) / np.sqrt(2.0)))
    if name == "half-normal":
        return lambda x: erf(theta * np.asarray(x, float) / np.sqrt(2.0))
    if name == "gen-half-normal":
        a = model.hyper["alpha"]
        return lambda x: erf((theta * np.asarray(x, float)) ** a / np.sqrt(2.0))
    if name == "gamma":
        k = model.hyper["k"]
        return lambda x: gammainc(k, theta * np.asarray(x, float))
    if name == "inv-gamma":
        k = model.hyper["k"]
        return lambda x: gammaincc(k, theta / np.asarray(x, float))
    if name == "gen-gamma":
        a, b = model.hyper["alpha"], model.hyper["b"]
        return lambda x: gammainc(b / a, (theta * np.asarray(x, float)) ** a)
    raise AssertionError(f"no cdf for {name}")


#: Magnitudes from the subnormal 5e-324 through the largest doubles.
EXTREME_VALUES = st.one_of(
    st.just(5e-324),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
              st.one_of(st.integers(-323, -306), st.integers(-305, -295),
                        st.integers(-5, 5), st.integers(295, 305))),
)


def random_series(rng, n=50, lo=0.1, hi=10.0):
    """Positive test data, uniform on (lo, hi]."""
    return hi - rng.random(n) * (hi - lo)


def dct_like_histogram(rng, n=20000, bins=80):
    """Heavy-tailed synthetic histogram shaped like |DCT| magnitude data.

    A sharp exponential bulk near zero plus a long exponential tail; the
    mixture is deliberately not a single exponential so that a nontrivial
    power-kernel exponent has something to gain.
    """
    tail_share = rng.uniform(0.15, 0.35)
    bulk_scale = rng.uniform(0.05, 0.2)
    tail_scale = rng.uniform(1.0, 4.0)
    in_tail = rng.random(n) < tail_share
    x = np.where(in_tail, rng.exponential(tail_scale, n), rng.exponential(bulk_scale, n))
    hi = float(np.quantile(x, 0.995))
    hist, _ = build_histogram(x, bins=bins, value_range=(0.0, hi))
    return hist


def reference_mse(model, theta, hist):
    """The fit's MSE as ``meanfit.fitsearch`` defines it: the empirical density
    ``count / (total * width)`` against the pdf, over every bin with a positive
    center, zero-count bins included."""
    mask = hist.centers > 0.0
    empirical = hist.counts / (hist.total * hist.widths)
    return float(np.mean((empirical[mask] - pdf(model, theta, hist.centers[mask])) ** 2))


def reference_fit(model, hist, kernel):
    """Scalar reference for one fit_surface point: the positive centers
    weighted by ``apply_kernel``, the estimate of ``mle_closed_form`` and
    ``reference_mse``; a failed check raises as the surface documents."""
    positive = hist.centers > 0.0
    try:
        series, dropped = apply_kernel(hist.centers[positive], kernel, hist.counts[positive])
    except EmptyDataError:
        # apply_kernel words it for a value series
        raise EmptyDataError("every histogram bin was dropped") from None
    est = mle_closed_form(model, series)
    mse = reference_mse(model, est.theta_hat, hist)
    if not math.isfinite(mse):
        raise DomainError(f"{model.name}: MSE {mse!r} at theta={est.theta_hat!r} is not finite")
    return FitReport(model=model.name, kernel=kernel.kind, beta=kernel.beta,
                     alpha=model.hyper.get("alpha"), theta_hat=est.theta_hat, mse=mse,
                     loglik=est.loglik, dropped_bins=dropped + int(np.count_nonzero(~positive)))


def loop_points(model, hist, kernels, shapes=None):
    """Scalar reference for fit_surface: ``reference_fit`` at every point,
    shape-major, each value a FitReport or the exception it raised."""
    fixed = {k: v for k, v in model.hyper.items() if k != "alpha"}
    points = {}
    for i, alpha in enumerate([None] if shapes is None else shapes):
        try:
            shaped = model if shapes is None else catalog(model.name, alpha=float(alpha), **fixed)
        except DomainError as exc:
            points.update(((i, j), exc) for j in range(len(kernels)))
            continue
        for j, kernel in enumerate(kernels):
            try:
                with np.errstate(all="ignore"):
                    points[(i, j)] = reference_fit(shaped, hist, kernel)
            except (DomainError, EmptyDataError, NoSolutionError) as exc:
                points[(i, j)] = exc
    return points


def loop_best(points):
    """The first point of ``loop_points`` that is minimal under ``_report_key``."""
    reports = [r for r in points.values() if not isinstance(r, Exception)]
    if not reports:
        return None
    return min(reports, key=_report_key)


#: The directory that holds this checkout's ``meanfit`` package.
SRC = str(Path(meanfit.__file__).resolve().parent.parent)


def run_warnings_as_errors(*argv, stdin=None, stdout=subprocess.PIPE, **environ):
    """``python -W error -m meanfit.cli`` with this checkout's package first on
    the path, ``stdin`` and ``stdout`` as its standard input and output (its
    output captured by default, its error output always), and ``environ``
    added to the child's environment."""
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "meanfit.cli", *argv],
                          stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60)


def fresh_python(code, **environ):
    """What ``code`` prints as JSON, run by a new ``python -I`` whose path
    starts with this checkout's package, with ``OPENBLAS_NUM_THREADS`` taken
    out of its environment and ``environ`` added."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    proc = subprocess.run([sys.executable, "-I", "-c", code], env={**env, **environ},
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def closed_pipe():
    """The write end of a pipe whose read end is already closed: every write
    to it fails with ``EPIPE``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def blocked_dot(a, b, block=8192):
    """``sum a*b`` as ``meanfit.means`` adds a power sum: one dot per
    ``block``-term slice, the slice dots added exactly in order (up to
    ``block`` terms, the plain dot), and a total beyond the doubles ``inf``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    parts = [a[i:i + block] @ b[i:i + block] for i in range(0, a.size, block)]
    try:
        return np.float64(math.fsum(parts))
    except OverflowError:
        return np.float64(math.inf)


def reference_means(values, alphas, family, weights=None):
    """Per-exponent reference for ``mean_curve``: every mean the Gini
    quotient ``G(a, s)`` of its own power sums, ``s = 0`` for Holder and
    ``a - 1`` for Lehmer, as documented in ``meanfit.means`` (the max/min
    limits, the ``r = s`` limit, which only Holder reaches here, at ``s = 0``,
    no zero where a power of it is infinite or the limit is taken).  Every
    sum is a ``blocked_dot``.  A plain sum is kept while it is finite and at
    least ``(sum w + n)`` times the smallest normal double.  Otherwise both
    sums are taken over the largest term ``w_i x_i^p`` of the sum at ``a``
    (at ``s`` where ``a`` is 0), or, where either then leaves the normal
    doubles, each over its own largest term.  A term over the term at ``i``
    is ``(w / w_i) (x / x_i)^p``, the power of the ratio taken as ``x^p /
    x_i^p`` while ``x_i^p`` and ``x^p`` are normal, and ``exp(ln(w / w_i) +
    p ln(x / x_i))`` where the weight ratio or that power is not normal.
    With one anchor, its value multiplies the root of the quotient, unless
    that quotient is positive and not a normal double (an unanchored Lehmer
    quotient excepted).  Otherwise the mean is raised in log space; one
    beyond the data range by more than that sum's rounding raises.  Every
    other mean is clamped to the data range.  An all-zero series keeps its
    plain sums.  The first exponent that fails raises its ``DomainError``."""
    xs = np.asarray(values, dtype=float)
    ws = np.ones(xs.size) if weights is None else np.asarray(weights, dtype=float)
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    floor = (float(ws.sum()) + xs.size) * tiny

    def normal(v):
        return tiny <= v < math.inf

    def power_sum(p, i=None):
        with np.errstate(all="ignore"):
            if i is None:
                return blocked_dot(np.power(xs, p), ws)
            scale = np.power(xs[i], p)
            powers = np.power(xs, p)
            ratios = np.power(xs / xs[i], p)
            if normal(scale):
                ratios = np.where(powers >= tiny, powers / scale, ratios)
            shares = ws / ws[i]
            terms = shares * ratios
            for j in range(xs.size):
                if not (normal(shares[j]) and normal(ratios[j])):
                    log_term = math.log(ws[j]) - math.log(ws[i])
                    if p != 0.0:
                        log_term += p * (np.log(xs[j]) - math.log(xs[i]))
                    terms[j] = np.exp(log_term)
            return blocked_dot(terms, np.ones(xs.size))

    def plain(p):
        return floor <= power_sum(p) < math.inf or xs.max() == 0.0

    def largest(p):
        with np.errstate(divide="ignore"):
            return int(np.argmax(np.log(ws) + (p * np.log(xs) if p != 0.0 else 0.0)))

    def log_scale(p, i):
        if i is None:
            return 0.0
        return math.log(ws[i]) + (p * math.log(xs[i]) if p != 0.0 else 0.0)

    means = []
    for alpha in alphas:
        r = float(alpha)
        if math.isnan(r):
            raise DomainError("exponent must not be NaN")
        s = r - 1.0 if family == "lehmer" else 0.0
        if (min(r, s) < 0.0 or abs(r - s) < GEOMETRIC_CUTOFF) and np.any(xs == 0.0):
            raise DomainError(f"zero values are not admitted for exponent {r}")
        if math.isinf(r):
            means.append(float(xs.max() if r > 0.0 else xs.min()))
            continue
        if abs(r - s) < GEOMETRIC_CUTOFF:
            v = ws if plain(0.0) else ws / ws[largest(0.0)]
            mean = float(np.exp(blocked_dot(v, np.log(xs)) / blocked_dot(v, np.ones(xs.size))))
            means.append(min(max(mean, xs.min()), xs.max()))
            continue
        top = bottom = None
        num, den = power_sum(r), power_sum(s)
        if not (plain(r) and plain(s)):
            top = bottom = largest(r or s)
            num, den = power_sum(r, top), power_sum(s, bottom)
            if not (normal(num) and normal(den)):
                top, bottom = largest(r), largest(s)
                num, den = power_sum(r, top), power_sum(s, bottom)
        if den == 0.0:
            raise DomainError("the denominator power sum vanished (all values zero)")
        if top == bottom and (num == 0.0 or normal(num / den)
                              or (r - s == 1.0 and top is None)):
            with np.errstate(over="ignore"):
                mean = (num / den) ** (1.0 / (r - s)) * (1.0 if top is None else xs[top])
            if math.isfinite(mean):
                means.append(min(max(float(mean), xs.min()), xs.max()))
                continue
        parts = (log_scale(r, top), -log_scale(s, bottom), math.log(num), -math.log(den))
        log_mean = sum(parts) / (r - s)
        slack = 4.0 * eps * sum(map(abs, parts)) / abs(r - s)
        low = math.log(xs.min()) if xs.min() > 0.0 else -math.inf
        if not low - slack <= log_mean <= math.log(xs.max()) + slack:
            raise DomainError(f"the mean leaves the data range at exponent {r}")
        means.append(min(max(math.exp(min(log_mean, math.log(xs.max()))), xs.min()), xs.max()))
    return means


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrinks ``fit_surface``'s blocks to 300 grid doubles, so that even a
    small surface spans many blocks; returns the default block size."""
    default = fitsearch._BLOCK
    monkeypatch.setattr(fitsearch, "_BLOCK", 300)
    return default


@pytest.fixture
def pipe():
    """Makes the ``/dev/fd`` path of a pipe that holds ``data``, as a shell
    passes ``/dev/stdin``; a second open of it reads nothing."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    read_ends = []

    def make(data):
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        read_ends.append(read_end)
        return f"/dev/fd/{read_end}"

    yield make
    for fd in read_ends:
        os.close(fd)
