"""Shared test infrastructure: catalog instances, reference samplers, CDFs.

The samplers are test-only oracles (inverse-CDF / standard transforms); their
own correctness is pinned by the Kolmogorov-Smirnov suite in test_expfam.py.
"""

import math
import os

import numpy as np
import pytest
from scipy.special import erf, gammainc, gammaincc

from meanfit import DomainError, EmptyDataError, NoSolutionError, build_histogram, catalog, \
    fit_histogram
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


def loop_points(model, hist, kernels, shapes=None):
    """Scalar reference for fit_surface: fit_histogram at every point,
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
                points[(i, j)] = fit_histogram(shaped, hist, kernel)
            except (DomainError, EmptyDataError, NoSolutionError) as exc:
                points[(i, j)] = exc
    return points


def loop_best(points, shape_swept):
    """The first point of ``loop_points`` that is minimal under ``_report_key``."""
    reports = [r for r in points.values() if not isinstance(r, Exception)]
    if not reports:
        return None
    return min(reports, key=lambda r: _report_key(r, r.alpha if shape_swept else 0.0))


def reference_means(values, alphas, family, weights=None):
    """Per-exponent reference for ``mean_curve``: every mean from its own
    power sums, as documented in ``meanfit.means`` (the max/min limits, the
    geometric branch, no zero where a power of it is infinite).  One extreme
    value is factored out of the sums when ``|exponent| > 30`` and the spread
    exceeds 1e6, or when a plain sum overflows or falls below the smallest
    normal double while a value is positive; an all-zero series keeps its
    plain sums.  The first exponent that fails raises its ``DomainError``."""
    xs = np.asarray(values, dtype=float)
    ws = np.ones(xs.size) if weights is None else np.asarray(weights, dtype=float)
    tiny = np.finfo(float).tiny
    means = []
    for alpha in alphas:
        a = float(alpha)
        if math.isnan(a):
            raise DomainError("exponent must not be NaN")
        zero_floor = 0.0 if family == "holder" else 1.0
        if (a < zero_floor or (family == "holder" and abs(a) < GEOMETRIC_CUTOFF)) \
                and np.any(xs == 0.0):
            raise DomainError(f"zero values are not admitted for exponent {a}")
        if a == math.inf:
            means.append(float(xs.max()))
            continue
        if a == -math.inf:
            means.append(float(xs.min()))
            continue
        if family == "holder" and abs(a) < GEOMETRIC_CUTOFF:
            means.append(float(np.exp(np.log(xs) @ ws / ws.sum())))
            continue
        exponents = (a,) if family == "holder" else (a, a - 1.0)
        steering = a if family == "holder" or a >= 1.0 else a - 1.0
        extreme = float(xs.max() if steering > 0.0 else xs.min())

        def power_sums(anchor):
            with np.errstate(over="ignore"):
                scaled = xs if anchor is None else xs / anchor
                return [np.power(scaled, p) @ ws for p in exponents]

        anchor = None
        if xs.max() > 0.0 and abs(steering) > 30.0 \
                and not (xs.min() > 0.0 and xs.max() / xs.min() <= 1e6):
            anchor = extreme
        sums = power_sums(anchor)
        if anchor is None and xs.max() > 0.0 and not all(tiny <= s < math.inf for s in sums):
            anchor = extreme
            sums = power_sums(anchor)
        if family == "holder":
            mean = (sums[0] / ws.sum()) ** (1.0 / a)
        else:
            if sums[1] == 0.0:
                raise DomainError("Lehmer denominator vanished (all values zero)")
            mean = sums[0] / sums[1]
        means.append(float(mean if anchor is None else anchor * mean))
    return means


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


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
