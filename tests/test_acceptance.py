"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a `[criterion NN] PASS/FAIL` line (visible with ``-s`` or
on failure) and enforces its runtime budget.

Criterion 01 checks L_{0.5} == geometric on two-value datasets only.  The
Lehmer mean at exponent one half equals the geometric mean exactly for pairs
((sqrt(a)+sqrt(b))/(1/sqrt(a)+1/sqrt(b)) = sqrt(ab)) and not in general
(for {1, 4, 9} it is 36/11, not 36**(1/3)); the other five identities hold
for every dataset size and are checked on ten-value datasets.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from meanfit import (
    SweepGrid,
    WeightKernel,
    apply_kernel,
    build_histogram,
    catalog,
    dct8,
    fit_histogram,
    fit_surface,
    gini_mean,
    holder_lehmer_link,
    holder_mean,
    idct8,
    lehmer_mean,
    lse_critical,
    mle_closed_form,
    mle_numeric,
    stat_mean,
    stat_mean_inverse,
    weighted_loglik,
)
from meanfit.cli import main

from conftest import desk_models, dct_like_histogram


@contextmanager
def criterion(number, name, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"
    print(f"[criterion {number:02d}] PASS {name} ({elapsed:.2f}s)")


def datasets(seed, count, n, lo=0.1, hi=10.0):
    rng = np.random.default_rng(seed)
    return [hi - rng.random(n) * (hi - lo) for _ in range(count)]


THREE_KERNELS = (WeightKernel.unit(), WeightKernel.power(0.7), WeightKernel.log_shift())


def estimation_matrix(seed=1001, per_cell=20, n=50):
    """The 8 models x 3 kernels x `per_cell` datasets grid of criteria 4-5."""
    for model in desk_models():
        for kernel in THREE_KERNELS:
            for xs in datasets(seed, per_cell, n):
                series, _ = apply_kernel(xs, kernel)
                yield model, series


def test_criterion_01_pythagorean_identity_suite():
    worst = {key: 0.0 for key in (
        "H0=geometric", "H1=arithmetic", "H-1=harmonic",
        "L0.5=geometric", "L0=harmonic", "L1=arithmetic",
    )}

    def geometric(xs):
        return math.exp(float(np.mean(np.log(xs))))

    def record(key, value, reference):
        worst[key] = max(worst[key], abs(value - reference) / reference)

    with criterion(1, "Pythagorean identity suite (L0.5 checked on pairs)", limit=1.0):
        for xs in datasets(101, 200, 10):
            arithmetic = float(np.mean(xs))
            harmonic = 1.0 / float(np.mean(1.0 / xs))
            record("H0=geometric", holder_mean(xs, 0.0), geometric(xs))
            record("H1=arithmetic", holder_mean(xs, 1.0), arithmetic)
            record("H-1=harmonic", holder_mean(xs, -1.0), harmonic)
            record("L0=harmonic", lehmer_mean(xs, 0.0), harmonic)
            record("L1=arithmetic", lehmer_mean(xs, 1.0), arithmetic)
        # L0.5 equals the geometric mean only for two values, so it is
        # checked on pairs drawn from the same seed.
        for xs in datasets(101, 200, 2):
            record("L0.5=geometric", lehmer_mean(xs, 0.5), geometric(xs))
        for key, gap in worst.items():
            assert gap <= 1e-10, (
                f"{key}: worst relative gap {gap:.3e} "
                f"(L0.5=geometric on two-value data, the rest on ten-value data)"
            )


def test_criterion_02_monotonicity_bounds_ordering():
    grid = -10.0 + 0.25 * np.arange(81)
    with criterion(2, "monotonicity, bounds, and family ordering", limit=5.0):
        for xs in datasets(202, 100, 10):
            lo, hi = float(np.min(xs)), float(np.max(xs))
            hs = np.array([holder_mean(xs, a) for a in grid])
            ls = np.array([lehmer_mean(xs, a) for a in grid])
            assert np.all(np.diff(hs) >= -1e-12)
            assert np.all(np.diff(ls) >= -1e-12)
            for values in (hs, ls):
                assert np.all(values >= lo * (1.0 - 1e-12))
                assert np.all(values <= hi * (1.0 + 1e-12))
            above = grid > 1.0
            below = grid < 1.0
            assert np.all(ls[above] >= hs[above] * (1.0 - 1e-12))
            assert np.all(ls[below] <= hs[below] * (1.0 + 1e-12))


def test_criterion_03_holder_lehmer_link():
    with criterion(3, "rescaled-weight link between the families"):
        for xs in datasets(303, 100, 10):
            for alpha in (-3.0, -1.0, 0.5, 2.0, 5.0):
                rescaled, via_lehmer = holder_lehmer_link(xs, alpha)
                assert abs(rescaled - via_lehmer) <= 1e-12 * abs(via_lehmer)


def test_criterion_04_oracle_equivalence_matrix():
    with criterion(4, "closed form vs numeric maximizer, curvature checks", limit=30.0):
        cells = 0
        for model, series in estimation_matrix():
            closed = mle_closed_form(model, series)
            numeric = mle_numeric(model, series)
            rel = abs(numeric.theta_hat - closed.theta_hat) / closed.theta_hat
            assert rel <= 1e-6, f"{model.name}: closed/numeric gap {rel:.2e}"
            assert closed.curvature < 0.0
            assert numeric.curvature < 0.0
            h = closed.theta_hat * 1e-4
            fd = (
                weighted_loglik(model, closed.theta_hat + h, series)
                - 2.0 * closed.loglik
                + weighted_loglik(model, closed.theta_hat - h, series)
            ) / h**2
            assert closed.curvature == pytest.approx(fd, rel=1e-4)
            cells += 1
        assert cells == 8 * 3 * 20


def test_criterion_05_mle_lse_identity():
    with criterion(5, "weighted least squares equals the weighted MLE"):
        for model, series in estimation_matrix():
            closed = mle_closed_form(model, series)
            theta_lse = lse_critical(
                model, series,
                lambda t, m=model: stat_mean(m, t),
                lambda y, m=model: stat_mean_inverse(m, y),
            )
            # both routes invert the identical sufficient mean, so the
            # estimates agree bit for bit (well inside 1e-12 relative)
            assert theta_lse == closed.theta_hat


def test_criterion_06_table_mean_correspondences():
    with criterion(6, "closed forms expressed through Holder/Lehmer means"):
        gamma2 = catalog("gamma", k=2.0)
        half_normal = catalog("half-normal")
        for xs in datasets(606, 50, 40):
            for beta in (-0.5, 0.0, 1.0, 2.0):
                series, _ = apply_kernel(xs, WeightKernel.power(beta))
                theta = mle_closed_form(catalog("exponential"), series).theta_hat
                expected = lehmer_mean(xs, beta + 1.0)
                assert abs(1.0 / theta - expected) <= 1e-10 * expected
                theta = mle_closed_form(gamma2, series).theta_hat
                assert abs(2.0 / theta - expected) <= 1e-10 * expected
            unit_series, _ = apply_kernel(xs, WeightKernel.unit())
            for shape in (0.5, 1.0, 2.0):
                theta = mle_closed_form(catalog("weibull", alpha=shape), unit_series).theta_hat
                expected = holder_mean(xs, shape) ** shape
                assert abs(1.0 / theta**shape - expected) <= 1e-10 * expected
            theta = mle_closed_form(half_normal, unit_series).theta_hat
            expected = holder_mean(xs, 2.0) ** 2
            assert abs(1.0 / theta**2 - expected) <= 1e-10 * expected
        # The paper's link on fit_surface's own code path, with the bin counts
        # as weights, at exponents whose plain weights leave the doubles: for
        # T = -x^p and the kernel x^beta, m = -S(beta+p) / S(beta), so
        # theta_hat = (h / (s q))^(1/q) G(beta+p, beta)^(-p/q).  For
        # std-lognormal, theta_hat = 1 / Q, Q the quadratic mean of |ln x|
        # under v proportional to c x^beta.
        betas = np.concatenate([np.arange(-1000.0, 1001.0, 25.0), np.arange(-3.0, 3.25, 0.25)])
        kernels = [WeightKernel.power(b) for b in betas]
        shapes = np.array([0.5, 1.0, 1.7, 2.0, 3.0])
        for seed in range(20):
            hist = dct_like_histogram(np.random.default_rng(seed))
            kept = hist.counts > 0.0
            centers, counts = hist.centers[kept], hist.counts[kept]
            for model in desk_models():
                surface = fit_surface(model, hist, kernels)
                for kernel, theta in zip(kernels, surface.theta_hat[0]):
                    if model.p is None:
                        series, _ = apply_kernel(centers, kernel, counts)
                        expected = 1.0 / holder_mean(np.abs(np.log(series.values)), 2.0,
                                                     weights=series.weights)
                    else:
                        scale = (model.h / (model.s * model.q)) ** (1.0 / model.q)
                        mean = gini_mean(centers, kernel.beta + model.p, kernel.beta, counts)
                        expected = scale * mean ** (-model.p / model.q)
                    assert abs(theta - expected) <= 1e-12 * expected, (model.name, kernel.beta)
            surface = fit_surface(catalog("weibull", alpha=1.0), hist, [WeightKernel.unit()],
                                  shapes)
            for shape, theta in zip(shapes, surface.theta_hat[:, 0]):
                expected = holder_mean(centers, shape, weights=counts) ** shape
                assert abs(1.0 / theta**shape - expected) <= 1e-12 * expected


def test_criterion_07_synthetic_recovery():
    with criterion(7, "exponential(theta=2) recovery, raw and binned", limit=10.0):
        rng = np.random.default_rng(707)
        expo = catalog("exponential")
        raw_errors = []
        binned_errors = []
        for _ in range(20):
            draws = rng.exponential(0.5, 10_000)
            series, _ = apply_kernel(draws, WeightKernel.unit())
            raw_errors.append(abs(mle_closed_form(expo, series).theta_hat - 2.0) / 2.0)
            hist, _ = build_histogram(draws, bins=100)
            report = fit_histogram(expo, hist, WeightKernel.unit())
            binned_errors.append(abs(report.theta_hat - 2.0) / 2.0)
        assert float(np.median(raw_errors)) <= 0.02
        assert float(np.median(binned_errors)) <= 0.05


def test_criterion_08_sweep_dominance_and_improvement():
    with criterion(8, "power-kernel sweep dominates the unit kernel", limit=60.0):
        rng = np.random.default_rng(808)
        expo = catalog("exponential")
        kernels = [WeightKernel.power(beta) for beta in SweepGrid(-2.0, 2.0, 0.05).points()]
        improvements = []
        for _ in range(20):
            hist = dct_like_histogram(rng)
            unit = fit_histogram(expo, hist, WeightKernel.unit())
            best = fit_surface(expo, hist, kernels).best()
            assert best.mse <= unit.mse  # exact: beta = 0 is on the grid
            improvements.append((unit.mse - best.mse) / unit.mse)
        strict = sum(1 for gain in improvements if gain >= 0.05)
        assert strict > 10, f"only {strict}/20 histograms improved by >= 5%"


def test_criterion_09_dct_correctness():
    with criterion(9, "block DCT round trip, Parseval, constant spectrum", limit=1.0):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            block = rng.uniform(0.0, 255.0, (8, 8))
            spectrum = dct8(block)
            assert np.max(np.abs(idct8(spectrum) - block)) <= 1e-10
            energy_in = float(np.sum(block**2))
            energy_out = float(np.sum(spectrum**2))
            assert abs(energy_out - energy_in) <= 1e-10 * energy_in
        flat = dct8(np.full((8, 8), 7.25))
        assert flat[0, 0] == 8.0 * 7.25
        off_diag = flat.copy()
        off_diag[0, 0] = 0.0
        assert np.all(off_diag == 0.0)


def test_criterion_10_curve_emission(capsys):
    with criterion(10, "pair curve emission over an exponent grid"):
        code = main(["curves", "--pair", "0.6,2", "--alpha-grid=-5:5:0.1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,holder,lehmer,vh_x1,vl_x1,vh_x2,vl_x2"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 101
        by_alpha = {round(row[0], 9): row for row in rows}
        geometric = math.sqrt(1.2)
        assert abs(by_alpha[1.0][1] - 1.3) <= 1e-9
        assert abs(by_alpha[1.0][2] - 1.3) <= 1e-9
        assert abs(by_alpha[0.5][2] - geometric) <= 1e-9
        assert abs(by_alpha[0.0][1] - geometric) <= 1e-9
        for row in rows:
            assert abs(row[4] + row[6] - 1.0) <= 1e-9
        for col in (3, 4):  # weights of x1 = 0.6 decay as alpha grows
            series = [row[col] for row in rows]
            assert all(b < a for a, b in zip(series, series[1:]))
        for col in (5, 6):  # weights of x2 = 2 gain as alpha grows
            series = [row[col] for row in rows]
            assert all(b > a for a, b in zip(series, series[1:]))
