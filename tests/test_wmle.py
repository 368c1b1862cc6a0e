"""Weighted-likelihood estimation: kernels, closed forms, numeric oracle, LSE."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanfit
from meanfit import (
    DomainError,
    EmptyDataError,
    NoSolutionError,
    WeightKernel,
    WeightedSeries,
    apply_kernel,
    catalog,
    holder_mean,
    lehmer_mean,
    lse_critical,
    lse_objective,
    mle_closed_form,
    mle_numeric,
    stat_mean,
    stat_mean_inverse,
    sufficient_mean,
    weighted_loglik,
)

from conftest import desk_models, model_ids, random_series

EXPO = catalog("exponential")
HALF_NORMAL = catalog("half-normal")


@pytest.fixture(params=desk_models(), ids=model_ids())
def model(request):
    return request.param


def unit_series(values):
    return WeightedSeries(np.asarray(values, float), np.ones(len(values)))


class TestWeightKernel:
    def test_unit(self):
        np.testing.assert_array_equal(WeightKernel.unit().weights([1.0, 5.0]), [1.0, 1.0])

    def test_power(self):
        np.testing.assert_allclose(WeightKernel.power(2.0).weights([2.0, 3.0]), [4.0, 9.0])

    def test_log_shift(self):
        np.testing.assert_allclose(
            WeightKernel.log_shift().weights([0.0, math.e - 1.0]), [0.0, 1.0]
        )

    def test_power_requires_exponent(self):
        with pytest.raises(DomainError):
            WeightKernel("power")
        with pytest.raises(DomainError):
            WeightKernel("power", math.inf)

    def test_non_power_rejects_exponent(self):
        with pytest.raises(DomainError):
            WeightKernel("unit", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            WeightKernel("gauss")


class TestWeightedSeries:
    def test_validates_lengths(self):
        with pytest.raises(DomainError):
            WeightedSeries(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(DomainError, match="at least one point"):
            WeightedSeries(np.array([]), np.array([]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DomainError):
            WeightedSeries(np.array([1.0]), np.array([0.0]))

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            WeightedSeries(np.array([-1.0]), np.array([1.0]))

    def test_total_weight(self):
        assert unit_series([1, 2, 3]).total_weight == 3.0


class TestApplyKernel:
    def test_unit_kernel(self):
        series, dropped = apply_kernel([1.0, 2.0, 3.0], WeightKernel.unit())
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(series.weights, [1.0, 1.0, 1.0])
        assert dropped == 0

    def test_power_kernel(self):
        series, dropped = apply_kernel([1.0, 2.0, 3.0], WeightKernel.power(1.0))
        np.testing.assert_allclose(series.weights, [1.0, 2.0, 3.0])
        assert dropped == 0

    def test_log_shift_drops_zero_weight_points(self):
        series, dropped = apply_kernel([0.0, 2.0], WeightKernel.log_shift())
        np.testing.assert_allclose(series.values, [2.0])
        np.testing.assert_allclose(series.weights, [math.log(3.0)])
        assert dropped == 1

    def test_base_weights_multiply_in(self):
        series, _ = apply_kernel([1.0, 2.0], WeightKernel.power(1.0), base_weights=[3.0, 5.0])
        np.testing.assert_allclose(series.weights, [3.0, 10.0])

    def test_negative_base_weight_rejected(self):
        with pytest.raises(DomainError):
            apply_kernel([1.0], WeightKernel.unit(), base_weights=[-1.0])

    @pytest.mark.parametrize("values, base, message", [
        ([1.0, -1.0], None, "values must be finite and non-negative"),
        ([1.0, math.inf], None, "values must be finite and non-negative"),
        ([1.0, 2.0], [1.0], "base weights must match the series length")])
    def test_malformed_series_rejected(self, values, base, message):
        with pytest.raises(DomainError, match=message):
            apply_kernel(values, WeightKernel.unit(), base_weights=base)

    def test_negative_power_at_zero_rejected(self):
        with pytest.raises(DomainError):
            apply_kernel([0.0, 1.0], WeightKernel.power(-1.0))

    def test_all_dropped_is_empty_data(self):
        with pytest.raises(EmptyDataError):
            apply_kernel([0.0], WeightKernel.log_shift())

    def test_power_weights_beyond_the_doubles_are_anchored(self):
        # 2^1100 overflows, so the weights are (x / 2)^1100, where 0.5^1100
        # underflows; the kernel itself still returns u(x)
        series, dropped = apply_kernel([1.0, 1.5, 2.0], WeightKernel.power(1100.0))
        np.testing.assert_array_equal(series.values, [1.5, 2.0])
        np.testing.assert_array_equal(series.weights, [0.75**1100, 1.0])
        assert dropped == 1
        with np.errstate(over="ignore"):
            assert WeightKernel.power(1100.0).weights([2.0])[0] == math.inf


class TestWeightedLoglik:
    def test_exponential_example(self):
        got = weighted_loglik(EXPO, 1.0, unit_series([1.0, 2.0]))
        assert got == pytest.approx(-3.0, rel=1e-15)

    def test_unit_weights_reduce_to_classic(self, rng):
        # classic exponential log-likelihood: n ln(theta) - theta sum(x)
        xs = random_series(rng, 20)
        theta = 1.7
        classic = xs.size * math.log(theta) - theta * xs.sum()
        assert weighted_loglik(EXPO, theta, unit_series(xs)) == pytest.approx(classic, rel=1e-12)

    def test_linear_in_weights(self, rng):
        xs = random_series(rng, 10)
        ws = rng.uniform(0.5, 2.0, 10)
        one = weighted_loglik(HALF_NORMAL, 0.8, WeightedSeries(xs, ws))
        two = weighted_loglik(HALF_NORMAL, 0.8, WeightedSeries(xs, 2.0 * ws))
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_out_of_support_rejected(self):
        with pytest.raises(DomainError):
            weighted_loglik(catalog("std-lognormal"), 1.0, unit_series([0.0, 1.0]))


class TestSufficientMean:
    def test_unit_weights(self):
        assert sufficient_mean(EXPO, unit_series([1.0, 2.0, 3.0])) == pytest.approx(-2.0)

    def test_value_weights(self):
        series = WeightedSeries(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert sufficient_mean(EXPO, series) == pytest.approx(-14.0 / 6.0, rel=1e-15)

    def test_constant_data_any_weights(self, rng):
        ws = rng.uniform(0.1, 5.0, 8)
        series = WeightedSeries(np.full(8, 2.5), ws)
        assert sufficient_mean(EXPO, series) == pytest.approx(-2.5, rel=1e-14)


class TestClosedForm:
    def test_exponential_unit(self):
        res = mle_closed_form(EXPO, unit_series([1.0, 2.0, 3.0]))
        assert res.theta_hat == pytest.approx(0.5, rel=1e-15)

    def test_exponential_power_one(self):
        series, _ = apply_kernel([1.0, 2.0, 3.0], WeightKernel.power(1.0))
        res = mle_closed_form(EXPO, series)
        assert res.theta_hat == pytest.approx(6.0 / 14.0, rel=1e-14)

    def test_exponential_log_shift(self):
        xs = np.array([1.0, 2.0, 3.0])
        series, _ = apply_kernel(xs, WeightKernel.log_shift())
        res = mle_closed_form(EXPO, series)
        w = np.log1p(xs)
        assert res.theta_hat == pytest.approx(w.sum() / (w @ xs), rel=1e-14)

    def test_half_normal_unit(self):
        res = mle_closed_form(HALF_NORMAL, unit_series([1.0, 2.0, 3.0]))
        assert 1.0 / res.theta_hat**2 == pytest.approx(14.0 / 3.0, rel=1e-13)

    def test_curvature_negative_and_matches_fd(self, model, rng):
        xs = random_series(rng, 30)
        series, _ = apply_kernel(xs, WeightKernel.power(0.5))
        res = mle_closed_form(model, series)
        assert res.curvature < 0.0
        h = res.theta_hat * 1e-4
        fd = (
            weighted_loglik(model, res.theta_hat + h, series)
            - 2.0 * res.loglik
            + weighted_loglik(model, res.theta_hat - h, series)
        ) / h**2
        assert res.curvature == pytest.approx(fd, rel=1e-4)

    def test_weight_scale_invariance(self, model, rng):
        xs = random_series(rng, 25)
        ws = rng.uniform(0.2, 3.0, 25)
        base = mle_closed_form(model, WeightedSeries(xs, ws)).theta_hat
        doubled = mle_closed_form(model, WeightedSeries(xs, 2.0 * ws)).theta_hat
        scaled = mle_closed_form(model, WeightedSeries(xs, 3.7 * ws)).theta_hat
        assert doubled == base  # power-of-two scaling is exact
        assert scaled == pytest.approx(base, rel=1e-14)

    def test_constant_data(self):
        res = mle_closed_form(EXPO, unit_series([2.0, 2.0, 2.0]))
        assert res.theta_hat == pytest.approx(0.5, rel=1e-15)

    def test_all_zero_data_has_no_mle(self):
        with pytest.raises(NoSolutionError):
            mle_closed_form(EXPO, unit_series([0.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [EXPO, HALF_NORMAL, catalog("gamma", k=1.0)],
                             ids=["exponential", "half-normal", "gamma-1"])
    def test_zero_value_in_support_takes_no_log(self, model):
        # d == 1 admits x = 0, where ln x is -inf; the maximum needs no ln x
        series = unit_series([0.0, 1.0, 2.0])
        res = mle_closed_form(model, series)
        want = weighted_loglik(model, res.theta_hat, series)
        assert res.loglik == pytest.approx(want, rel=1e-14)

    @given(model=st.sampled_from(desk_models()), seed=st.integers(0, 2**32 - 1),
           n=st.integers(5, 40),
           beta=st.one_of(st.floats(-3.0, 3.0), st.floats(-1000.0, 1000.0)))
    @settings(max_examples=200, deadline=None)
    # sum u = 9.7e307 is a normal double; unanchored, W times the per-unit
    # log-likelihood overflowed
    @example(model=catalog("exponential"), seed=3, n=5, beta=157.0)
    def test_loglik_matches_long_double_sum(self, model, seed, n, beta):
        # The closed-form maximum W (c0 + (d-1) sum v ln x + h (ln theta - 1/q))
        # against sum u ln f in extended precision, under the weights used
        xs = random_series(np.random.default_rng(seed), n, lo=0.01, hi=100.0)
        series, _ = apply_kernel(xs, WeightKernel.power(beta))
        res = mle_closed_form(model, series)
        x = series.values.astype(np.longdouble)
        u = series.weights.astype(np.longdouble)
        theta = np.longdouble(res.theta_hat)
        t = -(np.log(x) ** 2 if model.p is None else x ** np.longdouble(model.p))
        log_f = (model.c0 + (model.d - 1.0) * np.log(x) + model.s * theta ** model.q * t
                 + model.h * np.log(theta))
        want = (u * log_f).sum()
        assert abs(res.loglik - float(want)) <= 1e-12 * float((u * np.abs(log_f)).sum())


class TestNumericOracle:
    @pytest.mark.parametrize("kernel", [
        WeightKernel.unit(), WeightKernel.power(1.0), WeightKernel.log_shift(),
    ], ids=["unit", "power", "log1p"])
    def test_agrees_with_closed_form(self, model, kernel, rng):
        for _ in range(2):
            xs = random_series(rng, 50)
            series, _ = apply_kernel(xs, kernel)
            closed = mle_closed_form(model, series)
            numeric = mle_numeric(model, series)
            assert numeric.theta_hat == pytest.approx(closed.theta_hat, rel=1e-6)
            assert numeric.curvature < 0.0

    def test_constant_data(self):
        res = mle_numeric(EXPO, unit_series([2.0, 2.0, 2.0]))
        assert res.theta_hat == pytest.approx(0.5, rel=1e-6)

    def test_gamma_example(self):
        res = mle_numeric(catalog("gamma", k=2.0), unit_series([1.0, 3.0]))
        assert res.theta_hat == pytest.approx(1.0, rel=1e-6)

    def test_bracket_expansion_reaches_extreme_theta(self):
        # theta ~ 9.5e-8 and ~ 9.5e6 lie past the edges 1e-6 and 1e6 of the search
        for values in ([1e7, 1.1e7], [1e-7, 1.1e-7]):
            res = mle_numeric(EXPO, unit_series(values))
            assert res.theta_hat == pytest.approx(mle_closed_form(
                EXPO, unit_series(values)).theta_hat, rel=1e-6)

    def test_no_maximum_inside_three_expansions(self):
        # theta ~ 9.5e-11 lies past 1e-9, the lower edge after three expansions
        with pytest.raises(NoSolutionError, match="expanded bracket"):
            mle_numeric(EXPO, unit_series([1e10, 1.1e10]))


class TestLeastSquares:
    def test_objective_nonnegative(self, model, rng):
        xs = random_series(rng, 12)
        series, _ = apply_kernel(xs, WeightKernel.unit())
        for theta in (0.3, 1.0, 4.2):
            assert lse_objective(model, series, theta, lambda t: stat_mean(model, t)) >= 0.0

    def test_single_point_minimized_at_stat_match(self):
        # one observation: objective is zero exactly where O(theta) = T(x)
        series = unit_series([2.0])
        theta = lse_critical(
            EXPO, series, lambda t: stat_mean(EXPO, t), lambda m: stat_mean_inverse(EXPO, m)
        )
        assert theta == pytest.approx(0.5, rel=1e-15)
        assert lse_objective(EXPO, series, theta, lambda t: stat_mean(EXPO, t)) == 0.0

    def test_grid_scan_confirms_minimizer(self, model, rng):
        xs = random_series(rng, 40)
        series, _ = apply_kernel(xs, WeightKernel.log_shift())
        transform = lambda t: stat_mean(model, t)
        theta = lse_critical(model, series, transform, lambda m: stat_mean_inverse(model, m))
        best = lse_objective(model, series, theta, transform)
        for scale in np.linspace(0.2, 5.0, 41):
            assert best <= lse_objective(model, series, theta * scale, transform) + 1e-12

    def test_identity_transform_returns_mean(self, rng):
        xs = random_series(rng, 10)
        series, _ = apply_kernel(xs, WeightKernel.unit())
        m = sufficient_mean(EXPO, series)
        assert lse_critical(EXPO, series, lambda t: t, lambda y: y) == m

    def test_matches_mle_bit_for_bit(self, model, rng):
        xs = random_series(rng, 30)
        series, _ = apply_kernel(xs, WeightKernel.power(0.7))
        theta_lse = lse_critical(
            model, series, lambda t: stat_mean(model, t), lambda m: stat_mean_inverse(model, m)
        )
        assert theta_lse == mle_closed_form(model, series).theta_hat

    def test_curvature_positive_at_critical_point(self, model, rng):
        # second derivative reduces to 2 * O'(theta)^2 * sum(u) at the optimum
        xs = random_series(rng, 20)
        series, _ = apply_kernel(xs, WeightKernel.unit())
        transform = lambda t: stat_mean(model, t)
        theta = lse_critical(model, series, transform, lambda m: stat_mean_inverse(model, m))
        h = theta * 1e-5
        fd = (
            lse_objective(model, series, theta + h, transform)
            - 2.0 * lse_objective(model, series, theta, transform)
            + lse_objective(model, series, theta - h, transform)
        ) / h**2
        expected = 2.0 * float(model.mean_deriv(theta)) ** 2 * series.total_weight
        assert fd > 0.0
        assert fd == pytest.approx(expected, rel=1e-3)

    def test_inconsistent_pair_rejected(self, rng):
        series, _ = apply_kernel(random_series(rng, 5), WeightKernel.unit())
        with pytest.raises(DomainError):
            lse_critical(EXPO, series, lambda t: stat_mean(EXPO, t), lambda m: -2.0 / m)


class TestMeanCorrespondences:
    """Closed-form estimates expressed through the classical mean families."""

    @pytest.mark.parametrize("beta", [-1000.0, -0.5, 0.0, 1.0, 2.0, 1000.0])
    def test_exponential_power_kernel_is_lehmer(self, beta, rng):
        xs = random_series(rng, 40)
        series, _ = apply_kernel(xs, WeightKernel.power(beta))
        theta = mle_closed_form(EXPO, series).theta_hat
        assert 1.0 / theta == pytest.approx(lehmer_mean(xs, beta + 1.0), rel=1e-12)

    def test_exponential_geometric_case(self, rng):
        # beta = -0.5 lands on the two-power geometric form of the Lehmer family
        xs = random_series(rng, 30)
        series, _ = apply_kernel(xs, WeightKernel.power(-0.5))
        theta = mle_closed_form(EXPO, series).theta_hat
        assert 1.0 / theta == pytest.approx(lehmer_mean(xs, 0.5), rel=1e-12)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_weibull_unit_kernel_is_holder(self, shape, rng):
        xs = random_series(rng, 40)
        model = catalog("weibull", alpha=shape)
        series, _ = apply_kernel(xs, WeightKernel.unit())
        theta = mle_closed_form(model, series).theta_hat
        assert 1.0 / theta**shape == pytest.approx(holder_mean(xs, shape) ** shape, rel=1e-11)

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.5])
    def test_gamma_power_kernel_is_lehmer(self, beta, rng):
        xs = random_series(rng, 40)
        model = catalog("gamma", k=2.0)
        series, _ = apply_kernel(xs, WeightKernel.power(beta))
        theta = mle_closed_form(model, series).theta_hat
        assert 2.0 / theta == pytest.approx(lehmer_mean(xs, beta + 1.0), rel=1e-12)

    def test_half_normal_unit_kernel_is_holder_two(self, rng):
        xs = random_series(rng, 40)
        series, _ = apply_kernel(xs, WeightKernel.unit())
        theta = mle_closed_form(HALF_NORMAL, series).theta_hat
        assert 1.0 / theta**2 == pytest.approx(holder_mean(xs, 2.0) ** 2, rel=1e-12)


class TestLongSums:
    """Weighted sums do not depend on the BLAS thread count or the layout."""

    CHILD = (
        "import numpy as np\n"
        "from meanfit import WeightedSeries, catalog, mle_closed_form, weighted_loglik\n"
        "rng = np.random.default_rng(3)\n"
        "data = WeightedSeries(rng.exponential(2.0, 30_000), rng.uniform(0.5, 2.0, 30_000))\n"
        "model = catalog('weibull', alpha=1.3)\n"
        "fit = mle_closed_form(model, data)\n"
        "print(repr(fit.theta_hat), repr(fit.loglik), repr(weighted_loglik(model, 0.7, data)))\n"
    )

    def test_fits_do_not_depend_on_the_blas_thread_count(self):
        src = str(Path(meanfit.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-W", "error", "-c", self.CHILD],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_a_sum_beyond_the_doubles_keeps_its_sign(self):
        # Each block of these terms is a finite double; their sum is not.
        big = WeightedSeries(np.ones(30_000), np.full(30_000, 1e304))
        assert weighted_loglik(EXPO, 1.0, big) == -math.inf
        # One block's dot overflows to inf, the other's to -inf.
        xs = np.concatenate([np.full(8192, 1e-12), np.ones(8192)])
        with np.errstate(over="ignore"):
            assert math.isnan(weighted_loglik(EXPO, 1e10, WeightedSeries(xs, np.full(16_384, 1e307))))

    @pytest.mark.parametrize("n", [300, 20_000])
    def test_strided_columns_sum_as_contiguous_ones(self, n):
        rng = np.random.default_rng(n)
        table = np.column_stack([rng.exponential(2.0, n), rng.uniform(0.5, 2.0, n)])
        strided = WeightedSeries(table[:, 0], table[:, 1])
        contiguous = WeightedSeries(table[:, 0].copy(), table[:, 1].copy())
        model = catalog("weibull", alpha=1.3)
        transform = lambda t: stat_mean(model, t)
        for theta in (0.3, 0.7, 2.0):
            assert weighted_loglik(model, theta, strided) \
                == weighted_loglik(model, theta, contiguous)
            assert lse_objective(model, strided, theta, transform) \
                == lse_objective(model, contiguous, theta, transform)
