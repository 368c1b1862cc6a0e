"""Catalog correctness: densities, mean functions, inverses, samplers."""

import math
import zlib

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.stats import kstest

from meanfit import DomainError, NoSolutionError, catalog, in_support, pdf, \
    stat_mean, stat_mean_inverse
from meanfit.expfam import shape_columns

from conftest import desk_models, model_cdf, model_ids, sample_model

THETAS = (0.4, 1.0, 2.7)
CONSTANTS = ("p", "q", "s", "h", "d", "c0")


@pytest.fixture(params=desk_models(), ids=model_ids())
def model(request):
    return request.param


class TestCatalog:
    def test_exponential_row(self):
        m = catalog("exponential")
        assert m.suff_stat(2.0) == -2.0
        assert m.natural_param(3.0) == 3.0
        assert m.log_normalizer(2.0) == pytest.approx(-math.log(2.0))
        assert (m.p, m.q, m.s, m.h, m.d, m.c0) == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0)

    def test_weibull_row(self):
        m = catalog("weibull", alpha=2.0)
        assert m.suff_stat(3.0) == -9.0
        assert m.natural_param(2.0) == 4.0
        assert m.log_normalizer(2.0) == pytest.approx(-2.0 * math.log(2.0))

    def test_std_lognormal_row(self):
        m = catalog("std-lognormal")
        assert m.suff_stat(math.e) == pytest.approx(-1.0)
        assert m.natural_param(3.0) == pytest.approx(4.5)
        assert m.log_normalizer(2.0) == pytest.approx(-math.log(2.0))

    def test_half_normal_row(self):
        m = catalog("half-normal")
        assert m.suff_stat(3.0) == -9.0
        assert m.natural_param(2.0) == pytest.approx(2.0)
        assert m.log_normalizer(0.5) == pytest.approx(math.log(2.0))

    def test_gen_half_normal_row(self):
        m = catalog("gen-half-normal", alpha=2.0)
        assert m.suff_stat(2.0) == pytest.approx(-16.0)
        assert m.natural_param(2.0) == pytest.approx(8.0)
        assert m.log_normalizer(2.0) == pytest.approx(-2.0 * math.log(2.0))

    def test_gamma_row(self):
        m = catalog("gamma", k=3.0)
        assert m.suff_stat(2.0) == -2.0
        assert m.log_normalizer(2.0) == pytest.approx(-3.0 * math.log(2.0))

    def test_inv_gamma_row(self):
        m = catalog("inv-gamma", k=2.0)
        assert m.suff_stat(4.0) == -0.25
        assert m.log_normalizer(2.0) == pytest.approx(-2.0 * math.log(2.0))

    def test_gen_gamma_row(self):
        m = catalog("gen-gamma", alpha=2.0, b=3.0)
        assert m.suff_stat(2.0) == -4.0
        assert m.natural_param(3.0) == 9.0
        assert m.log_normalizer(2.0) == pytest.approx(-3.0 * math.log(2.0))

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            catalog("pareto")

    def test_bad_hyper_rejected(self):
        with pytest.raises(DomainError):
            catalog("weibull", alpha=-1.0)
        with pytest.raises(DomainError):
            catalog("weibull")
        with pytest.raises(DomainError):
            catalog("exponential", alpha=1.0)
        with pytest.raises(DomainError):
            catalog("gen-gamma", alpha=1.0)

    def test_weibull_shape_one_is_exponential(self):
        w1 = catalog("weibull", alpha=1.0)
        expo = catalog("exponential")
        xs = np.linspace(0.05, 6.0, 40)
        for theta in THETAS:
            np.testing.assert_allclose(pdf(w1, theta, xs), pdf(expo, theta, xs), rtol=1e-12)
            assert stat_mean(w1, theta) == pytest.approx(stat_mean(expo, theta), rel=1e-14)

    def test_gamma_order_one_matches_exponential(self, rng):
        from meanfit import WeightedSeries, mle_closed_form

        g1 = catalog("gamma", k=1.0)
        expo = catalog("exponential")
        xs = np.linspace(0.05, 6.0, 40)
        for theta in THETAS:
            np.testing.assert_allclose(pdf(g1, theta, xs), pdf(expo, theta, xs), rtol=1e-12)
            assert stat_mean_inverse(g1, -2.5) == stat_mean_inverse(expo, -2.5)
        series = WeightedSeries(rng.uniform(0.1, 10.0, 30), rng.uniform(0.5, 2.0, 30))
        assert mle_closed_form(g1, series).theta_hat == mle_closed_form(expo, series).theta_hat

    @pytest.mark.parametrize("name, hyper, label", [
        ("gamma", {"k": 1e308}, "k"),
        ("inv-gamma", {"k": 1e308}, "k"),
        ("gen-gamma", {"alpha": 1e-300, "b": 1e300}, "b/alpha"),
    ])
    def test_gamma_function_overflow_is_domain_error(self, name, hyper, label):
        # ln Gamma overflows a double past about 2.6e305, and b/alpha is inf
        with pytest.raises(DomainError, match=f"{label}="):
            catalog(name, **hyper)

    def test_gamma_order_underflow_is_domain_error(self):
        # b/alpha = 1e-330 rounds to 0, the pole of ln Gamma
        with pytest.raises(DomainError, match="b/alpha underflows to 0"):
            catalog("gen-gamma", alpha=1e300, b=1e-30)

    @pytest.mark.parametrize("name, hyper, reference", [
        ("gamma", {"k": 200.0}, lambda th: stats.gamma(200.0, scale=1.0 / th)),
        ("inv-gamma", {"k": 200.0}, lambda th: stats.invgamma(200.0, scale=th)),
        ("gen-gamma", {"alpha": 0.5, "b": 100.0},
         lambda th: stats.gengamma(200.0, 0.5, scale=1.0 / th)),
    ])
    def test_large_gamma_orders_match_scipy_logpdf(self, name, hyper, reference):
        # Gamma(200) overflows a double; the log-space normalizer does not
        model = catalog(name, **hyper)
        for theta in (0.5, 2.0):
            xs = reference(theta).ppf(np.linspace(0.01, 0.99, 25))
            np.testing.assert_allclose(model.log_pdf(theta, xs), reference(theta).logpdf(xs),
                                       rtol=1e-11)
            np.testing.assert_allclose(pdf(model, theta, xs), reference(theta).pdf(xs),
                                       rtol=1e-10)

    def test_theta_functions_take_arrays(self):
        thetas = np.array([0.5, 2.0])
        for model in desk_models():
            np.testing.assert_array_equal(
                model.log_normalizer(thetas), [model.log_normalizer(t) for t in thetas])
            np.testing.assert_array_equal(
                model.mean_inverse(-thetas), [model.mean_inverse(-t) for t in thetas])



class TestShapeColumns:
    # 0.5, 1 and 2 put the exponents 2, 0.5 and -1 into the powers x^p,
    # base^(1/q) and theta^q, which numpy rounds otherwise for an array.
    SHAPES = [0.25, 0.5, 1.0, 1.05, 1.35, 2.0, 3.0]

    @pytest.mark.parametrize("model", [m for m in desk_models() if "alpha" in m.hyper],
                             ids=lambda m: m.name)
    def test_rows_are_their_catalog_models_bit_for_bit(self, model):
        spec, rejected = shape_columns(model, self.SHAPES)
        assert rejected == {}
        fixed = {k: v for k, v in model.hyper.items() if k != "alpha"}
        xs = np.linspace(0.0, 6.0, 31)
        m, theta = -np.linspace(0.1, 4.0, 9), np.linspace(0.2, 3.0, 9)
        got = [np.broadcast_to(spec.log_base(xs), (len(self.SHAPES), xs.size)), spec.suff_stat(xs),
               spec.mean_inverse(np.tile(m, (len(self.SHAPES), 1))), spec.natural_param(theta),
               spec.log_normalizer(theta), spec.mean_deriv(theta), spec.zero_in_support]
        for i, alpha in enumerate(self.SHAPES):
            row = catalog(model.name, alpha=alpha, **fixed)
            for key in CONSTANTS:
                assert getattr(spec, key)[i, 0] == getattr(row, key), key
            with np.errstate(divide="ignore"):   # ln 0, outside the support where d != 1
                base = np.broadcast_to(row.log_base(xs), xs.shape)
            want = [base, row.suff_stat(xs), row.mean_inverse(m), row.natural_param(theta),
                    row.log_normalizer(theta), row.mean_deriv(theta), row.zero_in_support]
            for n, (column, scalar) in enumerate(zip(got, want)):
                assert np.asarray(column)[i].tobytes() == np.asarray(scalar).tobytes(), n

    @pytest.mark.parametrize("name, shape", [
        ("gen-gamma", 1e-306),                # ln Gamma(b/alpha) overflows
        ("gen-gamma", 5e-324),                # b/alpha is inf
        ("gen-half-normal", 1.7e308),         # 2 alpha is inf
        ("weibull", math.inf),
    ])
    def test_rejected_shape_row_has_catalogs_error(self, name, shape):
        model = next(m for m in desk_models() if m.name == name)
        fixed = {k: v for k, v in model.hyper.items() if k != "alpha"}
        with pytest.raises(DomainError) as want:
            catalog(name, alpha=shape, **fixed)
        spec, rejected = shape_columns(model, [1.0, shape])
        assert list(rejected) == [1]
        assert (type(rejected[1]), str(rejected[1])) == (want.type, str(want.value))
        rows = np.hstack([getattr(spec, key) for key in CONSTANTS])
        assert np.isfinite(rows).tolist() == [[True] * 6, [False] * 6]

    def test_rows_slice_every_column(self):
        spec, _ = shape_columns(catalog("gen-gamma", alpha=1.0, b=2.0), [0.5, 1.0, 2.0, 3.0])
        block = spec.rows([1, 3])
        for key in CONSTANTS:
            assert getattr(block, key).tolist() == getattr(spec, key)[[1, 3]].tolist()
        one, _ = shape_columns(catalog("std-lognormal"))
        assert one.p is None and one.rows([0]).p is None
        assert one.rows([0]).q.tolist() == [[2.0]]


class TestPdf:
    def test_exponential_at_origin(self):
        assert pdf(catalog("exponential"), 1.0, 0.0) == 1.0

    def test_half_normal_at_origin(self):
        got = pdf(catalog("half-normal"), 1.0, 0.0)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_normalizes_to_one(self, model, theta):
        # independent oracle: adaptive quadrature of the density
        total, err = quad(lambda x: pdf(model, theta, x), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_theta_outside_domain_rejected(self, model):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                pdf(model, bad, 1.0)

    def test_negative_x_rejected(self, model):
        with pytest.raises(DomainError):
            pdf(model, 1.0, -0.5)

    def test_origin_support_policy(self):
        # finite positive density at 0 admits the point; otherwise rejected
        assert in_support(catalog("exponential"), 0.0)
        assert in_support(catalog("half-normal"), 0.0)
        assert in_support(catalog("weibull", alpha=1.0), 0.0)
        for m in (catalog("std-lognormal"), catalog("inv-gamma", k=1.0),
                  catalog("weibull", alpha=2.0), catalog("gamma", k=2.0)):
            assert not in_support(m, 0.0)
            with pytest.raises(DomainError):
                pdf(m, 1.0, 0.0)


class TestStatMean:
    def test_exponential_value(self):
        assert stat_mean(catalog("exponential"), 2.0) == pytest.approx(-0.5, rel=1e-15)

    def test_half_normal_value(self):
        assert stat_mean(catalog("half-normal"), 1.0) == pytest.approx(-1.0, rel=1e-15)

    def test_gamma_value(self):
        assert stat_mean(catalog("gamma", k=3.0), 1.5) == pytest.approx(-2.0, rel=1e-15)

    def test_inverse_examples(self):
        assert stat_mean_inverse(catalog("exponential"), -2.0) == pytest.approx(0.5)
        got = stat_mean_inverse(catalog("half-normal"), -14.0 / 3.0)
        assert got == pytest.approx(math.sqrt(3.0 / 14.0), rel=1e-14)
        assert stat_mean(catalog("half-normal"), got) == pytest.approx(-14.0 / 3.0, rel=1e-14)

    def test_round_trip(self, model, rng):
        for theta in np.exp(rng.uniform(-3.0, 3.0, 25)):
            back = stat_mean_inverse(model, stat_mean(model, theta))
            assert back == pytest.approx(theta, rel=1e-10)

    def test_strictly_increasing_on_grid(self, model):
        grid = np.exp(np.linspace(-3.0, 3.0, 60))
        values = [stat_mean(model, th) for th in grid]
        assert np.all(np.diff(values) > 0.0)

    def test_derivative_positive_and_matches_fd(self, model):
        for theta in THETAS:
            h = theta * 1e-6
            fd = (stat_mean(model, theta + h) - stat_mean(model, theta - h)) / (2.0 * h)
            assert fd > 0.0
            assert model.mean_deriv(theta) == pytest.approx(fd, rel=1e-7)

    def test_matches_montecarlo_expectation(self, model):
        # E_theta[T(x)] estimated from 1e5 sampler draws; 4-sigma band
        rng = np.random.default_rng(zlib.crc32(model.name.encode()))
        theta = 1.3
        draws = sample_model(model, theta, 100_000, rng)
        stats = model.suff_stat(draws)
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - stat_mean(model, theta)) < 4.0 * se

    def test_out_of_range_mean_rejected(self, model):
        for bad in (0.0, 0.5, math.inf, -math.inf, math.nan):
            with pytest.raises(NoSolutionError):
                stat_mean_inverse(model, bad)


class TestSamplers:
    """KS validation of the test-side samplers against closed-form CDFs."""

    @pytest.mark.parametrize("theta", (0.7, 1.8))
    def test_sampler_matches_cdf(self, model, theta):
        rng = np.random.default_rng(zlib.crc32(f"{model.name}-{theta}".encode()))
        draws = sample_model(model, theta, 4000, rng)
        result = kstest(draws, model_cdf(model, theta))
        assert result.pvalue > 1e-3
