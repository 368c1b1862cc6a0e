"""Histogram fitting, MSE scoring, and the sweep/compare machinery."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from meanfit import (
    DomainError,
    EmptyDataError,
    Histogram,
    NoSolutionError,
    SweepError,
    SweepGrid,
    WeightKernel,
    apply_kernel,
    build_histogram,
    catalog,
    compare_kernels,
    fit_histogram,
    fit_surface,
    mle_closed_form,
    mle_numeric,
    pdf,
)
from meanfit import expfam, fitsearch

from conftest import dct_like_histogram, desk_models, loop_best, loop_points, model_ids, \
    reference_mse, run_warnings_as_errors

EXPO = catalog("exponential")


def powers(grid):
    """One power kernel per exponent of ``grid``."""
    return [WeightKernel.power(beta) for beta in grid.points()]


def single_bin_hist(center=2.0, width=1.0, count=5.0):
    return Histogram(
        edges=np.array([center - width / 2.0, center + width / 2.0]),
        counts=np.array([count]),
    )


class TestHistogram:
    def test_validates_edges(self):
        with pytest.raises(DomainError):
            Histogram(edges=np.array([0.0, 0.0, 1.0]), counts=np.array([1.0, 1.0]))
        with pytest.raises(DomainError, match="at least two bin edges"):
            Histogram(edges=np.array([0.0]), counts=np.array([]))

    def test_validates_counts(self):
        with pytest.raises(DomainError):
            Histogram(edges=np.array([0.0, 1.0]), counts=np.array([-1.0]))
        with pytest.raises(DomainError):
            Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([0.0, 0.0]))
        with pytest.raises(DomainError, match="one entry per bin"):
            Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([1.0]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_counts_summing_beyond_the_doubles(self):
        # Every count is finite, their total is not: no fit could be scored
        # against the empirical density count / (total * width).
        with pytest.raises(DomainError, match="^counts must be finite and non-negative, "
                                              "with a finite sum$"):
            Histogram(edges=np.arange(4.0), counts=np.full(3, 1e308))

    def test_derived_quantities(self):
        hist = Histogram(edges=np.array([0.0, 1.0, 3.0]), counts=np.array([3.0, 1.0]))
        np.testing.assert_allclose(hist.centers, [0.5, 2.0])
        np.testing.assert_allclose(hist.widths, [1.0, 2.0])
        assert hist.total == 4.0


class TestHistogramToSeries:
    """A fit weights each kept bin as the observation ``(center, count * u(center))``,
    seen through ``theta_hat`` and ``dropped_bins``."""

    def test_unit_kernel(self):
        hist = Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([3.0, 1.0]))
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        # weights 3 and 1 at 0.5 and 1.5: mean 0.75
        assert report.theta_hat == pytest.approx(1.0 / 0.75, rel=1e-15)
        assert report.dropped_bins == 0

    def test_power_kernel(self):
        hist = Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([3.0, 1.0]))
        report = fit_histogram(EXPO, hist, WeightKernel.power(1.0))
        # weights 3 * 0.5 and 1 * 1.5 are equal: mean 1
        assert report.theta_hat == pytest.approx(1.0, rel=1e-15)
        assert report.dropped_bins == 0

    def test_zero_count_bin_dropped(self):
        hist = Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([0.0, 5.0]))
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        assert report.theta_hat == pytest.approx(1.0 / 1.5, rel=1e-15)
        assert report.dropped_bins == 1
        assert loop_points(EXPO, hist, [WeightKernel.unit()])[(0, 0)].dropped_bins == 1

    def test_all_bins_dropped(self):
        hist = Histogram(edges=np.array([-2.0, -1.0, 0.0]), counts=np.array([1.0, 1.0]))
        with pytest.raises(EmptyDataError, match="every histogram bin was dropped"):
            fit_histogram(EXPO, hist, WeightKernel.unit())
        assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.unit()])


class TestMseScore:
    def test_exact_discretized_density_scores_zero(self):
        # construct a histogram that IS the discretized density: find theta
        # where the bin-center densities sum to 1/width, so that the
        # empirical densities reproduce pdf(centers) exactly; then the kernel
        # exponent whose fit lands on that theta
        model = catalog("weibull", alpha=2.0)
        theta_star = brentq(
            lambda th: pdf(model, th, 0.7) + pdf(model, th, 1.7) - 1.0, 0.5, 1.5, xtol=1e-15
        )
        counts = np.array([pdf(model, theta_star, 0.7), pdf(model, theta_star, 1.7)])
        hist = Histogram(edges=np.array([0.2, 1.2, 2.2]), counts=counts)

        def theta_gap(beta):
            return fit_histogram(model, hist, WeightKernel.power(beta)).theta_hat - theta_star

        beta = brentq(theta_gap, -10.0, 10.0, xtol=1e-15)
        report = fit_histogram(model, hist, WeightKernel.power(beta))
        assert report.theta_hat == pytest.approx(theta_star, rel=1e-14)
        assert report.mse < 1e-25

    def test_invariant_under_count_scaling(self, rng):
        counts = rng.integers(1, 50, 30).astype(float)
        edges = np.linspace(0.0, 6.0, 31)
        kernels = [WeightKernel.power(b) for b in np.arange(-2.0, 2.5, 0.5)] + [
            WeightKernel.unit(), WeightKernel.log_shift()]
        base = fit_surface(EXPO, Histogram(edges=edges, counts=counts), kernels)
        scaled = fit_surface(EXPO, Histogram(edges=edges, counts=7.0 * counts), kernels)
        assert not base.failures and not scaled.failures
        np.testing.assert_allclose(scaled.mse, base.mse, rtol=1e-14)

    def test_count_scaling_leaves_fit_unchanged(self, rng):
        counts = rng.integers(1, 50, 30).astype(float)
        edges = np.linspace(0.0, 6.0, 31)
        one = fit_histogram(EXPO, Histogram(edges=edges, counts=counts), WeightKernel.unit())
        two = fit_histogram(
            EXPO, Histogram(edges=edges, counts=7.0 * counts), WeightKernel.unit()
        )
        assert two.theta_hat == pytest.approx(one.theta_hat, rel=1e-14)
        assert two.mse == pytest.approx(one.mse, rel=1e-14)

    def test_fitted_theta_beats_wrong_theta(self):
        # sampling oracle: a deliberately wrong theta must score worse
        rng = np.random.default_rng(7)
        draws = rng.exponential(0.5, 10_000)
        hist, _ = build_histogram(draws, bins=50, value_range=(0.0, 5.0))
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        assert report.mse == pytest.approx(reference_mse(EXPO, report.theta_hat, hist), rel=1e-12)
        assert report.mse < reference_mse(EXPO, 0.2, hist)

    def test_out_of_support_bins_excluded(self):
        hist = Histogram(edges=np.array([-1.0, 0.0, 1.0]), counts=np.array([2.0, 2.0]))
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        # only the positive-center bin is fitted and compared: theta = 1 / 0.5,
        # and its empirical density is 2/(4*1) = 0.5 against 2 exp(-1)
        assert report.dropped_bins == 1
        assert report.theta_hat == 2.0
        assert report.mse == pytest.approx((0.5 - 2.0 * math.exp(-1.0)) ** 2, rel=1e-14)


class TestFitHistogram:
    def test_delta_histogram(self):
        report = fit_histogram(EXPO, single_bin_hist(center=2.0), WeightKernel.unit())
        assert report.theta_hat == pytest.approx(0.5, rel=1e-15)
        assert report.dropped_bins == 0

    def test_synthetic_recovery_within_five_percent(self):
        rng = np.random.default_rng(11)
        draws = rng.exponential(0.5, 10_000)
        hist, _ = build_histogram(draws, bins=100)
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        assert abs(report.theta_hat - 2.0) / 2.0 < 0.05

    def test_power_zero_equals_unit(self):
        rng = np.random.default_rng(3)
        draws = rng.exponential(1.0, 2000)
        hist, _ = build_histogram(draws, bins=40)
        unit = fit_histogram(EXPO, hist, WeightKernel.unit())
        power0 = fit_histogram(EXPO, hist, WeightKernel.power(0.0))
        assert power0.theta_hat == unit.theta_hat
        assert power0.mse == unit.mse
        assert power0.loglik == unit.loglik
        assert power0.dropped_bins == unit.dropped_bins
        assert (power0.kernel, power0.beta) == ("power", 0.0)
        assert (unit.kernel, unit.beta) == ("unit", None)

    @pytest.mark.parametrize("beta", [243, 244])
    def test_subnormal_powers_are_anchored(self, beta):
        # Each x^beta is subnormal, near 1e-318; times the counts their total,
        # 1.1e-307, is normal but below the floor (sum count + 2) * tiny.
        hist = Histogram([0.049, 0.0495, 0.05], [1e11, 1e11])
        theta = fit_histogram(EXPO, hist, WeightKernel.power(beta)).theta_hat

        def power_sum(t):
            return sum(Fraction(c) * Fraction(x) ** t for x, c in zip(hist.centers, hist.counts))

        assert math.isclose(theta, power_sum(beta) / power_sum(beta + 1), rel_tol=1e-15)


class TestSweepGrid:
    def test_points_include_both_ends(self):
        pts = SweepGrid(-2.0, 2.0, 0.05).points()
        assert pts.size == 81
        assert pts[0] == -2.0
        assert pts[-1] == pytest.approx(2.0, abs=1e-12)
        assert 0.0 in pts

    def test_single_point_grid(self):
        np.testing.assert_array_equal(SweepGrid(1.5, 1.5, 0.1).points(), [1.5])

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepGrid(2.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            SweepGrid(0.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="must be finite"):
            SweepGrid(0.0, math.inf, 0.1)

    def test_points_hit_zero_and_stop_at_hi(self):
        # lo + k step rounds to 5.6e-17 at k = 3, and past hi at the last k
        np.testing.assert_array_equal(SweepGrid(-0.3, 0.3, 0.1).points()[[3, 6]], [0.0, 0.3])
        assert SweepGrid(0.2, 3.0, 0.05).points()[-1] == 3.0

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 1.0, 1e-300), (0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0), (0.0, 2.0**60, 1.0)])
    def test_too_many_points_rejected(self, lo, hi, step):
        # a finite count past what np.arange can index, or an infinite one
        with pytest.raises(DomainError, match="too many points"):
            SweepGrid(lo, hi, step)


class TestSweepBeta:
    def test_dominates_unit_kernel_when_grid_has_zero(self, rng):
        hist = dct_like_histogram(rng)
        unit = fit_histogram(EXPO, hist, WeightKernel.unit())
        best = fit_surface(EXPO, hist, powers(SweepGrid(-1.0, 1.0, 0.25))).best()
        assert best.mse <= unit.mse

    def test_single_bin_ties_break_to_zero(self):
        # one bin: every kernel weight cancels in the ratio, all betas tie
        best = fit_surface(EXPO, single_bin_hist(), powers(SweepGrid(-1.0, 1.0, 0.5))).best()
        assert best.beta == 0.0

    def test_heavy_tail_prefers_nonzero_beta(self):
        rng = np.random.default_rng(4242)
        hist = dct_like_histogram(rng)
        unit = fit_histogram(EXPO, hist, WeightKernel.unit())
        best = fit_surface(EXPO, hist, powers(SweepGrid(-2.0, 2.0, 0.05))).best()
        assert best.beta != 0.0
        assert best.mse < unit.mse

    def test_all_points_failing_raises_sweep_error(self):
        # center exactly 1.0 makes the lognormal sufficient statistic vanish
        hist = Histogram(edges=np.array([0.5, 1.5]), counts=np.array([3.0]))
        with pytest.raises(SweepError) as excinfo:
            fit_surface(catalog("std-lognormal"), hist, powers(SweepGrid(-1.0, 1.0, 0.5))).best()
        assert len(excinfo.value.causes) == 5
        assert str(excinfo.value).startswith("every exponent in the sweep failed [-1.0: ")
        assert str(SweepError("every exponent in the sweep failed")) == \
            "every exponent in the sweep failed"

    def test_deterministic(self, rng):
        hist = dct_like_histogram(rng)
        kernels = powers(SweepGrid(-1.5, 1.5, 0.1))
        assert fit_surface(EXPO, hist, kernels).best() == fit_surface(EXPO, hist, kernels).best()


class TestSweepShape:
    def test_shape_one_weibull_matches_exponential(self, rng):
        hist = dct_like_histogram(rng)
        best = fit_surface(catalog("weibull", alpha=2.0), hist, [WeightKernel.unit()], [1.0]).best()
        plain = fit_histogram(EXPO, hist, WeightKernel.unit())
        assert best.theta_hat == pytest.approx(plain.theta_hat, rel=1e-14)
        assert best.mse == pytest.approx(plain.mse, rel=1e-14)
        assert best.alpha == 1.0

    def test_generating_shape_wins(self):
        rng = np.random.default_rng(21)
        draws = rng.exponential(0.5, 20_000)
        hist, _ = build_histogram(draws, bins=60)
        best = fit_surface(catalog("weibull", alpha=2.0), hist, [WeightKernel.unit()],
                           [0.5, 1.0, 1.5]).best()
        assert best.alpha == 1.0

    def test_gen_half_normal_shape_one_is_half_normal(self, rng):
        hist = dct_like_histogram(rng)
        best = fit_surface(catalog("gen-half-normal", alpha=2.0), hist, [WeightKernel.unit()],
                           [1.0]).best()
        plain = fit_histogram(catalog("half-normal"), hist, WeightKernel.unit())
        assert best.theta_hat == pytest.approx(plain.theta_hat, rel=1e-14)

    def test_crossed_with_beta_grid(self, rng):
        hist = dct_like_histogram(rng)
        best = fit_surface(catalog("weibull", alpha=1.0), hist,
                           powers(SweepGrid(-0.5, 0.5, 0.5)),
                           SweepGrid(0.8, 1.2, 0.2).points()).best()
        assert best.kernel == "power"
        assert best.alpha in (0.8, 1.0, 1.2)

    def test_gen_gamma_shape_swept_with_fixed_b(self, rng):
        hist = dct_like_histogram(rng)
        best = fit_surface(catalog("gen-gamma", alpha=1.0, b=2.0), hist, [WeightKernel.unit()],
                           [0.5, 1.0, 1.5]).best()
        assert best.model == "gen-gamma"
        assert best.alpha in (0.5, 1.0, 1.5)

    def test_shapeless_model_rejected(self, rng):
        with pytest.raises(DomainError):
            fit_surface(EXPO, dct_like_histogram(rng), [WeightKernel.unit()], [1.0, 1.5, 2.0])

    def test_nonpositive_shape_grid_rejected(self, rng):
        with pytest.raises(DomainError):
            fit_surface(catalog("weibull", alpha=1.0), dct_like_histogram(rng),
                        [WeightKernel.unit()], [-0.5, 0.0, 0.5, 1.0])


class TestBetaProfile:
    def test_one_row_per_grid_point(self, rng):
        hist = dct_like_histogram(rng)
        grid = SweepGrid(-1.0, 1.0, 0.25)
        rows = fit_surface(EXPO, hist, powers(grid)).profile()
        assert len(rows) == grid.points().size
        assert [b for b, _ in rows] == list(grid.points())
        assert all(math.isfinite(m) for _, m in rows)

    def test_failures_marked_nan(self):
        hist = Histogram(edges=np.array([0.5, 1.5]), counts=np.array([3.0]))
        rows = fit_surface(catalog("std-lognormal"), hist,
                           powers(SweepGrid(-0.5, 0.5, 0.5))).profile()
        assert len(rows) == 3
        assert all(math.isnan(m) for _, m in rows)


class TestCompareKernels:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
    def test_rejects_tie_epsilon_not_finite_and_non_negative(self, eps):
        with pytest.raises(DomainError, match="tie epsilon"):
            compare_kernels([EXPO], [single_bin_hist()], SweepGrid(-1.0, 1.0, 0.5), eps)

    def test_single_bin_all_kernels_tie(self):
        rows = compare_kernels([EXPO], [single_bin_hist()], SweepGrid(-1.0, 1.0, 0.5))
        row = rows[0]
        assert row.pct_unit == 100.0
        assert row.pct_power == 100.0
        assert row.pct_log1p == 100.0
        assert row.mean_improvement == 0.0
        assert row.n_scored == 1
        # weibull(e/2) has density 1 at the center 0.5 of a [0, 1] bin: the unit MSE is 0
        model, exact = catalog("weibull", alpha=math.e / 2), single_bin_hist(center=0.5)
        assert fit_histogram(model, exact, WeightKernel.unit()).mse == 0.0
        rows = compare_kernels([model], [exact], SweepGrid(-1.0, 1.0, 0.5))
        assert rows[0].mean_improvement == 0.0

    def test_power_always_wins_when_grid_has_zero(self, rng):
        hists = [dct_like_histogram(rng) for _ in range(5)]
        rows = compare_kernels([EXPO], hists, SweepGrid(-1.0, 1.0, 0.25))
        assert rows[0].pct_power == 100.0

    def test_percentages_bounded_and_winner_exists(self, rng):
        hists = [dct_like_histogram(rng) for _ in range(4)]
        models = [EXPO, catalog("half-normal"), catalog("weibull", alpha=1.3)]
        rows = compare_kernels(models, hists, SweepGrid(-0.5, 0.5, 0.25))
        for row in rows:
            for pct in (row.pct_unit, row.pct_power, row.pct_log1p):
                assert 0.0 <= pct <= 100.0
            assert row.pct_unit + row.pct_power + row.pct_log1p >= 100.0
            assert row.mean_improvement >= 0.0
            assert row.n_scored == 4

    def test_model_failures_recorded_not_fatal(self, rng):
        # the lognormal statistic vanishes at center 1.0, the exponential fits fine
        bad_hist = Histogram(edges=np.array([0.5, 1.5]), counts=np.array([3.0]))
        rows = compare_kernels(
            [EXPO, catalog("std-lognormal")], [bad_hist], SweepGrid(0.0, 0.5, 0.5)
        )
        by_name = {row.model: row for row in rows}
        assert by_name["exponential"].n_scored == 1
        assert by_name["std-lognormal"].n_scored == 0
        assert len(by_name["std-lognormal"].failures) == 3

    def test_zero_on_a_decimal_grid_is_the_unit_kernel(self):
        # Power 5.6e-17, where -0.3 + 3 * 0.1 rounds, fits a little worse than
        # power 0: the improvement read -1.5e-15.
        hist, _ = build_histogram(np.random.default_rng(2).exponential(30.0, 400), bins=15)
        grid = SweepGrid(-0.3, 0.3, 0.1)
        assert compare_kernels([EXPO], [hist], grid)[0].mean_improvement >= 0.0
        assert fit_surface(EXPO, hist, powers(grid)).best().beta == 0.0

    def test_improvement_is_signed_when_power_loses(self):
        # Without 0 on the grid every power kernel fits worse than the unit one.
        hist = Histogram(edges=np.arange(5.0), counts=np.array([40.0, 15.0, 6.0, 2.0]))
        grid = SweepGrid(3.0, 4.0, 0.5)
        unit = fit_histogram(EXPO, hist, WeightKernel.unit()).mse
        power = min(fit_histogram(EXPO, hist, kernel).mse for kernel in powers(grid))
        row = compare_kernels([EXPO], [hist], grid)[0]
        assert (row.pct_unit, row.pct_power, row.n_scored) == (100.0, 0.0, 1)
        assert row.mean_improvement == pytest.approx((unit - power) / unit, rel=1e-12)
        assert row.mean_improvement < -0.5

    def test_mixed_failures_across_a_corpus(self, monkeypatch):
        # Histogram 0 scores every kernel, 1 fails only unit, 2 fails every kernel.
        grid = SweepGrid(-1.0, 1.0, 1.0)
        kernels = (WeightKernel.unit(), WeightKernel.log_shift(), *powers(grid))
        tables = [[4.0, 1.0005, 3.0, 1.0, 2.0],   # unit, log1p, then beta -1, 0, 1
                  [math.nan, 3.0, 2.0, 2.5, math.nan],
                  [math.nan] * 5]

        def surface(mses):
            mse = np.array([mses])
            return fitsearch.FitSurface(
                model="exponential", alphas=(None,), kernels=kernels, shape_swept=False,
                theta_hat=mse.copy(), mse=mse, loglik=mse.copy(), dropped_bins=np.zeros(5, int),
                failures={(0, j): DomainError(f"kernel {j} failed")
                          for j in np.flatnonzero(np.isnan(mse[0])).tolist()})

        monkeypatch.setattr(fitsearch, "fit_surface", lambda model, hist, ks: surface(tables[hist]))
        row = compare_kernels([EXPO], range(3), grid)[0]
        assert row.n_scored == 2
        assert (row.pct_unit, row.pct_power, row.pct_log1p) == (0.0, 100.0, 50.0)
        assert row.mean_improvement == (4.0 - 1.0) / 4.0
        assert row.failures == (
            "histogram 1: unit: kernel 0 failed",
            "histogram 2: unit: kernel 0 failed",
            "histogram 2: power: every exponent in the sweep failed "
            "[-1.0: kernel 2 failed; 0.0: kernel 3 failed; 1.0: kernel 4 failed]",
            "histogram 2: log1p: kernel 1 failed",
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyDataError):
            compare_kernels([], [single_bin_hist()], SweepGrid(0.0, 1.0, 0.5))

    def test_one_surface_per_pair_matches_scalar_fits(self, rng, monkeypatch):
        hists = [dct_like_histogram(rng) for _ in range(3)]
        models = [EXPO, catalog("weibull", alpha=1.3)]
        grid = SweepGrid(-1.0, 1.0, 0.25)
        powers = [WeightKernel.power(b) for b in grid.points()]
        want = []
        for model in models:
            wins, gains = np.zeros(3), []
            for hist in hists:
                points = loop_points(model, hist, [WeightKernel.unit(), WeightKernel.log_shift()])
                mses = np.array([
                    points[(0, 0)].mse,
                    loop_best(loop_points(model, hist, powers)).mse,
                    points[(0, 1)].mse,
                ])
                wins += mses <= mses.min() * (1.0 + 1e-3)
                gains.append(abs(mses[0] - mses[1]) / mses[0])
            want.append((*(100.0 * wins / len(hists)), np.mean(gains)))

        built = []
        real_surface = fitsearch.fit_surface

        def counting_surface(*args):
            built.append(args)
            return real_surface(*args)

        monkeypatch.setattr(fitsearch, "fit_surface", counting_surface)
        monkeypatch.setattr(fitsearch, "fit_histogram", None)   # no scalar fit either
        rows = compare_kernels(models, hists, grid)
        assert len(built) == len(models) * len(hists)
        for row, (unit, power, log1p, gain) in zip(rows, want):
            assert (row.pct_unit, row.pct_power, row.pct_log1p) == (unit, power, log1p)
            assert row.mean_improvement == pytest.approx(gain, rel=1e-12)
            assert (row.n_scored, row.failures) == (len(hists), ())


class TestConsistency:
    def test_error_shrinks_with_sample_count(self):
        rng = np.random.default_rng(99)
        medians = []
        for n in (10**3, 10**5):
            errors = []
            for _ in range(20):
                draws = rng.exponential(0.5, n)
                hist, _ = build_histogram(draws, bins=100)
                report = fit_histogram(EXPO, hist, WeightKernel.unit())
                errors.append(abs(report.theta_hat - 2.0))
            medians.append(float(np.median(errors)))
        assert medians[1] < medians[0]


def close(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * abs(want)


def assert_matches_loop(surface, points):
    assert list(surface.failures) == [k for k, v in points.items() if isinstance(v, Exception)]
    for (i, j), want in points.items():
        if isinstance(want, Exception):
            assert type(surface.failures[(i, j)]) is type(want), (i, j, want)
            assert math.isnan(surface.mse[i, j])
            continue
        got = surface.report(i, j)
        assert (got.model, got.kernel, got.beta, got.alpha, got.dropped_bins) == (
            want.model, want.kernel, want.beta, want.alpha, want.dropped_bins)
        for field in ("theta_hat", "mse", "loglik"):
            assert close(getattr(got, field), getattr(want, field)), (i, j, field)


@st.composite
def surface_cases(draw):
    model = draw(st.sampled_from(desk_models()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hist = dct_like_histogram(rng, n=2000, bins=draw(st.integers(2, 60)))
    # Moderate exponents, and extreme ones whose plain weights leave the
    # double range, so that the weights are anchored at the dominant center
    # and the others underflow (dropped bins).
    betas = st.one_of(st.floats(-3.0, 3.0), st.floats(-1000.0, 1000.0))
    kernels = [WeightKernel.power(b) for b in draw(st.lists(betas, min_size=1, max_size=8))]
    if draw(st.booleans()):
        kernels += [WeightKernel.unit(), WeightKernel.log_shift()]
    shapes = None
    if "alpha" in model.hyper and draw(st.booleans()):
        shapes = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=5))
    return model, hist, kernels, shapes


def assert_matches_loop_and_messages(model, hist, kernels, shapes=None):
    """``assert_matches_loop`` plus the same failure messages; the surface."""
    surface = fit_surface(model, hist, kernels, shapes)
    points = loop_points(model, hist, kernels, shapes)
    assert_matches_loop(surface, points)
    assert {key: (type(exc), str(exc)) for key, exc in surface.failures.items()} == {
        key: (type(exc), str(exc)) for key, exc in points.items() if isinstance(exc, Exception)}
    return surface


def assert_same_surface(got, want):
    """``got`` equals ``want`` bit for bit, and has the same failures in the
    same order, with the same classes and messages."""
    for field in ("theta_hat", "mse", "loglik", "dropped_bins"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert [(key, type(exc), str(exc)) for key, exc in got.failures.items()] == [
        (key, type(exc), str(exc)) for key, exc in want.failures.items()]


def assert_block_invariant(model, hist, kernels, shapes):
    """Asserts that the surface equals, bit for bit, the stack of its one-shape
    surfaces and, in the column of each kernel that keeps every used bin,
    that kernel's one-kernel surface; returns the surface."""
    surface = fit_surface(model, hist, kernels, shapes)
    rows = [fit_surface(model, hist, kernels, [alpha]) for alpha in shapes]
    # The one-kernel surface of a kernel that drops more bins than another
    # sums over its kept bins alone, where the surface sums zeros in their
    # place; BLAS may add those two dots in another order.
    full = np.flatnonzero(surface.dropped_bins == surface.dropped_bins.min())
    columns = [fit_surface(model, hist, [kernels[j]], shapes) for j in full]
    for field in ("theta_hat", "mse", "loglik"):
        got = getattr(surface, field)
        assert got.tobytes() == np.concatenate([getattr(r, field) for r in rows]).tobytes()
        assert got[:, full].tobytes() == np.concatenate(
            [getattr(c, field) for c in columns], axis=1).tobytes()
    messages = [(key, type(exc), str(exc)) for key, exc in surface.failures.items()]
    assert messages == [((i, j), type(exc), str(exc))
                        for i, row in enumerate(rows) for (_, j), exc in row.failures.items()]
    assert [m for m in messages if m[0][1] in full] == sorted(
        ((i, int(full[n])), type(exc), str(exc))
        for n, column in enumerate(columns) for (i, _), exc in column.failures.items())
    return surface


# Every one of its 80 counts is positive, and its centers span 0.036 to 5.7.
KEPT_HIST = dct_like_histogram(np.random.default_rng(1))
# Every kernel keeps every bin of KEPT_HIST.
MIXED_KERNELS = [WeightKernel.power(b) for b in (-1.0, 0.0, 0.5, 2.0)] + [
    WeightKernel.unit(), WeightKernel.log_shift()]
# Centers 1 and 1e200: under weibull at shape 2 or more, T(1e200) = -x^alpha
# overflows to -inf, and power -2 weighs 1e200 by 1e-400, which underflows.
HUGE_HIST = Histogram(np.array([0.5, 1.5, 2e200 - 1.5]), np.array([3.0, 1.0]))


# (model, edges, counts, kernel, error, words): every class of failure a
# fit_surface point can still have, each in a histogram where the unit fits.
# There no point loses every bin: weights that all underflow are anchored.
ROW_FAILURES = [
    # x^1000 underflows at 0.25, so only T(1) = 0 is left
    (catalog("std-lognormal"), [0.0, 0.5, 1.5], [1.0, 1.0], WeightKernel.power(1000.0),
     NoSolutionError, "mean statistic"),
    # the anchor 1e-310 leaves m = -1e-310, and theta = 1 / -m overflows
    (EXPO, [0.0, 2e-310, 2.0], [1e-300, 1.0], WeightKernel.power(-1000.0),
     DomainError, "outside the open domain (0.0, inf)"),
    # k = 1e305 makes the per-unit log-likelihood -1.1e302; times sum u =
    # 2.5e12, which is far from needing an anchor, it overflows
    (catalog("gamma", k=1e305), [950.0, 1050.0, 1150.0], [1.0, 1.0], WeightKernel.power(4.0),
     DomainError, "log-likelihood"),
    # theta = 1e200, so the fitted density at 1e-200 squares to inf
    (EXPO, [0.0, 2e-200, 2.0], [1e-250, 1.0], WeightKernel.power(-1000.0),
     DomainError, "MSE"),
]


def assert_scale_free_log1p_fit(hist):
    """The log1p fit to ``hist`` fits, matches the scalar loop, and is within
    1e-15 of the fit to the same histogram with its counts times 2^-1000."""
    kernel = WeightKernel.log_shift()
    surface = assert_matches_loop_and_messages(EXPO, hist, [kernel])
    assert not surface.failures
    smaller = fit_histogram(EXPO, Histogram(hist.edges, hist.counts * 2.0**-1000), kernel)
    assert math.isclose(surface.theta_hat[0, 0], smaller.theta_hat, rel_tol=1e-15)


def shapes_of(model):
    return (0.5, 1.7) if "alpha" in model.hyper else None


class TestFitSurface:
    @given(case=surface_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop(self, case):
        model, hist, kernels, shapes = case
        surface = fit_surface(model, hist, kernels, shapes)
        points = loop_points(model, hist, kernels, shapes)
        assert_matches_loop(surface, points)

        want = loop_best(points)
        if want is None:
            with pytest.raises(SweepError) as excinfo:
                surface.best()
            assert [type(e) for _, e in excinfo.value.causes] == [
                type(e) for e in points.values()]
            return
        got = surface.best()
        if (got.alpha, got.beta, got.kernel) != (want.alpha, want.beta, want.kernel):
            assert close(got.mse, want.mse)

    @given(case=surface_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_small_blocks_match_loop_and_default_blocks(self, case, small_blocks):
        # Blocks of 300 doubles split even these small surfaces, so the
        # surfaces span many block boundaries.
        model, hist, kernels, shapes = case
        surface = assert_matches_loop_and_messages(model, hist, kernels, shapes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitsearch, "_BLOCK", small_blocks)
            assert_same_surface(surface, fit_surface(model, hist, kernels, shapes))

    @pytest.mark.parametrize("model", desk_models(), ids=model_ids())
    def test_every_bin_kept_matches_loop(self, model):
        surface = assert_matches_loop_and_messages(model, KEPT_HIST, MIXED_KERNELS, shapes_of(model))
        assert not surface.dropped_bins.any()
        assert not surface.failures

    @pytest.mark.parametrize("model", desk_models(), ids=model_ids())
    @pytest.mark.parametrize("drop", ["zero count", "beta 400", "beta -400", "negative centers"])
    def test_dropped_bins_match_loop(self, model, drop):
        hist, kernels = KEPT_HIST, MIXED_KERNELS
        if drop == "zero count":
            counts = hist.counts.copy()
            counts[3] = 0.0
            hist = Histogram(hist.edges, counts)
        elif drop == "beta 400":
            # x^400 underflows to 0 at the two smallest centers
            kernels = kernels + [WeightKernel.power(400.0)]
        elif drop == "beta -400":
            # the sum of x^-400 overflows, so the weights are (x / x_min)^-400,
            # which underflow at all but the three smallest centers
            kernels = [WeightKernel.power(-400.0)] + kernels
        else:
            # the first two centers are negative, outside every support
            hist = Histogram(hist.edges - hist.edges[2], hist.counts)
        surface = assert_matches_loop_and_messages(model, hist, kernels, shapes_of(model))
        assert surface.dropped_bins.any()
        assert not surface.failures

    @pytest.mark.parametrize("model", desk_models(), ids=model_ids())
    def test_extreme_exponents_fit_everywhere(self, model):
        # Only the v-weights u / sum u enter an estimate, so no exponent whose
        # plain weights leave the double range fails a point.
        kernels = [WeightKernel.power(b) for b in np.arange(-1000.0, 1001.0, 25.0)]
        surface = assert_matches_loop_and_messages(model, KEPT_HIST, kernels)
        assert not surface.failures

    @pytest.mark.filterwarnings("error")
    def test_anchor_skips_an_empty_extreme_bin(self):
        # The smallest center holds no count, so the weights of power -1100
        # are anchored at the second center, not the first, and x = 4e-3
        # underflows: two bins dropped, theta = 1 / 2e-3.
        hist = Histogram(np.linspace(0.5e-3, 4.5e-3, 5), np.array([0.0, 1.0, 2.0, 3.0]))
        surface = assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.power(-1100.0)])
        report = surface.report(0, 0)
        assert report.dropped_bins == 2
        assert report.theta_hat == pytest.approx(500.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_anchor_weighs_the_counts(self):
        # Under power -100 the centers 1e-5 and 1 weigh 1e-300 * 1e500 = 1e200
        # and 1e300: the count, not the smallest center, picks the anchor, so
        # no bin underflows and theta = 1 / (1 + 1e-105).
        hist = Histogram(np.array([0.0, 2e-5, 2.0 - 2e-5]), np.array([1e-300, 1e300]))
        surface = assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.power(-100.0)])
        report = surface.report(0, 0)
        assert report.dropped_bins == 0
        assert report.theta_hat == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_zero_center_is_dropped_under_negative_power(self):
        hist = Histogram(np.array([-1.0, 1.0, 2.0]), np.array([1.0, 1.0]))
        surface = assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.power(-1.0)])
        assert surface.report(0, 0).theta_hat == 1.0 / 1.5

    def test_row_mixing_failed_checks_matches_loop(self):
        # One failure class each, in a row where the unit kernel fits.
        for model, edges, counts, kernel, error, words in ROW_FAILURES:
            hist = Histogram(np.array(edges), np.array(counts))
            surface = assert_matches_loop_and_messages(model, hist, [kernel, WeightKernel.unit()])
            assert type(surface.failures[(0, 0)]) is error
            assert words in str(surface.failures[(0, 0)])
            assert list(surface.failures) == [(0, 0)]
            assert surface.best() == surface.report(0, 1)

    def test_huge_normal_weight_sum_is_anchored(self):
        # sum u = 6e307 is a normal double, but times ln(1000) - 1 it is not;
        # anchored at 1e-3, the log-likelihood is taken under u / u(1e-3)
        hist = Histogram(np.array([0.0, 2e-3, 1.998]), np.array([1.0, 1.0]))
        surface = assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.power(-102.6)])
        assert not surface.failures
        assert surface.loglik[0, 0] == pytest.approx(math.log(1000.0) - 1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_log1p_weight_is_anchored(self):
        # 1.7e308 * ln(3) overflows, so the weights are taken over the largest
        assert_scale_free_log1p_fit(Histogram([1.0, 3.0, 5.0], [1.7e308, 1.0]))

    @pytest.mark.filterwarnings("error")
    def test_log1p_weight_total_beyond_the_doubles_is_anchored(self):
        # Each weight 0.85e308 * ln(1 + x), at x = 2 and 2.1, is finite; their
        # sum is not, so u / sum u would be 0, unless taken over the largest
        assert_scale_free_log1p_fit(Histogram([1.95, 2.05, 2.15], [0.85e308, 0.85e308]))

    @pytest.mark.parametrize("model", [EXPO, catalog("half-normal")], ids=lambda m: m.name)
    @pytest.mark.parametrize("scale", [2.0**-1070, 2.0**1009], ids=["2^-1070", "2^1009"])
    def test_fits_do_not_depend_on_the_count_scale(self, model, scale):
        # Only u / sum u enters theta, so every kernel is anchored where the
        # scaled counts take its weights out of the normal doubles.
        kernels = [WeightKernel.unit(), WeightKernel.log_shift(),
                   WeightKernel.power(-2.0), WeightKernel.power(3.0)]
        scaled = Histogram(KEPT_HIST.edges, KEPT_HIST.counts * scale)
        surface = assert_matches_loop_and_messages(model, scaled, kernels)
        np.testing.assert_allclose(surface.theta_hat,
                                   fit_surface(model, KEPT_HIST, kernels).theta_hat,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_statistic_at_a_dropped_bin_is_masked(self):
        # T(1e200) = -(1e200)^2 is -inf.  The unit kernel sums it; power -2
        # drops that bin, and its -inf must not meet a zero v-weight (0 * -inf
        # is NaN).
        hist, model = HUGE_HIST, catalog("weibull", alpha=2.0)
        surface = assert_matches_loop_and_messages(
            model, hist, [WeightKernel.unit(), WeightKernel.power(-2.0)])
        exc = surface.failures[(0, 0)]
        assert (type(exc), str(exc)) == (
            NoSolutionError,
            "weibull: mean statistic -inf outside the attainable range (negative reals)")
        assert list(surface.failures) == [(0, 0)]
        assert surface.theta_hat[0, 1] == 1.0
        assert surface.dropped_bins.tolist() == [0, 1]
        assert surface.report(0, 1) == fit_histogram(model, hist, WeightKernel.power(-2.0))

    @pytest.mark.xfail(strict=True, reason=(
        "a bin whose plain weight underflows is dropped, even where its weighted "
        "statistic count * u * T is finite"))
    def test_underflowed_weight_keeps_its_statistic(self):
        # Under power -2, 1e200 weighs 1e-400 but T(1e200) = -1e400, so that
        # bin adds -1 to sum u T: m = -4/3, the exact weighted MLE is
        # theta = sqrt(3/4) (1 / gini_mean(centers, 0, -2, counts)), not 1.0.
        surface = fit_surface(catalog("weibull", alpha=2.0), HUGE_HIST, [WeightKernel.power(-2.0)])
        assert surface.theta_hat[0, 0] == pytest.approx(math.sqrt(0.75), rel=1e-15)

    @pytest.mark.parametrize("seed", [26, 297])
    def test_small_shape_matches_loop_exactly(self, seed):
        # The surface sums the same kept bins, in the same order, as the
        # scalar path: these log-likelihoods were 1.2e-12 and 7.6e-11 apart
        # while the surface summed zero-count bins too.
        hist = dct_like_histogram(np.random.default_rng(seed), n=2000, bins=60)
        assert not hist.counts.all()
        assert_matches_loop_and_messages(catalog("gen-gamma", alpha=1.5, b=2.2), hist,
                                         [WeightKernel.unit()], [0.05])

    def test_catalog_overflow_fails_rows_instead_of_aborting(self):
        # b/alpha >= 3.3e305 overflows ln Gamma at every shape of the grid
        hist = dct_like_histogram(np.random.default_rng(1))
        model = catalog("gen-gamma", alpha=2.0, b=1e300)
        grid = SweepGrid(1e-6, 3e-6, 1e-6)
        with pytest.raises(SweepError) as excinfo:
            fit_surface(model, hist, [WeightKernel.unit()], grid.points()).best()
        causes = excinfo.value.causes
        assert [key for key, _ in causes] == [(alpha, None) for alpha in grid.points()]
        assert all(isinstance(exc, DomainError) for _, exc in causes)
        assert "b/alpha" in str(causes[0][1])

    def test_catalog_underflow_fails_only_its_row(self):
        # b/alpha rounds to 0, the pole of ln Gamma, at shape 1e300 only
        hist = dct_like_histogram(np.random.default_rng(1))
        surface = fit_surface(catalog("gen-gamma", alpha=1.0, b=1e-30), hist,
                              [WeightKernel.unit()], shapes=[1.0, 1e300])
        assert list(surface.failures) == [(1, 0)]
        assert isinstance(surface.failures[(1, 0)], DomainError)
        assert "b/alpha underflows" in str(surface.failures[(1, 0)])
        assert math.isfinite(surface.report(0, 0).theta_hat)

    def test_first_point_nonfinite_later_point_wins(self):
        # x^1000 underflows at 0.25, leaving the statistic T(1) = 0 (no
        # solution); x^530 is subnormal there, so theta overflows.  A failure
        # must never be reported, nor block the finite point after them.
        hist = Histogram(np.array([0.0, 0.5, 1.5]), np.array([1.0, 1.0]))
        kernels = [WeightKernel.power(b) for b in (1000.0, 530.0, 2.0)]
        surface = fit_surface(catalog("std-lognormal"), hist, kernels)
        assert isinstance(surface.failures[(0, 0)], NoSolutionError)
        assert isinstance(surface.failures[(0, 1)], DomainError)
        best = surface.best()
        assert best.beta == 2.0
        assert math.isfinite(best.mse) and math.isfinite(best.loglik)

    def test_profile_is_per_beta_minimum_over_shapes(self, rng):
        hist = dct_like_histogram(rng)
        model = catalog("weibull", alpha=1.0)
        betas, shapes = SweepGrid(-1.0, 1.0, 0.5), SweepGrid(0.5, 1.5, 0.25)
        rows = fit_surface(model, hist, powers(betas), shapes.points()).profile()
        for beta, mse in rows:
            one = fit_surface(model, hist, [WeightKernel.power(beta)], shapes.points()).best()
            assert mse == one.mse

    def test_profile_nan_where_every_shape_failed(self):
        hist = Histogram(edges=np.array([0.5, 1.5]), counts=np.array([3.0]))
        surface = fit_surface(catalog("std-lognormal"), hist,
                              [WeightKernel.power(b) for b in (-0.5, 0.0)])
        assert [b for b, _ in surface.profile()] == [-0.5, 0.0]
        assert all(math.isnan(m) for _, m in surface.profile())

    def test_rejects_empty_kernels_and_bad_shapes(self, rng):
        hist = dct_like_histogram(rng)
        with pytest.raises(EmptyDataError):
            fit_surface(EXPO, hist, [])
        with pytest.raises(DomainError):
            fit_surface(EXPO, hist, [WeightKernel.unit()], [1.0])
        with pytest.raises(DomainError):
            fit_surface(catalog("weibull", alpha=1.0), hist, [WeightKernel.unit()], [1.0, 0.0])


class TestBlocks:
    """``fit_surface`` evaluates runs of shape rows as one block; no result
    depends on where the blocks end."""

    def test_dropping_kernel_block_matches_rows(self):
        # x^400 underflows at the two smallest centers, so the surface masks
        # them for that kernel only; its 7 shapes make one block.
        kernels = MIXED_KERNELS + [WeightKernel.power(400.0)]
        surface = assert_block_invariant(catalog("weibull", alpha=1.0), KEPT_HIST, kernels,
                                         [0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5])
        assert list(surface.dropped_bins) == [0] * len(MIXED_KERNELS) + [2]
        assert not surface.failures

    def test_rejected_shape_between_blocks_keeps_failure_order(self, small_blocks):
        # 6 kernels x 20 bins fit two rows in a block: the rows catalog
        # accepts make the blocks (0, 1), (3, 4) and (5, 6).  Shape 1e-306
        # overflows ln Gamma(b/alpha), and at shapes 0.005 and 0.004 theta,
        # a power 1/alpha, overflows: every block but the last holds failures.
        hist = dct_like_histogram(np.random.default_rng(1), n=2000, bins=20)
        shapes = [0.5, 0.005, 1e-306, 1.0, 0.004, 2.0, 1.5]
        surface = assert_block_invariant(catalog("gen-gamma", alpha=1.5, b=2.2), hist,
                                         MIXED_KERNELS, shapes)
        assert_matches_loop_and_messages(catalog("gen-gamma", alpha=1.5, b=2.2), hist,
                                         MIXED_KERNELS, shapes)
        assert sorted({i for i, _ in surface.failures}) == [1, 2, 4]
        assert "b/alpha" in str(surface.failures[(2, 0)])
        assert "outside the open domain (0.0, inf)" in str(surface.failures[(4, 0)])

    def test_chunks_of_grid_blocks_match_rows_and_columns(self, monkeypatch):
        # 40 kernels x 40 bins: at 3200 doubles a chunk holds 4 rows and a
        # grid block 2, so the 11 shapes catalog accepts make the chunks
        # (0-3), (5-8) and (9-11), of grid blocks of 2 and 2, or 2 and 1, rows.
        # Shape 1e-306, which catalog rejects, falls between the first two
        # chunks, and at shape 0.004 theta, a power 1/alpha, overflows.
        monkeypatch.setattr(fitsearch, "_BLOCK", 3200)
        hist = dct_like_histogram(np.random.default_rng(3), n=2000, bins=40)
        kernels = MIXED_KERNELS + [WeightKernel.power(b) for b in np.linspace(-1.5, 1.5, 34)]
        shapes = [0.5, 0.8, 1.0, 1.3, 1e-306, 1.7, 2.0, 0.004, 2.5, 0.6, 1.1, 3.0]
        assert fitsearch._BLOCK // (16 * len(kernels) + 4 * hist.nbins) == 4
        assert fitsearch._BLOCK // (len(kernels) * hist.nbins) == 2
        model = catalog("gen-gamma", alpha=1.5, b=2.2)
        surface = assert_block_invariant(model, hist, kernels, shapes)
        assert_matches_loop_and_messages(model, hist, kernels, shapes)
        assert sorted({i for i, _ in surface.failures}) == [4, 7]
        assert "b/alpha" in str(surface.failures[(4, 0)])
        assert "outside the open domain (0.0, inf)" in str(surface.failures[(7, 0)])

    def test_production_grid_blocks_match_rows_and_columns(self):
        # The benchmark's sweep: 81 kernels x 100 bins fit 16 rows in a
        # default block, so its 57 shapes make blocks of 16, 16, 16 and 9.
        # Shapes 0.5, 1.0 and 2.0 and exponents 0, +-0.5, +-1 and +-2 are on
        # the grid: the powers numpy rounds otherwise for a scalar exponent.
        hist = dct_like_histogram(np.random.default_rng(1), bins=100)
        shapes = SweepGrid(0.2, 3.0, 0.05).points()
        kernels = [WeightKernel.power(b) for b in SweepGrid(-2.0, 2.0, 0.05).points()]
        assert (shapes.size, fitsearch._BLOCK // (len(kernels) * hist.nbins)) == (57, 16)
        assert {0.5, 1.0, 2.0} <= set(shapes.tolist())
        assert {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0} <= {kernel.beta for kernel in kernels}
        surface = assert_block_invariant(catalog("weibull", alpha=1.0), hist, kernels, shapes)
        assert not surface.failures

    @pytest.mark.parametrize("model, shapes, rejected", [
        (catalog("weibull", alpha=1.0), SweepGrid(0.2, 3.0, 0.05).points(), []),
        (catalog("gen-gamma", alpha=1.5, b=2.2), [0.5, 0.005, 1e-306, 1.0, 0.004, 2.0, 1.5],
         [1e-306]),
    ])
    def test_sweep_builds_no_catalog_model(self, monkeypatch, model, shapes, rejected):
        # The shapes share one column model, and a rejected shape still
        # fails with catalog's own error.
        calls = []

        def counted(name, **hyper):
            calls.append(hyper)
            return catalog(name, **hyper)

        monkeypatch.setattr(fitsearch, "catalog", counted, raising=False)
        monkeypatch.setattr(expfam, "catalog", counted)
        hist = dct_like_histogram(np.random.default_rng(1), n=2000, bins=20)
        surface = fit_surface(model, hist, MIXED_KERNELS, shapes)
        assert calls == []
        fixed = {k: v for k, v in model.hyper.items() if k != "alpha"}
        for alpha in rejected:
            with pytest.raises(DomainError) as want:
                catalog(model.name, alpha=alpha, **fixed)
            for j in range(len(MIXED_KERNELS)):
                got = surface.failures[(list(shapes).index(alpha), j)]
                assert (type(got), str(got)) == (want.type, str(want.value))

    def test_zero_center_splits_blocks_by_support(self, small_blocks):
        # Only alpha = 1 has x = 0 in its support, so only its MSE counts
        # the first bin, whose center is 0.  At 300 doubles a chunk holds 2
        # rows, so the three shapes on each side of alpha = 1 make the chunks
        # (0, 1), (2), (3), (4, 5) and (6): each run spans a chunk boundary.
        hist = Histogram(np.array([-1.0, 1.0, 3.0, 5.0]), np.array([2.0, 3.0, 1.0]))
        model, shapes = catalog("weibull", alpha=1.0), [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]
        assert fitsearch._BLOCK // (16 * len(MIXED_KERNELS) + 4 * hist.nbins) == 2
        assert_block_invariant(model, hist, MIXED_KERNELS, shapes)
        assert_matches_loop_and_messages(model, hist, MIXED_KERNELS, shapes)

    def test_infinite_statistics_across_chunks(self, monkeypatch):
        # At 8 doubles each shape is its own chunk and grid block.  At shape
        # 1.5, T(1e200) = -1e300 is finite and every kernel fits; at 2.0 and
        # 2.5 it is -inf, so every kernel that keeps the 1e200 bin has no
        # solution, and power -2, which drops it, fits the bin at 1 alone.
        monkeypatch.setattr(fitsearch, "_BLOCK", 8)
        model, shapes = catalog("weibull", alpha=1.0), [1.5, 2.0, 2.5]
        kernels = [WeightKernel.unit()] + [WeightKernel.power(b) for b in (-2.0, -1.0, 0.0)]
        surface = assert_block_invariant(model, HUGE_HIST, kernels, shapes)
        assert_matches_loop_and_messages(model, HUGE_HIST, kernels, shapes)
        assert list(surface.failures) == [(i, j) for i in (1, 2) for j in (0, 2, 3)]
        for exc in surface.failures.values():
            assert (type(exc), str(exc)) == (
                NoSolutionError,
                "weibull: mean statistic -inf outside the attainable range (negative reals)")
        assert surface.theta_hat[1:, 1].tolist() == [1.0, 1.0]
        assert surface.dropped_bins.tolist() == [0, 1, 0, 0]

    def test_dropping_kernels_allocate_no_grid(self):
        # 57 shapes x 82 kernels x 100 bins, once with kernels that drop up to
        # 97 bins and once with kernels that keep every bin: the statistics
        # of the first take no (rows x kernels x bins) grid besides the MSE
        # scratch, so both peak alike.
        hist = dct_like_histogram(np.random.default_rng(1), bins=100)
        shapes = SweepGrid(0.2, 3.0, 0.05).points()
        peaks, dropped = [], []
        for betas in (SweepGrid(-400.0, 400.0, 10.0), SweepGrid(-2.0, 2.0, 0.05)):
            kernels = [WeightKernel.unit(), *powers(betas)]
            tracemalloc.start()
            try:
                surface = fit_surface(catalog("weibull", alpha=1.0), hist, kernels, shapes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not surface.failures
            dropped.append(int(surface.dropped_bins.max()))
        assert dropped == [97, 0]
        assert peaks[0] <= peaks[1] + 64 * 1024

    def test_memory_stays_within_a_few_blocks(self):
        # 400 shapes x 81 kernels x 100 bins is 25 blocks of density grid.
        hist = dct_like_histogram(np.random.default_rng(2), bins=100)
        kernels = [WeightKernel.power(b) for b in np.linspace(-2.0, 2.0, 81)]
        shapes = np.linspace(0.2, 3.0, 400)
        block_bytes = fitsearch._BLOCK * 8
        assert shapes.size * len(kernels) * hist.nbins * 8 >= 20 * block_bytes
        tracemalloc.start()
        try:
            surface = fit_surface(catalog("weibull", alpha=1.0), hist, kernels, shapes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not surface.failures
        assert peak < 4 * block_bytes

        # One kernel: a grid block of 1310 rows would outgrow its chunk's
        # closed form of about 16 (rows x kernels) and 4 (rows x bins) arrays.
        kernels = [WeightKernel.power(-1.0)]
        shapes = np.linspace(0.2, 3.0, 4000)
        tracemalloc.start()
        try:
            surface = fit_surface(catalog("weibull", alpha=1.0), hist, kernels, shapes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not surface.failures
        assert peak < 4 * block_bytes


class TestNonFiniteFits:
    def test_gamma_150_fit_matches_mle_numeric(self):
        # x^149 / Gamma(150) underflows to 0; its logarithm does not
        hist = dct_like_histogram(np.random.default_rng(1))
        model = catalog("gamma", k=150)
        report = fit_histogram(model, hist, WeightKernel.unit())
        assert math.isfinite(report.mse) and math.isfinite(report.loglik)
        series, _ = apply_kernel(hist.centers, WeightKernel.unit(), hist.counts)
        numeric = mle_numeric(model, series)
        assert report.theta_hat == pytest.approx(numeric.theta_hat, rel=1e-7)
        assert report.loglik == pytest.approx(numeric.loglik, rel=1e-12)
        assert_matches_loop_and_messages(model, hist, [WeightKernel.unit()])

    @pytest.mark.parametrize("alpha, lo", [(2.0, 1e-155), (0.5, 1e-310)])
    def test_theta_overflow_is_domain_error_on_both_paths(self, alpha, lo):
        # theta**alpha (alpha 2) or theta itself (alpha 0.5) overflows a double
        hist = Histogram(edges=np.array([lo, 2.0 * lo]), counts=np.array([1.0]))
        model = catalog("weibull", alpha=alpha)
        with pytest.raises(DomainError):
            fit_histogram(model, hist, WeightKernel.unit())
        assert_matches_loop_and_messages(model, hist, [WeightKernel.unit()])

    def test_curvature_overflow_does_not_abort_the_fit(self):
        # theta ~ 5e-161, so the curvature theta**-2 overflows; the fit itself
        # is finite and the scalar path agrees with the surface
        hist = Histogram(edges=np.array([1e160, 2e160, 3e160]), counts=np.array([1.0, 2.0]))
        report = fit_histogram(EXPO, hist, WeightKernel.unit())
        assert math.isfinite(report.mse) and math.isfinite(report.loglik)
        assert_matches_loop_and_messages(EXPO, hist, [WeightKernel.unit()])


def dense_histogram(seed, bins=12_000):
    """``bins`` equal bins over [0, 12) of a seeded exponential sample, every
    count positive: each weighted sum of a fit has more than one 8192-term block."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.0, 12.0, bins + 1)
    counts = rng.poisson(5000.0 * np.exp(-0.5 * (edges[:-1] + edges[1:]))) + 1.0
    return Histogram(edges=edges, counts=counts)


class TestLongSums:
    """Sums of more than one block go through ``means._dot`` on both paths."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_does_not_depend_on_the_blas_thread_count(self, seed, tmp_path):
        hist = dense_histogram(seed)
        path = tmp_path / "dense.csv"
        np.savetxt(path, np.column_stack([hist.edges[:-1], hist.edges[1:], hist.counts]),
                   fmt="%.17g", delimiter=",")
        runs = []
        for threads in ("1", "2"):
            proc = run_warnings_as_errors("sweep", "--model", "weibull", "--shape-grid",
                                          "0.8:1.3:0.5", "--input", str(path),
                                          OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, (tmp_path / "dense.sweep.csv").read_text()))
        assert runs[0] == runs[1]

    def test_surface_sums_as_the_scalar_path_does(self):
        hist = dense_histogram(0)
        model = catalog("weibull", alpha=1.3)
        kernels = [WeightKernel.unit(), WeightKernel.power(-0.5), WeightKernel.log_shift()]
        surface = fit_surface(model, hist, kernels)
        for j, kernel in enumerate(kernels):
            series, dropped = apply_kernel(hist.centers, kernel, hist.counts)
            scalar = mle_closed_form(model, series)
            assert dropped == 0
            assert surface.theta_hat[0, j] == scalar.theta_hat
            assert surface.loglik[0, j] == scalar.loglik
