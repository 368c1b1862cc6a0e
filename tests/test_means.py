"""Unit and property tests for the central-tendency module."""

import collections
import itertools
import math
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanfit import (
    DomainError,
    SweepGrid,
    gini_mean,
    holder_lehmer_link,
    holder_mean,
    lehmer_mean,
    mean_curve,
    v_weights,
)

from meanfit import means
from meanfit.cli import main
from meanfit.means import _CHUNK, _DOT_BLOCK, _PowerSums

from conftest import EXTREME_VALUES, blocked_dot, random_series, reference_means, \
    run_warnings_as_errors

PAIR = [0.6, 2.0]
GEOMETRIC_PAIR = math.sqrt(1.2)  # oracle: exp((ln 0.6 + ln 2)/2) = sqrt(0.6*2)
HARMONIC_PAIR = 2.0 / (1.0 / 0.6 + 1.0 / 2.0)

# alpha * log(x) reaches 7e5 in magnitude at |alpha| = 1000 and x = 1e+-305,
# so a log-space reference in doubles is good to about 1e-10 only; extended
# precision, where the platform has it, is good to 1e-13.
LOG_SPACE_RTOL = 1e-12 if np.finfo(np.longdouble).eps < 1e-18 else 1e-9
# A subnormal mean carries only the digits above the smallest subnormal, so
# it and the rounded reference may each be one such unit off.
SUBNORMAL_ATOL = 2 * math.ulp(0.0)


def pin_series():
    """100 000 log-uniform values over [0.001, 10) and weights over [0.5, 2],
    the shape of perfbench's mean-csv input."""
    rng = np.random.default_rng(1)
    return 10.0 ** rng.uniform(-3.0, 1.0, 100_000), rng.uniform(0.5, 2.0, 100_000)


def log_space_mean(values, weights, alpha, family):
    """Holder or Lehmer mean from log-sum-exp over ``a log x + log w``."""
    x = np.asarray(values, dtype=np.longdouble)
    w = np.asarray(weights, dtype=np.longdouble)

    def log_sum(p):
        z = p * np.log(x) + np.log(w)
        top = z.max()
        return top + np.log(np.exp(z - top).sum())

    if family == "lehmer":
        return float(np.exp(log_sum(alpha) - log_sum(alpha - 1.0)))
    if alpha == 0.0:
        return float(np.exp((w * np.log(x)).sum() / w.sum()))
    return float(np.exp((log_sum(alpha) - np.log(w.sum())) / alpha))


class TestKolmogorovMean:
    """The f-mean with ``f = ln`` that ``mean --family kolmogorov`` prints is
    the geometric mean, Holder(0)."""

    def test_constant_series_is_idempotent(self):
        assert holder_mean([4.0, 4.0, 4.0], 0.0) == 4.0

    def test_log_transform_is_geometric(self):
        # oracle: exp((ln 1 + ln 4) / 2) = exp(ln 2) = 2
        got = holder_mean([1.0, 4.0], 0.0)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_result_within_data_range(self, rng):
        xs = random_series(rng, 20)
        got = holder_mean(xs, 0.0)
        assert xs.min() <= got <= xs.max()

    def test_nonfinite_transform_identifies_value(self, tmp_path, capsys):
        # ln 0 is -inf: the CLI names the zero value and prints no mean
        path = tmp_path / "values.csv"
        path.write_text("0\n1\n")
        code = main(["mean", "--family", "kolmogorov", "--input", str(path)])
        assert (code, *capsys.readouterr()) == (
            1, "", "error: zero values are not admitted for exponent 0.0\n")


class TestHolderMean:
    def test_arithmetic_at_one(self):
        assert holder_mean(PAIR, 1.0) == pytest.approx(1.3, rel=1e-15)

    def test_infinite_limits(self):
        assert holder_mean(PAIR, math.inf) == 2.0
        assert holder_mean(PAIR, -math.inf) == 0.6

    def test_geometric_branch_matches_log_mean(self):
        assert holder_mean(PAIR, 0.0) == pytest.approx(GEOMETRIC_PAIR, rel=1e-14)

    def test_geometric_branch_matches_numeric_limit(self):
        # independent oracle: evaluate the plain power formula just outside
        # the analytic-branch cutoff
        limit = holder_mean(PAIR, 1e-8)
        assert holder_mean(PAIR, 0.0) == pytest.approx(limit, rel=1e-7)

    def test_weighted_arithmetic(self):
        assert holder_mean([1.0, 3.0], 1.0, weights=[1.0, 3.0]) == pytest.approx(2.5, rel=1e-15)

    def test_zero_values_allowed_for_positive_alpha(self):
        assert holder_mean([0.0, 2.0], 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -math.inf])
    def test_zero_values_rejected_for_nonpositive_alpha(self, alpha):
        with pytest.raises(DomainError):
            holder_mean([0.0, 1.0], alpha)

    def test_nan_alpha_rejected(self):
        with pytest.raises(DomainError):
            holder_mean(PAIR, math.nan)

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError):
            holder_mean([-1.0, 2.0], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            holder_mean([], 1.0)

    @pytest.mark.parametrize("alpha", [200.0, -200.0])
    def test_extreme_exponents_stay_finite_and_bounded(self, alpha):
        xs = [1e-8, 1e8]
        got = holder_mean(xs, alpha)
        assert math.isfinite(got)
        assert min(xs) <= got <= max(xs)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(DomainError):
            holder_mean(PAIR, 1.0, weights=[1.0])


class TestLehmerMean:
    def test_arithmetic_at_one(self):
        assert lehmer_mean(PAIR, 1.0) == pytest.approx(1.3, rel=1e-15)

    def test_harmonic_at_zero(self):
        got = lehmer_mean(PAIR, 0.0)
        assert got == pytest.approx(HARMONIC_PAIR, rel=1e-14)
        assert got == pytest.approx(holder_mean(PAIR, -1.0), rel=1e-13)

    def test_geometric_at_half(self):
        assert lehmer_mean(PAIR, 0.5) == pytest.approx(GEOMETRIC_PAIR, rel=1e-13)
        assert lehmer_mean(PAIR, 0.5) == pytest.approx(holder_mean(PAIR, 0.0), rel=1e-13)

    def test_weighted_form(self):
        # sum w x^a / sum w x^(a-1) at a=1 is the weighted arithmetic mean
        assert lehmer_mean([1.0, 3.0], 1.0, weights=[1.0, 3.0]) == pytest.approx(2.5, rel=1e-15)

    def test_infinite_limits(self):
        assert lehmer_mean(PAIR, math.inf) == 2.0
        assert lehmer_mean(PAIR, -math.inf) == 0.6

    def test_zero_values_allowed_at_or_above_one(self):
        assert lehmer_mean([0.0, 2.0], 1.0) == pytest.approx(1.0)
        assert lehmer_mean([0.0, 2.0], 2.0) == pytest.approx(2.0)

    def test_zero_values_rejected_below_one(self):
        with pytest.raises(DomainError):
            lehmer_mean([0.0, 2.0], 0.5)

    def test_all_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            lehmer_mean([0.0, 0.0], 2.0)

    def test_subnormal_minimum_below_one_matches_log_space_reference(self):
        # x^(a-1) of the subnormal overflows; factored at the minimum, the
        # numerator's 1 / 5e-324 overflowed too, and the mean read inf.
        got = lehmer_mean([5e-324, 1.0], 0.01)
        want = log_space_mean([5e-324, 1.0], [1.0, 1.0], 0.01, "lehmer")
        assert 5e-324 <= got <= 1.0
        assert got == pytest.approx(want, rel=LOG_SPACE_RTOL, abs=SUBNORMAL_ATOL)

    def test_weighted_subnormal_term_dominates(self):
        # The 3.0-weighted term of 5e-324 dominates both sums.  Anchored at 7
        # by the values alone, its numerator term underflowed and the mean
        # fell below the data (a DomainError); anchored at the largest
        # weighted term, the mean is 4.947e-324, the smallest subnormal.
        assert lehmer_mean([5e-324, 7.0], 0.99, weights=[3.0, 5e-324]) == 5e-324


class TestGiniMean:
    EXPONENTS = st.one_of(st.floats(-40.0, 40.0), st.sampled_from(
        [0.0, 1e-10, -1e-10, 0.5, 1.0, -1.0, 2.0, math.inf, -math.inf]))

    @given(
        values=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=12),
        alpha=EXPONENTS,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_holder_and_lehmer_are_gini_lines(self, values, alpha, data):
        weights = data.draw(st.none() | st.lists(st.floats(1e-3, 1e3), min_size=len(values),
                                                   max_size=len(values)))

        def outcome(mean, *exponents):
            try:
                return mean(values, *exponents, weights)
            except DomainError as exc:
                return str(exc)

        assert outcome(holder_mean, alpha) == outcome(gini_mean, alpha, 0.0)
        assert outcome(lehmer_mean, alpha) == outcome(gini_mean, alpha, alpha - 1.0)

    @given(
        values=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12),
        r=st.floats(-20.0, 20.0),
        s=st.floats(-20.0, 20.0),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_its_exponents(self, values, r, s, data):
        # The two orders share their power sums; the root 1/(r-s) amplifies the
        # rounding of the quotient by 1/|r - s|, hence |r - s| >= 0.1.
        assume(abs(r - s) >= 0.1)
        weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(values),
                                     max_size=len(values)))
        forward = gini_mean(values, r, s, weights)
        assert gini_mean(values, s, r, weights) == pytest.approx(forward, rel=1e-14, abs=0.0)
        assert min(values) * (1 - 1e-14) <= forward <= max(values) * (1 + 1e-14)

    def test_mean_csv_lehmer_grid_is_the_plain_quotient(self):
        # The quotient perfbench's mean-csv check takes, of blocked sums: S(0)
        # is the same blocked dot as every other power sum.  On this series
        # ws.sum() differs from that dot, and the means at a = 0 and a = 1
        # would move.
        values, weights = pin_series()
        alphas = SweepGrid(-3.0, 3.0, 0.25).points()
        want = [float(blocked_dot(np.power(values, a), weights)
                      / blocked_dot(np.power(values, a - 1.0), weights)) for a in alphas]
        assert mean_curve(values, alphas, "lehmer", weights) == want

    @pytest.mark.parametrize("r, s, expected", [
        (2.0, 0.0, math.sqrt((0.36 + 4.0) / 2.0)),   # Holder(2)
        (1.0, 0.0, 1.3),                             # Holder(1) = Lehmer(1)
        (2.0, 1.0, (0.36 + 4.0) / 2.6),              # Lehmer(2)
        (0.0, -1.0, 2.0 / (1.0 / 0.6 + 1.0 / 2.0)),  # Lehmer(0), harmonic
        (0.0, 2.0, math.sqrt((0.36 + 4.0) / 2.0)),   # G(0, 2) = G(2, 0)
    ])
    def test_closed_forms_on_a_pair(self, r, s, expected):
        assert gini_mean(PAIR, r, s) == pytest.approx(expected, rel=1e-14)

    def test_limit_at_equal_exponents(self):
        # exp(sum x^s ln x / sum x^s) at s = 1: (0.6 ln 0.6 + 2 ln 2) / 2.6
        expected = math.exp((0.6 * math.log(0.6) + 2.0 * math.log(2.0)) / 2.6)
        assert gini_mean(PAIR, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert gini_mean(PAIR, 0.0, 0.0) == holder_mean(PAIR, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.99, 0.3])
    def test_root_past_the_doubles_takes_log_space(self, alpha):
        # The quotient x^a is a normal double, but its root 1/a rounds above
        # the largest one; the log-space mean is clamped to the data range.
        top = np.finfo(float).max
        for mean in (holder_mean([top], alpha), gini_mean([top], alpha, 0.0),
                     reference_means([top], [alpha], "holder")[0]):
            assert math.isfinite(mean)
            assert mean <= top
            assert mean == pytest.approx(top, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean, values, exponents, weights", [
        # S(1) is a plain sum, but L(1) = sum x ln x overflows.
        pytest.param(gini_mean, [1e300, 1.5e308], (1.0, 1.0), None, id="L-overflows"),
        # S(-1) is about 1.3e306, and L(-1) about -9.4e308.
        pytest.param(gini_mean, [1e-306, 3e-306], (-1.0, -1.0), None, id="L-overflows-below"),
        # S(0), the sum of the weights, is below the normal doubles.
        pytest.param(holder_mean, [2.0, 3.0], (0.0,), [5e-324, 1e-320], id="S-subnormal"),
    ])
    def test_limit_over_the_largest_term(self, mean, values, exponents, weights):
        # exp(L(s) / S(s)) of both sums over the largest term w x^s, against
        # the same quotient in extended precision: exp amplifies the error of
        # the quotient by |ln m|.
        x = np.asarray(values, dtype=np.longdouble)
        w = np.ones(x.size, dtype=np.longdouble) if weights is None else \
            np.asarray(weights, dtype=np.longdouble)
        logs = np.log(w) + exponents[-1] * np.log(x)
        v = np.exp(logs - logs.max())
        want = float(np.exp((v * np.log(x)).sum() / v.sum()))
        got = mean(values, *exponents, weights=weights)
        assert abs(got - want) <= 8 * math.ulp(1.0) * (1 + abs(math.log(want))) * want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean, values, alpha, weights, expected", [
        # Every p ln x overflows; at such an exponent a Lehmer a - 1 == a, the r = s limit.
        pytest.param(lehmer_mean, [1e300, 1e308], 1e307, None, 1e308, id="lehmer-up"),
        pytest.param(lehmer_mean, [1e-300, 1e-308], -1e307, None, 1e-308, id="lehmer-down"),
        pytest.param(holder_mean, [1.0, 3.0, 1e308], 1e308, [2.0, 4.0, 1.0], 1e308, id="holder"),
    ])
    def test_huge_exponent_anchors_at_the_largest_term(self, mean, values, alpha, weights,
                                                       expected):
        assert mean(values, alpha, weights=weights) == expected

    @pytest.mark.filterwarnings("error")
    def test_dominant_term_at_a_huge_exponent(self):
        assert _PowerSums(np.array([1e300, 1e308]), np.ones(2)).dominant(1e307) == 1
        assert _PowerSums(np.array([1e-300, 1e-308]), np.ones(2)).dominant(-1e307) == 1

    def test_limit_not_finite_raises(self, monkeypatch):
        # Anchored at the smaller value, both sums of the limit are infinite.
        monkeypatch.setattr(_PowerSums, "dominant", lambda self, p: 0)
        with pytest.raises(DomainError, match="limit mean is not finite"):
            lehmer_mean([1e300, 1e308], 1e307)

    def test_infinite_exponents(self):
        assert gini_mean(PAIR, math.inf, 3.0) == 2.0
        assert gini_mean(PAIR, -5.0, -math.inf) == 0.6

    @pytest.mark.parametrize("r, s", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf), (-math.inf, math.inf),
    ])
    def test_bad_exponent_pairs_rejected(self, r, s):
        with pytest.raises(DomainError):
            gini_mean(PAIR, r, s)


class TestBlockedSums:
    """Long power sums are blocked BLAS dots, added exactly."""

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        values, weights = pin_series()
        path = tmp_path / "values.csv"
        np.savetxt(path, np.column_stack([values, weights]), fmt="%.17g", delimiter=",")
        runs = [run_warnings_as_errors("mean", "--family", "lehmer", "--alpha-grid=-3:3:0.25",
                                       "--weights", "--input", str(path),
                                       OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert len(runs[0].stdout.splitlines()) == 25
        assert runs[0].stdout == runs[1].stdout

    def test_strided_columns_give_the_means_of_contiguous_ones(self):
        rng = np.random.default_rng(2)
        table = np.column_stack([10.0 ** rng.uniform(-3.0, 1.0, 300_000),
                                 rng.uniform(0.5, 2.0, 300_000)])
        alphas = SweepGrid(-3.0, 3.0, 0.25).points()
        strided = mean_curve(table[:, 0], alphas, "lehmer", table[:, 1])
        assert strided == mean_curve(table[:, 0].copy(), alphas, "lehmer", table[:, 1].copy())

    def test_power_sums_are_as_accurate_as_their_worst_block(self):
        # Adding the block sums exactly costs a few roundings, so a sum of
        # 100 000 positive terms is as accurate as one 8192-term dot, whatever
        # the BLAS.  (With OpenBLAS on x86 that is about 1.8e-16 relative; one
        # long dot was off by up to 2.9e-15.)
        values, weights = pin_series()
        sums = _PowerSums(values, weights)
        blocks = [slice(i, i + 8192) for i in range(0, values.size, 8192)]
        for p in SweepGrid(-4.0, 3.0, 0.25).points():
            terms = np.power(values, p)
            worst = 0.0
            for block in blocks:
                exact = math.fsum(terms[block] * weights[block])
                worst = max(worst, abs(terms[block] @ weights[block] - exact) / exact)
            exact = math.fsum(terms * weights)
            assert abs(sums(p) - exact) <= (worst + 2.0 * np.finfo(float).eps) * exact, p

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean", [lehmer_mean, holder_mean])
    def test_total_beyond_the_doubles_takes_the_anchor(self, mean):
        # Each block sum of x^2 is finite; only their total overflows.
        assert mean(np.full(20_000, 1e152), 2.0) == 1e152

    @given(
        n=st.one_of(
            st.integers(1, 3 * _CHUNK + _DOT_BLOCK + 7),
            st.sampled_from([k * size + d for size in (_DOT_BLOCK, _CHUNK)
                             for k in (1, 2, 3) for d in (-1, 0, 1)]),
        ),
        p=st.one_of(st.sampled_from([2.0, 0.5, -1.0, 0.0, 1.0, -0.5, 3.0]),
                    st.floats(-30.0, 30.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_sliced_plain_sum_is_the_blocked_dot(self, n, p, seed):
        # numpy takes 2, 0.5 and -1 by fast paths; each slice of powers is
        # the same block dots as the whole series, so the sums are equal.
        rng = np.random.default_rng(seed)
        values, weights = 10.0 ** rng.uniform(-3.0, 1.0, n), rng.uniform(0.5, 2.0, n)
        assert _PowerSums(values, weights)(p) == blocked_dot(np.power(values, p), weights)

    def test_sliced_total_beyond_the_doubles_is_inf(self):
        # Each block sum of x^2 is finite; their total, over two slices, is not.
        values = np.full(_CHUNK + 3 * _DOT_BLOCK, 1e152)
        weights = np.ones(values.size)
        assert blocked_dot(values ** 2, weights) == math.inf
        assert _PowerSums(values, weights)(2.0) == math.inf

    @pytest.mark.parametrize("family", ["holder", "lehmer"])
    def test_mean_csv_grid_allocates_no_series_length_array(self, family, monkeypatch):
        # Two threads of one buffer each, of two 256 KiB rows where the pass
        # takes the ln x sum of the Holder limit at 0, and the validation's
        # boolean masks (1 MB): a sum that allocated its 8 MB of powers or
        # logs fails.
        monkeypatch.setattr(means, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(3)
        values, weights = 10.0 ** rng.uniform(-3.0, 1.0, 1_000_000), rng.uniform(0.5, 2.0, 1_000_000)
        tracemalloc.start()
        try:
            mean_curve(values, SweepGrid(-3.0, 3.0, 0.25).points(), family, weights=weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@pytest.fixture(params=[1, 2, 8])
def cpus(request, monkeypatch):
    """The CPU count ``mean_curve`` sees."""
    monkeypatch.setattr(means, "_cpu_count", lambda: request.param)
    return request.param


def summing_threads(monkeypatch):
    """From now on, the functions of the threads started, one entry per
    thread, whether or not it takes a slice."""
    started = []

    class Counting(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.function = kwargs.get("target")

        def start(self):
            super().start()
            started.append(self.function)

    monkeypatch.setattr(means.threading, "Thread", Counting)
    return started


def per_call(started):
    """The thread counts of the calls that started a thread, the calling
    thread included, or ``{1}`` where none did: the threads of one call
    share their function."""
    return {count + 1 for count in collections.Counter(started).values()} or {1}


class TestAcrossCpus:
    """The slices of a long series' plain sums are taken on one thread per
    CPU and per slice at most, started once per call; no result or failure
    depends on how many there are."""

    @pytest.mark.parametrize("family", ["holder", "lehmer"])
    def test_mean_csv_grid_is_bit_identical(self, cpus, family, monkeypatch):
        values, weights = pin_series()
        alphas = SweepGrid(-3.0, 3.0, 0.25).points()
        started = summing_threads(monkeypatch)
        got = mean_curve(values, alphas, family, weights=weights)
        assert per_call(started) == {min(cpus, values.size // _CHUNK)}
        monkeypatch.setattr(means, "_cpu_count", lambda: 1)
        assert got == mean_curve(values, alphas, family, weights=weights)

    @pytest.mark.parametrize("n", [100_000, 9 * _CHUNK + 5])
    def test_single_means_are_bit_identical(self, cpus, n, monkeypatch):
        rng = np.random.default_rng(4)
        values, weights = 10.0 ** rng.uniform(-3.0, 1.0, n), rng.uniform(0.5, 2.0, n)

        def single():
            return [gini_mean(values, 2.5, -1.5, weights), gini_mean(values, 0.75, 0.75, weights),
                    holder_mean(values, -2.0, weights), lehmer_mean(values, 0.75, weights),
                    holder_mean(values, 0.0, weights)]

        started = summing_threads(monkeypatch)
        got = single()
        assert per_call(started) == {min(cpus, n // _CHUNK)}
        monkeypatch.setattr(means, "_cpu_count", lambda: 1)
        assert got == single()

    def test_threads_start_once_per_call(self, cpus, monkeypatch):
        # Not once per sum: the grid takes 29 sums, of 3 slices each.
        values, weights = pin_series()
        started = summing_threads(monkeypatch)
        mean_curve(values, SweepGrid(-3.0, 3.0, 0.25).points(), "lehmer", weights=weights)
        assert len(started) == min(cpus, values.size // _CHUNK) - 1

    @pytest.mark.parametrize("n, want", [(2 * _CHUNK - 1, 1), (2 * _CHUNK, 2), (5 * _CHUNK + 7, 5)])
    def test_no_more_threads_than_slices(self, n, want, monkeypatch):
        # Each thread holds one slice of powers at a time, so the threads
        # together never hold more than the series' length.
        monkeypatch.setattr(means, "_cpu_count", lambda: 64)
        started = summing_threads(monkeypatch)
        mean_curve(np.linspace(1.0, 2.0, n), SweepGrid(-3.0, 3.0, 0.25).points(), "lehmer")
        assert per_call(started) == {want}

    @pytest.mark.parametrize("count", [13, 1400])
    def test_every_slice_is_summed_once_under_frequent_switches(self, count, monkeypatch):
        # More threads than cores, switching every microsecond: each slice of
        # each sum is powered by one thread only, and lands at its index.
        monkeypatch.setattr(means, "_cpu_count", lambda: 8)
        rng = np.random.default_rng(4)
        n = 9 * _CHUNK + 5
        values, weights = 10.0 ** rng.uniform(-3.0, 1.0, n), rng.uniform(0.5, 2.0, n)
        exponents = np.linspace(-3.0, 3.0, count)
        dot_parts, starts = means._dot_parts, []

        def counting(a, b):
            starts.append((b.ctypes.data - weights.ctypes.data) // b.itemsize)
            return dot_parts(a, b)

        monkeypatch.setattr(means, "_dot_parts", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sums = _PowerSums(values, weights)
            sums.take(exponents)
            got = [sums(p) for p in exponents]
        finally:
            sys.setswitchinterval(interval)
        assert collections.Counter(starts) == {k * _CHUNK: exponents.size for k in range(10)}
        assert got == [blocked_dot(np.power(values, p), weights) for p in exponents]

    def test_a_call_powers_each_slice_at_every_exponent_in_turn(self, monkeypatch):
        # One pass over the series: every sum of the grid (29 exponents)
        # takes slice 0 before any takes slice 1.
        monkeypatch.setattr(means, "_cpu_count", lambda: 1)
        values, weights = pin_series()
        dot_parts, starts = means._dot_parts, []

        def recording(a, b):
            starts.append((b.ctypes.data - weights.ctypes.data) // b.itemsize)
            return dot_parts(a, b)

        monkeypatch.setattr(means, "_dot_parts", recording)
        mean_curve(values, SweepGrid(-3.0, 3.0, 0.25).points(), "lehmer", weights=weights)
        assert starts == [k * _CHUNK for k in range(-(-values.size // _CHUNK)) for _ in range(29)]

    def test_a_call_is_one_pass_however_many_sums(self, monkeypatch):
        # 1400 exponents over 10 slices: one pass, whose thread starts once, and
        # whose 5 block dots per slice and sum take 547 KiB in one array; with
        # each thread's 256 KiB buffer, the peak is about 1.24 MiB.
        monkeypatch.setattr(means, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(5)
        n = 9 * _CHUNK + 5
        values, weights = 10.0 ** rng.uniform(-3.0, 1.0, n), rng.uniform(0.5, 2.0, n)
        exponents = np.linspace(-3.0, 3.0, 1400).tolist()
        started = summing_threads(monkeypatch)
        sums = _PowerSums(values, weights)
        tracemalloc.start()
        try:
            sums.take(exponents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == 1
        assert peak < 2.5 * 2**20
        monkeypatch.setattr(means, "_cpu_count", lambda: 1)
        serial = _PowerSums(values, weights)
        serial.take(exponents)
        assert [sums(p) for p in exponents] == [serial(p) for p in exponents]

    @pytest.mark.parametrize("refused_after", [0, 1])
    def test_a_thread_that_cannot_start_leaves_its_slices_to_the_others(
            self, refused_after, tmp_path, capsys, monkeypatch):
        values, weights = pin_series()
        path = tmp_path / "values.csv"
        np.savetxt(path, np.column_stack([values, weights]), fmt="%.17g", delimiter=",")
        alphas = SweepGrid(-1.0, 1.0, 0.5).points()
        argv = ["mean", "--family", "lehmer", "--alpha-grid=-1:1:0.5", "--weights",
                "--input", str(path)]
        monkeypatch.setattr(means, "_cpu_count", lambda: 1)
        serial = mean_curve(values, alphas, "lehmer", weights=weights)
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        calls = itertools.count()
        start = threading.Thread.start

        def refuse(thread):
            # Each call on 3 slices tries 2 threads; the first
            # ``refused_after`` of them start.
            if next(calls) % 2 >= refused_after:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(means, "_cpu_count", lambda: 8)
        monkeypatch.setattr(means.threading.Thread, "start", refuse)
        before = threading.active_count()
        assert mean_curve(values, alphas, "lehmer", weights=weights) == serial
        assert (main(argv), capsys.readouterr()) == (0, (serial_out, ""))
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, alphas, exponent", [
        pytest.param("holder", [1.0, -1.0, math.nan], "-1.0", id="holder"),
        pytest.param("lehmer", [1.0, -1.0, math.nan], "-1.0", id="lehmer"),
        pytest.param("holder", [1.0, 0.0], "0.0", id="holder-limit"),
    ])
    def test_zero_value_raises_before_any_power(self, cpus, family, alphas, exponent):
        # A sum at -1, or the ln x sum of the limit at 0, taken early would
        # warn of a division by zero.
        values, weights = pin_series()
        values[50_000] = 0.0
        message = rf"^zero values are not admitted for exponent {exponent}$"
        with pytest.raises(DomainError, match=message):
            mean_curve(values, alphas, family, weights=weights)

    def test_nan_after_a_valid_exponent(self, cpus):
        values, weights = pin_series()
        with pytest.raises(DomainError, match=r"^exponent must not be NaN$"):
            mean_curve(values, [0.5, math.nan], "lehmer", weights=weights)

    def test_exception_in_a_thread_is_raised_once_all_are_joined(self, cpus, monkeypatch):
        values, weights = pin_series()
        raised_in = set()
        dot_parts = means._dot_parts

        def failing(a, b):
            # Every other thread fails its first slice, after the calling
            # thread has had time to take its own; with no other thread,
            # the calling thread fails.
            thread = threading.current_thread()
            if thread is threading.main_thread() and cpus > 1:
                time.sleep(0.01)
                return dot_parts(a, b)
            time.sleep(0.1)
            raised_in.add(thread.name)
            raise RuntimeError("injected")

        monkeypatch.setattr(means, "_dot_parts", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^injected$"):
            mean_curve(values, SweepGrid(-3.0, 3.0, 0.25).points(), "lehmer", weights=weights)
        assert threading.active_count() == before
        assert len(raised_in) == max(min(cpus, values.size // _CHUNK) - 1, 1)


class TestMeanCurve:
    @given(
        family=st.sampled_from(["holder", "lehmer"]),
        values=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=12),
        weighted=st.booleans(),
        alphas=st.lists(st.one_of(
            st.floats(-40.0, 40.0),
            st.sampled_from([0.0, 1e-10, -1e-10, 0.5, 1.0, -1.0, 2.0, 30.5, -30.5, 60.5, -60.5,
                             math.inf, -math.inf, math.nan]),
        ), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_alpha_reference(self, family, values, weighted, alphas, data):
        weights = None
        if weighted:
            weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(values),
                                         max_size=len(values)))

        def outcome(means):
            try:
                return means(values, alphas, family, weights)
            except DomainError as exc:
                return str(exc)

        assert outcome(mean_curve) == outcome(reference_means)

    def test_error_names_first_failing_alpha(self):
        with pytest.raises(DomainError, match="exponent 0.5$"):
            mean_curve([0.0, 2.0], [2.0, 1.0, 0.5, -1.0], "lehmer")

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            mean_curve(PAIR, [1.0], "stolarsky")

    @pytest.mark.parametrize("mean, expected", [
        (holder_mean, 1e-300 * 2.0 ** 0.001),
        (lehmer_mean, 1e-300),
    ])
    def test_extreme_spread_rescale_leaks_no_warning(self, mean, expected):
        # x / min overflows to inf for 1e300, whose -1000th power is 0;
        # a leaked overflow warning fails under the suite's warning filter.
        assert mean([1e300, 1e-300], -1000.0) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("mean, values, alpha, expected", [
        (holder_mean, [5.0, 6.0], 1000.0, 6.0 * ((1.0 + (5.0 / 6.0) ** 1000) / 2.0) ** 0.001),
        (lehmer_mean, [1e300, 2e300], 2.0, 5e300 / 3.0),
        (holder_mean, [1e-200, 2e-200], 2.0, math.sqrt(2.5) * 1e-200),
        (lehmer_mean, [1e-200, 2e-200], 3.0, 1.8e-200),
    ])
    def test_plain_sum_out_of_range_is_rescaled(self, mean, values, alpha, expected):
        # the plain power sums overflow to inf or underflow to 0; a leaked
        # overflow warning fails under the suite's warning filter
        assert mean(values, alpha) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_subnormal_share_is_raised_in_log_space(self):
        # the anchored sum 5e-324 over the weight sum 2 is 2.5e-324, which
        # rounds to 0, and 0^(-1/19) was inf (and a divide warning)
        values, weights = [5e-324, 1e-306], [5e-324, 2.0]
        want = log_space_mean(values, weights, -19.0, "holder")
        assert holder_mean(values, -19.0, weights) == pytest.approx(want, rel=LOG_SPACE_RTOL)
        # the term of 5e-324 dominates through its weight 1e300; an anchor at
        # 1e-306, chosen by the values alone, lost it, and the mean fell
        # below the data (a DomainError)
        weights = [1e300, 5e-324]
        want = log_space_mean(values, weights, 19.0, "holder")
        assert holder_mean(values, 19.0, weights) == pytest.approx(want, rel=LOG_SPACE_RTOL)

    @pytest.mark.parametrize("values, alpha", [
        ([1e-300, 1.7e305], 1.01),  # x^1.01 overflows; (1e-300 / 1.7e305)^0.01 ~ 9e-7
        ([1e-312, 1e305], 0.01),    # x^-0.99 overflows; (1e-312 / 1e305)^0.01 ~ 7e-7
    ])
    def test_partner_sum_keeps_terms_of_out_of_range_ratios(self, values, alpha):
        # a sum factored only because the other Lehmer sum overflows keeps
        # the terms whose ratio to the anchor leaves the double range
        want = log_space_mean(values, [1.0, 1.0], alpha, "lehmer")
        assert lehmer_mean(values, alpha) == pytest.approx(want, rel=LOG_SPACE_RTOL, abs=0.0)

    def test_all_zero_series_at_large_exponent(self):
        assert holder_mean([0.0, 0.0], 40.0) == 0.0
        with pytest.raises(DomainError, match="denominator power sum vanished"):
            lehmer_mean([0.0, 0.0], 40.0)

    @given(
        family=st.sampled_from(["holder", "lehmer"]),
        values=st.lists(EXTREME_VALUES, min_size=1, max_size=12),
        alphas=st.lists(st.one_of(
            st.floats(-1000.0, 1000.0).filter(lambda a: a == 0.0 or abs(a) >= 1e-3),
            st.sampled_from([1000.0, -1000.0, 30.5, -30.5, 2.0, 1.0, 0.5, -1.0]),
        ), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_extreme_values_match_log_space_reference(self, family, values, alphas, data):
        # Holder exponents in (0, 1e-3) amplify the sum's rounding by 1/alpha.
        # Weights within [0.1, 10] keep the largest power in a sum above the
        # smallest normal double within a factor 120 of it, where a
        # subnormal power still has 13 digits.  A subnormal mean is held to
        # the digits it carries.
        weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(values),
                                     max_size=len(values)))
        got = mean_curve(values, alphas, family, weights)
        for alpha, mean in zip(alphas, got):
            want = log_space_mean(values, weights, alpha, family)
            assert mean == pytest.approx(want, rel=LOG_SPACE_RTOL, abs=SUBNORMAL_ATOL), \
                (alpha, mean, want)


def decimal_mean(values, weights, alpha, family):
    """Holder or Lehmer mean of exact decimal power sums at 80 digits, for
    an exponent that is a multiple of 1/2 (a square root per half)."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 80, 10**6, -10**6
        xs, ws = [Decimal(x) for x in values], [Decimal(w) for w in weights]

        def power_sum(p):
            k = math.floor(p)
            return sum(w * x**k * (x.sqrt() if p != k else 1) for x, w in zip(xs, ws))

        if family == "lehmer":
            return power_sum(alpha) / power_sum(alpha - 1.0)
        quotient = power_sum(alpha) / sum(ws)
        a = abs(alpha)
        root = quotient.sqrt() if a == 2.0 else quotient**2 if a == 0.5 else quotient ** (1 / Decimal(a))
        return root if alpha > 0.0 else 1 / root


class TestWeightsAcrossTheDoubles:
    """Every pair of values and of weights from the ends and middle of the
    doubles, against exact decimal means."""

    VALUES = (5e-324, 1e-306, 1e-200, 1.0, 1e200, 1.7e308)
    WEIGHTS = (5e-324, 1e-300, 1.0, 1e300, 1.7e308)
    EXPONENTS = (19.0, -19.0, 2.0, -2.0, 0.5, -0.5)

    @pytest.mark.parametrize("family, mean", [("holder", holder_mean), ("lehmer", lehmer_mean)])
    def test_matches_exact_decimal_means(self, family, mean):
        # Anchored by the values alone, the largest weighted term could
        # underflow before its weight applied: 12 Holder and 116 Lehmer means
        # missed by more than this tolerance, and 64 and 68 calls raised
        # "leaves the data range".
        raised = 0
        for values in itertools.product(self.VALUES, repeat=2):
            for weights in itertools.product(self.WEIGHTS, repeat=2):
                for alpha in self.EXPONENTS:
                    try:
                        got = mean(values, alpha, weights)
                    except DomainError as exc:
                        assert "with a finite sum" in str(exc), (values, weights, alpha)
                        raised += 1
                        continue
                    want = decimal_mean(values, weights, alpha, family)
                    tolerance = max(want * Decimal("1e-10"), 4 * Decimal(math.ulp(0.0)))
                    assert abs(Decimal(got) - want) <= tolerance, (values, weights, alpha, got)
        # Only the weights (1.7e308, 1.7e308), whose sum overflows, raise.
        assert raised == 36 * len(self.EXPONENTS)


class TestVWeights:
    def test_holder_at_alpha_one(self):
        np.testing.assert_allclose(v_weights(PAIR, 1.0, "holder"), [0.5, 0.5])

    def test_lehmer_at_alpha_one(self):
        np.testing.assert_allclose(v_weights(PAIR, 1.0, "lehmer"), [0.5, 0.5])

    def test_lehmer_at_alpha_two(self):
        got = v_weights(PAIR, 2.0, "lehmer")
        np.testing.assert_allclose(got, [0.6 / 2.6, 2.0 / 2.6], rtol=1e-14)
        assert got.sum() == pytest.approx(1.0, rel=1e-14)

    def test_lehmer_weights_sum_to_one(self, rng):
        for _ in range(20):
            xs = random_series(rng, 12)
            alpha = rng.uniform(-4.0, 4.0)
            assert v_weights(xs, alpha, "lehmer").sum() == pytest.approx(1.0, rel=1e-12)

    def test_holder_weights_sum_identity(self, rng):
        # sum of the Holder v-weights is the (alpha-1)-power mean to the alpha-1
        for _ in range(20):
            xs = random_series(rng, 12)
            alpha = rng.uniform(-4.0, 4.0)
            if abs(alpha - 1.0) < 1e-3:
                continue
            expected = holder_mean(xs, alpha - 1.0) ** (alpha - 1.0)
            assert v_weights(xs, alpha, "holder").sum() == pytest.approx(expected, rel=1e-11)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            v_weights(PAIR, 1.0, "stolarsky")

    def test_infinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            v_weights(PAIR, math.inf, "holder")

    def test_holder_overflow_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            v_weights([1e-300, 1.0], -2.0, "holder")

    @pytest.mark.parametrize("values, alpha, expected", [
        ([1e-300, 1.0], -2.0, [1.0, 0.0]),
        ([1e-300, 1e300], 3.0, [0.0, 1.0]),
        ([0.0, 0.0], 1.0, [0.5, 0.5]),
    ])
    def test_lehmer_weights_stay_finite(self, values, alpha, expected):
        # the plain powers (1e-300)^-3 and (1e300)^2 overflow, and the
        # weights normalized from them read nan
        assert v_weights(values, alpha, "lehmer").tolist() == expected

    def test_lehmer_weight_of_out_of_range_ratio_is_kept(self):
        # 1e305 / 1e-300 overflows, but its power (1e605)^-0.01 is about 9e-7
        share = math.exp((0.99 - 1.0) * (math.log(1e305) - math.log(1e-300)))
        np.testing.assert_allclose(v_weights([1e-300, 1e305], 0.99, "lehmer"),
                                   [1.0 / (1.0 + share), share / (1.0 + share)], rtol=1e-12)

    def test_lehmer_all_zero_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            v_weights([0.0, 0.0], 2.0, "lehmer")

    def test_lehmer_weight_of_subnormal_power_keeps_its_digits(self):
        # (1e104)^-3.07 is subnormal, (1e100)^-3.07 is not: the weight is the
        # power of the ratio, not a quotient of what the subnormal kept
        p = np.longdouble(-2.07 - 1.0)
        share = np.exp(p * (np.log(np.longdouble(1e104)) - np.log(np.longdouble(1e100))))
        want = float(share / (1 + share))
        assert abs(v_weights([1e100, 1e104], -2.07, "lehmer")[1] - want) <= 1e-12 * want


class TestHolderLehmerLink:
    def test_pair_at_alpha_two(self):
        rescaled, via_lehmer = holder_lehmer_link(PAIR, 2.0)
        expected = lehmer_mean(PAIR, 2.0) ** 0.5
        assert rescaled == pytest.approx(expected, rel=1e-14)
        assert via_lehmer == pytest.approx(expected, rel=1e-14)

    def test_constant_series(self):
        rescaled, via_lehmer = holder_lehmer_link([2.5, 2.5, 2.5], 3.0)
        assert rescaled == pytest.approx(2.5 ** (1.0 / 3.0), rel=1e-14)
        assert via_lehmer == pytest.approx(rescaled, rel=1e-14)

    def test_alpha_one_is_arithmetic(self):
        rescaled, via_lehmer = holder_lehmer_link([1.0, 4.0], 1.0)
        assert rescaled == pytest.approx(2.5, rel=1e-15)
        assert via_lehmer == pytest.approx(2.5, rel=1e-15)

    def test_agreement_on_random_data(self, rng):
        for _ in range(50):
            xs = random_series(rng, 15)
            for alpha in (-3.0, -1.0, 0.5, 2.0, 5.0):
                rescaled, via_lehmer = holder_lehmer_link(xs, alpha)
                assert rescaled == pytest.approx(via_lehmer, rel=1e-12)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            holder_lehmer_link(PAIR, 0.0)

    def test_extreme_spread_routes_agree(self):
        # the plain sums overflow: the first route read nan
        assert holder_lehmer_link([1e-200, 1.0], -2.0) == (1e100, 1e100)

    @pytest.mark.parametrize("values, alpha", [
        ([1e-305, 1e305], 0.48),    # the large value's v-weight is subnormal
        ([5e-324, 1.0], 0.01),      # the Lehmer mean is subnormal
        ([1e-300, 1.0], 0.1),       # the routes underflow
    ])
    def test_routes_beyond_normal_doubles_rejected(self, values, alpha):
        with pytest.raises(DomainError, match="normal doubles"):
            holder_lehmer_link(values, alpha)

    @given(
        values=st.lists(EXTREME_VALUES, min_size=1, max_size=12),
        alpha=st.one_of(st.floats(-1000.0, 1000.0), st.floats(0.1, 2.0),
                        st.sampled_from([1000.0, -1000.0, 0.5, 1.0, 2.0, -1.0]))
        .filter(lambda a: abs(a) >= 0.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_routes_agree_or_raise_on_extreme_values(self, values, alpha):
        # The first route multiplies x^(a-1) by x, which is x^a only to the
        # rounding of a - 1 (about 1e-13 of the base for |log x| near 700),
        # and the 1/a root amplifies that by 1/|a|; hence |a| >= 0.1.
        weights = v_weights(values, alpha, "lehmer")
        assert np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        try:
            rescaled, via_lehmer = holder_lehmer_link(values, alpha)
        except DomainError:
            return
        assert rescaled == pytest.approx(via_lehmer, rel=1e-12, abs=0.0)


class TestFamilyProperties:
    """Invariants shared by both families."""

    def test_bounds_on_random_data(self, rng):
        for _ in range(50):
            xs = random_series(rng, 10)
            lo, hi = xs.min(), xs.max()
            for alpha in rng.uniform(-8.0, 8.0, 5):
                for mean in (holder_mean(xs, alpha), lehmer_mean(xs, alpha)):
                    assert lo * (1 - 1e-12) <= mean <= hi * (1 + 1e-12)

    def test_monotone_in_alpha(self, rng):
        grid = np.arange(-10.0, 10.25, 0.25)
        for _ in range(10):
            xs = random_series(rng, 10)
            hs = [holder_mean(xs, a) for a in grid]
            ls = [lehmer_mean(xs, a) for a in grid]
            assert np.all(np.diff(hs) >= -1e-12)
            assert np.all(np.diff(ls) >= -1e-12)

    def test_pythagorean_identities(self, rng):
        for _ in range(30):
            xs = random_series(rng, 10)
            geometric = math.exp(np.mean(np.log(xs)))
            arithmetic = float(np.mean(xs))
            harmonic = 1.0 / float(np.mean(1.0 / xs))
            assert holder_mean(xs, 0.0) == pytest.approx(geometric, rel=1e-12)
            assert holder_mean(xs, 1.0) == pytest.approx(arithmetic, rel=1e-12)
            assert holder_mean(xs, -1.0) == pytest.approx(harmonic, rel=1e-12)
            assert lehmer_mean(xs, 1.0) == pytest.approx(arithmetic, rel=1e-12)
            assert lehmer_mean(xs, 0.0) == pytest.approx(harmonic, rel=1e-12)

    def test_lehmer_half_is_geometric_for_pairs(self, rng):
        # sqrt(a)+sqrt(b) over 1/sqrt(a)+1/sqrt(b) telescopes to sqrt(ab)
        # for exactly two values; with more the identity genuinely breaks
        # (e.g. {1,4,9}: 36/11 != 36**(1/3)).
        for _ in range(30):
            pair = random_series(rng, 2)
            geometric = math.sqrt(pair[0] * pair[1])
            assert lehmer_mean(pair, 0.5) == pytest.approx(geometric, rel=1e-12)
        assert lehmer_mean([1.0, 4.0, 9.0], 0.5) == pytest.approx(36.0 / 11.0, rel=1e-14)
        assert abs(lehmer_mean([1.0, 4.0, 9.0], 0.5) - 36.0 ** (1 / 3)) > 1e-2

    def test_lehmer_holder_ordering(self, rng):
        for _ in range(20):
            xs = random_series(rng, 10)
            for alpha in (1.5, 2.0, 4.0, 7.5):
                assert lehmer_mean(xs, alpha) >= holder_mean(xs, alpha) * (1 - 1e-12)
            for alpha in (-3.0, -1.0, 0.0, 0.5, 0.99):
                assert lehmer_mean(xs, alpha) <= holder_mean(xs, alpha) * (1 + 1e-12)
            assert lehmer_mean(xs, 1.0) == pytest.approx(holder_mean(xs, 1.0), rel=1e-14)

    @given(
        value=st.floats(min_value=1e-3, max_value=1e3),
        n=st.integers(min_value=1, max_value=20),
        alpha=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotence_on_constant_series(self, value, n, alpha):
        # exponents inside (cutoff, 1e-4) are eps/alpha ill-conditioned by
        # construction; the analytic branch covers only |alpha| < 1e-9
        assume(alpha == 0.0 or abs(alpha) > 1e-4)
        xs = [value] * n
        assert holder_mean(xs, alpha) == pytest.approx(value, rel=1e-9)
        assert lehmer_mean(xs, alpha) == pytest.approx(value, rel=1e-9)

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, scale, alpha):
        assume(alpha == 0.0 or abs(alpha) > 1e-4)
        xs = np.array([0.3, 1.1, 2.0, 5.7])
        assert holder_mean(scale * xs, alpha) == pytest.approx(
            scale * holder_mean(xs, alpha), rel=1e-10
        )
        assert lehmer_mean(scale * xs, alpha) == pytest.approx(
            scale * lehmer_mean(xs, alpha), rel=1e-10
        )
