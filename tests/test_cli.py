"""End-to-end subcommand tests driving meanfit.cli.main directly."""

import contextlib
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfit import MODEL_NAMES, SweepGrid, WeightKernel, block_dct8, build_histogram, \
    catalog, format_histogram_csv, load_histogram_csv, load_pgm
from meanfit import cli
from meanfit.cli import main
from meanfit.expfam import HYPERPARAMETERS

from conftest import EXTREME_VALUES, closed_pipe, dct_like_histogram, fresh_python, loop_best, \
    loop_points, reference_means, run_warnings_as_errors


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def pair_csv(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text("0.6\n2\n")
    return str(path)


@pytest.fixture
def weighted_csv(tmp_path):
    path = tmp_path / "weighted.csv"
    path.write_text("1,1\n3,3\n")
    return str(path)


@pytest.fixture
def expo_hist_csv(tmp_path):
    rng = np.random.default_rng(5150)
    hist, _ = build_histogram(rng.exponential(0.5, 20_000), bins=80)
    path = tmp_path / "expo.csv"
    path.write_text(format_histogram_csv(hist), encoding="utf-8")
    return str(path)


class TestMean:
    def test_holder_arithmetic(self, run, pair_csv):
        code, out, _ = run("mean", "--family", "holder", "--alpha", "1", "--input", pair_csv)
        assert code == 0
        assert float(out) == pytest.approx(1.3)

    def test_lehmer_harmonic(self, run, pair_csv):
        code, out, _ = run("mean", "--family", "lehmer", "--alpha", "0", "--input", pair_csv)
        assert code == 0
        assert float(out) == pytest.approx(2.0 / (1.0 / 0.6 + 0.5), rel=1e-14)

    def test_kolmogorov_is_geometric(self, run, pair_csv):
        code, out, _ = run("mean", "--family", "kolmogorov", "--input", pair_csv)
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(1.2), rel=1e-12)

    def test_weighted_mean(self, run, weighted_csv):
        code, out, _ = run(
            "mean", "--family", "holder", "--alpha", "1", "--input", weighted_csv, "--weights"
        )
        assert code == 0
        assert float(out) == pytest.approx(2.5)

    def test_reads_values_from_a_pipe(self, run, pipe):
        # `--input /dev/stdin` in a shell pipeline; `1_000` needs the line scanner.
        code, out, _ = run("mean", "--family", "holder", "--alpha", "1", "--weights",
                           "--input", pipe(b"1_000,1\n3,3\n"))
        assert (code, out) == (0, "252.25\n")

    def test_grid_rows_non_decreasing(self, run, pair_csv):
        code, out, _ = run(
            "mean", "--family", "holder", "--alpha-grid=-3:3:0.5", "--input", pair_csv
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 13
        means = [float(m) for _, m in rows]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    def test_missing_alpha_is_usage_error(self, run, pair_csv):
        code, _, err = run("mean", "--family", "holder", "--input", pair_csv)
        assert code == 2
        assert "alpha" in err

    def test_alpha_with_kolmogorov_is_usage_error(self, run, pair_csv):
        code, _, _ = run(
            "mean", "--family", "kolmogorov", "--alpha", "1", "--input", pair_csv
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "-1e308:1e308:1"])
    def test_grid_with_too_many_points_is_usage_error(self, run, pair_csv, grid):
        # unchecked, np.arange raises ValueError or OverflowError on these
        code, out, err = run("mean", "--family", "holder", f"--alpha-grid={grid}",
                             "--input", pair_csv)
        assert (code, out) == (2, "")
        assert err.endswith("grid has too many points\n")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.0 GiB", "error: Unable to allocate 8.0 GiB\n"),
        ("", "error: out of memory\n")])
    def test_out_of_memory_fails(self, run, pair_csv, monkeypatch, message, line):
        def exhausted(*args):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "mean_curve", exhausted)
        code, out, err = run("mean", "--family", "holder", "--alpha", "1", "--input", pair_csv)
        assert (code, out, err) == (1, "", line)

    def test_weights_flag_without_column_fails(self, run, pair_csv):
        code, _, err = run(
            "mean", "--family", "holder", "--alpha", "1", "--input", pair_csv, "--weights"
        )
        assert code == 1
        assert "weight column" in err

    def test_unknown_family_is_usage_error(self, run, pair_csv):
        code, _, _ = run("mean", "--family", "heronian", "--alpha", "1", "--input", pair_csv)
        assert code == 2

    def test_missing_file_is_data_error(self, run, tmp_path):
        code, _, _ = run(
            "mean", "--family", "holder", "--alpha", "1",
            "--input", str(tmp_path / "nope.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("family", ["holder", "lehmer"])
    def test_weighted_grid_is_one_curve_matching_reference(self, run, tmp_path, monkeypatch,
                                                           family):
        rng = np.random.default_rng(404)
        values = 10.0 ** rng.uniform(-3.0, 1.0, 500)
        weights = rng.uniform(0.5, 2.0, 500)
        path = tmp_path / "vw.csv"
        rows = zip(values.tolist(), weights.tolist())
        path.write_text("".join(f"{v!r},{w!r}\n" for v, w in rows))
        curves = []
        real_curve = cli.mean_curve

        def counting_curve(*args, **kwargs):
            curves.append(args)
            return real_curve(*args, **kwargs)

        monkeypatch.setattr(cli, "mean_curve", counting_curve)
        code, out, err = run(
            "mean", "--family", family, "--alpha-grid=-3:3:0.25", "--weights",
            "--input", str(path),
        )
        assert (code, err) == (0, "")
        assert len(curves) == 1
        alphas = SweepGrid(-3.0, 3.0, 0.25).points()
        want = reference_means(values, alphas, family, weights)
        assert out == "".join(f"{float(a)!r},{m!r}\n" for a, m in zip(alphas, want))

    def test_failing_alpha_prints_no_partial_rows(self, run, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("0\n0\n")
        code, out, err = run(
            "mean", "--family", "lehmer", "--alpha-grid=1:2:1", "--input", str(path)
        )
        assert (code, out) == (1, "")
        assert err == "error: the denominator power sum vanished (all values zero)\n"

    def test_non_ascii_byte_is_one_error_line(self, run, tmp_path):
        path = tmp_path / "nbsp.csv"
        path.write_bytes(b"1\xc2\xa0,2\n")
        code, out, err = run(
            "mean", "--family", "lehmer", "--alpha", "1", "--input", str(path)
        )
        assert (code, out) == (1, "")
        assert err == f"error: {path}: line 1: not ASCII\n"

    def test_huge_exponent_is_the_largest_value(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e300\n1e308\n")
        proc = run_warnings_as_errors("mean", "--family", "lehmer", "--alpha", "1e307",
                                      "--input", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1e+308\n", "")


class TestFit:
    def test_counts_summing_beyond_the_doubles_are_a_data_error(self, run, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("0,1,1e308\n1,2,1e308\n2,3,1e308\n")
        code, out, err = run("fit", "--model", "exponential", "--kernel", "unit",
                             "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: counts must be finite and non-negative, with a finite sum\n"

    def test_recovers_theta_and_writes_json(self, run, expo_hist_csv, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            "fit", "--model", "exponential", "--kernel", "unit",
            "--input", expo_hist_csv, "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert list(report) == ["model", "kernel", "beta", "alpha", "theta_hat", "mse", "loglik",
                                "dropped_bins"]
        assert abs(report["theta_hat"] - 2.0) / 2.0 < 0.05
        assert report["kernel"] == "unit"
        assert report["beta"] is None
        assert report["alpha"] is None

    def test_power_zero_matches_unit(self, run, expo_hist_csv):
        code1, out1, _ = run(
            "fit", "--model", "exponential", "--kernel", "unit", "--input", expo_hist_csv
        )
        code2, out2, _ = run(
            "fit", "--model", "exponential", "--kernel", "power:0", "--input", expo_hist_csv
        )
        assert code1 == code2 == 0
        unit = json.loads(out1)
        power0 = json.loads(out2)
        for key in ("model", "theta_hat", "mse", "loglik", "dropped_bins", "alpha"):
            assert unit[key] == power0[key]
        assert power0["kernel"] == "power"
        assert power0["beta"] == 0.0

    def test_weibull_shape_one_matches_exponential(self, run, expo_hist_csv):
        _, out_w, _ = run(
            "fit", "--model", "weibull", "--kernel", "unit", "--shape", "1",
            "--input", expo_hist_csv,
        )
        _, out_e, _ = run(
            "fit", "--model", "exponential", "--kernel", "unit", "--input", expo_hist_csv
        )
        assert json.loads(out_w)["theta_hat"] == pytest.approx(
            json.loads(out_e)["theta_hat"], rel=1e-13
        )

    def test_invalid_model_is_usage_error(self, run, expo_hist_csv):
        code, _, _ = run(
            "fit", "--model", "cauchy", "--kernel", "unit", "--input", expo_hist_csv
        )
        assert code == 2

    def test_bad_kernel_is_usage_error(self, run, expo_hist_csv):
        code, _, _ = run(
            "fit", "--model", "exponential", "--kernel", "gauss", "--input", expo_hist_csv
        )
        assert code == 2

    def test_shape_on_shapeless_model_is_usage_error(self, run, expo_hist_csv):
        code, _, _ = run(
            "fit", "--model", "exponential", "--kernel", "unit", "--shape", "2",
            "--input", expo_hist_csv,
        )
        assert code == 2

    def test_nonfinite_fit_is_one_error_line(self, run, tmp_path):
        # x^2 is 2.25e-310 at the bin center, so 1 / x^2 and theta overflow
        path = tmp_path / "tiny.csv"
        path.write_text("1e-155,2e-155,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                "fit", "--model", "weibull", "--shape", "2", "--kernel", "unit",
                "--input", str(path),
            )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Warning" not in err
        assert caught == []

    def test_gamma_pole_is_one_error_line(self, run, expo_hist_csv):
        # b/alpha = 1e-330 rounds to 0, the pole of ln Gamma
        code, out, err = run("fit", "--model", "gen-gamma", "--shape", "1e300,1e-30",
                             "--kernel", "unit", "--input", expo_hist_csv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "b/alpha underflows" in err

    @pytest.mark.parametrize("command", [
        ("fit", "--model", "exponential", "--kernel", "unit"),
        ("sweep", "--model", "weibull", "--shape-grid", "0.5:2:0.5", "--beta=-1:1:0.5"),
    ], ids=["fit", "sweep"])
    def test_histogram_at_the_edge_of_the_doubles_fits(self, tmp_path, command):
        # The last center, 0.5 * (1e308 + 1.7e308) if summed first, is finite
        path = tmp_path / "edge.csv"
        path.write_text("0,1e308,1\n1e308,1.7e308,1\n")
        proc = run_warnings_as_errors(*command, "--input", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert 0.0 < report["theta_hat"] < math.inf and report["dropped_bins"] == 0

    def test_bin_wider_than_the_doubles_is_one_error_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("-1.7e308,1.7e308,1\n")
        proc = run_warnings_as_errors("fit", "--model", "exponential", "--kernel", "unit",
                                      "--input", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: {path}: bin edges must be finite and strictly "
                               "increasing, with finite widths\n")


class TestSweep:
    def test_best_dominates_unit_and_writes_sidecar(self, run, expo_hist_csv, tmp_path):
        code, out, _ = run(
            "sweep", "--model", "exponential", "--beta=-1:1:0.25",
            "--input", expo_hist_csv,
        )
        assert code == 0
        best = json.loads(out)
        _, unit_out, _ = run(
            "fit", "--model", "exponential", "--kernel", "unit", "--input", expo_hist_csv
        )
        assert best["mse"] <= json.loads(unit_out)["mse"]
        sidecar = tmp_path / "expo.sweep.csv"
        rows = sidecar.read_text().strip().splitlines()
        assert len(rows) == 9
        betas = [float(r.split(",")[0]) for r in rows]
        assert betas == pytest.approx(list(np.arange(-1.0, 1.25, 0.25)))

    def test_profile_of_redirected_stdin_goes_next_to_its_file(self, run, expo_hist_csv,
                                                                 tmp_path):
        # `--input /dev/stdin < expo.csv` in a shell
        sidecar = tmp_path / "expo.sweep.csv"
        code, out, _ = run("sweep", "--model", "exponential", "--input", expo_hist_csv)
        assert code == 0
        by_name = sidecar.read_text()
        sidecar.unlink()
        with open(expo_hist_csv, "rb") as stdin:
            proc = run_warnings_as_errors("sweep", "--model", "exponential",
                                          "--input", "/dev/stdin", stdin=stdin)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
        assert sidecar.read_text() == by_name

    def test_pipe_is_usage_error_before_any_io(self, run, pipe, tmp_path):
        data = b"0.0,1.0,3\n1.0,2.0,1\n"
        read_end = pipe(data)
        # Named through a link, so that a profile put beside the name would land here.
        link = tmp_path / "h.csv"
        link.symlink_to(read_end)
        code, out, err = run("sweep", "--model", "exponential", "--input", str(link))
        assert (code, out) == (2, "")
        assert err == f"error: --input {link} is not a regular file to put the profile next to\n"
        assert os.listdir(tmp_path) == ["h.csv"]
        assert os.read(int(read_end.rsplit("/", 1)[1]), 64) == data

    def test_profile_goes_next_to_the_symlink_target(self, run, expo_hist_csv, tmp_path):
        links = tmp_path / "links"
        links.mkdir()
        (links / "link.csv").symlink_to(expo_hist_csv)
        code, _, _ = run("sweep", "--model", "exponential", "--beta=-1:1:0.5",
                         "--input", str(links / "link.csv"))
        assert code == 0
        assert os.listdir(links) == ["link.csv"]
        assert (tmp_path / "expo.sweep.csv").read_text().count("\n") == 5

    def test_deterministic(self, run, expo_hist_csv, tmp_path):
        argv = ("sweep", "--model", "exponential", "--beta=-0.5:0.5:0.25",
                "--input", expo_hist_csv)
        code1, out1, _ = run(*argv)
        side1 = (tmp_path / "expo.sweep.csv").read_text()
        code2, out2, _ = run(*argv)
        side2 = (tmp_path / "expo.sweep.csv").read_text()
        assert code1 == code2 == 0
        assert out1 == out2
        assert side1 == side2

    def test_shape_grid_on_weibull(self, run, expo_hist_csv):
        code, out, _ = run(
            "sweep", "--model", "weibull", "--beta", "0:0:1",
            "--shape-grid", "0.5:1.5:0.5", "--input", expo_hist_csv,
        )
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(1.0)

    def test_shape_grid_matches_scalar_loop_with_one_surface(self, run, tmp_path, monkeypatch):
        hist = dct_like_histogram(np.random.default_rng(1))
        path = tmp_path / "dct.csv"
        path.write_text(format_histogram_csv(hist), encoding="utf-8")
        built = []
        real_surface = cli.fit_surface

        def counting_surface(*args, **kwargs):
            built.append(args)
            return real_surface(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_surface", counting_surface)
        code, out, _ = run(
            "sweep", "--model", "weibull", "--shape-grid", "0.5:1.5:0.25", "--beta=-1:1:0.25",
            "--input", str(path),
        )
        assert code == 0
        assert len(built) == 1

        shapes = SweepGrid(0.5, 1.5, 0.25).points()
        betas = SweepGrid(-1.0, 1.0, 0.25).points()
        points = loop_points(catalog("weibull", alpha=1.0), load_histogram_csv(path),
                             [WeightKernel.power(b) for b in betas], shapes)
        want = loop_best(points).to_dict()
        got = json.loads(out)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in ("theta_hat", "mse", "loglik"):
                assert got[key] == pytest.approx(value, rel=1e-12)
            else:
                assert got[key] == value
        rows = (tmp_path / "dct.sweep.csv").read_text().splitlines()
        assert len(rows) == betas.size
        for j, row in enumerate(rows):
            beta, mse = (float(v) for v in row.split(","))
            assert beta == betas[j]
            assert mse == pytest.approx(min(points[(i, j)].mse for i in range(shapes.size)),
                                        rel=1e-12)

    def test_shape_grid_on_exponential_is_usage_error(self, run, expo_hist_csv):
        code, _, _ = run(
            "sweep", "--model", "exponential", "--beta", "0:1:0.5",
            "--shape-grid", "1:2:0.5", "--input", expo_hist_csv,
        )
        assert code == 2

    def test_counts_summing_beyond_the_doubles_fail_without_a_profile(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("0,1,1e308\n1,2,1e308\n2,3,1e308\n")
        proc = run_warnings_as_errors("sweep", "--model", "exponential", "--input", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: {path}: counts must be finite and non-negative, with a finite sum\n")
        assert not (tmp_path / "huge.sweep.csv").exists()

    def test_malformed_grid_is_usage_error(self, run, expo_hist_csv):
        code, _, _ = run(
            "sweep", "--model", "exponential", "--beta", "1:0:0.5", "--input", expo_hist_csv
        )
        assert code == 2


class TestDctHist:
    @pytest.fixture
    def gradient_pgm(self, tmp_path):
        pixels = (np.arange(16 * 16) % 256).astype(np.uint8)
        path = tmp_path / "grad.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + pixels.tobytes())
        return str(path)

    @pytest.fixture
    def flat_pgm(self, tmp_path):
        path = tmp_path / "flat.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + bytes([200] * 64))
        return str(path)

    def test_counts_conserved(self, run, gradient_pgm, tmp_path):
        code, out, err = run("dct-hist", "--input", gradient_pgm, "--bins", "20")
        assert (code, err) == (0, "")
        out_path = tmp_path / "hist.csv"
        out_path.write_text(out)
        hist = load_histogram_csv(out_path)
        assert hist.total == 4 * 64

    def test_exclude_dc_conserves_63_per_block(self, run, gradient_pgm, tmp_path):
        code, out, _ = run(
            "dct-hist", "--input", gradient_pgm, "--bins", "20", "--exclude-dc"
        )
        assert code == 0
        out_path = tmp_path / "hist.csv"
        out_path.write_text(out)
        assert load_histogram_csv(out_path).total == 4 * 63

    def test_constant_image_all_zero_coefficients(self, run, flat_pgm, tmp_path):
        code, out, _ = run(
            "dct-hist", "--input", flat_pgm, "--bins", "5", "--exclude-dc"
        )
        assert code == 0
        out_path = tmp_path / "hist.csv"
        out_path.write_text(out)
        hist = load_histogram_csv(out_path)
        assert hist.counts[0] == 63.0
        assert np.all(hist.counts[1:] == 0.0)

    def test_explicit_range(self, run, gradient_pgm, tmp_path):
        code, out, _ = run(
            "dct-hist", "--input", gradient_pgm, "--bins", "10", "--range", "0:100"
        )
        assert code == 0
        out_path = tmp_path / "hist.csv"
        out_path.write_text(out)
        hist = load_histogram_csv(out_path)
        assert hist.edges[0] == 0.0
        assert hist.edges[-1] == 100.0

    def test_clipped_coefficients_are_named_on_stderr(self, run, gradient_pgm):
        coeffs = block_dct8(load_pgm(gradient_pgm))
        hist, clipped = build_histogram(coeffs, bins=4, value_range=(0.0, 10.0))
        assert clipped == np.count_nonzero(coeffs.values > 10.0) > 0
        code, out, err = run("dct-hist", "--input", gradient_pgm, "--bins", "4", "--range", "0:10")
        assert (code, out) == (0, format_histogram_csv(hist))
        assert err == (f"warning: {clipped} of 256 coefficients outside 0.0:10.0 "
                       "were clipped into the end bins\n")

    def test_range_too_narrow_for_its_bins_is_one_error_line(self, gradient_pgm):
        # 100 bins of 1:1.000000000000001 would share edges
        proc = run_warnings_as_errors("dct-hist", "--input", gradient_pgm,
                                      "--range", "1:1.000000000000001", "--bins", "100")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: range 1.0:1.000000000000001 cannot hold 100 bins "
                               "of positive, finite width\n")


class TestCompare:
    def test_single_bin_ties_all_kernels(self, run, tmp_path):
        hist_dir = tmp_path / "hists"
        hist_dir.mkdir()
        (hist_dir / "one.csv").write_text("1.5,2.5,5\n")
        code, out, _ = run(
            "compare", "--models", "exponential,half-normal",
            "--inputs", str(hist_dir), "--beta=-0.5:0.5:0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model,pct_unit,pct_power,pct_log1p,mean_improvement,n_scored,n_failed"
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[1]) == 100.0
            assert float(fields[2]) == 100.0
            assert float(fields[3]) == 100.0
            assert float(fields[4]) == 0.0

    def test_percentages_bounded(self, run, tmp_path):
        rng = np.random.default_rng(31)
        hist_dir = tmp_path / "hists"
        hist_dir.mkdir()
        for i in range(3):
            hist, _ = build_histogram(rng.exponential(1.0, 3000), bins=40)
            (hist_dir / f"h{i}.csv").write_text(format_histogram_csv(hist), encoding="utf-8")
        code, out, _ = run(
            "compare", "--models", "exponential", "--inputs", str(hist_dir),
            "--beta=-1:1:0.5",
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[0] == "exponential"
        for pct in fields[1:4]:
            assert 0.0 <= float(pct) <= 100.0
        assert float(fields[2]) == 100.0  # grid contains beta = 0
        assert float(fields[4]) >= 0.0

    def test_skips_sweep_sidecars(self, run, tmp_path):
        rng = np.random.default_rng(32)
        for i in range(2):
            hist, _ = build_histogram(rng.exponential(1.0, 2000), bins=30)
            (tmp_path / f"h{i}.csv").write_text(format_histogram_csv(hist), encoding="utf-8")
        code, _, _ = run("sweep", "--model", "exponential", "--input", str(tmp_path / "h0.csv"),
                         "--beta=-1:1:0.5")
        assert code == 0 and (tmp_path / "h0.sweep.csv").exists()
        code, out, err = run("compare", "--models", "exponential", "--inputs", str(tmp_path),
                             "--beta=-1:1:0.5")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[5:] == ["2", "0"]

    def test_names_and_counts_a_file_that_does_not_load(self, run, tmp_path):
        hist, _ = build_histogram(np.random.default_rng(34).exponential(1.0, 2000), bins=30)
        (tmp_path / "a.csv").write_text(format_histogram_csv(hist), encoding="utf-8")
        (tmp_path / "b.csv").write_text("0,1,0\n1,2,0\n")
        code, out, err = run("compare", "--models", "exponential,weibull",
                             "--inputs", str(tmp_path), "--beta=-1:1:0.5")
        assert code == 0
        assert err == f"warning: {tmp_path / 'b.csv'}: at least one count must be positive\n"
        assert [line.split(",")[5:] for line in out.splitlines()[1:]] == [["1", "1"]] * 2

    def test_fails_when_no_file_loads(self, run, tmp_path):
        (tmp_path / "a.csv").write_text("0,1,0\n")
        (tmp_path / "b.csv").write_text("0,1,x\n")
        code, out, err = run("compare", "--models", "exponential", "--inputs", str(tmp_path),
                             "--beta=-1:1:0.5")
        assert (code, out) == (1, "")
        assert err == (f"warning: {tmp_path / 'a.csv'}: at least one count must be positive\n"
                       f"warning: {tmp_path / 'b.csv'}: line 1: not a number\n"
                       f"error: {tmp_path}: none of the 2 .csv histograms loaded\n")

    def test_skips_directories_and_fifos_named_csv(self, tmp_path):
        # Opening the FIFO would block until a writer came, so the run is a
        # subprocess that fails on its timeout instead of hanging.
        hist, _ = build_histogram(np.random.default_rng(33).exponential(1.0, 2000), bins=30)
        (tmp_path / "h0.csv").write_text(format_histogram_csv(hist), encoding="utf-8")
        argv = ("compare", "--models", "exponential", "--inputs", str(tmp_path), "--beta=-1:1:0.5")
        alone = run_warnings_as_errors(*argv)
        (tmp_path / "dir.csv").mkdir()
        os.mkfifo(tmp_path / "fifo.csv")
        beside = run_warnings_as_errors(*argv)
        assert (alone.returncode, alone.stderr) == (0, "")
        assert (beside.returncode, beside.stdout, beside.stderr) == (0, alone.stdout, "")

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_tie_epsilon_fails(self, run, tmp_path, eps):
        # nan would make every kernel lose (0.0 each); inf makes the tie bound
        # NaN where the best MSE is 0
        (tmp_path / "one.csv").write_text("1.5,2.5,5\n")
        code, out, err = run("compare", "--models", "exponential", "--inputs", str(tmp_path),
                             "--tie-eps", eps)
        assert (code, out) == (2, "")
        assert err.endswith("argument --tie-eps: tie epsilon must be finite and non-negative\n")

    def test_unknown_model_is_usage_error(self, run, tmp_path):
        code, _, _ = run(
            "compare", "--models", "exponential,cauchy", "--inputs", str(tmp_path),
            "--beta", "0:1:0.5",
        )
        assert code == 2

    def test_empty_directory_fails(self, run, tmp_path):
        code, _, _ = run(
            "compare", "--models", "exponential", "--inputs", str(tmp_path),
            "--beta", "0:1:0.5",
        )
        assert code == 1


class TestCurves:
    def test_pair_curves(self, run):
        code, out, _ = run("curves", "--pair", "0.6,2", "--alpha-grid=-2:2:0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,holder,lehmer,vh_x1,vl_x1,vh_x2,vl_x2"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 9
        by_alpha = {row[0]: row for row in rows}
        # equality of the two families at alpha = 1, value 1.3
        assert by_alpha[1.0][1] == pytest.approx(1.3, rel=1e-12)
        assert by_alpha[1.0][2] == pytest.approx(1.3, rel=1e-12)
        # lehmer v-weights sum to one on every row
        for row in rows:
            assert row[4] + row[6] == pytest.approx(1.0, rel=1e-12)
        # relevance of the small value decays with alpha, the large value gains
        vh1 = [row[3] for row in rows]
        vh2 = [row[5] for row in rows]
        assert all(b < a for a, b in zip(vh1, vh1[1:]))
        assert all(b > a for a, b in zip(vh2, vh2[1:]))

    def test_failing_exponent_prints_no_rows(self):
        # the Holder v-weight (1e-300)^-3 overflows at alpha = -2; the header
        # and inf/nan rows were printed before the error
        proc = run_warnings_as_errors("curves", "--pair", "1e-300,1", "--alpha-grid=-2:2:1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: holder v-weights are not finite at exponent -2.0\n"

    def test_missing_subcommand_is_usage_error(self, run):
        code, _, _ = run()
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        ("mean --family holder --input MISSING",
         "error: --alpha or --alpha-grid is required for holder/lehmer"),
        ("mean --family kolmogorov --weights --input MISSING",
         "error: the kolmogorov f-mean is unweighted"),
        ("curves --pair 1,2,3 --alpha-grid=0:1:0.5",
         "argument --pair: expected X1,X2, got '1,2,3'"),
        ("curves --pair 1,x --alpha-grid=0:1:0.5", "argument --pair: non-numeric pair '1,x'"),
        ("fit --model exponential --kernel power:x --input MISSING",
         "argument --kernel: bad power kernel 'power:x'"),
        ("fit --model gen-gamma --kernel unit --shape 1,2,3 --input MISSING",
         "error: gen-gamma --shape must be ALPHA or ALPHA,B"),
        ("compare --models , --inputs MISSING", "error: --models needs at least one model name"),
        ("sweep --model exponential --input /dev/null",
         "error: --input /dev/null is not a regular file to put the profile next to"),
        ("dct-hist --input MISSING --bins 1",
         "argument --bins: need an integer bin count of at least 2"),
        ("dct-hist --input MISSING --range 5:1", "argument --range: range must satisfy lo < hi"),
        ("compare --models exponential --inputs MISSING --tie-eps nan",
         "argument --tie-eps: tie epsilon must be finite and non-negative"),
        ("compare --models exponential --inputs MISSING --tie-eps=-1",
         "argument --tie-eps: tie epsilon must be finite and non-negative"),
        ("mean --family lehmer --alpha nan --input MISSING",
         "argument --alpha: exponent must not be NaN"),
        ("sweep --model weibull --shape-grid 0:1:0.5 --input MISSING",
         "argument --shape-grid: shape grid values must be positive"),
        ("dct-hist --input MISSING --range=-1.7e308:1.7e308",
         "argument --range: range must be finite, with a finite hi - lo"),
        ("curves --pair=0,1 --alpha-grid=0:1:0.5",
         "argument --pair: pair values must be positive reals"),
        ("curves --pair=-1,2 --alpha-grid=0:1:0.5",
         "argument --pair: pair values must be positive reals"),
        ("curves --pair=nan,1 --alpha-grid=0:1:0.5",
         "argument --pair: pair values must be positive reals"),
        ("curves --pair=inf,2 --alpha-grid=0:1:0.5",
         "argument --pair: pair values must be positive reals"),
    ], ids=["mean-no-exponent", "kolmogorov-weights", "pair-count", "pair-non-numeric",
            "power-kernel", "gen-gamma-shape", "no-models", "sweep-device", "one-bin",
            "reversed-range", "nan-tie-eps", "negative-tie-eps", "nan-alpha", "zero-shape",
            "infinite-range-width", "zero-pair", "negative-pair", "nan-pair", "inf-pair"])
    def test_reported_before_the_input_is_read(self, run, tmp_path, argv, message):
        # MISSING names no file: a usage error must come first, with exit code 2
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(*(missing if a == "MISSING" else a for a in argv.split()))
        assert (code, out) == (2, "")
        assert err.endswith(message + "\n")

    @pytest.mark.parametrize("argv", [
        "--model weibull --shape 0", "--model weibull --shape=-1", "--model weibull --shape inf",
        "--model weibull --shape nan", "--model gen-gamma --shape 2,0",
    ], ids=["zero", "negative", "inf", "nan", "gen-gamma-zero-b"])
    def test_shape_outside_the_positive_reals(self, run, tmp_path, argv):
        # catalog would reject these too, but as a data failure after the read
        code, out, err = run("fit", *argv.split(), "--kernel", "unit",
                             "--input", str(tmp_path / "missing.csv"))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "--shape" in err


class TestDashValues:
    """argparse takes a value that starts with a dash, other than a number such
    as ``-2``, for a flag after a space; each flag that takes one names the
    ``--flag=value`` form in its help, and that form parses."""

    @pytest.mark.parametrize("argv, flag, want", [
        ("mean --family lehmer --input MISSING", "--alpha", -math.inf),
        ("mean --family lehmer --input MISSING", "--alpha-grid", SweepGrid(-3.0, 3.0, 0.25)),
        ("sweep --model exponential --input MISSING", "--beta", SweepGrid(-2.0, 2.0, 0.05)),
        ("compare --models exponential --inputs MISSING", "--beta", SweepGrid(-2.0, 2.0, 0.05)),
        ("dct-hist --input MISSING", "--range", (-5.0, 5.0)),
        ("curves --pair 0.6,2", "--alpha-grid", SweepGrid(-5.0, 5.0, 0.1)),
    ], ids=["mean-alpha", "mean-alpha-grid", "sweep-beta", "compare-beta", "dct-hist-range",
            "curves-alpha-grid"])
    def test_the_help_names_the_equals_form(self, run, monkeypatch, argv, flag, want):
        monkeypatch.setenv("COLUMNS", "1000")   # no help line wraps at a hyphen
        code, out, _ = run(argv.split()[0], "--help")
        forms = re.findall(rf"write a negative \w+ as ({re.escape(flag)}=\S+)\)", out)
        assert (code, len(forms)) == (0, 1)
        args = cli.build_parser().parse_args([*argv.split(), forms[0]])
        assert getattr(args, flag[2:].replace("-", "_")) == want
        # Parsing is unchanged: the same value after a space is a usage error.
        code, out, err = run(*argv.split(), *forms[0].split("=", 1))
        assert (code, out) == (2, "")
        assert err.endswith(f"argument {flag}: expected one argument\n")


class TestClosedStdout:
    """A reader that closes stdout before the CLI writes is not a failed run."""

    def run_into_closed_pipe(self, *argv):
        write_end = closed_pipe()
        try:
            return run_warnings_as_errors(*argv, stdout=write_end)
        finally:
            os.close(write_end)

    def test_sweep_exits_zero_and_writes_its_profile(self, expo_hist_csv, tmp_path):
        proc = self.run_into_closed_pipe("sweep", "--model", "exponential", "--beta=-1:1:0.5",
                                         "--input", expo_hist_csv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len((tmp_path / "expo.sweep.csv").read_text().splitlines()) == 5

    def test_mean_grid_larger_than_the_pipe_exits_zero(self, tmp_path):
        # About 130 kB of rows, more than stdout buffers: the write itself
        # fails, not only the final flush.
        path = tmp_path / "values.csv"
        path.write_text("0.6\n2\n")
        proc = self.run_into_closed_pipe("mean", "--family", "lehmer",
                                         "--alpha-grid=-3:3:0.001", "--input", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_broken_pipe_of_an_output_file_is_a_failure(self, expo_hist_csv, tmp_path,
                                                        monkeypatch, capsys):
        # Only a closed stdout is benign: a --out whose reader has gone
        # delivered nothing.
        def closed_reader(self, *args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli.Path, "write_text", closed_reader)
        code = main(["fit", "--model", "exponential", "--kernel", "unit",
                     "--input", expo_hist_csv, "--out", str(tmp_path / "report.json")])
        assert (code, capsys.readouterr()) == (1, ("", "error: [Errno 32] Broken pipe\n"))


class TestParserReuse:
    """``main`` parses with the one parser ``build_parser`` builds per process."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_answers_as_a_fresh_one(self, run, expo_hist_csv, pair_csv):
        calls = [
            ["sweep", "--model", "weibull", "--beta=-1:1:0.5", "--shape-grid=0.5:1.5:0.5",
             "--input", expo_hist_csv],
            ["sweep", "--model", "weibull", "--beta=1:-1:0.5", "--input", expo_hist_csv],
            ["mean", "--family", "lehmer", "--alpha-grid=-1:2:0.5", "--input", pair_csv],
            ["--help"],
        ]
        reused = [run(*argv) for argv in calls]
        assert [code for code, _, _ in reused] == [0, 2, 0, 0]
        for argv, want in zip(calls, reused):
            cli.build_parser.cache_clear()
            assert run(*argv) == want, argv

    def test_module_run_prints_as_main(self, run, pair_csv):
        argv = ["mean", "--family", "holder", "--alpha-grid=-2:2:1", "--input", pair_csv]
        proc = run_warnings_as_errors(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(*argv)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count")
class TestBlasThreads:
    """A fresh process that imports the CLI before numpy runs OpenBLAS on one
    thread, unless its environment names a count."""

    PROBE = ("import json, os\n{before}\nenviron = dict(os.environ)\nimport meanfit.cli\n"
             "print(json.dumps([len(os.listdir('/proc/self/task')),"
             " os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) != environ]))")

    def probe(self, before="", **environ):
        """Threads, OPENBLAS_NUM_THREADS and whether ``import meanfit.cli``
        changed the environment, in a fresh process that ran ``before``."""
        return fresh_python(self.PROBE.format(before=before), **environ)

    def test_a_cold_import_starts_no_blas_worker(self):
        assert self.probe() == [1, "1", True]

    def test_a_count_the_user_set_wins(self):
        assert self.probe()[1] == "1"
        assert self.probe(OPENBLAS_NUM_THREADS="2")[1:] == ["2", False]

    def test_a_process_with_numpy_keeps_its_environment(self):
        assert self.probe()[2]
        assert self.probe("import numpy")[1:] == [None, False]


def run_in_process(*argv):
    """``main(argv)`` with every warning an error; the exit code and stdout."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(list(argv))
    return code, out.getvalue()


FUZZ_NUMBERS = st.one_of(EXTREME_VALUES, st.sampled_from([0.0, -1.0, math.inf, math.nan]))
FUZZ_EXPONENTS = st.one_of(st.floats(-1000.0, 1000.0), st.floats(-1.0, 1.0),
                           st.sampled_from([0.0, 1e-10, math.inf, -math.inf, math.nan]))


@st.composite
def fuzz_grids(draw, flag="--alpha-grid", lo=st.floats(-1000.0, 1000.0)):
    """LO:HI:STEP of up to 7 points, or now and then of more points than
    np.arange can index (a usage error): an infinite span, or a finite span
    over a tiny step, whose count is past 1e20 or infinite."""
    lo = draw(lo)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        big = draw(st.floats(1e308, 1.7e308))
        return f"{flag}={-big!r}:{big!r}:{draw(st.floats(1e-3, 300.0))!r}"
    if kind == 1:
        step = draw(st.floats(5e-324, 1e-20))
        return f"{flag}={lo!r}:{lo + draw(st.floats(1.0, 1e3))!r}:{step!r}"
    step = draw(st.floats(1e-3, 300.0))
    return f"{flag}={lo!r}:{lo + step * draw(st.integers(0, 6))!r}:{step!r}"


@st.composite
def fuzz_histograms(draw):
    """Histogram CSV text on a tiny or huge scale, of either sign, with zero,
    subnormal and huge counts."""
    scale = draw(st.one_of(EXTREME_VALUES, st.floats(1e-3, 1e3)))
    left = scale * draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.0]))
    counts = st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 5e-324, 1e300, 1.7e308]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        odd = draw(st.integers(0, 19)) == 0
        right = left + (draw(EXTREME_VALUES) if odd else draw(st.floats(0.01, 10.0)) * scale)
        rows.append(f"{left!r},{right!r},{draw(counts)!r}\n")
        left = right
    return "".join(rows)


@st.composite
def fuzz_models(draw, shape_flag=True):
    """``--model NAME`` and, mostly for shaped models, a ``--shape`` value."""
    name = draw(st.sampled_from(MODEL_NAMES))
    argv = ["--model", name]
    if shape_flag and draw(st.integers(0, 9)) < (8 if HYPERPARAMETERS[name] else 1):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            shape = draw(st.sampled_from(["0", "-1", "inf", "nan", "1,2,3"]))
        elif kind == 1 or name == "gen-gamma":
            shape = f"{draw(EXTREME_VALUES)!r},{draw(st.floats(0.1, 10.0))!r}"
        else:
            shape = repr(draw(st.floats(1e-3, 50.0)))
        argv.append(f"--shape={shape}")
    return argv


class TestFuzz:
    """Every run exits 0, 1 or 2 with no traceback, and prints no inf or nan."""

    @staticmethod
    def check(code, out):
        assert code in (0, 1, 2)
        assert not re.search(r"nan|inf", out, re.IGNORECASE), out
        if code:
            assert out == ""

    @given(
        rows=st.lists(st.tuples(FUZZ_NUMBERS, EXTREME_VALUES | st.floats(1e-300, 1e300)
                                | st.sampled_from([1.7e308, 0.0, -1.0])),
                      min_size=1, max_size=8),
        family=st.sampled_from(["holder", "lehmer", "kolmogorov"]),
        exponent=st.one_of(FUZZ_EXPONENTS.map(lambda a: f"--alpha={a!r}"), fuzz_grids()),
        weighted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mean(self, tmp_path_factory, rows, family, exponent, weighted):
        path = tmp_path_factory.getbasetemp() / "fuzz-values.csv"
        path.write_text("".join(f"{x!r},{w!r}\n" for x, w in rows))
        argv = ["mean", "--family", family, "--input", str(path)]
        argv += [exponent] if family != "kolmogorov" else []
        argv += ["--weights"] if weighted else []
        result = run_in_process(*argv)
        self.check(*result)
        if result[0] == 0:
            # every mean lies within the data, the weights whatever they are
            values = [x for x, _ in rows]
            for line in result[1].splitlines():
                assert min(values) <= float(line.split(",")[-1]) <= max(values), line
        if family == "kolmogorov" and not weighted:
            # the geometric mean, by the same path and to the same bytes
            assert result == run_in_process("mean", "--family", "holder", "--alpha=0",
                                            "--input", str(path))

    @given(x1=FUZZ_NUMBERS, x2=FUZZ_NUMBERS, grid=fuzz_grids())
    @settings(max_examples=150, deadline=None)
    def test_curves(self, x1, x2, grid):
        self.check(*run_in_process("curves", f"--pair={x1!r},{x2!r}", grid))

    @given(model=fuzz_models(), hist=fuzz_histograms(),
           kernel=st.one_of(st.sampled_from(["unit", "log1p"]),
                            st.floats(-1000.0, 1000.0).map(lambda b: f"power:{b!r}")))
    @settings(max_examples=200, deadline=None)
    def test_fit(self, tmp_path_factory, model, hist, kernel):
        path = tmp_path_factory.getbasetemp() / "fuzz-fit.csv"
        path.write_text(hist)
        code, out = run_in_process("fit", *model, f"--kernel={kernel}", "--input", str(path))
        self.check(code, out)
        if code == 0:
            assert list(json.loads(out)) == ["model", "kernel", "beta", "alpha", "theta_hat",
                                             "mse", "loglik", "dropped_bins"]

    @given(model=fuzz_models(shape_flag=False), hist=fuzz_histograms(),
           beta=fuzz_grids("--beta"),
           shapes=st.none() | fuzz_grids("--shape-grid", st.floats(1e-3, 10.0)))
    @settings(max_examples=150, deadline=None)
    def test_sweep(self, tmp_path_factory, model, hist, beta, shapes):
        path = tmp_path_factory.getbasetemp() / "fuzz-sweep.csv"
        path.write_text(hist)
        sidecar = path.with_name("fuzz-sweep.sweep.csv")
        sidecar.unlink(missing_ok=True)
        argv = ["sweep", *model, beta, "--input", str(path)]
        code, out = run_in_process(*argv + ([] if shapes is None else [shapes]))
        self.check(code, out)
        if code == 0:
            assert json.loads(out)["model"] == model[1]
            for row in sidecar.read_text().splitlines():
                beta_text, mse_text = row.split(",")
                float(beta_text), float(mse_text)

    def test_subnormal_lehmer_mean_under_w_error(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("5e-324\n1\n")
        proc = run_warnings_as_errors("mean", "--family", "lehmer", "--alpha", "0.01",
                                      "--input", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8.453e-321\n", "")
