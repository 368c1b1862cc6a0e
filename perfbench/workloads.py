"""Seeded inputs and independent numpy references for the four workloads.

Nothing here imports ``meanfit``: every expected output is computed from the
generated arrays with plain numpy, so a defect in the program under test
cannot hide in its own reference.  ``prepare`` writes the inputs and returns a
``Workload`` whose ``check`` returns None for a correct output or a one-line
reason for a wrong one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RTOL = 1e-8  # relative tolerance for values the program computes in another order

NAMES = ("sweep-surface", "compare-corpus", "dct-image", "mean-csv")

WHY = {
    "sweep-surface": "largest 2-D grid search (57x81 weibull shape x beta) on one 100-bin "
                     "heavy-tailed histogram; fitsearch, wmle and expfam do the work",
    "compare-corpus": "many small 1-D beta sweeps over 50 histograms with all three kernels "
                      "plus 50 small CSV parses; a per-file or per-sweep fixed cost shows here",
    "dct-image": "2048x2048 PGM through load, block DCT, binning and CSV output; no fitting, "
                 "so fitting changes should leave it unchanged",
    "mean-csv": "1M-row value,weight CSV and 25 weighted Lehmer means; text parsing dominates "
                "and it is the only workload that runs the means module",
}


@dataclass
class Workload:
    argv: list             # arguments after the program name
    items: int             # work items one call completes
    check: Callable        # (stdout text) -> None or a failure reason
    sidecar: Path | None = None   # extra output file the call writes


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive LO:HI:STEP grid, as the CLI documents it."""
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def _numbers(text: str, lineno: int) -> list:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"line {lineno}: not a number: {text[:60]!r}") from None


# --- heavy-tailed histograms -------------------------------------------------

def _dct_like_histogram(rng, n: int = 20000, bins: int = 100):
    """A sharp exponential bulk near zero plus a long exponential tail."""
    tail_share = rng.uniform(0.15, 0.35)
    bulk_scale = rng.uniform(0.05, 0.2)
    tail_scale = rng.uniform(1.0, 4.0)
    in_tail = rng.random(n) < tail_share
    x = np.where(in_tail, rng.exponential(tail_scale, n), rng.exponential(bulk_scale, n))
    hi = float(np.quantile(x, 0.995))
    counts, edges = np.histogram(np.clip(x, 0.0, hi), bins=bins, range=(0.0, hi))
    return edges, counts.astype(float)


def _write_histogram(path: Path, edges, counts) -> None:
    path.write_text("".join(f"{float(l)!r},{float(r)!r},{float(c)!r}\n"
                            for l, r, c in zip(edges[:-1], edges[1:], counts)), encoding="ascii")


# Every model the workloads fit is T(x) = -x^p, eta = s theta^q, H = -h ln theta,
# ln a(x) = c0 + (d - 1) ln x, so the weighted MLE is
# theta = (h / (s q (-m)))^(1/q) with m = sum u T / sum u.
def _family(name: str, shape=None):
    if name == "exponential":
        return dict(p=1.0, q=1.0, s=1.0, h=1.0, c0=0.0, d=1.0)
    if name == "half-normal":
        return dict(p=2.0, q=2.0, s=0.5, h=1.0, c0=0.5 * math.log(2.0 / math.pi), d=1.0)
    if name == "weibull":
        a = np.asarray(shape, dtype=float)
        return dict(p=a, q=a, s=1.0, h=a, c0=np.log(a), d=a)
    raise ValueError(name)


def _fit_surface(fam, edges, counts, kernel_w):
    """Closed-form fits of every row of ``kernel_w`` (shape-major broadcast).

    ``fam`` entries may be arrays of shape (S, 1, 1); ``kernel_w`` has shape
    (K, bins).  Returns theta, mse, loglik, a loglik magnitude and dropped
    bins, each of shape (S, K).
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    w = counts * kernel_w                                   # (K, bins)
    keep = (centers > 0.0) & (w > 0.0)
    w = np.where(keep, w, 0.0)
    dropped = np.broadcast_to(counts.size - keep.sum(axis=-1), (1, w.shape[0]))
    p, q, s, h, c0, d = (np.asarray(fam[k], dtype=float).reshape(-1, 1, 1)
                         for k in ("p", "q", "s", "h", "c0", "d"))
    x = centers.reshape(1, 1, -1)
    xp = np.power(x, p)                                     # (S, 1, bins)
    m = -(w * xp).sum(axis=-1, keepdims=True) / w.sum(axis=-1, keepdims=True)
    theta = (h / (s * q * -m)) ** (1.0 / q)                 # (S, K, 1)
    eta = s * theta ** q
    log_a = c0 + (d - 1.0) * np.log(x)
    terms = log_a - eta * xp + h * np.log(theta)
    loglik = (w * terms).sum(axis=-1)
    magnitude = (w * (np.abs(log_a) + eta * xp + np.abs(h * np.log(theta)))).sum(axis=-1)
    empirical = counts / (counts.sum() * widths)
    fitted = np.exp(log_a - eta * xp + h * np.log(theta))
    mse = ((empirical - fitted) ** 2).mean(axis=-1)
    S = max(p.shape[0], 1)
    return (theta[..., 0], mse, loglik, magnitude,
            np.broadcast_to(dropped, (S, w.shape[0])))


def _check_report(report: dict, expect: dict) -> str | None:
    keys = ("model", "kernel", "beta", "alpha", "theta_hat", "mse", "loglik", "dropped_bins")
    if list(report) != list(keys):
        return f"report keys {list(report)}"
    for key in ("model", "kernel", "dropped_bins"):
        if report[key] != expect[key]:
            return f"{key} {report[key]!r} != {expect[key]!r}"
    for key in ("theta_hat", "mse"):
        if not _close(report[key], expect[key]):
            return f"{key} {report[key]!r} != {expect[key]!r}"
    if not _close(report["loglik"], expect["loglik"], expect["loglik_scale"]):
        return f"loglik {report['loglik']!r} != {expect['loglik']!r}"
    return None


# --- sweep-surface -------------------------------------------------------------

def _prepare_sweep(rng, work: Path) -> Workload:
    edges, counts = _dct_like_histogram(rng)
    path = work / "hist.csv"
    _write_histogram(path, edges, counts)
    shapes, betas = _grid(0.2, 3.0, 0.05), _grid(-2.0, 2.0, 0.05)
    centers = 0.5 * (edges[:-1] + edges[1:])
    kernel_w = np.power(centers[None, :], betas[:, None])
    theta, mse, loglik, mag, dropped = _fit_surface(_family("weibull", shapes), edges, counts,
                                                    kernel_w)
    best_mse = float(mse.min())
    profile = mse.min(axis=0)
    sidecar = work / "hist.sweep.csv"

    def check(stdout: str) -> str | None:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if not isinstance(report, dict) or report.get("alpha") is None or report.get("beta") is None:
            return "report lacks alpha/beta"
        i = int(np.argmin(np.abs(shapes - report["alpha"])))
        j = int(np.argmin(np.abs(betas - report["beta"])))
        if abs(shapes[i] - report["alpha"]) > 1e-12 or abs(betas[j] - report["beta"]) > 1e-12:
            return f"(alpha, beta) = ({report['alpha']}, {report['beta']}) is not a grid point"
        if mse[i, j] > best_mse * (1.0 + RTOL):
            return f"mse at chosen point {mse[i, j]!r} exceeds the grid minimum {best_mse!r}"
        why = _check_report(report, dict(
            model="weibull", kernel="power", theta_hat=float(theta[i, j]),
            mse=float(mse[i, j]), loglik=float(loglik[i, j]), loglik_scale=float(mag[i, j]),
            dropped_bins=int(dropped[i, j])))
        if why:
            return why
        try:
            rows = sidecar.read_text(encoding="ascii").splitlines()
        except OSError as exc:
            return f"sidecar: {exc}"
        if len(rows) != betas.size:
            return f"sidecar has {len(rows)} rows, expected {betas.size}"
        for k, row in enumerate(rows):
            try:
                beta, value = _numbers(row, k + 1)
            except ValueError as exc:
                return f"sidecar {exc}"
            if abs(beta - betas[k]) > 1e-12 or not _close(value, float(profile[k])):
                return f"sidecar line {k + 1}: {row!r} != {float(betas[k])!r},{float(profile[k])!r}"
        return None

    argv = ["sweep", "--model", "weibull", "--shape-grid", "0.2:3:0.05", "--beta=-2:2:0.05",
            "--input", str(path)]
    return Workload(argv, shapes.size * betas.size, check, sidecar)


# --- compare-corpus ------------------------------------------------------------

COMPARE_MODELS = ("exponential", "half-normal", "weibull")
TIE_EPS = 1e-3


def _prepare_compare(rng, work: Path) -> Workload:
    corpus = work / "hists"
    corpus.mkdir()
    hists = []
    for k in range(50):
        edges, counts = _dct_like_histogram(rng)
        _write_histogram(corpus / f"h{k:03d}.csv", edges, counts)
        hists.append((edges, counts))
    betas = _grid(-2.0, 2.0, 0.05)
    expected = []
    for name in COMPARE_MODELS:
        fam = _family(name, 1.0) if name == "weibull" else _family(name)
        sure = {"unit": 0, "power": 0, "log1p": 0}
        unsure = dict(sure)
        improvements = []
        for edges, counts in hists:
            centers = 0.5 * (edges[:-1] + edges[1:])
            kernels = np.vstack([np.ones_like(centers), np.log1p(centers),
                                 np.power(centers[None, :], betas[:, None])])
            mse = _fit_surface(fam, edges, counts, kernels)[1][0]
            scores = {"unit": mse[0], "log1p": mse[1], "power": mse[2:].min()}
            limit = min(scores.values()) * (1.0 + TIE_EPS)
            for label, value in scores.items():
                if abs(value - limit) <= 4 * RTOL * limit:
                    unsure[label] += 1   # rounding may put it on either side of the tie line
                elif value <= limit:
                    sure[label] += 1
            improvements.append(abs(scores["unit"] - scores["power"]) / scores["unit"])
        expected.append((name, sure, unsure, float(np.mean(improvements))))
    header = "model,pct_unit,pct_power,pct_log1p,mean_improvement,n_scored,n_failed"
    n = len(hists)

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != 1 + len(expected) or lines[0] != header:
            return f"expected a header and {len(expected)} rows, got {lines[:1]} + {len(lines) - 1}"
        for lineno, (line, (name, sure, unsure, improvement)) in enumerate(
                zip(lines[1:], expected), start=2):
            parts = line.split(",")
            if len(parts) != 7 or parts[0] != name:
                return f"line {lineno}: {line!r}"
            try:
                pcts = [float(v) for v in parts[1:5]]
                n_scored, n_failed = int(parts[5]), int(parts[6])
            except ValueError:
                return f"line {lineno}: not numeric: {line!r}"
            if (n_scored, n_failed) != (n, 0):
                return f"line {lineno}: scored/failed {n_scored}/{n_failed}, expected {n}/0"
            for label, pct in zip(("unit", "power", "log1p"), pcts):
                lo = 100.0 * sure[label] / n
                hi = 100.0 * (sure[label] + unsure[label]) / n
                if not (lo - 1e-9 <= pct <= hi + 1e-9):
                    return f"line {lineno}: pct_{label} {pct!r} outside [{lo}, {hi}]"
            if not _close(pcts[3], improvement, 1.0):
                return f"line {lineno}: mean_improvement {pcts[3]!r} != {improvement!r}"
        return None

    argv = ["compare", "--models", ",".join(COMPARE_MODELS), "--inputs", str(corpus),
            "--beta=-2:2:0.05"]
    return Workload(argv, len(COMPARE_MODELS) * n, check)


# --- dct-image -------------------------------------------------------------------

IMAGE_SIDE = 2048
DCT_BINS = 100


def _image(rng, side: int) -> np.ndarray:
    """Smooth gradients and waves plus sensor-like noise, as 8-bit pixels."""
    axis = np.linspace(0.0, 1.0, side)
    fx, fy, fz = rng.uniform(1.0, 6.0, 3)
    phase = rng.uniform(0.0, 2 * np.pi, 2)
    smooth = (110.0 + 50.0 * np.sin(2 * np.pi * fx * axis + phase[0])[None, :]
              * np.cos(2 * np.pi * fy * axis + phase[1])[:, None]
              + 40.0 * (axis[None, :] - axis[:, None]))
    smooth += 25.0 * np.sin(2 * np.pi * fz * (axis[None, :] + axis[:, None]) ** 2)
    smooth += rng.normal(0.0, 6.0, (side, side))
    return np.clip(np.rint(smooth), 0, 255).astype(np.uint8)


def _dct_reference(pixels: np.ndarray, bins: int):
    """|2-D DCT-II| of every 8x8 block by the cosine matrix, DC dropped, binned."""
    n = np.arange(8)
    basis = np.cos((2 * n[None, :] + 1) * n[:, None] * np.pi / 16.0)
    basis *= np.where(n == 0, math.sqrt(1.0 / 8.0), math.sqrt(2.0 / 8.0))[:, None]
    h, w = pixels.shape
    blocks = pixels.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2).astype(float)
    coeffs = np.abs(np.einsum("ux,ijxy,vy->ijuv", basis, blocks, basis, optimize=True))
    values = coeffs.reshape(-1, 64)[:, 1:].ravel()
    top = float(values.max())
    counts, edges = np.histogram(values, bins=bins, range=(0.0, top))
    position = values * (bins / top)
    # Values this close to a bin edge may land on either side in another
    # evaluation order; each can move one count between neighbouring bins.
    fragile = int(np.count_nonzero(np.abs(position - np.rint(position)) < 1e-6))
    return edges, counts, values.size, fragile


def _prepare_dct(rng, work: Path) -> Workload:
    pixels = _image(rng, IMAGE_SIDE)
    path = work / "scene.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# perfbench scene\n%d %d\n255\n" % (IMAGE_SIDE, IMAGE_SIDE))
        fh.write(pixels.tobytes())
    edges, counts, total, fragile = _dct_reference(pixels, DCT_BINS)

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != DCT_BINS:
            return f"{len(lines)} histogram rows, expected {DCT_BINS}"
        got = np.empty((DCT_BINS, 3))
        for k, line in enumerate(lines):
            try:
                row = _numbers(line, k + 1)
            except ValueError as exc:
                return str(exc)
            if len(row) != 3:
                return f"line {k + 1}: expected left,right,count"
            got[k] = row
        if not np.allclose(got[:, 0], edges[:-1], rtol=RTOL, atol=0.0) or \
                not np.allclose(got[:, 1], edges[1:], rtol=RTOL, atol=0.0):
            return "bin edges differ from the reference"
        if np.any(got[:, 2] != np.rint(got[:, 2])) or got[:, 2].sum() != total:
            return f"counts are not integers summing to {total}"
        moved = int(np.abs(got[:, 2] - counts).sum())
        if moved > 2 * fragile:
            return f"{moved} counts differ from the reference (allowed {2 * fragile})"
        return None

    argv = ["dct-hist", "--input", str(path), "--bins", str(DCT_BINS), "--exclude-dc"]
    return Workload(argv, IMAGE_SIDE * IMAGE_SIDE, check)


# --- mean-csv ----------------------------------------------------------------------

MEAN_ROWS = 1_000_000


def _fixed6(micros: np.ndarray) -> np.ndarray:
    """ASCII 'd.dddddd' for integers 0 <= micros < 10**7, one row per value."""
    out = np.empty((micros.size, 8), dtype=np.uint8)
    out[:, 0] = 48 + micros // 1_000_000
    out[:, 1] = ord(".")
    rest = micros % 1_000_000
    for col in range(7, 1, -1):
        out[:, col] = 48 + rest % 10
        rest //= 10
    return out


def _prepare_mean(rng, work: Path) -> Workload:
    # Log-uniform values over [0.001, 10) and weights over [0.5, 2], written
    # with six decimals; k / 1e6 is exactly what parsing 'd.dddddd' yields.
    value_u = np.clip(np.rint(10.0 ** rng.uniform(-3.0, 1.0, MEAN_ROWS) * 1e6),
                      1000, 9_999_999).astype(np.int64)
    weight_u = rng.integers(500_000, 2_000_001, MEAN_ROWS)
    text = np.empty((MEAN_ROWS, 18), dtype=np.uint8)
    text[:, 0:8] = _fixed6(value_u)
    text[:, 8] = ord(",")
    text[:, 9:17] = _fixed6(weight_u)
    text[:, 17] = ord("\n")
    path = work / "values.csv"
    path.write_bytes(text.tobytes())
    values, weights = value_u / 1e6, weight_u / 1e6
    alphas = _grid(-3.0, 3.0, 0.25)
    means = [float(np.power(values, a) @ weights / (np.power(values, a - 1.0) @ weights))
             for a in alphas]

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != alphas.size:
            return f"{len(lines)} rows, expected {alphas.size}"
        for k, line in enumerate(lines):
            try:
                row = _numbers(line, k + 1)
            except ValueError as exc:
                return str(exc)
            if len(row) != 2 or abs(row[0] - alphas[k]) > 1e-12 or not _close(row[1], means[k]):
                return f"line {k + 1}: {line!r} != {float(alphas[k])!r},{means[k]!r}"
        return None

    argv = ["mean", "--family", "lehmer", "--alpha-grid=-3:3:0.25", "--weights",
            "--input", str(path)]
    return Workload(argv, MEAN_ROWS, check)


_PREPARE = {
    "sweep-surface": _prepare_sweep,
    "compare-corpus": _prepare_compare,
    "dct-image": _prepare_dct,
    "mean-csv": _prepare_mean,
}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the seeded inputs of one workload under ``work`` and build its check."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return _PREPARE[name](rng, work)
