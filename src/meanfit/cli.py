"""Command-line surface.

Subcommands::

    mean      central tendency of a value series (single alpha or a grid)
    fit       fit one family model to a histogram with one weight kernel
    sweep     grid-search the power-kernel exponent (optionally the shape)
    dct-hist  8x8 block DCT magnitude histogram of a binary PGM image
    compare   per-kernel win percentages over a directory of histograms
    curves    mean and v-weight curves for a value pair over an exponent grid

Exit codes: 0 success, 1 computation or data failure, 2 usage error.  A
reader that closes stdout early does not make a run fail.
All numeric output uses full-precision repr, so emitted CSV round-trips.

Imported before numpy, this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless
the environment already sets it: meanfit gives OpenBLAS no job large enough
to split, and each extra OpenBLAS worker busy-waits on its own core after
numpy loads.  Every result is the same on any thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

# OpenBLAS reads its thread count only when numpy loads it, so this runs
# before the imports below; a process that already has numpy keeps its own.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DomainError, EmptyDataError, FormatError, NoSolutionError, SweepError
from .expfam import HYPERPARAMETERS, MODEL_NAMES, catalog
from .fitsearch import SweepGrid, compare_kernels, fit_histogram, fit_surface
from .ingest import block_dct8, build_histogram, format_histogram_csv, \
    load_histogram_csv, load_pgm, load_values_csv
from .means import mean_curve, v_weights
from .wmle import WeightKernel

__all__ = ["build_parser", "main"]

class _UsageError(Exception):
    """Post-parse invocation problem; reported like an argparse error."""


def _fmt(x) -> str:
    return repr(float(x))


def _floats(form: str, noun: str):
    """The argparse type of one ``form`` such as ``LO:HI``: its fields as floats."""
    sep = ":" if ":" in form else ","

    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(sep)
        if len(parts) != form.count(sep) + 1:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        try:
            return tuple(map(float, parts))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric {noun} {text!r}") from None
    return parse


def _checked(parse, ok, message: str):
    """The argparse type of ``parse`` whose values must satisfy ``ok``: so a
    bad value is a usage error before any input is read."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    check.__name__ = parse.__name__   # argparse names the type of a ValueError
    return check


def _grid_type(text: str) -> SweepGrid:
    try:
        return SweepGrid(*_floats("LO:HI:STEP", "grid")(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kernel_type(text: str) -> WeightKernel:
    if text == "unit":
        return WeightKernel.unit()
    if text == "log1p":
        return WeightKernel.log_shift()
    if text.startswith("power:"):
        try:
            return WeightKernel.power(float(text[len("power:"):]))
        except (ValueError, DomainError):
            raise argparse.ArgumentTypeError(f"bad power kernel {text!r}") from None
    raise argparse.ArgumentTypeError(f"expected unit, power:B, or log1p, got {text!r}")


def _build_model(name: str, shape_text: str | None):
    """Instantiate a catalog model from the --shape flag: one comma-separated
    value per hyperparameter of the model, each defaulting to 1."""
    keys = HYPERPARAMETERS[name]
    if not keys:
        if shape_text:
            raise _UsageError(f"{name} takes no --shape")
        return catalog(name)
    parts = (shape_text or "1").split(",")
    if len(parts) > len(keys) > 1:
        forms = " or ".join(",".join(keys[:n]).upper() for n in range(1, len(keys) + 1))
        raise _UsageError(f"{name} --shape must be {forms}")
    try:
        values = parts + ["1"] * (len(keys) - len(parts))
        hyper = {key: float(value) for key, value in zip(keys, values, strict=True)}
    except ValueError:
        raise _UsageError(f"bad --shape {shape_text!r}") from None
    if not all(0.0 < value < math.inf for value in hyper.values()):
        raise _UsageError(f"--shape values must be positive reals, got {shape_text!r}")
    return catalog(name, **hyper)


def _report_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False)


# Each _cmd_* handler returns its stdout text, which only main writes: so main
# can tell a closed stdout from a broken pipe anywhere else.

def _cmd_mean(args) -> str:
    if args.family == "kolmogorov":
        if args.alpha is not None or args.alpha_grid is not None:
            raise _UsageError("the kolmogorov subcommand takes no exponent (log transform)")
        if args.weights:
            raise _UsageError("the kolmogorov f-mean is unweighted")
        family, alphas = "holder", (0.0,)
    elif args.alpha is not None:
        family, alphas = args.family, (args.alpha,)
    elif args.alpha_grid is not None:
        family, alphas = args.family, args.alpha_grid.points()
    else:
        raise _UsageError("--alpha or --alpha-grid is required for holder/lehmer")
    values, weights = load_values_csv(args.input)
    if args.weights and weights is None:
        raise DomainError(f"{args.input}: --weights given but the file has no weight column")
    means = mean_curve(values, alphas, family, weights if args.weights else None)
    if args.alpha_grid is None:
        return _fmt(means[0]) + "\n"
    return "".join(f"{_fmt(a)},{_fmt(m)}\n" for a, m in zip(alphas, means))


def _cmd_fit(args) -> str:
    model = _build_model(args.model, args.shape)
    hist = load_histogram_csv(args.input)
    payload = _report_json(fit_histogram(model, hist, args.kernel)) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        return ""
    return payload


# sweep writes its profile beside the file --input resolves to; compare skips such files.
_SIDECAR = ".sweep.csv"


def _sidecar_path(input_path) -> Path:
    path = Path(input_path)
    if not stat.S_ISREG(path.stat().st_mode):
        raise _UsageError(f"--input {input_path} is not a regular file to put the profile next to")
    path = path.resolve()
    return path.with_name(path.stem + _SIDECAR)


def _cmd_sweep(args) -> str:
    model = _build_model(args.model, None)
    if args.shape_grid is not None and "alpha" not in model.hyper:
        raise _UsageError(f"--shape-grid does not apply to {args.model}")
    sidecar = _sidecar_path(args.input)
    hist = load_histogram_csv(args.input)
    kernels = [WeightKernel.power(beta) for beta in args.beta.points()]
    shapes = args.shape_grid.points() if args.shape_grid is not None else None
    surface = fit_surface(model, hist, kernels, shapes)
    best = surface.best()
    profile = "".join(f"{_fmt(beta)},{_fmt(mse)}\n" for beta, mse in surface.profile())
    sidecar.write_text(profile, encoding="utf-8")
    return _report_json(best) + "\n"


def _cmd_dct_hist(args) -> str:
    img = load_pgm(args.input)
    coeffs = block_dct8(img, exclude_dc=args.exclude_dc)
    hist, clipped = build_histogram(coeffs, bins=args.bins, value_range=args.range)
    if clipped:
        print(f"warning: {clipped} of {coeffs.values.size} coefficients outside "
              f"{_fmt(hist.edges[0])}:{_fmt(hist.edges[-1])} were clipped into the end bins",
              file=sys.stderr)
    return format_histogram_csv(hist)


def _cmd_compare(args) -> str:
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    if not names:
        raise _UsageError("--models needs at least one model name")
    unknown = [n for n in names if n not in MODEL_NAMES]
    if unknown:
        raise _UsageError(f"unknown model(s) {', '.join(unknown)}; choose from {', '.join(MODEL_NAMES)}")
    models = [_build_model(n, None) for n in names]
    files = sorted(p for p in Path(args.inputs).glob("*.csv")
                   if p.is_file() and not p.name.endswith(_SIDECAR))
    if not files:
        raise EmptyDataError(f"{args.inputs}: no .csv histograms found")
    # A file that does not load fails every model, and the rest are scored.
    hists, errors = [], []
    for path in files:
        try:
            hists.append(load_histogram_csv(path))
        except (FormatError, DomainError, EmptyDataError, OSError) as exc:
            errors.append(exc)
    for exc in errors:
        print(f"warning: {exc}", file=sys.stderr)
    if not hists:
        raise EmptyDataError(f"{args.inputs}: none of the {len(files)} .csv histograms loaded")
    rows = compare_kernels(models, hists, args.beta, args.tie_eps)
    return "model,pct_unit,pct_power,pct_log1p,mean_improvement,n_scored,n_failed\n" + "".join(
        f"{row.model},{_fmt(row.pct_unit)},{_fmt(row.pct_power)},{_fmt(row.pct_log1p)},"
        f"{_fmt(row.mean_improvement)},{row.n_scored},{len(row.failures) + len(errors)}\n"
        for row in rows
    )


def _cmd_curves(args) -> str:
    x1, x2 = args.pair
    if x1 <= 0.0 or x2 <= 0.0:
        raise DomainError("both pair values must be positive")
    pair = [x1, x2]
    alphas = args.alpha_grid.points()
    columns = zip(alphas, mean_curve(pair, alphas, "holder"), mean_curve(pair, alphas, "lehmer"))
    rows = []
    for alpha, h, le in columns:
        vh, vl = (v_weights(pair, alpha, family) for family in ("holder", "lehmer"))
        rows.append(",".join(_fmt(v) for v in (alpha, h, le, vh[0], vl[0], vh[1], vl[1])) + "\n")
    return "alpha,holder,lehmer,vh_x1,vl_x1,vh_x2,vl_x2\n" + "".join(rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built on the first call.

    Later calls return the same parser, which ``main`` shares: parsing does
    not change it, so a caller must not change it either.
    """
    parser = argparse.ArgumentParser(
        prog="meanfit",
        description="Weighted generalized means and weighted-likelihood histogram fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    beta_grid = dict(type=_grid_type, metavar="LO:HI:STEP", default=SweepGrid(-2.0, 2.0, 0.05),
                     help="exponent grid (default -2:2:0.05; keep 0 inside it; "
                          "write a negative LO as --beta=-2:2:0.05)")

    p = sub.add_parser("mean", help="central tendency of a value series")
    p.add_argument("--family", required=True, choices=("holder", "lehmer", "kolmogorov"),
                   help="kolmogorov: the geometric mean, holder --alpha 0")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=_checked(float, lambda a: not math.isnan(a),
                                                "exponent must not be NaN"),
                       help="exponent (inf/-inf allowed; write a negative value as --alpha=-inf)")
    group.add_argument("--alpha-grid", type=_grid_type, metavar="LO:HI:STEP",
                       help="emit alpha,mean rows over this grid "
                            "(write a negative LO as --alpha-grid=-3:3:0.25)")
    p.add_argument("--input", required=True, help="values CSV: value[,weight] per line")
    p.add_argument("--weights", action="store_true", help="use the file's weight column")
    p.set_defaults(handler=_cmd_mean)

    p = sub.add_parser("fit", help="fit one model/kernel pair to a histogram")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--kernel", required=True, type=_kernel_type, metavar="unit|power:B|log1p")
    p.add_argument("--input", required=True, help="histogram CSV: left,right,count per line")
    p.add_argument("--shape", help="shape hyperparameter, default 1 (gen-gamma: ALPHA[,B])")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("sweep", help="grid-search the power-kernel exponent")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--beta", **beta_grid)
    p.add_argument("--shape-grid", type=_checked(_grid_type, lambda grid: grid.lo > 0.0,
                                                 "shape grid values must be positive"),
                   metavar="LO:HI:STEP",
                   help="also sweep the shape hyperparameter of weibull / "
                        "gen-half-normal / gen-gamma (0.2:3:0.05 covers typical tails)")
    p.add_argument("--input", required=True, help="histogram CSV")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("dct-hist", help="histogram of |DCT| coefficients of a PGM image")
    p.add_argument("--input", required=True, help="binary PGM (P5), maxval <= 255")
    p.add_argument("--bins", type=_checked(int, lambda bins: bins >= 2,
                                           "need an integer bin count of at least 2"),
                   default=100)
    p.add_argument("--range", type=_checked(_floats("LO:HI", "range"),
                                            lambda span: -math.inf < span[0] < span[1] < math.inf,
                                            "range must satisfy lo < hi"), metavar="LO:HI",
                   help="histogram range (default 0:max; write a negative LO as --range=-5:5)")
    p.add_argument("--exclude-dc", action="store_true", help="drop the (0,0) coefficients")
    p.set_defaults(handler=_cmd_dct_hist)

    p = sub.add_parser("compare", help="per-kernel win percentages over histograms")
    p.add_argument("--models", required=True, help="comma-separated model names")
    p.add_argument("--inputs", required=True, help="directory of histogram .csv files")
    p.add_argument("--beta", **dict(beta_grid, help="exponent grid (default -2:2:0.05; without 0, "
                                                    "mean_improvement can be negative; write a "
                                                    "negative LO as --beta=-2:2:0.05)"))
    p.add_argument("--tie-eps", type=_checked(float, lambda eps: 0.0 <= eps < math.inf,
                                              "tie epsilon must be finite and non-negative"),
                   default=1e-3, help="relative MSE tie tolerance (default 1e-3)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("curves", help="mean and v-weight curves for a value pair")
    p.add_argument("--pair", required=True, type=_floats("X1,X2", "pair"), metavar="X1,X2")
    p.add_argument("--alpha-grid", required=True, type=_grid_type, metavar="LO:HI:STEP",
                   help="exponent grid (write a negative LO as --alpha-grid=-5:5:0.1)")
    p.set_defaults(handler=_cmd_curves)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.handler(args)
        try:
            sys.stdout.write(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout.  Point it at devnull, so that the flush
            # at exit does not fail again (see "Note on SIGPIPE" in the signal
            # docs).  A broken pipe anywhere else is a failed run, below.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, EmptyDataError, NoSolutionError, SweepError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
