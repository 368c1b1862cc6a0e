"""Weighted central tendencies and weighted-likelihood estimation for
one-parameter exponential families, with a histogram-fitting harness.

Each exported name and submodule loads on first use (PEP 562): ``import
meanfit`` imports no numpy, and ``import meanfit.cli`` runs the CLI module
before numpy loads.  ``meanfit.<name>`` is ``meanfit.<module>.<name>``.
"""

from importlib import import_module as _import_module

# The public names of each submodule that the package exports.
_EXPORTS = {
    "errors": ("DomainError", "EmptyDataError", "FormatError", "NoSolutionError", "SweepError"),
    "expfam": ("MODEL_NAMES", "FamilyModel", "catalog", "in_support", "pdf", "stat_mean",
               "stat_mean_inverse"),
    "fitsearch": ("FitReport", "FitSurface", "Histogram", "KernelComparison", "SweepGrid",
                  "compare_kernels", "fit_histogram", "fit_surface"),
    "ingest": ("CoefficientSet", "GrayImage", "block_dct8", "build_histogram", "dct8",
               "format_histogram_csv", "idct8", "load_histogram_csv", "load_pgm",
               "load_values_csv"),
    "means": ("GEOMETRIC_CUTOFF", "gini_mean", "holder_lehmer_link", "holder_mean",
              "lehmer_mean", "mean_curve", "v_weights"),
    "wmle": ("KERNEL_KINDS", "MleResult", "WeightKernel", "WeightedSeries", "apply_kernel",
             "lse_critical", "lse_objective", "mle_closed_form", "mle_numeric",
             "sufficient_mean", "weighted_loglik"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
