"""The package namespace: every exported name loads on first use."""

import importlib

import pytest

import meanfit

from conftest import fresh_python

#: The names ``meanfit`` exports, by the submodule that defines each.
EXPORTS = {
    "errors": ["DomainError", "EmptyDataError", "FormatError", "NoSolutionError", "SweepError"],
    "expfam": ["MODEL_NAMES", "FamilyModel", "catalog", "in_support", "pdf", "stat_mean",
               "stat_mean_inverse"],
    "fitsearch": ["FitReport", "FitSurface", "Histogram", "KernelComparison", "SweepGrid",
                  "compare_kernels", "fit_histogram", "fit_surface"],
    "ingest": ["CoefficientSet", "GrayImage", "block_dct8", "build_histogram", "dct8",
               "format_histogram_csv", "idct8", "load_histogram_csv", "load_pgm",
               "load_values_csv"],
    "means": ["GEOMETRIC_CUTOFF", "gini_mean", "holder_lehmer_link", "holder_mean",
              "lehmer_mean", "mean_curve", "v_weights"],
    "wmle": ["KERNEL_KINDS", "MleResult", "WeightKernel", "WeightedSeries", "apply_kernel",
             "lse_critical", "lse_objective", "mle_closed_form", "mle_numeric",
             "sufficient_mean", "weighted_loglik"],
}


def test_import_loads_no_numpy_and_leaves_the_environment():
    probe = ("import json, os\nenviron = dict(os.environ)\nimport meanfit\n"
             "print(json.dumps(['numpy' in sys.modules, dict(os.environ) != environ,"
             " meanfit.means.__name__]))")
    assert fresh_python(probe) == [False, False, "meanfit.means"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_an_exported_name_is_its_module_attribute(module, name):
    namespace = {}
    exec(f"from meanfit import {name}", namespace)
    source = getattr(importlib.import_module(f"meanfit.{module}"), name)
    assert getattr(meanfit, name) is source
    assert namespace[name] is source


def test_dir_lists_every_exported_name_and_submodule():
    assert {*EXPORTS, *(n for names in EXPORTS.values() for n in names)} <= set(dir(meanfit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'meanfit' has no attribute 'no_such_name'"):
        meanfit.no_such_name
