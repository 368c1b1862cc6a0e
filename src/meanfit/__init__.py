"""Weighted central tendencies and weighted-likelihood estimation for
one-parameter exponential families, with a histogram-fitting harness."""

from .errors import (
    DomainError,
    EmptyDataError,
    FormatError,
    NoSolutionError,
    SweepError,
)
from .expfam import (
    MODEL_NAMES,
    FamilyModel,
    catalog,
    in_support,
    pdf,
    stat_mean,
    stat_mean_inverse,
)
from .fitsearch import (
    FitReport,
    FitSurface,
    Histogram,
    KernelComparison,
    SweepGrid,
    beta_mse_profile,
    compare_kernels,
    fit_histogram,
    fit_surface,
    sweep_beta,
    sweep_shape,
)
from .ingest import (
    CoefficientSet,
    GrayImage,
    block_dct8,
    build_histogram,
    dct8,
    format_histogram_csv,
    idct8,
    load_histogram_csv,
    load_pgm,
    load_values_csv,
    save_histogram_csv,
)
from .means import (
    GEOMETRIC_CUTOFF,
    holder_lehmer_link,
    holder_mean,
    kolmogorov_mean,
    lehmer_mean,
    mean_curve,
    v_weights,
)
from .wmle import (
    KERNEL_KINDS,
    MleResult,
    WeightKernel,
    WeightedSeries,
    apply_kernel,
    lse_critical,
    lse_objective,
    mle_closed_form,
    mle_numeric,
    sufficient_mean,
    weighted_loglik,
)

__version__ = "0.1.0"
