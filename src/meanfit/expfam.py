"""Catalog of one-parameter exponential-family densities on the non-negative reals.

Every model has density ``a(x) exp(eta(theta) T(x) - H(theta))`` with one
free parameter ``theta > 0``, and every catalog entry is one spec of six
constants ``(p, q, s, h, d, c0)``: ``T(x) = -x^p`` (``-(ln x)^2`` for
std-lognormal, where ``p`` is None), ``ln a(x) = c0 + (d - 1) ln x``,
``eta = s theta^q`` and ``H = -h ln theta``.  The mean function
``r(theta) = E_theta[T] = -h / (s q theta^q)`` increases strictly, and its
closed-form inverse ``(-h / (s q m))^(1/q)`` makes the weighted MLE
closed-form.  Shape constants are fixed, known hyperparameters.
``shape_columns`` gives one model at a whole grid of shapes, its constants
``(rows, 1)`` columns, so that a sweep computes them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoSolutionError

__all__ = ["HYPERPARAMETERS", "MODEL_NAMES", "FamilyModel", "catalog",
           "in_support", "pdf", "shape_columns", "stat_mean", "stat_mean_inverse"]

# Model name -> the names of its hyperparameters, in ``catalog`` order.
HYPERPARAMETERS = {"exponential": (), "weibull": ("alpha",), "std-lognormal": (),
                   "half-normal": (), "gen-half-normal": ("alpha",), "gamma": ("k",),
                   "inv-gamma": ("k",), "gen-gamma": ("alpha", "b")}
MODEL_NAMES = tuple(HYPERPARAMETERS)
# The six constants of a FamilyModel, in ``catalog`` order.
_CONSTANTS = ("p", "q", "s", "h", "d", "c0")


@dataclass(frozen=True)
class FamilyModel:
    """One catalog entry.  The methods evaluate ``T``, ``eta``, ``H``, ``r^-1``,
    ``r'`` and the log-density from the six constants, elementwise over ``x``
    and ``theta``; they check neither the theta domain nor the support.  The
    constants are floats, or ``(rows, 1)`` columns in a ``shape_columns``
    model, whose methods broadcast one row per shape."""

    name: str
    hyper: dict
    p: float | None
    q: float
    s: float
    h: float
    d: float
    c0: float
    theta_domain: tuple = (0.0, math.inf)

    @property
    def zero_in_support(self):
        """Whether the density is finite and positive at ``x = 0``, per row of columns."""
        return self.p is not None and (self.d == 1.0) & (self.p > 0.0)

    def suff_stat(self, x):
        xs = np.asarray(x, dtype=float)
        return -(np.log(xs) ** 2 if self.p is None else _power(xs, self.p))

    def natural_param(self, theta):
        return self.s * _power(theta, self.q)

    def log_normalizer(self, theta):
        return -self.h * np.log(theta)

    def log_base(self, x):
        """``ln a(x)``; ``c0`` where d == 1, so that x = 0 stays finite."""
        if not isinstance(self.d, np.ndarray):   # one model: no ln x to take where d == 1
            return self.c0 if self.d == 1.0 else self.c0 + (self.d - 1.0) * np.log(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.d == 1.0, self.c0, self.c0 + (self.d - 1.0) * np.log(x))

    def log_pdf(self, theta, x):
        """``ln a(x) + eta(theta) T(x) - H(theta)``, broadcast over theta and x."""
        xs = np.asarray(x, dtype=float)
        return self.log_base(xs) + self.natural_param(theta) * self.suff_stat(xs) \
            - self.log_normalizer(theta)

    def mean_inverse(self, m):
        """``r^-1(m) = (-h / (s q m))^(1/q)``, the theta with ``E_theta[T] = m``."""
        return _power(-self.h / (self.s * self.q * m), 1.0 / self.q)

    def mean_deriv(self, theta):
        """``r'(theta) = (h / s) theta^(-q-1)``."""
        return self.h / self.s * _power(theta, -self.q - 1.0)

    def rows(self, index) -> FamilyModel:
        """The rows ``index`` of a ``shape_columns`` model, as one such model."""
        return replace(self, **{key: value[index] for key in _CONSTANTS
                                if (value := getattr(self, key)) is not None})


def _power(base, exponent):
    """``base ** exponent``, one numpy call per row for a column of exponents.

    numpy takes a fast path for a scalar exponent of 2, 0.5 or -1, which
    rounds otherwise than an array exponent; with a Python float exponent
    per row, a ``shape_columns`` row keeps the digits of its catalog model.
    """
    if not isinstance(exponent, np.ndarray):
        return np.power(base, exponent)
    out = np.empty(np.broadcast(base, exponent).shape)
    out[...] = base
    for row, e in zip(out, exponent.ravel().tolist()):
        np.power(row, e, out=row)
    return out


def _ln_gamma(name: str, label: str, value: float) -> float:
    if value == 0.0:
        raise DomainError(f"{name}: {label} underflows to 0, the pole of ln Gamma")
    try:
        if value < math.inf:
            return math.lgamma(value)
    except OverflowError:
        pass
    raise DomainError(f"{name}: {label}={value!r} is too large, ln Gamma({label}) overflows")


def _constants(name: str, alpha: float = 1.0, k: float = 1.0, b: float = 1.0) -> tuple:
    """``(p, q, s, h, d, c0)`` of one model."""
    a, ln_half_normal = alpha, 0.5 * math.log(2.0 / math.pi)
    match name:
        case "exponential": return 1.0, 1.0, 1.0, 1.0, 1.0, 0.0
        case "weibull": return a, a, 1.0, a, a, math.log(a)
        case "std-lognormal": return None, 2.0, 0.5, 1.0, 0.0, -0.5 * math.log(2.0 * math.pi)
        case "half-normal": return 2.0, 2.0, 0.5, 1.0, 1.0, ln_half_normal
        case "gen-half-normal": return 2.0 * a, 2.0 * a, 0.5, a, a, ln_half_normal + math.log(a)
        case "gamma": return 1.0, 1.0, 1.0, k, k, -_ln_gamma(name, "k", k)
        case "inv-gamma": return -1.0, 1.0, 1.0, k, -k, -_ln_gamma(name, "k", k)
        case "gen-gamma": return a, a, 1.0, b, b, math.log(a) - _ln_gamma(name, "b/alpha", b / a)


def catalog(name: str, **hyper) -> FamilyModel:
    """Build one of the eight catalog models from its ``HYPERPARAMETERS``,
    each a positive real; a non-finite family constant raises ``DomainError``."""
    if name not in HYPERPARAMETERS:
        raise DomainError(f"unknown model {name!r}; choose one of {', '.join(MODEL_NAMES)}")
    keys = HYPERPARAMETERS[name]
    if set(hyper) != set(keys):
        need = ", ".join(keys) if keys else "none"
        raise DomainError(f"{name}: expected hyperparameters ({need}), got {sorted(hyper)}")
    checked = {key: float(hyper[key]) for key in keys}
    return FamilyModel(name, checked, *_checked_constants(name, checked))


def _checked_constants(name: str, hyper: dict) -> tuple:
    """``_constants`` at the float hyperparameters ``hyper``; one that is not
    a positive real, or a non-finite constant, raises ``DomainError``."""
    for key, value in hyper.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name}: {key} must be a positive real, got {value!r}")
    constants = _constants(name, **hyper)
    if not all(math.isfinite(c) for c in constants if c is not None):
        raise DomainError(f"{name}: hyperparameters {hyper} give a non-finite family constant")
    return constants


def shape_columns(model: FamilyModel, alphas=None) -> tuple[FamilyModel, dict]:
    """``model`` at every shape of ``alphas`` as one ``FamilyModel`` whose six
    constants are ``(rows, 1)`` columns (``p`` stays None for std-lognormal),
    and the ``DomainError`` of each shape that ``catalog`` rejects, by row.

    Without ``alphas`` the one row is ``model``.  Otherwise ``model`` must
    have the ``alpha`` hyperparameter, and the others stay fixed: row ``i``
    holds the constants of ``catalog(model.name, alpha=alphas[i], ...)``,
    by the same code, or NaN where that raises.
    """
    table, rejected = [[getattr(model, key) for key in _CONSTANTS]], {}
    if alphas is not None:
        table = []
        for i, alpha in enumerate(np.ravel(alphas).tolist()):
            try:
                table.append(_checked_constants(model.name, {**model.hyper, "alpha": alpha}))
            except DomainError as exc:
                table.append((math.nan,) * len(_CONSTANTS))
                rejected[i] = exc
    columns = np.array(table, dtype=float).T[..., None]
    return replace(model, **{key: column for key, column in zip(_CONSTANTS, columns)
                             if getattr(model, key) is not None}), rejected


def _checked_theta(model: FamilyModel, theta) -> np.float64:
    # A numpy scalar overflows to inf like an array instead of raising.
    th = float(theta)
    lo, hi = model.theta_domain
    if not (lo < th < hi) or not math.isfinite(th):
        raise DomainError(f"{model.name}: theta={theta!r} outside the open domain ({lo}, {hi})")
    return np.float64(th)


def in_support(model: FamilyModel, x) -> np.ndarray:
    """Boolean mask of values inside the model's support."""
    xs = np.asarray(x, dtype=float)
    return ((xs > 0.0) & (xs < np.inf)) | ((xs == 0.0) & model.zero_in_support)


def _check_support(model: FamilyModel, xs: np.ndarray) -> None:
    ok = in_support(model, xs)
    if not np.all(ok):
        bad = np.asarray(xs, dtype=float)[~ok]
        raise DomainError(f"{model.name}: value {bad.flat[0]!r} outside the support")


def pdf(model: FamilyModel, theta, x):
    """Density ``a(x) exp(eta(theta) T(x) - H(theta))``; scalar in, scalar out."""
    th = _checked_theta(model, theta)
    xs = np.asarray(x, dtype=float)
    _check_support(model, xs)
    out = np.exp(model.log_pdf(th, xs))
    return float(out) if out.ndim == 0 else out


def stat_mean(model: FamilyModel, theta) -> float:
    """Expected sufficient statistic ``E_theta[T(x)] = -h / (s q theta^q)``."""
    th = _checked_theta(model, theta)
    return float(-model.h / (model.s * model.q * np.power(th, model.q)))


def stat_mean_inverse(model: FamilyModel, m) -> float:
    """The unique ``theta`` with ``E_theta[T(x)] = m``; ``m`` must be finite and
    negative, and a ``theta`` outside the open domain raises ``DomainError``."""
    mv = float(m)
    if not math.isfinite(mv) or mv >= 0.0:
        raise NoSolutionError(
            f"{model.name}: mean statistic {m!r} outside the attainable range (negative reals)"
        )
    with np.errstate(all="ignore"):
        theta = float(model.mean_inverse(np.float64(mv)))
    return float(_checked_theta(model, theta))
