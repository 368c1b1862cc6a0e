"""Catalog of one-parameter exponential-family densities on the non-negative reals.

Every model has density ``a(x) * exp(eta(theta) * T(x) - H(theta))`` with a
single free parameter ``theta > 0``: ``T`` is the sufficient-statistic
transform, ``a`` the base measure, ``eta`` the (increasing) natural-parameter
map and ``H`` the log-normalizer.  Shape-like constants (Weibull shape,
gamma order, ...) are fixed, known hyperparameters of the model.

The mean function ``theta -> E_theta[T(x)] = H'(theta) / eta'(theta)`` is
strictly increasing for every catalog entry and admits a closed-form inverse,
which is what makes the weighted maximum-likelihood estimate closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NoSolutionError

__all__ = [
    "MODEL_NAMES",
    "FamilyModel",
    "catalog",
    "in_support",
    "pdf",
    "stat_mean",
    "stat_mean_inverse",
]

MODEL_NAMES = (
    "exponential",
    "weibull",
    "std-lognormal",
    "half-normal",
    "gen-half-normal",
    "gamma",
    "inv-gamma",
    "gen-gamma",
)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FamilyModel:
    """One catalog entry; treat every field as immutable after construction."""

    name: str
    hyper: dict
    suff_stat: Callable                 # T(x), vectorized over x
    base_measure: Callable              # a(x), vectorized over x
    natural_param: Callable             # eta(theta)
    natural_param_deriv: Callable       # eta'(theta)
    log_normalizer: Callable            # H(theta)
    log_normalizer_deriv: Callable      # H'(theta)
    mean_inverse: Callable              # closed-form inverse of E_theta[T]
    mean_deriv: Callable                # d/dtheta of E_theta[T]
    zero_in_support: bool
    theta_domain: tuple = field(default=(0.0, math.inf))

    def __repr__(self):
        hyper = ", ".join(f"{k}={v}" for k, v in self.hyper.items())
        return f"FamilyModel({self.name}{', ' + hyper if hyper else ''})"


def _positive(name: str, key: str, value) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"{name}: hyperparameter {key!r} must be a positive real, got {value!r}")
    return v


def _gamma_norm(name: str, label: str, value: float) -> float:
    try:
        return math.gamma(value)
    except OverflowError:
        raise DomainError(
            f"{name}: {label}={value!r} is too large, Gamma({label}) overflows a double"
        ) from None


def _exponential() -> dict:
    return dict(
        suff_stat=lambda x: -np.asarray(x, dtype=float),
        base_measure=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        natural_param=lambda th: th,
        natural_param_deriv=lambda th: 1.0,
        log_normalizer=lambda th: -np.log(th),
        log_normalizer_deriv=lambda th: -1.0 / th,
        mean_inverse=lambda m: -1.0 / m,
        mean_deriv=lambda th: th ** -2.0,
        zero_in_support=True,
    )


def _weibull(a: float) -> dict:
    return dict(
        suff_stat=lambda x: -np.power(x, a),
        base_measure=lambda x: a * np.power(x, a - 1.0),
        natural_param=lambda th: th ** a,
        natural_param_deriv=lambda th: a * th ** (a - 1.0),
        log_normalizer=lambda th: -a * np.log(th),
        log_normalizer_deriv=lambda th: -a / th,
        mean_inverse=lambda m: (-m) ** (-1.0 / a),
        mean_deriv=lambda th: a * th ** (-a - 1.0),
        zero_in_support=a == 1.0,
    )


def _std_lognormal() -> dict:
    return dict(
        suff_stat=lambda x: -np.log(x) ** 2,
        base_measure=lambda x: _INV_SQRT_2PI / np.asarray(x, dtype=float),
        natural_param=lambda th: 0.5 * th ** 2,
        natural_param_deriv=lambda th: th,
        log_normalizer=lambda th: -np.log(th),
        log_normalizer_deriv=lambda th: -1.0 / th,
        mean_inverse=lambda m: 1.0 / np.sqrt(-m),
        mean_deriv=lambda th: 2.0 * th ** -3.0,
        zero_in_support=False,
    )


def _half_normal() -> dict:
    return dict(
        suff_stat=lambda x: -np.asarray(x, dtype=float) ** 2,
        base_measure=lambda x: np.full_like(np.asarray(x, dtype=float), _SQRT_2_OVER_PI),
        natural_param=lambda th: 0.5 * th ** 2,
        natural_param_deriv=lambda th: th,
        log_normalizer=lambda th: -np.log(th),
        log_normalizer_deriv=lambda th: -1.0 / th,
        mean_inverse=lambda m: 1.0 / np.sqrt(-m),
        mean_deriv=lambda th: 2.0 * th ** -3.0,
        zero_in_support=True,
    )


def _gen_half_normal(a: float) -> dict:
    return dict(
        suff_stat=lambda x: -np.power(x, 2.0 * a),
        base_measure=lambda x: _SQRT_2_OVER_PI * a * np.power(x, a - 1.0),
        natural_param=lambda th: 0.5 * th ** (2.0 * a),
        natural_param_deriv=lambda th: a * th ** (2.0 * a - 1.0),
        log_normalizer=lambda th: -a * np.log(th),
        log_normalizer_deriv=lambda th: -a / th,
        mean_inverse=lambda m: (-m) ** (-0.5 / a),
        mean_deriv=lambda th: 2.0 * a * th ** (-2.0 * a - 1.0),
        zero_in_support=a == 1.0,
    )


def _gamma(k: float) -> dict:
    norm = _gamma_norm("gamma", "k", k)
    return dict(
        suff_stat=lambda x: -np.asarray(x, dtype=float),
        base_measure=lambda x: np.power(x, k - 1.0) / norm,
        natural_param=lambda th: th,
        natural_param_deriv=lambda th: 1.0,
        log_normalizer=lambda th: -k * np.log(th),
        log_normalizer_deriv=lambda th: -k / th,
        mean_inverse=lambda m: -k / m,
        mean_deriv=lambda th: k * th ** -2.0,
        zero_in_support=k == 1.0,
    )


def _inv_gamma(k: float) -> dict:
    norm = _gamma_norm("inv-gamma", "k", k)
    return dict(
        suff_stat=lambda x: -1.0 / np.asarray(x, dtype=float),
        base_measure=lambda x: np.power(x, -k - 1.0) / norm,
        natural_param=lambda th: th,
        natural_param_deriv=lambda th: 1.0,
        log_normalizer=lambda th: -k * np.log(th),
        log_normalizer_deriv=lambda th: -k / th,
        mean_inverse=lambda m: -k / m,
        mean_deriv=lambda th: k * th ** -2.0,
        zero_in_support=False,
    )


def _gen_gamma(a: float, b: float) -> dict:
    norm = _gamma_norm("gen-gamma", "b/alpha", b / a)
    return dict(
        suff_stat=lambda x: -np.power(x, a),
        base_measure=lambda x: a * np.power(x, b - 1.0) / norm,
        natural_param=lambda th: th ** a,
        natural_param_deriv=lambda th: a * th ** (a - 1.0),
        log_normalizer=lambda th: -b * np.log(th),
        log_normalizer_deriv=lambda th: -b / th,
        mean_inverse=lambda m: (b / (a * -m)) ** (1.0 / a),
        mean_deriv=lambda th: b * th ** (-a - 1.0),
        zero_in_support=b == 1.0,
    )


def catalog(name: str, **hyper) -> FamilyModel:
    """Build one of the eight catalog models.

    Required hyperparameters: ``alpha`` for weibull / gen-half-normal,
    ``k`` for gamma / inv-gamma, ``alpha`` and ``b`` for gen-gamma.
    The remaining models take none.
    """
    expected: dict[str, tuple[str, ...]] = {
        "exponential": (),
        "weibull": ("alpha",),
        "std-lognormal": (),
        "half-normal": (),
        "gen-half-normal": ("alpha",),
        "gamma": ("k",),
        "inv-gamma": ("k",),
        "gen-gamma": ("alpha", "b"),
    }
    if name not in expected:
        raise DomainError(f"unknown model {name!r}; choose one of {', '.join(MODEL_NAMES)}")
    keys = expected[name]
    if set(hyper) != set(keys):
        need = ", ".join(keys) if keys else "none"
        raise DomainError(f"{name}: expected hyperparameters ({need}), got {sorted(hyper)}")
    checked = {key: _positive(name, key, hyper[key]) for key in keys}
    builders = {
        "exponential": _exponential,
        "weibull": _weibull,
        "std-lognormal": _std_lognormal,
        "half-normal": _half_normal,
        "gen-half-normal": _gen_half_normal,
        "gamma": _gamma,
        "inv-gamma": _inv_gamma,
        "gen-gamma": _gen_gamma,
    }
    parts = builders[name](*(checked[k] for k in keys))
    return FamilyModel(name=name, hyper=checked, **parts)


def _checked_theta(model: FamilyModel, theta) -> np.float64:
    # A numpy scalar, so that the theta-dependent catalog functions overflow
    # to inf (like their array form) instead of raising OverflowError.
    th = float(theta)
    lo, hi = model.theta_domain
    if not (lo < th < hi) or not math.isfinite(th):
        raise DomainError(f"{model.name}: theta={theta!r} outside the open domain ({lo}, {hi})")
    return np.float64(th)


def in_support(model: FamilyModel, x) -> np.ndarray:
    """Boolean mask of values inside the model's support."""
    xs = np.asarray(x, dtype=float)
    ok = np.isfinite(xs) & (xs > 0.0)
    if model.zero_in_support:
        ok |= xs == 0.0
    return ok


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
    out = model.base_measure(xs) * np.exp(
        model.natural_param(th) * model.suff_stat(xs) - model.log_normalizer(th)
    )
    return float(out) if out.ndim == 0 else out


def stat_mean(model: FamilyModel, theta) -> float:
    """Expected sufficient statistic ``E_theta[T(x)] = H'(theta)/eta'(theta)``."""
    th = _checked_theta(model, theta)
    return float(model.log_normalizer_deriv(th) / model.natural_param_deriv(th))


def stat_mean_inverse(model: FamilyModel, m) -> float:
    """The unique ``theta`` with ``E_theta[T(x)] = m``.

    Every catalog model maps its theta domain onto the negative half-line,
    so ``m`` must be finite and strictly negative; a ``theta`` that overflows
    or underflows the open domain raises ``DomainError``.
    """
    mv = float(m)
    if not math.isfinite(mv) or mv >= 0.0:
        raise NoSolutionError(
            f"{model.name}: mean statistic {m!r} outside the attainable range (negative reals)"
        )
    with np.errstate(all="ignore"):
        theta = float(model.mean_inverse(np.float64(mv)))
    return float(_checked_theta(model, theta))
