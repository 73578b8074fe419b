"""Closed-form acquisition and constraint-handling functions over GP posteriors.

All functions broadcast over numpy arrays, so a whole candidate batch can be
scored in one call; scalar inputs give a numpy ``float64``, a ``float``
subclass.  Wherever a predictive stddev lands in a denominator it is
floored at ``STDDEV_FLOOR`` (exact interpolation gives stddev 0).

The normal CDF uses scipy's ``erfc`` ufunc, loaded from its extension file
(``scipy/special/_special_ufuncs``) so that importing this module does not run
``scipy.special``'s ``__init__``; it is the same object as ``scipy.special.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._compiled import load_extension
from .errors import DimensionMismatchError, _require_counts

erfc = load_extension("scipy.special._special_ufuncs").erfc

STDDEV_FLOOR = 1e-10
# PI/EI improvement jitter, and GP-UCB's LCB schedule constants (Srinivas et al., ICML 2010).
XI = 0.001
NU = 0.5
DELTA = 0.05

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AcqContext:
    """Shared acquisition state: the incumbent value and the LCB schedule's position.

    ``t`` counts outer optimization iterations (1-based) and ``d`` is the
    input dimension; both feed the LCB beta schedule.
    """

    tau: float
    d: int
    t: int = 1

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        _require_counts(self, d=1, t=1)


def std_normal_cdf(z):
    """Standard normal CDF, via erfc for accuracy deep in the tails."""
    z = np.asarray(z, dtype=float)
    return 0.5 * erfc(-z / _SQRT2)


def std_normal_pdf(z):
    """Standard normal density exp(-z^2/2) / sqrt(2 pi)."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z**2) * _INV_SQRT_2PI


def _improvement_margin(mean, stddev, ctx: AcqContext):
    """(tau - XI - mean) / stddev with the stddev floored."""
    s = np.maximum(np.asarray(stddev, dtype=float), STDDEV_FLOOR)
    return (ctx.tau - XI - np.asarray(mean, dtype=float)) / s, s


def pi(mean, stddev, ctx: AcqContext):
    """Probability that a normal posterior beats the incumbent by at least XI."""
    lam, _ = _improvement_margin(mean, stddev, ctx)
    return std_normal_cdf(lam)


def ei(mean, stddev, ctx: AcqContext):
    """Expected improvement stddev * (lam * cdf(lam) + pdf(lam)); never negative.

    At stddev exactly 0 the degenerate limit max(0, tau - XI - mean) is used
    instead of the floored form, so certain non-improvements score exactly 0.
    """
    s_raw = np.asarray(stddev, dtype=float)
    lam, s = _improvement_margin(mean, s_raw, ctx)
    cdf = std_normal_cdf(lam)
    # lam * cdf(lam) tends to 0 where cdf underflows; at lam = -inf the product would be NaN.
    val = s * (np.where(cdf > 0, lam, 0.0) * cdf + std_normal_pdf(lam))
    margin = ctx.tau - XI - np.asarray(mean, dtype=float)
    val = np.where(s_raw > 0, val, np.maximum(margin, 0.0))
    return np.maximum(val, 0.0)


def beta_schedule(ctx: AcqContext) -> float:
    """Confidence-bound coefficient sqrt(2 NU log(t^(d/2+2) pi^2 / (3 DELTA)))."""
    t_term = (0.5 * ctx.d + 2.0) * math.log(ctx.t)
    return math.sqrt(2.0 * NU * (t_term + math.log(math.pi**2 / (3.0 * DELTA))))


def lcb(mean, stddev, beta: float):
    """Optimistic lower confidence bound mean - beta * stddev."""
    return np.asarray(mean, dtype=float) - beta * np.asarray(stddev, dtype=float)


def _as_constraint_arrays(means, stddevs=None):
    mu = np.asarray(means, dtype=float)
    if mu.shape[-1] < 1:
        raise DimensionMismatchError("need at least one constraint")
    if stddevs is None:
        return mu, None
    sigma = np.asarray(stddevs, dtype=float)
    if sigma.shape != mu.shape:
        raise DimensionMismatchError(
            f"constraint means {mu.shape} and stddevs {sigma.shape} differ in shape"
        )
    return mu, np.maximum(sigma, STDDEV_FLOOR)


def pf(constraint_means, constraint_stddevs):
    """Probability of feasibility: product over constraints of cdf(-mu_i / sigma_i).

    Accepts per-point vectors of length n_constraints or batches shaped
    (n, n_constraints); the product is taken over the last axis.
    """
    mu, sigma = _as_constraint_arrays(constraint_means, constraint_stddevs)
    return np.prod(std_normal_cdf(-mu / sigma), axis=-1)


def naive_violation(constraint_means):
    """Total positive predicted constraint mass sum_i max(0, mu_i)."""
    mu, _ = _as_constraint_arrays(constraint_means)
    return np.sum(np.maximum(mu, 0.0), axis=-1)


def adaptive_violation(constraint_means, constraint_stddevs):
    """Confidence-scaled violation sum_i max(0, mu_i / sigma_i).

    High-confidence (small sigma) violations dominate, so effort concentrates
    on constraints the model is sure are broken.
    """
    mu, sigma = _as_constraint_arrays(constraint_means, constraint_stddevs)
    return np.sum(np.maximum(mu / sigma, 0.0), axis=-1)
