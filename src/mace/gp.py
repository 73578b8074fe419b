"""Gaussian process regression with an anisotropic squared-exponential kernel.

Inputs are expected in unit-cube coordinates and targets are standardized
internally (zero mean, unit variance) before fitting; predictions are returned
on the original target scale.  Hyperparameters therefore live on the
standardized scale.

``fit_gp`` maximizes the log evidence with L-BFGS-B through ``minimize``, a
loop over scipy's compiled ``setulb``.  Its results are bit for bit those of
``scipy.optimize.minimize(..., method="L-BFGS-B", jac=True)``, without that
function's per-evaluation wrapping.  Factorizations and solves call scipy's
LAPACK routines (``dpotrf``, ``dpotri``, ``dpotrs``, ``dtrtrs``) directly,
with the checks ``scipy.linalg``'s wrappers make.  ``setulb`` and LAPACK are
loaded from scipy's own extension files (``scipy/optimize/_lbfgsb`` and
``scipy/linalg/_flapack``), so importing this module runs neither
``scipy.optimize``'s nor ``scipy.linalg``'s ``__init__``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._compiled import load_extension
from .errors import DimensionMismatchError, FitFailureError, SingularKernelError, _require_count

# Box bounds for the hyperparameter search, in log space.
_LOG_LENGTHSCALE_BOUNDS = (math.log(1e-2), math.log(10.0))
_LOG_SIGNAL_BOUNDS = (math.log(1e-2), math.log(10.0))
# The noise floor is on the standardized target scale, where the signal
# variance is O(1).  K + sn^2 I then has a condition number near N sf^2 / sn^2:
# about 1e14 at sn = 1e-6, which leaves the evidence and its gradient two
# significant digits and makes L-BFGS-B fail its line searches at the bound.
# A 1e-3 floor keeps the condition number near 1e8 and about eight good digits.
_LOG_NOISE_BOUNDS = (math.log(1e-3), math.log(1.0))

# Jitter ladder: escalate only when the factorization fails outright.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

_LOG_2PI = math.log(2.0 * math.pi)

# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
# (64-bit and 32-bit integer interfaces), then of a plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_restore: list = []  # (set, previous count) per library, while pinned


# Looked up at call time by ``minimize``, so tests can patch it.
setulb = load_extension("scipy.optimize._lbfgsb").setulb
_flapack = load_extension("scipy.linalg._flapack")
dpotrf, dpotri, dpotrs, dtrtrs = _flapack.dpotrf, _flapack.dpotri, _flapack.dpotrs, _flapack.dtrtrs


@dataclass(frozen=True)
class KernelHyperParams:
    """SE kernel hyperparameters: one lengthscale per input dimension."""

    signal_stddev: float
    noise_stddev: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_stddev", float(self.signal_stddev))
        object.__setattr__(self, "noise_stddev", float(self.noise_stddev))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty 1-d array")
        values = np.append(ls, (self.signal_stddev, self.noise_stddev))
        if not np.all((values > 0) & (values < np.inf)):
            raise ValueError("kernel hyperparameters must be strictly positive and finite")

    @property
    def dim(self) -> int:
        return self.lengthscales.size


@dataclass(frozen=True)
class Dataset:
    """Observed design points and the targets a GP is fitted to.

    ``X`` holds N >= 1 points in unit-cube coordinates and ``y`` the N finite
    observations.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or y.ndim != 1:
            raise DimensionMismatchError(
                f"X must be 2-d and y 1-d, got {X.ndim}-d X and {y.ndim}-d y"
            )
        # Written so that a NaN coordinate fails it.
        if not (np.all(X >= -1e-12) and np.all(X <= 1 + 1e-12)):
            raise ValueError("design points must lie in the unit cube")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")
        if y.shape[0] != X.shape[0]:
            raise DimensionMismatchError("y must have one entry per design point")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GpModel:
    """Trained GP with a cached Cholesky factor for cheap posterior queries.

    ``alpha`` solves (K + noise^2 I) alpha = y_standardized and ``chol_lower``
    is the lower-triangular factor of K + noise^2 I (+ any jitter applied).
    ``y_mean``/``y_scale`` are the standardization constants for the targets.
    """

    hyperparams: KernelHyperParams
    X: np.ndarray
    alpha: np.ndarray
    chol_lower: np.ndarray
    y_mean: float
    y_scale: float
    jitter: float = 0.0


def kernel_se(x_i, x_j, hyp: KernelHyperParams) -> float:
    """Squared-exponential covariance between two points.

    k(x, x') = signal^2 * exp(-0.5 * sum_k ((x_k - x'_k) / l_k)^2)
    """
    x_i = np.atleast_1d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_1d(np.asarray(x_j, dtype=float))
    if x_i.shape != x_j.shape or x_i.shape[-1] != hyp.dim:
        raise DimensionMismatchError(
            f"points of dimension {x_i.shape[-1]}/{x_j.shape[-1]} vs {hyp.dim} lengthscales"
        )
    z = (x_i - x_j) / hyp.lengthscales
    return float(hyp.signal_stddev**2 * np.exp(-0.5 * np.dot(z, z)))


def kernel_matrix(X1: np.ndarray, X2: np.ndarray, hyp: KernelHyperParams) -> np.ndarray:
    """Cross-covariance matrix k(X1, X2) under the SE kernel."""
    A, B = np.atleast_2d(X1), np.atleast_2d(X2)
    if A.shape[1] != hyp.dim or B.shape[1] != hyp.dim:
        raise DimensionMismatchError("point dimension does not match lengthscale count")
    A = A / hyp.lengthscales
    B = B / hyp.lengthscales
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return hyp.signal_stddev**2 * np.exp(-0.5 * sq)


def _require_finite(a: np.ndarray):
    """Reject NaN and inf as ``scipy.linalg``'s ``check_finite`` does; LAPACK would not."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _lapack_info(info: int, routine: str):
    """Raise for a negative LAPACK ``info``: an illegal argument, never a numerical failure."""
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument on entry to {routine}")


def _chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A, escalating the diagonal jitter on failure."""
    _require_finite(A)
    for jitter in _JITTERS:
        L, info = dpotrf(A + jitter * np.eye(A.shape[0]), lower=1, clean=1)
        _lapack_info(info, "DPOTRF")
        if info == 0:
            return L, jitter
    raise SingularKernelError(
        f"covariance matrix is not positive definite even with jitter {_JITTERS[-1]:g}"
    )


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded into this process.

    Found once, from the process's memory map; empty where there is none to
    find (not Linux, or another BLAS such as MKL or Accelerate).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then put back the previous counts.

    The matrices a proposal factors are at most a few hundred rows, where a
    second BLAS thread costs more than it saves and makes results depend on
    the thread count.  The count is process-wide, so nested and concurrent
    holders share one pin: the first to enter saves the counts and the last to
    leave restores them.
    """
    global _blas_depth, _blas_restore
    with _blas_lock:
        if _blas_depth == 0:
            _blas_restore = [(set_, get()) for get, set_ in _openblas_thread_controls()]
            for set_, _ in _blas_restore:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, count in _blas_restore:
                    set_(count)


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean = float(np.mean(y))
    scale = float(np.std(y))
    if not scale > 1e-12:
        scale = 1.0
    return (y - mean) / scale, mean, scale


def log_marginal_likelihood(dataset: Dataset, hyp: KernelHyperParams) -> float:
    """GP log evidence of the standardized targets under the given hyperparameters."""
    model = build_gp(dataset, hyp)
    y_std = (dataset.y - model.y_mean) / model.y_scale
    return float(
        -0.5 * y_std @ model.alpha
        - np.sum(np.log(np.diag(model.chol_lower)))
        - 0.5 * dataset.n * _LOG_2PI
    )


def build_gp(dataset: Dataset, hyp: KernelHyperParams) -> GpModel:
    """Construct a model with fixed hyperparameters (no fitting)."""
    y_std, y_mean, y_scale = _standardize(dataset.y)
    K = kernel_matrix(dataset.X, dataset.X, hyp)
    K[np.diag_indices_from(K)] += hyp.noise_stddev**2
    L, jitter = _chol_with_jitter(K)
    # L is finite: _chol_with_jitter took a finite matrix.  A mean that
    # overflows can still leave y_std non-finite.
    _require_finite(y_std)
    alpha, info = dpotrs(L, y_std, lower=1)
    _lapack_info(info, "DPOTRS")
    return GpModel(hyp, dataset.X.copy(), alpha, L, y_mean, y_scale, jitter)


def _neg_lml_and_grad(log_theta: np.ndarray, sqdists: np.ndarray, y_std: np.ndarray):
    """Negative log evidence and gradient w.r.t. log(signal, noise, lengthscales).

    ``sqdists`` has shape (d, N, N) holding per-dimension squared coordinate
    differences; viewed as a (d, N^2) matrix S, the noise-free kernel is
    Kf = sf^2 exp(-0.5 (l^-2 @ S)) and K = Kf + sn^2 I.  With alpha = K^-1 y
    and W = alpha alpha^T - K^-1, the evidence gradient is

        d lml / d log sf  = sum(W * Kf)
        d lml / d log sn  = sn^2 tr(W)
        d lml / d log l_k = 0.5 l_k^-2 (S @ vec(W * Kf))_k

    One Cholesky factor of K gives alpha, log|K| and K^-1.  Returns
    ``(1e25, 0)`` when K is not positive definite.
    """
    n = y_std.shape[0]
    S = sqdists.reshape(sqdists.shape[0], -1)
    sf2 = math.exp(2.0 * log_theta[0])
    sn2 = math.exp(2.0 * log_theta[1])
    inv_l2 = np.exp(-2.0 * log_theta[2:])
    Kf = sf2 * np.exp(-0.5 * (inv_l2 @ S)).reshape(n, n)
    K = Kf.copy()
    K.flat[:: n + 1] += sn2
    # K is symmetric, so its transpose is the Fortran-ordered array LAPACK
    # factors in place without a copy.
    L, info = dpotrf(K.T, lower=1, overwrite_a=1)
    if info != 0:
        return 1e25, np.zeros_like(log_theta)
    alpha = dpotrs(L, y_std, lower=1)[0]
    lml = -0.5 * y_std @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * _LOG_2PI
    # dpotrf zeroed the upper triangle and dpotri keeps it, so this array holds
    # K^-1 on and below the diagonal only.  Weighting that half twice instead
    # of symmetrizing is exact for the lengthscale terms because S is
    # symmetric with a zero diagonal; the signal term adds back the diagonal
    # it double-counts (Kf has sf^2 on its diagonal).
    Kinv_lower = dpotri(L, lower=1, overwrite_c=1)[0]
    tr_inv = np.trace(Kinv_lower)
    M = np.outer(alpha, alpha)
    M -= 2.0 * Kinv_lower
    M *= Kf
    grad = np.empty_like(log_theta)
    grad[0] = M.sum() + sf2 * tr_inv
    grad[1] = sn2 * (alpha @ alpha - tr_inv)
    grad[2:] = 0.5 * inv_l2 * (S @ M.ravel())
    return -lml, -grad


@dataclass(frozen=True)
class MinimizeResult:
    """The end of one ``minimize`` run, named as ``scipy.optimize.OptimizeResult`` names it.

    ``status`` is 0 on convergence, 1 when an iteration or evaluation limit
    stopped the run and 2 on any other stop (e.g. a failed line search).
    """

    fun: float
    x: np.ndarray
    nfev: int
    nit: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def minimize(fun, x0, args, bounds) -> MinimizeResult:
    """Minimize ``fun`` over a finite box with L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).

    ``fun(x, *args)`` returns ``(f, gradient)`` and must not write to ``x``.
    This steps scipy's compiled ``setulb`` exactly as
    ``scipy.optimize.minimize(fun, x0, args, method="L-BFGS-B", jac=True,
    bounds=bounds)`` does with its default options, so ``x``, ``fun``,
    ``nfev``, ``nit`` and ``success`` are bit for bit the same, without the
    per-evaluation wrapping.  Like scipy's memo, a request at the point just
    evaluated reuses that ``(f, gradient)``.
    """
    lo, hi = np.array(bounds, dtype=float).T.copy()
    x = np.asarray(x0, dtype=float).ravel()
    if lo.shape != x.shape:
        raise DimensionMismatchError("bounds need one (low, high) pair per coordinate")
    if np.any(lo > hi):
        raise ValueError("An upper bound is less than the corresponding lower bound.")
    x = np.clip(x, lo, hi)
    n, m = x.size, 10
    nbd = np.full(n, 2, dtype=np.int32)
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    # factr is scipy's default ftol over machine epsilon; pgtol, maxls and the
    # 15000 limits on iterations and evaluations are its defaults too.
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    x_seen, nfev, nit = np.full(n, np.nan), 0, 0  # NaN equals no point
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: wants f and g at x
            if not (x == x_seen).all():
                x_seen = x.copy()
                f, g = fun(x_seen, *args)
                nfev += 1
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= 15000:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > 15000:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > 15000 or nit >= 15000 else 2
    return MinimizeResult(fun=f, x=x, nfev=nfev, nit=nit, status=status)


def fit_gp(dataset: Dataset, restarts: int, seed: int = 0) -> GpModel:
    """Fit hyperparameters by multi-start maximization of the log evidence.

    Deterministic for a fixed seed: the first start is a fixed heuristic and the
    remaining ``restarts - 1`` are drawn log-uniformly inside the search box.
    """
    _require_count("restarts", restarts, 1)
    if dataset.n < 2 or np.unique(dataset.X, axis=0).shape[0] < 2:
        raise ValueError("fitting requires at least two distinct design points")
    d = dataset.dim
    y_std, _, _ = _standardize(dataset.y)
    diffs = dataset.X[:, None, :] - dataset.X[None, :, :]
    sqdists = np.ascontiguousarray(np.moveaxis(diffs**2, -1, 0))

    lo = np.array([_LOG_SIGNAL_BOUNDS[0], _LOG_NOISE_BOUNDS[0]] + [_LOG_LENGTHSCALE_BOUNDS[0]] * d)
    hi = np.array([_LOG_SIGNAL_BOUNDS[1], _LOG_NOISE_BOUNDS[1]] + [_LOG_LENGTHSCALE_BOUNDS[1]] * d)
    bounds = list(zip(lo, hi))

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([[0.0, math.log(0.1)], np.full(d, math.log(0.5))])]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_val, best_theta = np.inf, None
    for x0 in starts:
        res = minimize(_neg_lml_and_grad, x0, args=(sqdists, y_std), bounds=bounds)
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val, best_theta = res.fun, res.x
    if best_theta is None:
        raise FitFailureError("no restart produced a finite log evidence")

    hyp = KernelHyperParams(
        signal_stddev=math.exp(best_theta[0]),
        noise_stddev=math.exp(best_theta[1]),
        lengthscales=np.exp(best_theta[2:]),
    )
    return build_gp(dataset, hyp)


def predict(model: GpModel, x_star) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and stddev at one point (d,) or a batch (n, d).

    mean(x) = k(x, X) (K + noise^2 I)^-1 y and the variance is the prior
    variance minus the explained part, clamped at zero before the square root.
    Both outputs are de-standardized.  Scalars are returned for a single point.
    A row's mean may differ in its last bits with the batch it sits in, since
    one row and many take different BLAS paths through ``kernel_matrix`` and
    ``k_star @ alpha``; the difference stays at the rounding level.
    """
    x = np.asarray(x_star, dtype=float)
    single = x.ndim == 1
    hyp = model.hyperparams
    k_star = kernel_matrix(x, model.X, hyp)
    mean_std = k_star @ model.alpha
    v = k_star.T
    if v.size:  # an empty query batch has nothing to solve
        v, info = dtrtrs(model.chol_lower, v, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        _lapack_info(info, "DTRTRS")
    var_std = hyp.signal_stddev**2 - np.sum(v**2, axis=0)
    np.maximum(var_std, 0.0, out=var_std)
    mean = model.y_mean + model.y_scale * mean_std
    stddev = model.y_scale * np.sqrt(var_std)
    if single:
        return float(mean[0]), float(stddev[0])
    return mean, stddev
