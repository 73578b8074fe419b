"""GP regression tests against dense-inverse oracles and hand-derived values."""

import importlib
import importlib.machinery
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import qmc

from mace import acquisition, gp
from mace._compiled import load_extension
from mace.errors import DimensionMismatchError, SingularKernelError
from mace.gp import (
    _LOG_LENGTHSCALE_BOUNDS,
    _LOG_NOISE_BOUNDS,
    _LOG_SIGNAL_BOUNDS,
    Dataset,
    GpModel,
    KernelHyperParams,
    _chol_with_jitter,
    _neg_lml_and_grad,
    _standardize,
    build_gp,
    fit_gp,
    kernel_matrix,
    kernel_se,
    log_marginal_likelihood,
    predict,
)
from mace.problems import builtin


def random_dataset(rng, n, d, noise=0.05):
    X = rng.random((n, d))
    y = np.sin(3 * X.sum(axis=1)) + noise * rng.standard_normal(n)
    return Dataset(X, y)


def dense_predict_oracle(dataset, hyp, X_star):
    """Textbook posterior via an explicit dense inverse, standardized identically."""
    y = dataset.y
    mean = y.mean()
    scale = y.std()
    if not scale > 1e-12:
        scale = 1.0
    y_std = (y - mean) / scale

    def k(a, b):
        z = (a - b) / hyp.lengthscales
        return hyp.signal_stddev**2 * math.exp(-0.5 * float(np.dot(z, z)))

    n = dataset.n
    K = np.array([[k(dataset.X[i], dataset.X[j]) for j in range(n)] for i in range(n)])
    K_inv = np.linalg.inv(K + hyp.noise_stddev**2 * np.eye(n))
    means, stds = [], []
    for xs in np.atleast_2d(X_star):
        ks = np.array([k(xs, dataset.X[i]) for i in range(n)])
        mu = ks @ K_inv @ y_std
        var = k(xs, xs) - ks @ K_inv @ ks
        means.append(mean + scale * mu)
        stds.append(scale * math.sqrt(max(var, 0.0)))
    return np.array(means), np.array(stds)


def dense_lml_oracle(dataset, hyp):
    y = dataset.y
    scale = y.std() if y.std() > 1e-12 else 1.0
    y_std = (y - y.mean()) / scale
    n = dataset.n
    K = np.array(
        [[kernel_se(dataset.X[i], dataset.X[j], hyp) for j in range(n)] for i in range(n)]
    ) + hyp.noise_stddev**2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * y_std @ np.linalg.inv(K) @ y_std - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_points_outside_the_unit_cube_rejected(self, bad):
        with pytest.raises(ValueError, match="unit cube"):
            Dataset(np.array([[bad, 0.5], [0.2, 0.3], [0.7, 0.1]]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.1, 0.5], [0.2, 0.3], [0.7, 0.1]]), np.array([bad, 2.0, 3.0]))

    @pytest.mark.parametrize("X, y", [
        (np.full((3, 2, 2), 0.5), np.array([1.0, 2.0, 3.0])),
        (np.full((5, 2), 0.5), np.ones((5, 2))),
        (np.full((3, 2), 0.5), np.ones(2)),
    ], ids=["3d_X", "2d_y", "short_y"])
    def test_x_must_be_2d_and_y_1d(self, X, y):
        with pytest.raises(DimensionMismatchError):
            Dataset(X, y)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            Dataset(np.empty((0, 2)), [])


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        hyp = KernelHyperParams(2.0, 0.1, np.ones(3))
        x = np.array([0.3, 0.4, 0.5])
        assert kernel_se(x, x, hyp) == pytest.approx(4.0)

    def test_direct_substitution(self):
        # squared scaled distance of 2 -> exp(-1)
        hyp = KernelHyperParams(1.0, 0.1, np.ones(2))
        val = kernel_se(np.array([0.0, 0.0]), np.array([1.0, 1.0]), hyp)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_long_distance_underflows_monotonically(self):
        hyp = KernelHyperParams(1.0, 0.1, np.array([1.0]))
        vals = [kernel_se(np.array([0.0]), np.array([r]), hyp) for r in (1, 5, 10, 20, 50, 100)]
        assert vals[-1] < 1e-300
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(a > b for a, b in zip(vals, vals[1:]) if a > 0)

    def test_dimension_mismatch(self):
        hyp = KernelHyperParams(1.0, 0.1, np.ones(2))
        with pytest.raises(DimensionMismatchError):
            kernel_se(np.zeros(3), np.zeros(3), hyp)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_kernel_matrix_checks_columns_before_broadcasting(self, cols):
        # One column would broadcast against two lengthscales into a kernel.
        hyp = KernelHyperParams(1.0, 0.1, np.ones(2))
        X = np.full((2, cols), 0.3)
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(X, X, hyp)
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(np.full((2, 2), 0.3), X, hyp)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, key):
        rng = np.random.default_rng(key)
        d = int(rng.integers(1, 6))
        hyp = KernelHyperParams(rng.uniform(0.1, 3), rng.uniform(0.01, 1), rng.uniform(0.05, 2, d))
        a, b = rng.random(d), rng.random(d)
        assert kernel_se(a, b, hyp) == kernel_se(b, a, hyp)

    def test_lengthscales_must_be_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            KernelHyperParams(1.0, 0.1, np.ones((2, 2)))

    def test_hyperparams_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelHyperParams(0.0, 0.1, np.ones(2))
        with pytest.raises(ValueError):
            KernelHyperParams(1.0, 0.1, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("slot", ["signal", "noise", "lengthscale"])
    def test_hyperparams_must_be_finite(self, slot, bad):
        values = {"signal": 1.0, "noise": 0.1, "lengthscale": 0.5}
        values[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            KernelHyperParams(values["signal"], values["noise"], [values["lengthscale"], 0.5])


class TestLogMarginalLikelihood:
    def test_single_point_hand_value(self):
        # One observation, k(x,x)=1, noise variance 1; the standardized target is 0,
        # so only the determinant and constant terms remain.
        ds = Dataset(np.array([[0.5]]), np.array([3.7]))
        hyp = KernelHyperParams(1.0, 1.0, np.array([1.0]))
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert log_marginal_likelihood(ds, hyp) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(-1.2655, abs=1e-4)

    def test_better_reconstruction_scores_higher(self):
        rng = np.random.default_rng(7)
        X = rng.random((12, 1))
        y = 2.0 * X[:, 0] + 1.0  # noiseless linear toy
        ds = Dataset(X, y)
        good = KernelHyperParams(1.0, 1e-3, np.array([1.0]))
        bad = KernelHyperParams(1.0, 1.0, np.array([1.0]))
        assert log_marginal_likelihood(ds, good) > log_marginal_likelihood(ds, bad)
        for hyp in (good, bad):
            assert log_marginal_likelihood(ds, hyp) == pytest.approx(
                dense_lml_oracle(ds, hyp), rel=1e-8
            )

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 8, 2)
        hyp = KernelHyperParams(1.3, 0.2, np.array([0.4, 0.7]))
        assert log_marginal_likelihood(ds, hyp) == pytest.approx(
            dense_lml_oracle(ds, hyp), rel=1e-8
        )


def sqdists_of(X):
    """Per-dimension squared differences, shaped (d, N, N) as ``fit_gp`` builds them."""
    return np.ascontiguousarray(np.moveaxis((X[:, None, :] - X[None, :, :]) ** 2, -1, 0))


class TestEvidenceGradient:
    # Lengthscales keep K well conditioned even at the smallest noise, so
    # finite differences resolve the gradient; the bound is on the norm-wise
    # relative error with a central step of 1e-5 in log space.  The noises are
    # a moderate one, one just above the search floor, and one three decades
    # below that floor, which fixed hyperparameters can still ask for.
    CASES = [(5, 1, 0.1), (40, 2, 0.1), (60, 10, 1.0)]
    NOISES = [math.log(0.1), _LOG_NOISE_BOUNDS[0] + 0.1, math.log(1e-6) + 0.1]

    @staticmethod
    def problem(n, d, ls_scale, log_noise):
        rng = np.random.default_rng(100 * n + d)
        ds = random_dataset(rng, n, d)
        lengthscales = ls_scale * rng.uniform(0.7, 1.4, d)
        log_theta = np.concatenate([[math.log(1.2), log_noise], np.log(lengthscales)])
        return ds, log_theta

    @pytest.mark.parametrize("log_noise", NOISES)
    @pytest.mark.parametrize("n,d,ls_scale", CASES)
    def test_matches_central_differences(self, n, d, ls_scale, log_noise):
        ds, log_theta = self.problem(n, d, ls_scale, log_noise)
        y_std, _, _ = _standardize(ds.y)
        sqdists = sqdists_of(ds.X)
        _, grad = _neg_lml_and_grad(log_theta, sqdists, y_std)
        h = 1e-5
        fd = np.array([
            (_neg_lml_and_grad(log_theta + h * e, sqdists, y_std)[0]
             - _neg_lml_and_grad(log_theta - h * e, sqdists, y_std)[0]) / (2 * h)
            for e in np.eye(log_theta.size)
        ])
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("log_noise", NOISES)
    @pytest.mark.parametrize("n,d,ls_scale", CASES)
    def test_value_is_negative_log_evidence(self, n, d, ls_scale, log_noise):
        ds, log_theta = self.problem(n, d, ls_scale, log_noise)
        y_std, _, _ = _standardize(ds.y)
        value, _ = _neg_lml_and_grad(log_theta, sqdists_of(ds.X), y_std)
        theta = np.exp(log_theta)
        lml = log_marginal_likelihood(ds, KernelHyperParams(theta[0], theta[1], theta[2:]))
        assert value == pytest.approx(-lml, rel=1e-10)

    def test_non_positive_definite_kernel_is_rejected(self):
        # Negative "squared distances" push off-diagonal covariances above the
        # signal variance, which no positive definite matrix has.
        sqdists = -np.ones((1, 3, 3))
        sqdists[0][np.diag_indices(3)] = 0.0
        log_theta = np.array([0.0, _LOG_NOISE_BOUNDS[0], 0.0])
        value, grad = _neg_lml_and_grad(log_theta, sqdists, np.array([1.0, 0.0, -1.0]))
        assert value == 1e25
        assert np.array_equal(grad, np.zeros(3))


class TestFit:
    def test_noiseless_sine_fits_low_noise(self):
        x = np.linspace(0, 1, 20)[:, None]
        y = np.sin(2 * np.pi * x[:, 0])
        ds = Dataset(x, y)
        model = fit_gp(ds, restarts=10, seed=0)
        noise_destd = model.hyperparams.noise_stddev * model.y_scale
        assert noise_destd <= 0.05

    def test_white_noise_is_noise_dominant(self):
        rng = np.random.default_rng(42)
        X = rng.random((20, 2))
        y = rng.standard_normal(20)
        ds = Dataset(X, y)
        model = fit_gp(ds, restarts=10, seed=0)
        sf2 = model.hyperparams.signal_stddev**2
        sn2 = model.hyperparams.noise_stddev**2
        assert sn2 / (sf2 + sn2) >= 0.5

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 15, 3)
        a = fit_gp(ds, restarts=5, seed=99)
        b = fit_gp(ds, restarts=5, seed=99)
        assert a.hyperparams.signal_stddev == b.hyperparams.signal_stddev
        assert a.hyperparams.noise_stddev == b.hyperparams.noise_stddev
        assert np.array_equal(a.hyperparams.lengthscales, b.hyperparams.lengthscales)

    def test_requires_two_distinct_points(self):
        X = np.array([[0.5, 0.5], [0.5, 0.5]])
        ds = Dataset(X, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fit_gp(ds, restarts=2, seed=0)

    @pytest.mark.parametrize("restarts", [0, -3, True, 2.0])
    def test_requires_a_restart(self, restarts):
        ds = random_dataset(np.random.default_rng(4), 10, 2)
        with pytest.raises(ValueError, match="^restarts must be "):
            fit_gp(ds, restarts=restarts, seed=0)

    def test_restarts_converge_on_noiseless_branin(self, monkeypatch):
        # Noiseless data drives the fitted noise to its floor.  With a floor
        # that leaves K + sn^2 I ill conditioned, the evidence is too imprecise
        # for the line search and most restarts end in failure there.
        outcomes = []

        driver = gp.minimize

        def counted(*args, **kwargs):
            res = driver(*args, **kwargs)
            outcomes.append(bool(res.success))
            return res

        monkeypatch.setattr("mace.gp.minimize", counted)
        problem = builtin("branin")
        for n in (40, 80, 120):
            for s in range(4):
                X = qmc.LatinHypercube(d=2, seed=s).random(n)
                y = np.array([problem.objective(problem.denormalize(x)) for x in X])
                fit_gp(Dataset(X, y), restarts=5, seed=s)
        assert len(outcomes) == 60
        assert outcomes.count(False) <= 2


class TestWarmFit:
    """A refit from ``previous``, and the one-start rule from six inputs up.

    Below six inputs a refit starts from the heuristic, ``previous`` and the
    first random draw: at most three starts.  From six inputs up a first fit
    and a refit each start from the heuristic only, and a refit keeps
    ``previous`` when its evidence is higher.
    """

    @pytest.fixture
    def starts(self, monkeypatch):
        """The ``x0`` of every ``minimize`` call, in call order."""
        recorded = []
        driver = gp.minimize

        def recording(fun, x0, args, bounds):
            recorded.append(np.array(x0, dtype=float))
            return driver(fun, x0, args, bounds)

        monkeypatch.setattr("mace.gp.minimize", recording)
        return recorded

    @staticmethod
    def grown_data(dim=3):
        """Twelve points, then the same twelve and three more, as one iteration adds a batch."""
        full = random_dataset(np.random.default_rng(21), 15, dim)
        return Dataset(full.X[:12], full.y[:12]), full

    @staticmethod
    def cold_and_warm_starts(starts, dim, restarts):
        """The starts of a cold fit (5 restarts) and of a refit from ``previous``, and ``log(previous)``."""
        first, grown = TestWarmFit.grown_data(dim)
        previous = fit_gp(first, restarts=5, seed=3).hyperparams
        starts.clear()
        fit_gp(grown, restarts=5, seed=4)
        cold = list(starts)
        starts.clear()
        fit_gp(grown, restarts=restarts, seed=4, previous=previous)
        log_previous = np.log([previous.signal_stddev, previous.noise_stddev, *previous.lengthscales])
        return cold, list(starts), log_previous

    @pytest.mark.parametrize("restarts, expected", [(5, 3), (2, 3), (1, 2)])
    def test_at_most_three_starts(self, starts, restarts, expected):
        _, warm, _ = self.cold_and_warm_starts(starts, 3, restarts)
        assert len(warm) == expected

    def test_starts_are_heuristic_previous_then_first_draw(self, starts):
        cold, warm, log_previous = self.cold_and_warm_starts(starts, 3, 5)
        assert len(cold) == 5
        assert [x.tobytes() for x in warm] == [cold[0].tobytes(), log_previous.tobytes(), cold[1].tobytes()]

    def test_five_inputs_keep_the_first_draw(self, starts):
        cold, warm, log_previous = self.cold_and_warm_starts(starts, 5, 5)
        assert [x.tobytes() for x in warm] == [cold[0].tobytes(), log_previous.tobytes(), cold[1].tobytes()]

    @pytest.mark.parametrize("restarts", [5, 2, 1])
    def test_six_inputs_run_one_start_from_the_heuristic(self, starts, restarts):
        first, grown = self.grown_data(6)
        heuristic = np.concatenate([[0.0, math.log(0.1)], np.full(6, math.log(0.5))]).tobytes()
        previous = fit_gp(first, restarts=restarts, seed=3).hyperparams
        assert [x.tobytes() for x in starts] == [heuristic]
        starts.clear()
        fit_gp(grown, restarts=restarts, seed=4, previous=previous)
        assert [x.tobytes() for x in starts] == [heuristic]

    def test_six_inputs_keep_previous_when_its_evidence_is_higher(self, monkeypatch):
        _, grown = self.grown_data(6)
        previous = fit_gp(grown, restarts=5, seed=3).hyperparams

        def unmoved(fun, x0, args, bounds):
            x = np.array(x0, dtype=float)
            return gp.MinimizeResult(fun=fun(x, *args)[0], x=x, nfev=1, nit=0, status=0)

        monkeypatch.setattr("mace.gp.minimize", unmoved)
        model = fit_gp(grown, restarts=5, seed=4, previous=previous)
        hyp = model.hyperparams
        assert (hyp.signal_stddev, hyp.noise_stddev) == (previous.signal_stddev, previous.noise_stddev)
        assert hyp.lengthscales.tobytes() == previous.lengthscales.tobytes()
        assert log_marginal_likelihood(grown, hyp) == log_marginal_likelihood(grown, previous)

    @pytest.mark.parametrize("restarts", [1, 5])
    @pytest.mark.parametrize("dim, far_off", [(3, False), (3, True), (6, False), (6, True)],
                             ids=["fitted-to-fewer-points", "far-off",
                                  "six-inputs-fitted-to-fewer-points", "six-inputs-far-off"])
    def test_evidence_at_least_that_at_previous(self, restarts, dim, far_off):
        first, grown = self.grown_data(dim)
        if far_off:
            previous = KernelHyperParams(3.0, 0.5, np.resize([5.0, 0.02, 2.0], dim))
        else:
            previous = fit_gp(first, restarts=5, seed=3).hyperparams
        model = fit_gp(grown, restarts=restarts, seed=4, previous=previous)
        assert log_marginal_likelihood(grown, model.hyperparams) >= log_marginal_likelihood(grown, previous)

    def test_previous_of_another_dimension_raises(self):
        _, grown = self.grown_data()
        with pytest.raises(DimensionMismatchError):
            fit_gp(grown, restarts=5, seed=4, previous=KernelHyperParams(1.0, 0.1, [0.5, 0.5]))


class TestMinimize:
    """The fit's L-BFGS-B driver against ``scipy.optimize.minimize`` on the evidence."""

    @staticmethod
    def box(d):
        lo = [_LOG_SIGNAL_BOUNDS[0], _LOG_NOISE_BOUNDS[0]] + [_LOG_LENGTHSCALE_BOUNDS[0]] * d
        hi = [_LOG_SIGNAL_BOUNDS[1], _LOG_NOISE_BOUNDS[1]] + [_LOG_LENGTHSCALE_BOUNDS[1]] * d
        return np.array(lo), np.array(hi)

    @staticmethod
    def assert_matches_scipy(x0, sqdists, y_std, bounds):
        ours = gp.minimize(_neg_lml_and_grad, x0, args=(sqdists, y_std), bounds=bounds)
        ref = minimize(_neg_lml_and_grad, x0, args=(sqdists, y_std), jac=True, method="L-BFGS-B",
                       bounds=bounds)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert (ours.fun, ours.nfev, ours.nit, ours.success) == (ref.fun, ref.nfev, ref.nit, ref.success)
        return ours

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_matches_scipy(self, d):
        rng = np.random.default_rng(d)
        ds = random_dataset(rng, 30, d)
        y_std, _, _ = _standardize(ds.y)
        lo, hi = self.box(d)
        starts = [np.concatenate([[0.0, math.log(0.1)], np.full(d, math.log(0.5))])]
        starts += [rng.uniform(lo, hi) for _ in range(3)]
        for x0 in starts:
            self.assert_matches_scipy(x0, sqdists_of(ds.X), y_std, list(zip(lo, hi)))

    def test_start_on_a_bound(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 25, 3)
        y_std, _, _ = _standardize(ds.y)
        lo, hi = self.box(3)
        for x0 in (lo, hi, np.where(np.arange(5) % 2, lo, hi)):
            self.assert_matches_scipy(x0, sqdists_of(ds.X), y_std, list(zip(lo, hi)))

    def test_constant_target(self):
        X = np.random.default_rng(12).random((20, 2))
        y_std, _, _ = _standardize(np.full(20, 3.0))
        lo, hi = self.box(2)
        self.assert_matches_scipy(np.zeros(4), sqdists_of(X), y_std, list(zip(lo, hi)))

    def test_start_where_the_kernel_is_not_positive_definite(self):
        # The kernel of TestEvidenceGradient's rejection case: the evidence is
        # 1e25 with a zero gradient, so the first point is also the last.
        sqdists = -np.ones((1, 3, 3))
        sqdists[0][np.diag_indices(3)] = 0.0
        lo, hi = self.box(1)
        x0 = np.array([0.0, _LOG_NOISE_BOUNDS[0], 0.0])
        res = self.assert_matches_scipy(x0, sqdists, np.array([1.0, 0.0, -1.0]), list(zip(lo, hi)))
        assert (res.fun, res.nfev) == (1e25, 1)

    def test_bounds_must_match_the_start(self):
        sqdists, y_std = sqdists_of(np.array([[0.1], [0.6]])), np.array([1.0, -1.0])
        lo, hi = self.box(1)
        for x0, bounds in ((np.zeros(2), list(zip(lo, hi))), (np.zeros(3), [(lo[0], hi[0])])):
            with pytest.raises(DimensionMismatchError):
                gp.minimize(_neg_lml_and_grad, x0, args=(sqdists, y_std), bounds=bounds)

    def test_reversed_bounds_rejected(self):
        sqdists, y_std = sqdists_of(np.array([[0.1], [0.6]])), np.array([1.0, -1.0])
        lo, hi = self.box(1)
        bounds = list(zip(lo, hi))
        bounds[1] = bounds[1][::-1]
        for driver in (gp.minimize, lambda *a, **k: minimize(*a, **k, jac=True, method="L-BFGS-B")):
            with pytest.raises(ValueError, match="upper bound is less than the corresponding lower"):
                driver(_neg_lml_and_grad, np.zeros(3), args=(sqdists, y_std), bounds=bounds)

    def test_request_at_the_last_point_reuses_its_evaluation(self, monkeypatch):
        # Noiseless data drives the noise to its floor, where setulb asks more
        # than once for f and g at the point it was just given.
        rng = np.random.default_rng(1)
        X = rng.random((40, 2))
        y_std, _, _ = _standardize((X**2).sum(axis=1))
        lo, hi = self.box(2)
        x0 = rng.uniform(lo, hi)
        requests, evaluated = [], []
        setulb = gp.setulb

        def spy(*args):
            setulb(*args)
            if args[11][0] == 3:  # task: f and g wanted at x
                requests.append(args[1].copy())

        def fun(x, *args):
            evaluated.append(x.copy())
            return _neg_lml_and_grad(x, *args)

        monkeypatch.setattr(gp, "setulb", spy)
        res = gp.minimize(fun, x0, args=(sqdists_of(X), y_std), bounds=list(zip(lo, hi)))
        repeats = sum(np.array_equal(a, b) for a, b in zip(requests, requests[1:]))
        assert repeats > 0
        assert res.nfev == len(evaluated) == len(requests) - repeats
        monkeypatch.undo()
        self.assert_matches_scipy(x0, sqdists_of(X), y_std, list(zip(lo, hi)))


# Fits in a fresh interpreter, with mace imported before or after
# scipy.optimize (which imports scipy.linalg and scipy.special); the fits must
# equal scipy's, mace and scipy must share one _lbfgsb, one set of LAPACK
# routines and one erfc, and scipy's packages must work after mace.
IMPORT_ORDER = """
import sys
import numpy as np
if SCIPY_FIRST:
    import scipy.optimize
from mace import acquisition, gp

for package in ("scipy.optimize", "scipy.linalg", "scipy.special"):
    assert (package in sys.modules) == SCIPY_FIRST, package
rng = np.random.default_rng(5)
lo, hi = np.array([-1.0, -6.0, -4.0, -4.0]), np.array([2.0, 0.0, 2.0, 2.0])
X = rng.random((30, 2))
y_std = gp._standardize(np.sin(3 * X.sum(axis=1)) + 0.05 * rng.standard_normal(30))[0]
sqdists = np.ascontiguousarray(np.moveaxis((X[:, None] - X[None]) ** 2, -1, 0))
fit = dict(args=(sqdists, y_std), bounds=list(zip(lo, hi)))
starts = [rng.uniform(lo, hi) for _ in range(4)]
ours = [gp.minimize(gp._neg_lml_and_grad, x0, **fit) for x0 in starts]

import scipy.optimize

for x0, a in zip(starts, ours):
    b = scipy.optimize.minimize(gp._neg_lml_and_grad, x0, jac=True, method="L-BFGS-B", **fit)
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.fun, a.nfev, a.nit, a.success) == (b.fun, b.nfev, b.nit, b.success)
import scipy.linalg
import scipy.special

assert (scipy.linalg.cholesky(4.0 * np.eye(2), lower=True) == 2.0 * np.eye(2)).all()
assert scipy.special.erfc(0.0) == 1.0 and scipy.special.ndtr(0.0) == 0.5
print(len(ours), scipy.optimize._lbfgsb is sys.modules["scipy.optimize._lbfgsb"],
      gp.setulb is scipy.optimize._lbfgsb.setulb,
      gp.dpotrf is scipy.linalg.lapack.dpotrf, gp.dtrtrs is scipy.linalg.lapack.dtrtrs,
      acquisition.erfc is scipy.special.erfc)
"""


class TestSetulbLoad:
    @pytest.mark.parametrize("scipy_first", [False, True], ids=["mace_first", "scipy_first"])
    def test_fits_match_scipy_in_either_import_order(self, scipy_first):
        src = str(Path(gp.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = f"SCIPY_FIRST = {scipy_first}\n{IMPORT_ORDER}"
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["4"] + ["True"] * 5


# Each compiled module mace loads, with one function mace takes from it.
EXTENSIONS = [
    ("scipy.optimize._lbfgsb", gp, "setulb"),
    ("scipy.linalg._flapack", gp, "dpotrf"),
    ("scipy.special._special_ufuncs", acquisition, "erfc"),
]


@pytest.mark.parametrize("name, owner, attr", EXTENSIONS, ids=[e[0] for e in EXTENSIONS])
class TestLoadExtension:
    def test_missing_extension_names_its_path(self, monkeypatch, tmp_path, name, owner, attr):
        importlib.import_module(name)
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        directory = tmp_path.joinpath("scipy", *name.split(".")[1:-1])
        with pytest.raises(ImportError, match=re.escape(str(directory))):
            load_extension(name)

    def test_meta_path_finder_locates_extension(self, monkeypatch, tmp_path, name, owner, attr):
        # An editable install's finder maps the module name to its build
        # directory, wherever scipy's __init__ lives.
        spec = importlib.machinery.PathFinder.find_spec(
            name, [str(Path(importlib.import_module(name).__file__).parent)])

        class Editable:
            def find_spec(self, name, path, target=None):
                return spec if name == spec.name else None

        monkeypatch.delitem(sys.modules, spec.name)
        monkeypatch.setattr(sys, "meta_path", [Editable(), *sys.meta_path])
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        assert getattr(load_extension(name), attr) is getattr(owner, attr)
        assert spec.name not in sys.modules


class TestPredict:
    def test_single_training_point_interpolates(self):
        ds = Dataset(np.array([[0.4]]), np.array([2.0]))
        model = build_gp(ds, KernelHyperParams(1.0, 1e-6, np.array([0.3])))
        mean, std = predict(model, np.array([0.4]))
        assert abs(mean - 2.0) < 1e-3
        assert std < 1e-2

    def test_prior_recovery_far_from_data(self):
        rng = np.random.default_rng(5)
        X = rng.random((6, 2)) * 0.01  # cluster in a corner
        y = rng.uniform(5.0, 6.0, 6)
        ds = Dataset(X, y)
        hyp = KernelHyperParams(1.5, 0.01, np.array([0.01, 0.01]))
        model = build_gp(ds, hyp)
        mean, std = predict(model, np.array([1.0, 1.0]))  # >> 50 lengthscales away
        assert mean == pytest.approx(y.mean(), abs=1e-6)
        assert std == pytest.approx(1.5 * model.y_scale, abs=1e-6)

    def test_matches_dense_oracle_3d(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 10, 3)
        hyp = KernelHyperParams(0.9, 0.1, np.array([0.3, 0.5, 0.8]))
        model = build_gp(ds, hyp)
        Xq = rng.random((25, 3))
        mean, std = predict(model, Xq)
        mean_o, std_o = dense_predict_oracle(ds, hyp, Xq)
        np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(std, std_o, rtol=1e-8, atol=1e-10)

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[0.1, 0.2], [0.8, 0.9]]), np.array([0.0, 1.0]))
        model = build_gp(ds, KernelHyperParams(1.0, 0.1, np.ones(2)))
        with pytest.raises(DimensionMismatchError):
            predict(model, np.array([0.1, 0.2, 0.3]))

    def test_empty_batch_gives_empty_arrays(self):
        ds = Dataset(np.array([[0.1, 0.2], [0.8, 0.9]]), np.array([0.0, 1.0]))
        mean, std = predict(build_gp(ds, KernelHyperParams(1.0, 0.1, np.ones(2))), np.empty((0, 2)))
        assert mean.shape == std.shape == (0,)

    @pytest.mark.parametrize("lengthscales", [1, 3])
    def test_build_gp_dimension_mismatch(self, lengthscales):
        ds = Dataset(np.array([[0.1, 0.2], [0.8, 0.9]]), np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            build_gp(ds, KernelHyperParams(1.0, 0.1, np.ones(lengthscales)))

    def test_singular_factor_raises(self):
        # Only a hand-built model can hold a factor with a zero on its diagonal.
        model = GpModel(KernelHyperParams(1.0, 0.1, np.ones(2)), np.full((2, 2), 0.5),
                        np.zeros(2), np.array([[1.0, 0.0], [0.5, 0.0]]), 0.0, 1.0)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            predict(model, np.full((3, 2), 0.5))

    def test_nan_row_gives_nan_only_in_its_row(self):
        ds = Dataset(np.array([[0.1, 0.2], [0.8, 0.9]]), np.array([0.0, 1.0]))
        model = build_gp(ds, KernelHyperParams(1.0, 0.1, np.ones(2)))
        mean, std = predict(model, np.array([[0.3, 0.4], [np.nan, 0.5]]))
        assert np.isfinite(mean[0]) and np.isfinite(std[0])
        assert np.isnan(mean[1]) and np.isnan(std[1])

    def test_batch_moves_a_mean_only_by_rounding(self):
        # One row takes other BLAS paths than a batch (the cross product in
        # kernel_matrix, then k_star @ alpha), so its mean may differ in the last
        # bits. Bound that by eps times the first-order rounding scale of
        # y_mean + y_scale * sum_j k_j alpha_j, where k_j inherits the error of
        # |a|^2 + |b_j|^2 - 2 a.b in lengthscale units. Over 900 such models
        # (90k rows, 1 and 2 BLAS threads) the worst ratio was 0.97.
        rng = np.random.default_rng(2101)
        eps = np.finfo(float).eps
        worst = 0.0
        for _ in range(40):
            d, n, batch = int(rng.integers(1, 11)), int(rng.integers(2, 121)), int(rng.integers(2, 200))
            y = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3) + 10 * rng.standard_normal()
            hyp = KernelHyperParams(rng.uniform(0.3, 2), 10 ** rng.uniform(-3, -1), rng.uniform(0.05, 1.5, d))
            model = build_gp(Dataset(rng.random((n, d)), y), hyp)
            Q = rng.random((batch, d))
            mean, _ = predict(model, Q)
            alone = np.array([predict(model, q)[0] for q in Q])
            sq_norms = np.sum((Q / hyp.lengthscales) ** 2, axis=1)[:, None] + np.sum(
                (model.X / hyp.lengthscales) ** 2, axis=1)
            terms = np.abs(kernel_matrix(Q, model.X, hyp)) * (1.0 + sq_norms)
            scale = abs(model.y_mean) + model.y_scale * (terms @ np.abs(model.alpha))
            worst = max(worst, float(np.max(np.abs(alone - mean) / (eps * scale))))
        assert worst <= 2.0


class TestInvariants:
    def test_psd_with_default_jitter_ladder(self):
        rng = np.random.default_rng(23)
        X = rng.random((20, 2))
        X[10:] = X[:10]  # exact duplicates stress the factorization
        ds = Dataset(X, rng.standard_normal(20))
        model = build_gp(ds, KernelHyperParams(1.0, 1e-6, np.array([0.5, 0.5])))
        K = model.chol_lower @ model.chol_lower.T
        from mace.gp import kernel_matrix

        K_expect = kernel_matrix(ds.X, ds.X, model.hyperparams)
        K_expect[np.diag_indices_from(K_expect)] += model.hyperparams.noise_stddev**2 + model.jitter
        rel = np.linalg.norm(K - K_expect) / np.linalg.norm(K_expect)
        assert rel < 1e-8

    def test_jitter_ladder_exhaustion_raises(self):
        with pytest.raises(SingularKernelError):
            _chol_with_jitter(np.array([[-1.0]]))

    def test_indefinite_matrix_exhausts_the_ladder(self):
        with pytest.raises(SingularKernelError):
            _chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _chol_with_jitter(np.array([[2.0, 0.5], [0.5, bad]]))

    def test_variance_never_negative(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 30, 2)
        model = fit_gp(ds, restarts=3, seed=0)
        Xq = rng.random((10_000, 2))
        _, std = predict(model, Xq)
        assert np.all(std >= 0.0)

    def test_interpolation_with_tiny_noise(self):
        rng = np.random.default_rng(37)
        X = rng.random((12, 2))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        ds = Dataset(X, y)
        model = build_gp(ds, KernelHyperParams(1.0, 1e-6, np.array([0.4, 0.4])))
        mean, _ = predict(model, X)
        assert np.max(np.abs(mean - y)) < 1e-3

    def test_oracle_equivalence_up_to_n50(self):
        rng = np.random.default_rng(41)
        for n in (5, 20, 50):
            d = int(rng.integers(1, 4))
            ds = random_dataset(rng, n, d)
            hyp = KernelHyperParams(
                rng.uniform(0.5, 2), rng.uniform(0.05, 0.3), rng.uniform(0.2, 1.5, d)
            )
            model = build_gp(ds, hyp)
            Xq = rng.random((10, d))
            mean, std = predict(model, Xq)
            mean_o, std_o = dense_predict_oracle(ds, hyp, Xq)
            np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(std, std_o, rtol=1e-8, atol=1e-10)

    def test_standardization_invariance_under_shift(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, 15, 2)
        shifted = Dataset(ds.X, ds.y + 123.25)
        hyp = KernelHyperParams(1.0, 0.1, np.array([0.5, 0.5]))
        Xq = rng.random((20, 2))
        m1, s1 = predict(build_gp(ds, hyp), Xq)
        m2, s2 = predict(build_gp(shifted, hyp), Xq)
        np.testing.assert_allclose(m2, m1 + 123.25, atol=1e-8)
        np.testing.assert_allclose(s2, s1, atol=1e-8)
