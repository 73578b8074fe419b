"""GP regression tests against dense-inverse oracles and hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import qmc

from mace.errors import DimensionMismatchError, SingularKernelError
from mace.gp import (
    _LOG_NOISE_BOUNDS,
    Dataset,
    KernelHyperParams,
    _chol_with_jitter,
    _neg_lml_and_grad,
    _standardize,
    build_gp,
    fit_gp,
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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, key):
        rng = np.random.default_rng(key)
        d = int(rng.integers(1, 6))
        hyp = KernelHyperParams(rng.uniform(0.1, 3), rng.uniform(0.01, 1), rng.uniform(0.05, 2, d))
        a, b = rng.random(d), rng.random(d)
        assert kernel_se(a, b, hyp) == kernel_se(b, a, hyp)

    def test_hyperparams_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelHyperParams(0.0, 0.1, np.ones(2))
        with pytest.raises(ValueError):
            KernelHyperParams(1.0, 0.1, np.array([1.0, -1.0]))


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

    def test_restarts_converge_on_noiseless_branin(self, monkeypatch):
        # Noiseless data drives the fitted noise to its floor.  With a floor
        # that leaves K + sn^2 I ill conditioned, the evidence is too imprecise
        # for the line search and most restarts end in failure there.
        outcomes = []

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
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
