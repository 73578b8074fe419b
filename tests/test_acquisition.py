"""Acquisition function tests: closed forms vs Monte-Carlo and high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mace.acquisition import (
    AcqContext,
    adaptive_violation,
    beta_schedule,
    ei,
    lcb,
    naive_violation,
    pf,
    pi,
    std_normal_cdf,
    std_normal_pdf,
)
from mace.errors import DimensionMismatchError

finite_floats = st.floats(-50, 50, allow_nan=False)
pos_floats = st.floats(1e-6, 20, allow_nan=False)


def mc_improvement_oracle(mean, stddev, tau, xi, n_samples=1_000_000, seed=0):
    """Sample-based E[max(0, tau - xi - Y)] and P[Y < tau - xi] for Y ~ N(mean, stddev^2)."""
    rng = np.random.default_rng(seed)
    y = rng.normal(mean, stddev, n_samples)
    thresh = tau - xi
    return float(np.mean(np.maximum(thresh - y, 0.0))), float(np.mean(y < thresh))


class TestNormalHelpers:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5)

    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_cdf_975_quantile(self):
        # high-precision erf oracle
        expected = float(0.5 * mpmath.erfc(-mpmath.mpf("1.959964") / mpmath.sqrt(2)))
        assert std_normal_cdf(1.959964) == pytest.approx(expected, abs=1e-12)
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_cdf_monotone_and_in_range(self):
        z = np.linspace(-12, 12, 201)
        vals = std_normal_cdf(z)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] > 0 and vals[-1] < 1 + 1e-15

    def test_tail_accuracy(self):
        # the erfc route keeps precision far beyond |z| = 8
        expected = float(0.5 * mpmath.erfc(mpmath.mpf(10) / mpmath.sqrt(2)))
        assert std_normal_cdf(-10.0) == pytest.approx(expected, rel=1e-10)


class TestPI:
    def test_zero_margin_gives_half(self):
        ctx = AcqContext(tau=1.0, d=1)
        assert pi(0.999, 0.5, ctx) == pytest.approx(0.5)

    def test_near_certain_improvement(self):
        ctx = AcqContext(tau=0.001, d=1)  # tau - XI = 0
        assert pi(-10.0, 1.0, ctx) >= 1 - 1e-15

    def test_half_sigma_below(self):
        ctx = AcqContext(tau=0.0, d=1)
        expected = float(0.5 * mpmath.erfc(mpmath.mpf("0.5") / mpmath.sqrt(2)))
        assert pi(0.499, 1.0, ctx) == pytest.approx(expected, abs=1e-12)
        assert pi(0.499, 1.0, ctx) == pytest.approx(0.30854, abs=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(finite_floats, pos_floats, finite_floats)
    def test_monotone_in_mean(self, mean, stddev, tau):
        ctx = AcqContext(tau=tau, d=1)
        assert pi(mean - 0.5, stddev, ctx) >= pi(mean, stddev, ctx)


class TestEI:
    def test_zero_margin_value(self):
        ctx = AcqContext(tau=0.001, d=1)  # lambda = 0
        assert ei(0.0, 1.0, ctx) == pytest.approx(0.3989423, abs=1e-7)

    def test_no_uncertainty_no_improvement(self):
        ctx = AcqContext(tau=0.0, d=1)
        assert ei(1.0, 0.0, ctx) == 0.0

    def test_unit_margin_closed_form_and_monte_carlo(self):
        ctx = AcqContext(tau=0.001, d=1)  # tau - XI = 0
        val = ei(-1.0, 1.0, ctx)
        phi1 = float(0.5 * mpmath.erfc(-1 / mpmath.sqrt(2)))
        pdf1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert val == pytest.approx(1.0 * (1.0 * phi1 + pdf1), abs=1e-5)
        assert val == pytest.approx(1.0833155, abs=1e-5)
        mc_ei, _ = mc_improvement_oracle(-1.0, 1.0, 0.001, 0.001)
        assert val == pytest.approx(mc_ei, abs=3e-3)

    @settings(max_examples=40, deadline=None)
    @given(finite_floats, st.floats(0, 20, allow_nan=False), finite_floats)
    def test_never_negative(self, mean, stddev, tau):
        ctx = AcqContext(tau=tau, d=1)
        assert ei(mean, stddev, ctx) >= 0.0

    def test_zero_when_no_spread_and_no_margin(self):
        ctx = AcqContext(tau=1.0, d=1)
        assert ei(1.0, 0.0, ctx) == 0.0          # mean == tau > tau - XI
        assert ei(0.999, 0.0, ctx) == 0.0        # mean == tau - XI exactly

    @settings(max_examples=40, deadline=None)
    @given(finite_floats, pos_floats, finite_floats)
    def test_monotone_in_mean(self, mean, stddev, tau):
        ctx = AcqContext(tau=tau, d=1)
        assert ei(mean - 0.5, stddev, ctx) >= ei(mean, stddev, ctx)

    def test_finite_where_the_margin_overflows(self):
        # At stddev 1e-3 the margin is -inf, where lam * cdf(lam) takes its limit 0.
        ctx = AcqContext(tau=0.0, d=1)
        with np.errstate(over="ignore"):
            assert ei(np.array([1e308, 1e308]), np.array([1.0, 1e-3]), ctx).tolist() == [0.0, 0.0]


class TestBetaSchedule:
    def test_reference_value(self):
        ctx = AcqContext(tau=0.0, d=1, t=1)
        with mpmath.workdps(50):
            expected = float(
                mpmath.sqrt(2 * mpmath.mpf("0.5") * mpmath.log(mpmath.pi**2 / (3 * mpmath.mpf("0.05"))))
            )
        assert beta_schedule(ctx) == pytest.approx(expected, abs=1e-12)
        assert beta_schedule(ctx) == pytest.approx(2.0461, abs=1e-4)

    def test_strictly_increasing_in_t(self):
        vals = [beta_schedule(AcqContext(tau=0.0, d=3, t=t)) for t in range(1, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLCB:
    def test_direct(self):
        assert lcb(1.0, 2.0, 2.0) == pytest.approx(-3.0)

    def test_beta_zero_is_pure_mean(self):
        assert lcb(0.7, 5.0, 0.0) == pytest.approx(0.7)

    def test_zero_stddev_is_mean(self):
        assert lcb(0.7, 0.0, 10.0) == pytest.approx(0.7)


class TestPF:
    def test_two_zero_means(self):
        assert pf(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == pytest.approx(0.25)

    def test_one_hopeless_constraint_annihilates(self):
        val = pf(np.array([10.0, -5.0]), np.array([1.0, 1.0]))
        assert val <= 1e-15

    def test_single_constraint_reference(self):
        expected = float(0.5 * mpmath.erfc(-1 / mpmath.sqrt(2)))
        assert pf(np.array([-1.0]), np.array([1.0])) == pytest.approx(expected, abs=1e-12)
        assert pf(np.array([-1.0]), np.array([1.0])) == pytest.approx(0.841345, abs=1e-5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pf(np.array([0.0, 1.0]), np.array([1.0]))

    def test_no_constraints_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least one constraint"):
            pf(np.empty((3, 0)), np.empty((3, 0)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=5), st.integers(0, 4), pos_floats)
    def test_monotone_decreasing_in_each_mean(self, means, which, sigma):
        mu = np.asarray(means)
        s = np.full(mu.shape, sigma)
        bumped = mu.copy()
        bumped[which % mu.size] += 1.0
        assert pf(bumped, s) <= pf(mu, s) + 1e-15

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(50, 3))
        s = rng.uniform(0.1, 2, size=(50, 3))
        vals = pf(mu, s)
        assert np.all(vals >= 0) and np.all(vals < 1)


class TestViolations:
    def test_naive_examples(self):
        assert naive_violation(np.array([-1.0, 2.0, 3.0])) == pytest.approx(5.0)
        assert naive_violation(np.array([-0.1, -2.0])) == 0.0
        assert naive_violation(np.array([0.5])) == pytest.approx(0.5)

    def test_adaptive_examples(self):
        assert adaptive_violation(np.array([2.0, -1.0]), np.array([4.0, 1.0])) == pytest.approx(0.5)
        assert adaptive_violation(np.array([-2.0, -0.5]), np.array([1.0, 1.0])) == 0.0
        assert adaptive_violation(np.array([1.0, 1.0]), np.array([0.1, 10.0])) == pytest.approx(10.1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            adaptive_violation(np.array([1.0]), np.array([1.0, 2.0]))

    def test_no_constraints_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least one constraint"):
            naive_violation(np.empty((3, 0)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=6))
    def test_zero_iff_all_feasible_means(self, means):
        mu = np.asarray(means)
        s = np.ones(mu.shape)
        feasible = bool(np.all(mu <= 0))
        assert (naive_violation(mu) == 0.0) == feasible
        assert (adaptive_violation(mu, s) == 0.0) == feasible


class TestShiftInvariance:
    @settings(max_examples=30, deadline=None)
    @given(finite_floats, pos_floats, finite_floats, st.floats(-30, 30, allow_nan=False))
    def test_target_shift(self, mean, stddev, tau, c):
        ctx = AcqContext(tau=tau, d=2, t=3)
        ctx_shift = AcqContext(tau=tau + c, d=2, t=3)
        assert pi(mean + c, stddev, ctx_shift) == pytest.approx(pi(mean, stddev, ctx), abs=1e-12)
        assert ei(mean + c, stddev, ctx_shift) == pytest.approx(ei(mean, stddev, ctx), abs=1e-9)
        beta = beta_schedule(ctx)
        assert lcb(mean + c, stddev, beta) == pytest.approx(lcb(mean, stddev, beta) + c, abs=1e-9)


class TestMonteCarloCrossCheck:
    def test_ten_random_triples(self):
        rng = np.random.default_rng(2024)
        for k in range(10):
            mean = float(rng.uniform(-2, 2))
            stddev = float(rng.uniform(0.05, 2))
            tau = float(rng.uniform(-2, 2))
            ctx = AcqContext(tau=tau, d=1)
            mc_ei, mc_pi = mc_improvement_oracle(mean, stddev, tau, 0.001, seed=k)
            assert ei(mean, stddev, ctx) == pytest.approx(mc_ei, abs=3e-3)
            assert pi(mean, stddev, ctx) == pytest.approx(mc_pi, abs=3e-3)


class TestContextValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="t is"):
            AcqContext(tau=0.0, d=1, t=0)
        with pytest.raises(ValueError, match="d must"):
            AcqContext(tau=0.0, d=0)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tau"):
                AcqContext(tau=tau, d=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.5, True])
    @pytest.mark.parametrize("field", ["t", "d"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            AcqContext(tau=0.0, **{"d": 1, "t": 1, field: value})

    def test_numpy_integer_counts_accepted(self):
        ctx = AcqContext(tau=0.0, d=np.int64(2), t=np.int32(3))
        assert beta_schedule(ctx) == beta_schedule(AcqContext(tau=0.0, d=2, t=3))

    @pytest.mark.parametrize("name", ["xi", "nu", "delta"])
    def test_schedule_constants_are_not_fields(self, name):
        with pytest.raises(TypeError):
            AcqContext(tau=0.0, d=1, **{name: 0.001})
