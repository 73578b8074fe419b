"""Benchmark problem definitions, weighted objectives and evaluation plumbing."""

import numpy as np
import pytest

from mace.errors import EvaluatorFaultError
from mace.problems import (
    BUILTIN_NAMES,
    FomSpec,
    Problem,
    RING_HALFWIDTH,
    RING_RADIUS,
    builtin,
    evaluate,
    fom_weighted_sum,
)


def branin_grid_minimum(n=2000):
    """Dense-grid oracle over the native box."""
    x1 = np.linspace(-5, 10, n)
    x2 = np.linspace(0, 15, n)
    X1, X2 = np.meshgrid(x1, x2)
    b = 5.1 / (4 * np.pi**2)
    c = 5 / np.pi
    t = 1 / (8 * np.pi)
    F = (X2 - b * X1**2 + c * X1 - 6) ** 2 + 10 * (1 - t) * np.cos(X1) + 10
    return float(F.min())


class TestFom:
    def test_single_metric_identity(self):
        f = fom_weighted_sum(FomSpec(weights=(1.0,), metrics=(lambda x: float(x[0]),)))
        assert f(np.array([3.5])) == pytest.approx(3.5)

    def test_weighted_constants(self):
        f = fom_weighted_sum(
            FomSpec(weights=(1.2, 1.6), metrics=(lambda x: 10.0, lambda x: 5.0))
        )
        assert f(np.zeros(2)) == pytest.approx(20.0)

    def test_maximized_metric_negated(self):
        # a metric to maximize enters with a flipped sign so lower fom = better metric
        gain = lambda x: float(x[0])
        f = fom_weighted_sum(FomSpec(weights=(2.0,), metrics=(lambda x: -gain(x),)))
        assert f(np.array([1.0])) < f(np.array([0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            FomSpec(weights=(), metrics=())
        with pytest.raises(ValueError):
            FomSpec(weights=(1.0, np.inf), metrics=(lambda x: 0.0, lambda x: 0.0))


class TestBuiltins:
    def test_all_names_resolve(self):
        for name in BUILTIN_NAMES:
            p = builtin(name)
            assert p.name == name
            assert p.dim >= 1

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("rosenbrock")

    def test_branin_known_optimum_matches_grid_oracle(self):
        p = builtin("branin")
        grid_min = branin_grid_minimum()
        assert p.known_optimum == pytest.approx(grid_min, abs=5e-4)
        assert p.known_optimum == pytest.approx(0.397887, abs=1e-5)

    def test_branin_at_known_minimizer(self):
        p = builtin("branin")
        x_unit = p.normalize(np.array([np.pi, 2.275]))
        y, c = evaluate(p, x_unit)
        assert y == pytest.approx(0.397887, abs=1e-4)
        assert c.size == 0

    def test_hartmann6_reference_value(self):
        p = builtin("hartmann6")
        x_star = np.array([0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573])
        y, _ = evaluate(p, x_star)
        assert y == pytest.approx(-3.32237, abs=1e-4)

    def test_sphere10_center_is_zero(self):
        p = builtin("sphere10")
        y, _ = evaluate(p, np.full(10, 0.5))
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_ring_feasible_volume_about_one_percent(self):
        p = builtin("ring-constrained-2d")
        rng = np.random.default_rng(123)
        pts = rng.random((1_000_000, 2))
        r = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
        frac = float(np.mean(np.abs(r - RING_RADIUS) - RING_HALFWIDTH < 0))
        assert frac == pytest.approx(0.01, abs=0.002)

    def test_ring_band_center_is_feasible(self):
        p = builtin("ring-constrained-2d")
        on_band = np.array([0.5 + RING_RADIUS, 0.5])  # native == unit coords here
        _, c = evaluate(p, on_band)
        assert c[0] < 0

    def test_constrained_branin_optimum_feasible(self):
        p = builtin("constrained-branin")
        x_unit = p.normalize(np.array([np.pi, 2.275]))
        y, c = evaluate(p, x_unit)
        assert y == pytest.approx(0.397887, abs=1e-4)
        assert np.all(c < 0)

    def test_amp_mimic_shape(self):
        p = builtin("amp-mimic-10d")
        assert p.dim == 10
        assert p.n_constraints == 2
        y, c = evaluate(p, np.full(10, 0.5))
        assert np.isfinite(y) and c.shape == (2,)


class TestEvaluate:
    def test_pure_and_deterministic(self):
        for name in BUILTIN_NAMES:
            p = builtin(name)
            x = np.full(p.dim, 0.37)
            y1, c1 = evaluate(p, x)
            y2, c2 = evaluate(p, x)
            assert y1 == y2
            assert np.array_equal(c1, c2)

    def test_unit_round_trip(self):
        rng = np.random.default_rng(7)
        for name in BUILTIN_NAMES:
            p = builtin(name)
            xu = rng.random(p.dim)
            back = p.normalize(p.denormalize(xu))
            np.testing.assert_allclose(back, xu, atol=1e-12)

    def test_known_optimum_lower_bounds_random_evaluations(self):
        rng = np.random.default_rng(99)
        for name in BUILTIN_NAMES:
            p = builtin(name)
            if p.known_optimum is None:
                continue
            pts = rng.random((100_000, p.dim))
            X = p.lower + pts * (p.upper - p.lower)
            ys = np.array([p.objective(x) for x in X])
            if p.n_constraints:
                feas = np.array(
                    [all(g(x) < 0 for g in p.constraints) for x in X], dtype=bool
                )
                ys = ys[feas]
            if ys.size:
                assert ys.min() >= p.known_optimum - 1e-6

    @pytest.mark.parametrize("point", [[1.2, 0.5], [np.nan, 0.5]], ids=["outside", "nan"])
    def test_out_of_cube_rejected(self, point):
        p = builtin("branin")
        with pytest.raises(ValueError, match="unit cube"):
            evaluate(p, np.array(point))

    def test_non_finite_objective_faults(self):
        bad = Problem(
            name="bad",
            dim=1,
            lower=np.zeros(1),
            upper=np.ones(1),
            objective=lambda x: float("inf"),
        )
        with pytest.raises(EvaluatorFaultError):
            evaluate(bad, np.array([0.5]))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Problem(name="x", dim=1, lower=np.ones(1), upper=np.zeros(1),
                    objective=lambda x: 0.0)

    def test_bounds_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            Problem(name="x", dim=2, lower=np.zeros(3), upper=np.ones(3), objective=lambda x: 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bounds_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Problem(name="x", dim=2, lower=np.array([0.0, bad]), upper=np.ones(2),
                    objective=lambda x: 0.0)

    @pytest.mark.parametrize("dim", [0, -1, 1.0, True, "2", None])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="^dim must"):
            Problem(name="x", dim=dim, lower=np.zeros(0), upper=np.ones(0), objective=lambda x: 0.0)

    def test_declared_minimum(self):
        with pytest.raises(ValueError, match="^dim must be at least 1$"):
            Problem(name="x", dim=0, lower=np.zeros(0), upper=np.ones(0), objective=lambda x: 0.0)
        assert Problem(name="x", dim=1, lower=np.zeros(1), upper=np.ones(1), objective=lambda x: 0.0).dim == 1

    def test_numpy_integer_dimension_accepted(self):
        p = Problem(name="x", dim=np.int64(2), lower=np.zeros(2), upper=np.ones(2), objective=lambda x: 0.0)
        assert evaluate(p, np.full(2, 0.5))[0] == 0.0

    def test_point_of_the_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 2"):
            evaluate(builtin("branin"), np.full(3, 0.5))
