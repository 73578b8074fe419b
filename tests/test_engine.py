"""Engine tests: objective builders, pruning, batch sampling and the run loops."""

import csv
import dataclasses
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import mace
from mace import acquisition as acq
from mace import gp
from mace.cli import write_run_csv
from mace.demo import DemoConfig, ParetoSet
from mace.engine import (
    EvalRecord,
    RunConfig,
    RunRecord,
    _latin_hypercube,
    _run,
    _warm_start,
    build_stage1_objectives,
    build_stage2_objectives,
    build_unconstrained_objectives,
    make_evaluator,
    prune_candidates,
    run_constrained,
    run_random,
    run_unconstrained,
    sample_batch,
)
from mace.demo import demo_optimize
from mace.errors import DimensionMismatchError, EvaluatorFaultError
from mace.gp import Dataset, GpModel, KernelHyperParams, build_gp, fit_gp, predict
from mace.problems import Problem, builtin

SMALL_DEMO = DemoConfig(population_size=30, max_evaluations=300)


def toy_model(rng, n=12, d=2):
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    ds = Dataset(X, y)
    return build_gp(ds, KernelHyperParams(1.0, 0.05, np.full(d, 0.4))), ds


def constant_model(mean, stddev, d=2):
    """Stub GP predicting (mean, stddev) everywhere in the cube.

    Training data far outside the cube makes the cross-covariance vanish, so
    the posterior equals the prior: mean = y_mean, stddev = y_scale * signal.
    """
    hyp = KernelHyperParams(1.0, 1e-3, np.full(d, 0.1))
    return GpModel(
        hyperparams=hyp,
        X=np.full((1, d), 1e6),
        alpha=np.zeros(1),
        chol_lower=np.eye(1),
        y_mean=float(mean),
        y_scale=float(stddev),
    )


class TestUnconstrainedObjectives:
    def test_composition_identity(self):
        rng = np.random.default_rng(0)
        model, ds = toy_model(rng)
        tau = float(ds.y.min())
        fn = build_unconstrained_objectives(model, tau, 3)
        X = rng.random((5, 2))
        out = fn(X)
        mu, s = predict(model, X)
        beta = acq.beta_schedule(2, 3)
        np.testing.assert_allclose(out[:, 0], acq.lcb(mu, s, beta))
        np.testing.assert_allclose(out[:, 1], -acq.pi(mu, s, tau))
        np.testing.assert_allclose(out[:, 2], -acq.ei(mu, s, tau))

    def test_lcb_schedule_reads_the_models_dimension(self):
        rng = np.random.default_rng(4)
        X = rng.random((12, 3))
        model = fit_gp(Dataset(X, np.sin(3 * X[:, 0]) + X[:, 1] - X[:, 2]), restarts=2, seed=0)
        Xq = rng.random((6, 3))
        out = build_unconstrained_objectives(model, 0.0, 4, ("lcb",))(Xq)
        mu, s = predict(model, Xq)
        assert out.tobytes() == acq.lcb(mu, s, acq.beta_schedule(3, 4))[:, None].tobytes()
        assert out.tobytes() != acq.lcb(mu, s, acq.beta_schedule(2, 4))[:, None].tobytes()

    def test_floored_sigma_limit_at_incumbent(self):
        # posterior collapses onto a training point whose value equals tau
        X = np.array([[0.2, 0.2], [0.8, 0.8]])
        y = np.array([1.0, 2.0])
        ds = Dataset(X, y)
        model = build_gp(ds, KernelHyperParams(1.0, 1e-6, np.array([0.3, 0.3])))
        vec = build_unconstrained_objectives(model, 1.0)(X[:1])[0]
        assert vec[0] == pytest.approx(1.0, abs=1e-4)   # LCB ~ tau
        assert -vec[1] <= 1e-12                          # PI ~ 0
        assert -vec[2] <= 1e-9                           # EI ~ 0

    def test_subset_drops_coordinates(self):
        rng = np.random.default_rng(1)
        model, ds = toy_model(rng)
        tau = float(ds.y.min())
        X = rng.random((4, 2))
        assert build_unconstrained_objectives(model, tau, ensemble=("pi", "ei"))(X).shape == (4, 2)
        assert build_unconstrained_objectives(model, tau, ensemble=("ei",))(X).shape == (4, 1)
        full = build_unconstrained_objectives(model, tau)(X)
        pi_lcb = build_unconstrained_objectives(model, tau, ensemble=("lcb", "pi"))(X)
        np.testing.assert_allclose(pi_lcb, full[:, :2])

    def test_unknown_member_rejected(self):
        rng = np.random.default_rng(1)
        model, ds = toy_model(rng)
        with pytest.raises(ValueError, match="ucb"):
            build_unconstrained_objectives(model, float(ds.y.min()), ensemble=("lcb", "ucb"))

    def test_single_ei_tracks_grid_argmax(self):
        # sparse design so expected improvement keeps a clear interior peak
        X = np.array([[0.05], [0.2], [0.45], [0.8], [0.95]])
        y = (X[:, 0] - 0.3) ** 2
        ds = Dataset(X, y)
        model = fit_gp(ds, restarts=5, seed=0)
        tau = float(y.min())
        grid = np.linspace(0, 1, 4001)[:, None]
        mu, s = predict(model, grid)
        grid_best = float(grid[np.argmax(acq.ei(mu, s, tau)), 0])
        fn = build_unconstrained_objectives(model, tau, ensemble=("ei",))
        ps = demo_optimize(fn, 1, DemoConfig(population_size=40, max_evaluations=800), seed=0)
        demo_best = float(ps.points[np.argmin(ps.objectives[:, 0]), 0])
        assert abs(demo_best - grid_best) <= 0.02


def constraint_dataset(rng, n=14, feasible=False):
    X = rng.random((n, 2))
    c = X[:, 0] - 0.5 if feasible else X.sum(axis=1) + 0.5  # latter never < 0
    y = np.cos(3 * X[:, 1])
    return X, y, c


class TestStageObjectives:
    def test_stage1_composition_identity(self):
        rng = np.random.default_rng(4)
        Xd, _, c = constraint_dataset(rng)
        cmodel = build_gp(
            Dataset(Xd, c),
            KernelHyperParams(1.0, 0.1, np.array([0.4, 0.4])),
        )
        fn = build_stage1_objectives([cmodel])
        X = rng.random((6, 2))
        out = fn(X)
        mu, s = predict(cmodel, X)
        mu, s = mu[:, None], s[:, None]
        np.testing.assert_allclose(out[:, 0], -acq.pf(mu, s))
        np.testing.assert_allclose(out[:, 1], acq.naive_violation(mu))
        np.testing.assert_allclose(out[:, 2], acq.adaptive_violation(mu, s))

    def test_stage1_needs_a_constraint_model(self):
        with pytest.raises(DimensionMismatchError):
            build_stage1_objectives([])

    def test_stage1_deep_feasible_dominates(self):
        rng = np.random.default_rng(5)
        deep = constant_model(-5.0, 1.0)     # mean five sigma below zero
        violating = constant_model(+2.0, 1.0)
        fn_deep = build_stage1_objectives([deep])
        fn_bad = build_stage1_objectives([violating])
        x = rng.random((1, 2))
        v_deep = fn_deep(x)[0]
        v_bad = fn_bad(x)[0]
        np.testing.assert_allclose(v_deep, [-1.0, 0.0, 0.0], atol=1e-6)
        assert np.all(v_deep <= v_bad) and np.any(v_deep < v_bad)

    def test_stage1_violation_breaks_pf_ties(self):
        rng = np.random.default_rng(6)
        worse = constant_model(20.0, 1.0)
        better = constant_model(10.0, 1.0)
        x = rng.random((1, 2))
        v_worse = build_stage1_objectives([worse])(x)[0]
        v_better = build_stage1_objectives([better])(x)[0]
        # PF is vanishingly small for both, useless for ranking; the violation
        # coordinates still order the two points decisively.
        assert -v_worse[0] < 1e-20 and -v_better[0] < 1e-20
        assert v_better[1] < v_worse[1] and v_better[2] < v_worse[2]

    @staticmethod
    def _stage2_inputs():
        rng = np.random.default_rng(8)
        Xd, y, c = constraint_dataset(rng, feasible=True)
        obj_model = build_gp(
            Dataset(Xd, y),
            KernelHyperParams(1.0, 0.1, np.array([0.5, 0.5])),
        )
        cmodel = build_gp(
            Dataset(Xd, c),
            KernelHyperParams(1.0, 0.1, np.array([0.5, 0.5])),
        )
        tau = float(y[c < 0].min())
        return obj_model, [cmodel], tau, rng.random((5, 2))

    @pytest.mark.parametrize("ensemble", [subset for k in (1, 2, 3)
                                          for subset in itertools.combinations(("lcb", "pi", "ei"), k)],
                             ids="-".join)
    def test_stage2_six_coordinates_match_direct_calls(self, ensemble):
        obj_model, cmodels, tau, X = self._stage2_inputs()
        out = build_stage2_objectives(obj_model, cmodels, tau, 2, ensemble)(X)
        assert out.shape == (5, len(ensemble) + 3)
        mu, s = predict(obj_model, X)
        cmu, cs = predict(cmodels[0], X)
        cmu, cs = cmu[:, None], cs[:, None]
        direct = {"lcb": acq.lcb(mu, s, acq.beta_schedule(2, 2)), "pi": -acq.pi(mu, s, tau),
                  "ei": -acq.ei(mu, s, tau)}
        for j, name in enumerate(ensemble):
            np.testing.assert_allclose(out[:, j], direct[name])
        np.testing.assert_allclose(out[:, -3], -acq.pf(cmu, cs))
        np.testing.assert_allclose(out[:, -2], acq.naive_violation(cmu))
        np.testing.assert_allclose(out[:, -1], acq.adaptive_violation(cmu, cs))
        composed = np.hstack([build_unconstrained_objectives(obj_model, tau, 2, ensemble)(X),
                              build_stage1_objectives(cmodels)(X)])
        assert out.tobytes() == composed.tobytes()

    def test_stage2_bypasses_the_public_builder_names(self, monkeypatch):
        # The tracer wraps each public builder's scorer in one span; stage 2
        # composing through those names would nest the spans.
        obj_model, cmodels, tau, X = self._stage2_inputs()
        expected = build_stage2_objectives(obj_model, cmodels, tau, 2)(X)
        calls = []

        def counting(name, builder):
            def build(*args, **kwargs):
                calls.append(name)
                return builder(*args, **kwargs)

            return build

        for name in ("build_unconstrained_objectives", "build_stage1_objectives"):
            monkeypatch.setattr(mace.engine, name, counting(name, getattr(mace.engine, name)))
        out = build_stage2_objectives(obj_model, cmodels, tau, 2)(X)
        assert calls == []
        assert out.tobytes() == expected.tobytes()

    def test_stage2_feasible_point_dominates_on_constraint_coords(self):
        rng = np.random.default_rng(9)
        obj = constant_model(0.3, 0.7)
        feas_con = constant_model(-2.0, 1.0)
        infeas_con = constant_model(+2.0, 1.0)
        x = rng.random((1, 2))
        v_feas = build_stage2_objectives(obj, [feas_con], 0.0)(x)[0]
        v_infeas = build_stage2_objectives(obj, [infeas_con], 0.0)(x)[0]
        np.testing.assert_allclose(v_feas[:3], v_infeas[:3])  # same objective posterior
        assert np.all(v_feas[3:] <= v_infeas[3:]) and np.any(v_feas[3:] < v_infeas[3:])

    def test_stage2_requires_constraints(self):
        with pytest.raises(DimensionMismatchError):
            build_stage2_objectives(constant_model(0, 1), [], 0.0)


class TestPrune:
    """Pruning reads the front's last objective column, the adaptive violation the ensemble scored."""

    @staticmethod
    def _set(violations, d=2, seed=0):
        rng = np.random.default_rng(seed)
        k = len(violations)
        return ParetoSet(rng.random((k, d)), np.column_stack([rng.random((k, 2)), violations]))

    def test_below_threshold_retained(self):
        ps = self._set([0.04] * 4)
        pruned, fallback = prune_candidates(ps, rho=0.05)
        assert not fallback and len(pruned) == len(ps)

    def test_exactly_at_threshold_retained(self):
        ps = self._set([0.05] * 4)
        pruned, fallback = prune_candidates(ps, rho=0.05)
        assert not fallback and len(pruned) == len(ps)

    def test_above_threshold_all_pruned_falls_back(self):
        ps = self._set([0.2] * 4)
        pruned, fallback = prune_candidates(ps, rho=0.05)
        assert fallback
        assert np.array_equal(pruned.points, ps.points)
        assert np.array_equal(pruned.objectives, ps.objectives)

    def test_mixed_members_exact_selection(self):
        viol = np.random.default_rng(11).uniform(0.0, 0.1, 40)
        viol[[3, 17]] = 0.05
        ps = self._set(viol, seed=11)
        expected = np.flatnonzero(viol <= 0.05)
        assert 0 < expected.size < 40  # the case actually straddles the threshold
        pruned, fallback = prune_candidates(ps, rho=0.05)
        assert not fallback
        np.testing.assert_array_equal(pruned.points, ps.points[expected])
        np.testing.assert_array_equal(pruned.objectives, ps.objectives[expected])

    @pytest.mark.parametrize("rho", [np.nan, -1, True, None, "0.05"])
    def test_rho_must_be_a_non_negative_number(self, rho):
        with pytest.raises(ValueError, match="^rho must be a non-negative number, not "):
            prune_candidates(self._set([0.04] * 4), rho)

    def test_infinite_rho_keeps_every_member(self):
        ps = self._set([0.0, 1e300, np.inf])
        pruned, fallback = prune_candidates(ps, np.inf)
        assert not fallback and len(pruned) == len(ps)


class TestSampleBatch:
    def test_plenty_of_members(self):
        rng = np.random.default_rng(0)
        ps = ParetoSet(rng.random((50, 3)), rng.random((50, 2)))
        prop = sample_batch(ps, 5, np.random.default_rng(1))
        assert prop.points.shape == (5, 3)
        assert all(p == "pareto-sample" for p in prop.provenance)
        # all members of the source set
        for row in prop.points:
            assert np.any(np.all(np.isclose(ps.points, row), axis=1))
        # pairwise distinct
        assert len({tuple(p) for p in map(tuple, prop.points)}) == 5

    def test_deficit_filled_with_random(self):
        rng = np.random.default_rng(0)
        ps = ParetoSet(rng.random((3, 2)), rng.random((3, 2)))
        prop = sample_batch(ps, 5, np.random.default_rng(2))
        assert prop.points.shape == (5, 2)
        assert list(prop.provenance).count("pareto-sample") == 3
        assert list(prop.provenance).count("fallback-random") == 2
        assert np.isnan(prop.objectives[3:]).all()

    def test_near_duplicates_counted_once(self):
        base = np.array([[0.5, 0.5]])
        pts = np.vstack([base, base + 1e-12, base + 2e-13])
        ps = ParetoSet(pts, np.zeros((3, 2)))
        prop = sample_batch(ps, 3, np.random.default_rng(3))
        assert list(prop.provenance).count("pareto-sample") == 1
        assert list(prop.provenance).count("fallback-random") == 2

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_must_be_a_positive_integer(self, batch_size):
        ps = ParetoSet(np.random.default_rng(0).random((5, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="^batch_size must be"):
            sample_batch(ps, batch_size, np.random.default_rng(0))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ps = ParetoSet(rng.random((20, 2)), rng.random((20, 3)))
        a = sample_batch(ps, 6, np.random.default_rng(9))
        b = sample_batch(ps, 6, np.random.default_rng(9))
        assert np.array_equal(a.points, b.points)
        assert a.provenance == b.provenance


def quadratic_1d():
    return Problem(
        name="quad1d",
        dim=1,
        lower=np.zeros(1),
        upper=np.ones(1),
        objective=lambda x: float((x[0] - 0.63) ** 2),
        known_optimum=0.0,
    )


def grid_sequential_ei(problem, n_init, n_iter, seed):
    """Sequential single-point EI with an argmax-on-grid inner solver."""
    rng = np.random.default_rng(seed)
    sampler = qmc.LatinHypercube(d=1, seed=int(rng.integers(2**31 - 1)))
    X = sampler.random(n_init)
    y = np.array([problem.objective(problem.denormalize(x)) for x in X])
    grid = np.linspace(0, 1, 2001)[:, None]
    for t in range(1, n_iter + 1):
        ds = Dataset(X, y)
        model = fit_gp(ds, restarts=5, seed=seed + t)
        mu, s = predict(model, grid)
        x_next = grid[np.argmax(acq.ei(mu, s, float(y.min())))]
        X = np.vstack([X, x_next])
        y = np.append(y, problem.objective(problem.denormalize(x_next)))
    return X[np.argmin(y), 0]


class TestRunUnconstrained:
    def test_b1_ei_matches_sequential_oracle(self):
        problem = quadratic_1d()
        cfg = RunConfig(n_iter=10, batch_size=1, n_init=6, seed=5,
                        ensemble=("ei",), demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg)
        x_engine = rec.final_incumbent.x[0]
        x_oracle = grid_sequential_ei(problem, n_init=6, n_iter=10, seed=5)
        assert abs(x_engine - 0.63) <= 0.05
        assert abs(x_oracle - 0.63) <= 0.05

    def test_zero_iterations_returns_initial_best(self):
        problem = builtin("branin")
        cfg = RunConfig(n_iter=0, batch_size=5, n_init=8, seed=1, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg)
        assert len(rec.evaluations) == 8
        ys = [r.y for r in rec.evaluations]
        assert rec.final_incumbent.y == pytest.approx(min(ys))

    def test_budget_exact_and_incumbent_monotone(self):
        problem = builtin("branin")
        cfg = RunConfig(n_iter=3, batch_size=4, n_init=6, seed=2, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg)
        assert len(rec.evaluations) == cfg.total_evaluations
        vals = [inc.y for inc in rec.incumbent_trace]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_seed_determinism(self):
        problem = builtin("branin")
        cfg = RunConfig(n_iter=2, batch_size=3, n_init=5, seed=3, demo=SMALL_DEMO)
        assert run_unconstrained(problem, cfg).signature() == run_unconstrained(problem, cfg).signature()

    def test_batch_points_distinct_and_non_dominated(self):
        problem = builtin("branin")
        cfg = RunConfig(n_iter=3, batch_size=5, n_init=8, seed=4, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg)
        for it in rec.iterations:
            sampled = [k for k, p in enumerate(it.provenance) if p == "pareto-sample"]
            F = it.objectives[sampled]
            for i in range(len(F)):
                for j in range(len(F)):
                    if i != j:
                        assert not (np.all(F[i] <= F[j]) and np.any(F[i] < F[j]))
            pts = it.objectives[sampled]
            assert len({tuple(p) for p in map(tuple, pts)}) == len(sampled)

    def test_faulted_points_recorded_and_run_continues(self, tmp_path):
        problem = builtin("branin")
        base = make_evaluator(problem)
        count = [0]

        def flaky(X):
            y, C = base(X)
            for i in range(len(y)):
                count[0] += 1
                if count[0] % 5 == 0:
                    y[i] = np.nan
            return y, C

        cfg = RunConfig(n_iter=3, batch_size=4, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg, evaluator=flaky)
        assert len(rec.evaluations) == cfg.total_evaluations
        faults = [r for r in rec.evaluations if r.faulted]
        assert len(faults) == cfg.total_evaluations // 5
        # Their C rows are empty, so all(c < 0) alone would call them feasible.
        assert not any(r.feasible for r in faults)
        assert rec.final_incumbent is not None
        write_run_csv(tmp_path / "run.csv", rec)
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["feasible"] for row in rows if row["y"] == "nan"] == ["0"] * len(faults)

    def test_faulted_initial_design_is_a_defined_error(self):
        problem = builtin("branin")
        base = make_evaluator(problem)
        calls = [0]

        def dead_start(X):
            calls[0] += 1
            y, C = base(X)
            if calls[0] == 1:
                y[:] = np.nan
            return y, C

        cfg = RunConfig(n_iter=2, batch_size=3, n_init=6, seed=6, demo=SMALL_DEMO)
        with pytest.raises(EvaluatorFaultError, match="fewer than two usable observations"):
            run_unconstrained(problem, cfg, evaluator=dead_start)

    def test_whole_faulted_batch_run_continues(self):
        problem = builtin("branin")
        base = make_evaluator(problem)
        calls = [0]

        def dead_batch(X):
            calls[0] += 1
            y, C = base(X)
            if calls[0] == 3:  # the initial design, then iterations 1, 2, ...
                y[:] = np.nan
            return y, C

        cfg = RunConfig(n_iter=4, batch_size=4, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg, evaluator=dead_batch)
        assert len(rec.evaluations) == cfg.total_evaluations
        assert [r.faulted for r in rec.evaluations] == [r.iteration == 2 for r in rec.evaluations]
        vals = [inc.y for inc in rec.incumbent_trace]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_objective_exceptions_fault_their_points(self):
        def objective(x):
            if x[0] < 0.3:
                raise ZeroDivisionError("objective undefined for x0 < 0.3")
            return float((x[0] - 0.63) ** 2 + (x[1] - 0.4) ** 2)

        problem = Problem("left-undefined", 2, np.zeros(2), np.ones(2), objective)
        cfg = RunConfig(n_iter=3, batch_size=4, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = run_unconstrained(problem, cfg)
        assert len(rec.evaluations) == cfg.total_evaluations
        faulted = [r.faulted for r in rec.evaluations]
        assert any(faulted)
        assert faulted == [bool(r.x[0] < 0.3) for r in rec.evaluations]
        assert rec.final_incumbent.x[0] >= 0.3

class TestRunConstrained:
    def test_requires_constraints(self):
        with pytest.raises(DimensionMismatchError):
            run_constrained(builtin("branin"), RunConfig(n_iter=1, batch_size=2, demo=SMALL_DEMO))

    def test_stage_monotone_and_pruning_contract(self):
        problem = builtin("constrained-branin")
        cfg = RunConfig(n_iter=6, batch_size=4, n_init=10, seed=0,
                        mode="constrained", demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        stages = [it.stage for it in rec.iterations]
        if "stage2" in stages:
            first = stages.index("stage2")
            assert all(s == "stage2" for s in stages[first:])
        for it in rec.iterations:
            if it.stage == "stage2" and not it.fallback:
                sampled = [k for k, p in enumerate(it.provenance) if p == "pareto-sample"]
                assert np.all(it.adaptive_violations[sampled] <= cfg.rho)
        # the disc constraint is easy: the final incumbent must be feasible
        assert rec.final_incumbent.feasible

    def test_one_stage_variant_never_seeks(self):
        problem = builtin("constrained-branin")
        cfg = RunConfig(n_iter=4, batch_size=3, n_init=8, seed=1,
                        mode="constrained", one_stage=True, demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        assert rec.algorithm == "omace"
        assert all(it.stage == "stage2" for it in rec.iterations)

    def test_stage1_fits_only_constraint_models(self, monkeypatch):
        calls = []
        original = mace.engine.fit_gp

        def counting_fit_gp(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(mace.engine, "fit_gp", counting_fit_gp)
        problem = builtin("ring-constrained-2d")
        cfg = RunConfig(n_iter=4, batch_size=3, n_init=6, seed=6,
                        mode="constrained", demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        stages = [it.stage for it in rec.iterations]
        assert "stage1" in stages and "stage2" in stages
        n_c = problem.n_constraints
        assert len(calls) == sum(n_c + (s != "stage1") for s in stages)

    @pytest.mark.parametrize("runner, problem_name", [(run_constrained, "ring-constrained-2d"),
                                                      (run_unconstrained, "branin")])
    def test_refits_start_from_the_previous_iterations_fits(self, monkeypatch, runner, problem_name):
        calls = []  # (previous, fitted hyperparameters) per fit, in call order
        original = mace.engine.fit_gp

        def recording_fit_gp(dataset, seed=0, previous=None, **kwargs):
            model = original(dataset, seed=seed, previous=previous, **kwargs)
            calls.append((previous, model.hyperparams))
            return model

        monkeypatch.setattr(mace.engine, "fit_gp", recording_fit_gp)
        problem = builtin(problem_name)
        cfg = RunConfig(n_iter=4, batch_size=3, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = runner(problem, cfg)
        n_c = rec.n_constraints
        fits = iter(calls)
        last = (None,) * (n_c + 1)
        for it in rec.iterations:
            assert len(it.hyperparams) == n_c + 1
            models = range(n_c) if it.stage == "stage1" else range(n_c + 1)
            for j in models:
                previous, fitted = next(fits)
                assert previous is last[j]
                assert it.hyperparams[j] is fitted
            if it.stage == "stage1":
                assert it.hyperparams[n_c] is None
            last = it.hyperparams
        assert next(fits, None) is None
        stages = [it.stage for it in rec.iterations]
        if n_c:
            assert "stage1" in stages and "stage2" in stages
        # The objective's first fit is cold, also when it comes after stage 1.
        first_objective_fit = calls[n_c * (stages.count("stage1") + 1)]
        assert first_objective_fit[0] is None

    def test_hyperparams_stay_outside_the_signature(self):
        problem = builtin("ring-constrained-2d")
        cfg = RunConfig(n_iter=2, batch_size=3, n_init=6, seed=3, demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        before = rec.signature()
        assert all(len(it.hyperparams) == 2 for it in rec.iterations)
        other = KernelHyperParams(1.0, 0.1, [0.5, 0.5])
        rec.iterations = [dataclasses.replace(it, hyperparams=(other, None)) for it in rec.iterations]
        assert rec.signature() == before

    def test_adaptive_violations_are_the_last_objective_column(self):
        problem = builtin("ring-constrained-2d")
        cfg = RunConfig(n_iter=4, batch_size=3, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        assert {"stage1", "stage2"} <= {it.stage for it in rec.iterations}
        for it in rec.iterations:
            assert np.array_equal(it.adaptive_violations, it.objectives[:, -1], equal_nan=True)
        unconstrained = run_unconstrained(problem, cfg)
        assert all(it.adaptive_violations is None for it in unconstrained.iterations)

    def test_every_predict_runs_inside_the_inner_solve(self, monkeypatch):
        inside, calls = [False], []
        original_predict, original_demo = mace.engine.predict, mace.engine.demo_optimize

        def recording_predict(*args, **kwargs):
            calls.append(inside[0])
            return original_predict(*args, **kwargs)

        def flagging_demo(*args, **kwargs):
            inside[0] = True
            try:
                return original_demo(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(mace.engine, "predict", recording_predict)
        monkeypatch.setattr(mace.engine, "demo_optimize", flagging_demo)
        cfg = RunConfig(n_iter=4, batch_size=3, n_init=6, seed=6, demo=SMALL_DEMO)
        rec = run_constrained(builtin("ring-constrained-2d"), cfg)
        assert {"stage1", "stage2"} <= {it.stage for it in rec.iterations}
        assert calls and all(calls)

    def test_incumbent_ordering_feasible_first(self):
        problem = builtin("ring-constrained-2d")
        cfg = RunConfig(n_iter=2, batch_size=3, n_init=8, seed=2,
                        mode="constrained", demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        keys = [inc.order_key() for inc in rec.incumbent_trace if inc is not None]
        assert all(a >= b for a, b in zip(keys, keys[1:]))


    def test_non_finite_constraint_faults_the_point(self):
        def constraint(x):
            return float("nan") if x[0] < 0.3 else x[1] - 0.5

        problem = Problem("nan-constraint", 2, np.zeros(2), np.ones(2),
                          objective=lambda x: float(x @ x), constraints=(constraint,))
        y, C = make_evaluator(problem)(np.array([[0.1, 0.2], [0.6, 0.2]]))
        assert np.isnan(y[0]) and np.isnan(C[0, 0])
        assert y[1] == pytest.approx(0.4) and C[1, 0] == pytest.approx(-0.3)
        cfg = RunConfig(n_iter=2, batch_size=3, n_init=8, seed=0, mode="constrained", demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg)
        assert any(r.faulted for r in rec.evaluations)
        for r in rec.evaluations:
            assert r.faulted == bool(r.x[0] < 0.3)
            assert np.isnan(r.y) == r.faulted

    @pytest.mark.parametrize("corrupt", [
        lambda y, C: (y, np.hstack([C, C[:, :1]])),
        lambda y, C: (np.append(y, y[0]), np.vstack([C, C[:1]])),
        lambda y, C: (y[:-1], C[:-1]),
    ], ids=["extra-constraint-column", "extra-row", "missing-row"])
    def test_evaluator_result_shape_checked(self, corrupt):
        problem = builtin("ring-constrained-2d")
        base = make_evaluator(problem)
        calls = [0]

        def bad_first_proposal(X):
            calls[0] += 1
            y, C = base(X)
            return corrupt(y, C) if calls[0] == 2 else (y, C)

        cfg = RunConfig(n_iter=2, batch_size=3, n_init=6, seed=0, demo=SMALL_DEMO)
        with pytest.raises(DimensionMismatchError, match="expected"):
            run_constrained(problem, cfg, evaluator=bad_first_proposal)
        # The check comes before any row of the bad batch is recorded.
        rec = RunRecord(problem.name, "mace", problem.dim, problem.n_constraints, cfg)
        X = np.random.default_rng(0).random((3, problem.dim))
        y, C = corrupt(*base(X))
        with pytest.raises(DimensionMismatchError):
            rec.add_batch(1, X, y, C, ["pareto-sample"] * 3, 0.0)
        assert rec.evaluations == [] and rec.incumbent_trace == []


class TestFaultInjection:
    """A seeded 20% of all points fault, initial design included, under every runner."""

    @staticmethod
    def flaky(problem, injected: list):
        """The problem's evaluator with a seeded 20% of points faulted; ``injected`` collects the hits."""
        base = make_evaluator(problem)
        inject = np.random.default_rng(17)

        def evaluator(X):
            y, C = base(X)
            hit = inject.random(len(y)) < 0.2
            y[hit] = np.nan
            C[hit] = np.nan
            injected.extend(hit.tolist())
            return y, C

        return evaluator

    @pytest.mark.parametrize("runner, problem_name, extra", [
        (run_unconstrained, "branin", {}),
        (run_constrained, "ring-constrained-2d", {"mode": "constrained"}),
        (run_constrained, "ring-constrained-2d", {"mode": "constrained", "one_stage": True}),
        (run_random, "ring-constrained-2d", {"mode": "constrained"}),
    ], ids=["unconstrained-branin", "mace-ring", "omace-ring", "random-ring"])
    def test_faults_recorded_and_never_incumbent(self, runner, problem_name, extra):
        problem = builtin(problem_name)
        injected = []
        cfg = RunConfig(n_iter=5, batch_size=4, n_init=10, seed=3, demo=SMALL_DEMO, **extra)
        rec = runner(problem, cfg, evaluator=self.flaky(problem, injected))
        assert len(rec.evaluations) == cfg.total_evaluations
        assert any(injected) and not all(injected)
        assert [r.faulted for r in rec.evaluations] == injected
        assert all(inc is None or not rec.evaluations[inc.eval_index].faulted
                   for inc in rec.incumbent_trace)
        started = [inc is not None for inc in rec.incumbent_trace]
        assert started == sorted(started)
        keys = [inc.order_key() for inc in rec.incumbent_trace if inc is not None]
        assert all(a >= b for a, b in zip(keys, keys[1:]))

    def test_trace_holds_the_evaluation_records(self):
        problem = builtin("ring-constrained-2d")
        injected = []
        cfg = RunConfig(n_iter=3, batch_size=4, n_init=10, seed=3, demo=SMALL_DEMO)
        rec = run_constrained(problem, cfg, evaluator=self.flaky(problem, injected))
        assert any(injected)
        traced = [inc for inc in rec.incumbent_trace if inc is not None]
        assert traced and all(inc is rec.evaluations[inc.eval_index] for inc in traced)
        assert rec.final_incumbent is traced[-1]


class TestEvalRecord:
    @pytest.mark.parametrize("c, key", [
        ([], (0, 1.5)),
        ([-0.5, -2.0], (0, 1.5)),
        ([0.0], (1, 0.0)),
        ([0.5, -1.0, 2.0], (1, 2.5)),
    ], ids=["unconstrained", "feasible", "on-the-boundary", "infeasible"])
    def test_order_key(self, c, key):
        assert EvalRecord(0, 0, np.zeros(2), 1.5, np.array(c, dtype=float), "init", 0.0).order_key() == key

    def test_warm_start_vectorizes_order_key(self):
        rng = np.random.default_rng(5)
        X, y, C = rng.random((40, 2)), rng.normal(size=40), rng.normal(size=(40, 3))
        y[[3, 11, 20]] = y[1]  # ties keep the earlier record
        C[[1, 3, 11, 20]] = -1.0
        y[::9], C[4::9] = np.nan, np.nan
        rec = RunRecord("synthetic", "mace", 2, 3, RunConfig(n_iter=0, batch_size=1))
        rec.add_batch(0, X, y, C, ["init"] * 40, 0.0)
        usable = [r for r in rec.evaluations if not r.faulted]
        assert 0 < sum(r.feasible for r in usable) < len(usable) < 40
        expected = [r.x for r in sorted(usable, key=EvalRecord.order_key)]
        ds, C_usable = rec.dataset(3)
        for cap in (len(usable), 7):
            np.testing.assert_array_equal(_warm_start(ds, C_usable, cap), expected[:cap])


class TestRunRandom:
    def test_budget_and_determinism(self):
        problem = builtin("sphere10")
        cfg = RunConfig(n_iter=4, batch_size=5, n_init=6, seed=0, demo=SMALL_DEMO)
        a = run_random(problem, cfg)
        b = run_random(problem, cfg)
        assert len(a.evaluations) == cfg.total_evaluations
        assert a.signature() == b.signature()

    def test_every_point_is_a_uniform_draw(self):
        problem = builtin("ring-constrained-2d")
        cfg = RunConfig(n_iter=3, batch_size=4, n_init=6, seed=11)
        rec = run_random(problem, cfg)
        g = np.random.default_rng(11)
        expected = [g.random((n, problem.dim)) for n in (6, 4, 4, 4)]
        np.testing.assert_array_equal(np.vstack([r.x for r in rec.evaluations]), np.vstack(expected))
        assert [r.provenance for r in rec.evaluations] == ["init"] * 6 + ["random"] * 12
        assert [r.iteration for r in rec.evaluations] == [0] * 6 + [1] * 4 + [2] * 4 + [3] * 4


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n_iter=1, batch_size=0)
        with pytest.raises(ValueError):
            RunConfig(n_iter=1, batch_size=1, n_init=1)
        with pytest.raises(ValueError):
            RunConfig(n_iter=1, batch_size=1, ensemble=())
        with pytest.raises(ValueError):
            RunConfig(n_iter=1, batch_size=1, ensemble=("ucb",))
        with pytest.raises(ValueError, match="n_iter"):
            RunConfig(n_iter=-1, batch_size=1)
        with pytest.raises(ValueError, match="mode"):
            RunConfig(n_iter=1, batch_size=1, mode="two-stage")

    @pytest.mark.parametrize("ensemble", [None, 5, 1.5])
    def test_ensemble_must_be_names(self, ensemble):
        with pytest.raises(ValueError, match="^ensemble must be a name or an iterable of names"):
            RunConfig(n_iter=1, batch_size=1, ensemble=ensemble)

    @pytest.mark.parametrize("field, minimum", [("n_iter", 0), ("batch_size", 1), ("n_init", 2), ("seed", 0)])
    def test_declared_minimums(self, field, minimum):
        with pytest.raises(ValueError, match=f"^{field} must be at least {minimum}$"):
            RunConfig(**{"n_iter": 1, "batch_size": 1, field: minimum - 1})
        assert getattr(RunConfig(**{"n_iter": 1, "batch_size": 1, field: minimum}), field) == minimum

    @pytest.mark.parametrize("field", ["n_iter", "batch_size", "n_init", "seed"])
    @pytest.mark.parametrize("value", [1.5, 4.0, "4", True, None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{"n_iter": 1, "batch_size": 1, field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_one_stage_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="^one_stage must be a bool, "):
            RunConfig(n_iter=1, batch_size=1, one_stage=value)

    @pytest.mark.parametrize("value", [-0.1, float("nan"), True, "0.1", None])
    def test_rho_must_be_a_non_negative_number(self, value):
        with pytest.raises(ValueError, match="^rho must be a non-negative number, not "):
            RunConfig(n_iter=1, batch_size=1, rho=value)

    @pytest.mark.parametrize("value", [0, 0.05, np.float64(0.1), np.int64(1), float("inf")])
    def test_numeric_rho_accepted(self, value):
        assert RunConfig(n_iter=1, batch_size=1, rho=value).rho == value

    def test_numpy_bool_one_stage_accepted(self):
        assert RunConfig(n_iter=1, batch_size=1, one_stage=np.bool_(True)).one_stage

    def test_numpy_integer_counts_accepted(self):
        cfg = RunConfig(n_iter=np.int64(1), batch_size=np.int32(2), n_init=np.int64(4), seed=np.uint8(2))
        assert cfg.total_evaluations == 6

    def test_ensemble_canonicalized(self):
        cfg = RunConfig(n_iter=1, batch_size=1, ensemble=("EI", "pi"))
        assert cfg.ensemble == ("pi", "ei")

    def test_ensemble_string_is_one_member(self):
        assert RunConfig(n_iter=1, batch_size=1, ensemble="EI").ensemble == ("ei",)
        model, ds = toy_model(np.random.default_rng(0))
        assert build_unconstrained_objectives(model, float(ds.y.min()), ensemble="ei")(ds.X).shape == (12, 1)
        with pytest.raises(ValueError, match=r"unknown ensemble members: \['pi,ei'\]"):
            RunConfig(n_iter=1, batch_size=1, ensemble="pi,ei")


class TestInitialDesign:
    SEEDS = range(24)

    @staticmethod
    def lhs(n, d, seed):
        return _latin_hypercube(n, d, np.random.default_rng(seed))

    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 120])
    def test_byte_identical_to_scipy_latin_hypercube(self, n, d):
        for seed in self.SEEDS:
            s = int(np.random.default_rng(seed).integers(2**31 - 1))
            expected = qmc.LatinHypercube(d=d, seed=s).random(n)
            got = self.lhs(n, d, seed)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), (n, d, seed)

    @pytest.mark.parametrize("n, d", [(1, 3), (7, 4), (120, 2)])
    def test_one_point_per_stratum_in_every_column(self, n, d):
        for seed in self.SEEDS:
            X = self.lhs(n, d, seed)
            assert np.all((X >= 0.0) & (X < 1.0))
            strata = np.sort(np.floor(X * n).astype(int), axis=0)
            assert np.array_equal(strata, np.tile(np.arange(n)[:, None], (1, d)))

    def test_uniform_is_the_run_generators_first_draw(self):
        # run_random's initial design; the MACE runners start from the Latin hypercube.
        rec = run_random(builtin("hartmann6"), RunConfig(n_iter=0, batch_size=1, n_init=7, seed=5))
        got = np.vstack([r.x for r in rec.evaluations])
        assert got.tobytes() == np.random.default_rng(5).random((7, 6)).tobytes()
        assert [r.provenance for r in rec.evaluations] == ["init"] * 7

    @staticmethod
    def fresh_import_loads(module):
        """What a fresh interpreter prints for ``module in sys.modules`` after ``import mace, mace.cli``."""
        src = str(Path(mace.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, mace, mace.cli; print({module!r} in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return out.stdout.strip()

    def test_import_does_not_load_scipy_stats(self):
        assert self.fresh_import_loads("scipy.stats") == "False"

    def test_import_does_not_load_scipy_optimize(self):
        assert self.fresh_import_loads("scipy.optimize") == "False"

    @pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special", "scipy._lib._array_api"])
    def test_import_does_not_load_scipy_package(self, module):
        assert self.fresh_import_loads(module) == "False"


def blas_counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS found set to two threads for the test, then put back."""
    controls = gp._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    before = blas_counts(controls)
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


class BlasProbe:
    """A proposer/evaluator pair for ``_run`` that records the BLAS thread counts each sees."""

    def __init__(self, controls, inside=None):
        self.controls = controls
        self.inside = inside or (lambda: None)
        self.in_propose, self.in_evaluator = [], []

    def propose(self, rec, t, rng):
        self.in_propose.append(blas_counts(self.controls))
        self.inside()
        return rng.random((1, 2)), ["probe"], None

    def evaluator(self, X):
        self.in_evaluator.append(blas_counts(self.controls))
        return np.zeros(len(X)), np.zeros((len(X), 0))

    def run(self, n_iter=2):
        config = RunConfig(n_iter=n_iter, batch_size=1, n_init=2)
        return _run(builtin("branin"), config, self.evaluator, "probe", self.propose)


def probe_gp(monkeypatch, controls, name):
    """Wrap ``gp.<name>`` so that each call records the BLAS thread counts it sees."""
    seen, original = [], getattr(gp, name)

    def probed(*args, **kwargs):
        seen.append(blas_counts(controls))
        return original(*args, **kwargs)

    monkeypatch.setattr(gp, name, probed)
    return seen


# Each GP entry point, called on a toy model and its data, with the module
# global it reaches before returning.
GP_CALLS = {
    "fit_gp": (lambda model, ds: fit_gp(ds, restarts=2), "_neg_lml_and_grad"),
    "build_gp": (lambda model, ds: build_gp(ds, model.hyperparams), "kernel_matrix"),
    "predict": (lambda model, ds: predict(model, ds.X), "kernel_matrix"),
}


class TestProposeOnOneBlasThread:
    """``build_gp``, ``fit_gp`` and ``predict`` pin BLAS to one thread; the rest runs at the process's count."""

    @pytest.mark.parametrize("call", GP_CALLS)
    def test_gp_call_pinned_outside_a_run(self, blas_at_two, monkeypatch, call):
        gp_call, probed = GP_CALLS[call]
        model, ds = toy_model(np.random.default_rng(0))
        seen = probe_gp(monkeypatch, blas_at_two, probed)
        gp_call(model, ds)
        assert seen and all(counts == [1] * len(blas_at_two) for counts in seen)
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)
        assert gp._blas_depth == 0

    def test_run_leaves_propose_and_evaluator_at_process_count(self, blas_at_two):
        # The probe's proposer calls no GP function, so nothing pins it.
        probe = BlasProbe(blas_at_two)
        rec = probe.run(n_iter=3)
        twos = [2] * len(blas_at_two)
        assert len(rec.evaluations) == 4
        assert probe.in_propose == [twos] * 4
        assert probe.in_evaluator == [twos] * 4
        assert blas_counts(blas_at_two) == twos
        assert gp._blas_depth == 0

    def test_restored_when_propose_raises(self, blas_at_two, monkeypatch):
        model, _ = toy_model(np.random.default_rng(0))
        seen = probe_gp(monkeypatch, blas_at_two, "kernel_matrix")
        # The model has two inputs, so kernel_matrix raises inside predict.
        probe = BlasProbe(blas_at_two, inside=lambda: predict(model, np.zeros((1, 3))))
        with pytest.raises(DimensionMismatchError):
            probe.run()
        assert seen == [[1] * len(blas_at_two)]
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)
        assert gp._blas_depth == 0

    def test_nested_calls_restore_once(self, blas_at_two, monkeypatch):
        # fit_gp ends in build_gp: the inner call must not restore the count
        # while the outer one still holds it.
        after_inner, build = [], gp.build_gp

        def build_then_probe(*args):
            model = build(*args)
            after_inner.append(blas_counts(blas_at_two))
            return model

        monkeypatch.setattr(gp, "build_gp", build_then_probe)
        _, ds = toy_model(np.random.default_rng(0))
        fit_gp(ds, restarts=1)
        assert after_inner == [[1] * len(blas_at_two)]
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)
        assert gp._blas_depth == 0

    def test_concurrent_calls_restore_once(self, blas_at_two, monkeypatch):
        model, ds = toy_model(np.random.default_rng(0))
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen_by_second, errors = [], []
        kernel = gp.kernel_matrix

        def kernel_after_both_enter(*args):
            both_inside.wait()
            if threading.current_thread().name == "second":
                assert first_done.wait(timeout=30)
                seen_by_second.append(blas_counts(blas_at_two))
            return kernel(*args)

        def call(done=None):
            try:
                predict(model, ds.X)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
                both_inside.abort()
            if done is not None:
                done.set()

        monkeypatch.setattr(gp, "kernel_matrix", kernel_after_both_enter)
        threads = [threading.Thread(target=call, args=(first_done,), name="first"),
                   threading.Thread(target=call, name="second")]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not errors and not any(th.is_alive() for th in threads)
        # The first call to leave must not restore the count under the second.
        assert seen_by_second == [[1] * len(blas_at_two)]
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)
        assert gp._blas_depth == 0

    def test_pin_under_thread_contention(self, blas_at_two):
        # More threads than cores and a short switch interval, so a lost
        # update of the shared depth would leave the count pinned or restore
        # it under a holder.
        seen, errors = [], []

        def hold():
            try:
                for _ in range(2000):
                    with gp._one_blas_thread():
                        seen.append(blas_counts(blas_at_two))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold) for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(th.is_alive() for th in threads)
        assert len(seen) == 2000 * len(threads)
        assert all(counts == [1] * len(blas_at_two) for counts in seen)
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)
        assert gp._blas_depth == 0

    def test_runs_when_no_blas_is_found(self, monkeypatch):
        monkeypatch.setattr(gp, "_openblas_thread_controls", lambda: ())
        cfg = RunConfig(n_iter=1, batch_size=2, n_init=6, seed=0, demo=SMALL_DEMO)
        rec = run_unconstrained(builtin("branin"), cfg)
        assert len(rec.evaluations) == cfg.total_evaluations
        assert gp._blas_depth == 0


# Prints the sha256 of repr(signature()) of a short branin and a short ring run.
SIGNATURE_SCRIPT = """
import hashlib
from mace.engine import RunConfig, run_constrained, run_unconstrained
from mace.problems import builtin
runs = (run_unconstrained(builtin("branin"), RunConfig(n_iter={n_iter}, batch_size=5, n_init=20, seed={seed})),
        run_constrained(builtin("ring-constrained-2d"), RunConfig(n_iter={n_iter}, batch_size=5, n_init=20,
                                                                  seed={seed})))
for rec in runs:
    print(hashlib.sha256(repr(rec.signature()).encode()).hexdigest())
"""


def signature_digests(blas_threads: int, n_iter: int, seed: int) -> list:
    src = str(Path(mace.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SIGNATURE_SCRIPT.format(n_iter=n_iter, seed=seed)],
                         env=env, capture_output=True, text=True, timeout=600, check=True)
    return out.stdout.split()


def test_signature_does_not_depend_on_blas_thread_count():
    # Rounding in a two-thread factorization differs from a one-thread one, so
    # without the pin these runs already part within their first iterations.
    one, two = signature_digests(1, n_iter=4, seed=0), signature_digests(2, n_iter=4, seed=0)
    assert len(one) == 2 and one == two
