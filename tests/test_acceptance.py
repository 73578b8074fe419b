"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).  Campaign
fixtures are session-scoped so the expensive runs execute once.
"""

import json
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mace import acquisition as acq
from mace.acquisition import beta_schedule, ei, pi
from mace.cli import parse_config, run_campaign
from mace.demo import pareto_front
from mace.engine import RunConfig, run_constrained, run_random, run_unconstrained
from mace.gp import Dataset, KernelHyperParams, build_gp, predict
from mace.problems import builtin

BRANIN_OPT = 0.39788735772973816


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------- campaigns


@pytest.fixture(scope="session")
def branin_b5():
    problem = builtin("branin")
    start = time.perf_counter()
    records = [
        run_unconstrained(problem, RunConfig(n_iter=16, batch_size=5, n_init=20, seed=s))
        for s in range(20)
    ]
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def branin_random():
    problem = builtin("branin")
    return [
        run_random(problem, RunConfig(n_iter=16, batch_size=5, n_init=20, seed=s))
        for s in range(20)
    ]


@pytest.fixture(scope="session")
def branin_b15():
    problem = builtin("branin")
    start = time.perf_counter()
    records = [
        run_unconstrained(problem, RunConfig(n_iter=5, batch_size=15, n_init=20, seed=s))
        for s in range(20)
    ]
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def ring_runs():
    problem = builtin("ring-constrained-2d")
    start = time.perf_counter()
    mace = [
        run_constrained(problem, RunConfig(n_iter=20, batch_size=5, n_init=20, seed=s,
                                           mode="constrained"))
        for s in range(20)
    ]
    omace = [
        run_constrained(problem, RunConfig(n_iter=20, batch_size=5, n_init=20, seed=s,
                                           mode="constrained", one_stage=True))
        for s in range(20)
    ]
    rand = [
        run_random(problem, RunConfig(n_iter=20, batch_size=5, n_init=20, seed=s,
                                      mode="constrained", init_design="uniform"))
        for s in range(20)
    ]
    return mace, omace, rand, time.perf_counter() - start


def regrets(records):
    return np.array([r.final_incumbent.y - BRANIN_OPT for r in records])


def first_feasible_or_inf(records):
    return np.array(
        [r.evals_to_first_feasible if r.evals_to_first_feasible else np.inf for r in records]
    )


def mean_final_or_inf(records):
    vals = [r.final_incumbent.y for r in records
            if r.final_incumbent is not None and r.final_incumbent.feasible]
    return float(np.mean(vals)) if vals else float("inf")


# ---------------------------------------------------------------- criteria


def test_criterion_1_gp_dense_inverse_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 51))
        d = int(rng.integers(1, 7))
        X = rng.random((n, d))
        y = np.sin(X @ rng.uniform(1, 4, d)) + 0.1 * rng.standard_normal(n)
        ds = Dataset(X, y)
        hyp = KernelHyperParams(rng.uniform(0.3, 2), rng.uniform(0.02, 0.5),
                                rng.uniform(0.1, 2, d))
        model = build_gp(ds, hyp)

        scale = y.std() if y.std() > 1e-12 else 1.0
        y_std = (y - y.mean()) / scale
        lam = hyp.lengthscales
        A = X / lam
        sq = ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
        K = hyp.signal_stddev**2 * np.exp(-0.5 * sq) + hyp.noise_stddev**2 * np.eye(n)
        K_inv = np.linalg.inv(K)

        Xq = rng.random((20, d))
        B = Xq / lam
        sq_q = ((B[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
        ks = hyp.signal_stddev**2 * np.exp(-0.5 * sq_q)
        mean_o = y.mean() + scale * ks @ K_inv @ y_std
        var_o = np.maximum(hyp.signal_stddev**2 - np.einsum("ij,jk,ik->i", ks, K_inv, ks), 0.0)
        std_o = scale * np.sqrt(var_o)

        mean, std = predict(model, Xq)
        denom_m = np.maximum(np.abs(mean_o), 1e-2)
        denom_s = np.maximum(np.abs(std_o), 1e-2)
        worst = max(worst,
                    float(np.max(np.abs(mean - mean_o) / denom_m)),
                    float(np.max(np.abs(std - std_o) / denom_s)))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-8 and elapsed < 10,
           f"max relative error {worst:.2e}, {elapsed:.1f}s over 50 datasets")


def test_criterion_2_acquisition_monte_carlo_oracle():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    worst_ei, worst_pi = 0.0, 0.0
    # scales where a 1e6-sample estimate resolves the 3e-3 tolerance (SE <~ 1e-3)
    for k in range(100):
        mean = float(rng.uniform(-1, 1))
        stddev = float(rng.uniform(0.05, 1.0))
        tau = float(rng.uniform(-1, 1))
        samples = np.random.default_rng(3000 + k).normal(mean, stddev, 1_000_000)
        thresh = tau - 0.001
        mc_ei = float(np.mean(np.maximum(thresh - samples, 0.0)))
        mc_pi = float(np.mean(samples < thresh))
        worst_ei = max(worst_ei, abs(ei(mean, stddev, tau) - mc_ei))
        worst_pi = max(worst_pi, abs(pi(mean, stddev, tau) - mc_pi))
    elapsed = time.perf_counter() - start
    report(2, worst_ei < 3e-3 and worst_pi < 3e-3 and elapsed < 60,
           f"max |EI-MC| {worst_ei:.1e}, max |PI-MC| {worst_pi:.1e}, {elapsed:.1f}s")


def test_criterion_3_beta_formula():
    with mpmath.workdps(60):
        expected = float(mpmath.sqrt(
            2 * mpmath.mpf("0.5")
            * mpmath.log(mpmath.mpf(1) ** (mpmath.mpf(1) / 2 + 2) * mpmath.pi**2
                         / (3 * mpmath.mpf("0.05")))
        ))
    got = beta_schedule(1, 1)
    ok = abs(got - 2.0461) <= 1e-4 and abs(got - expected) <= 1e-12
    report(3, ok, f"beta(t=1,d=1)={got:.6f}, oracle {expected:.6f}")


def test_criterion_4_pareto_brute_force_oracle():
    rng = np.random.default_rng(4004)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(2, 5))
        if rng.random() < 0.3:
            F = rng.integers(0, 6, size=(n, m)).astype(float)  # many ties/duplicates
        else:
            F = rng.random((n, m))
        got = set(pareto_front(F))
        brute = set()
        for i in range(n):
            dominated = np.any(np.all(F <= F[i], axis=1) & np.any(F < F[i], axis=1))
            if not dominated:
                brute.add(i)
        if got != brute:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(4, mismatches == 0 and elapsed < 30,
           f"{mismatches} mismatches in 1000 instances, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_branin_regret_beats_random(branin_b5, branin_random):
    records, elapsed = branin_b5
    med_regret = float(np.median(regrets(records)))
    med_best = float(np.median([r.final_incumbent.y for r in records]))
    med_random = float(np.median([r.final_incumbent.y for r in branin_random]))
    ok = med_regret <= 0.2 and med_best <= med_random and elapsed < 600
    report(5, ok,
           f"median regret {med_regret:.4f} (<=0.2), median best {med_best:.4f} "
           f"vs random {med_random:.4f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_batch_size_robustness(branin_b5, branin_b15):
    rec5, el5 = branin_b5
    rec15, el15 = branin_b15
    med5 = float(np.median(regrets(rec5)))
    med15 = float(np.median(regrets(rec15)))
    ok = med15 <= 3.0 * med5 and (el5 + el15) < 1200
    report(6, ok, f"median regret B=15 {med15:.4f} vs 3x B=5 {3 * med5:.4f}, "
                  f"{el5 + el15:.0f}s total")


@pytest.mark.slow
def test_criterion_7_constrained_two_stage(ring_runs):
    mace, omace, rand, elapsed = ring_runs
    med_mace_first = float(np.median(first_feasible_or_inf(mace)))
    med_rand_first = float(np.median(first_feasible_or_inf(rand)))
    n_feasible = sum(1 for r in mace if r.final_incumbent.feasible)
    mace_mean = mean_final_or_inf(mace)
    omace_mean = mean_final_or_inf(omace)
    ok = (
        med_mace_first <= med_rand_first
        and n_feasible >= 18
        and mace_mean <= omace_mean
        and elapsed < 900
    )
    report(7, ok,
           f"median evals-to-feasible {med_mace_first:.0f} vs random {med_rand_first:.0f}, "
           f"feasible {n_feasible}/20, mean final {mace_mean:.4f} vs omace {omace_mean:.4f}, "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_pruning_contract(ring_runs):
    mace, _, _, _ = ring_runs
    checked, violations = 0, 0
    for rec in mace:
        for it in rec.iterations:
            if it.stage != "stage2" or it.fallback:
                continue
            for k, prov in enumerate(it.provenance):
                if prov == "pareto-sample":
                    checked += 1
                    if it.adaptive_violations[k] > 0.05:
                        violations += 1
    report(8, violations == 0 and checked > 0,
           f"{checked} stage-2 pareto-sample proposals checked, {violations} above rho=0.05")


def test_criterion_9_campaign_determinism(tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism") / "campaign"
    overrides = dict(
        problem="branin", budget=40, batch=4, n_init=8, repeats=2, seed=7,
        demo_population=30, demo_evaluations=120, gp_restarts=3,
        out_dir=str(out),
    )
    run_campaign(parse_config(None, overrides))
    first = (out / "summary.json").read_bytes()
    run_campaign(parse_config(None, overrides))
    second = (out / "summary.json").read_bytes()
    report(9, first == second, f"summary identical across reruns ({len(first)} bytes)")


def test_criterion_10_ensemble_subsets():
    problem = builtin("branin")
    failures = []
    for pair in (("pi", "ei"), ("ei", "lcb"), ("pi", "lcb")):
        for seed in range(3):
            cfg = RunConfig(n_iter=16, batch_size=5, n_init=20, seed=seed, ensemble=pair)
            rec = run_unconstrained(problem, cfg)
            if len(rec.evaluations) != cfg.total_evaluations:
                failures.append(f"{pair} seed {seed}: budget")
            vals = [inc.y for inc in rec.incumbent_trace]
            if any(a < b for a, b in zip(vals, vals[1:])):
                failures.append(f"{pair} seed {seed}: incumbent not monotone")
            for it in rec.iterations:
                sampled = [k for k, p in enumerate(it.provenance) if p == "pareto-sample"]
                F = it.objectives[sampled]
                if F.shape[1] != 2:
                    failures.append(f"{pair} seed {seed}: expected 2 objectives")
                for i in range(len(F)):
                    for j in range(len(F)):
                        if i != j and np.all(F[i] <= F[j]) and np.any(F[i] < F[j]):
                            failures.append(f"{pair} seed {seed}: dominated batch member")
    report(10, not failures, f"PI-EI / EI-LCB / PI-LCB suites clean"
           if not failures else "; ".join(failures[:3]))
