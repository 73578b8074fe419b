"""Batch Bayesian optimization by sampling from the Pareto front of an
acquisition-function ensemble, with a two-stage constrained mode."""

from .acquisition import (
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
from .demo import DemoConfig, ParetoSet, demo_optimize, dominates, pareto_front
from .engine import (
    BatchProposal,
    RunConfig,
    RunRecord,
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
from .gp import Dataset, GpModel, KernelHyperParams, build_gp, fit_gp, kernel_se, log_marginal_likelihood, predict
from .problems import Problem, builtin, evaluate, fom_weighted_sum

__version__ = "0.1.0"

__all__ = [
    "BatchProposal",
    "Dataset",
    "DemoConfig",
    "GpModel",
    "KernelHyperParams",
    "ParetoSet",
    "Problem",
    "RunConfig",
    "RunRecord",
    "adaptive_violation",
    "beta_schedule",
    "build_gp",
    "build_stage1_objectives",
    "build_stage2_objectives",
    "build_unconstrained_objectives",
    "builtin",
    "demo_optimize",
    "dominates",
    "ei",
    "evaluate",
    "fit_gp",
    "fom_weighted_sum",
    "kernel_se",
    "lcb",
    "log_marginal_likelihood",
    "make_evaluator",
    "naive_violation",
    "pareto_front",
    "pf",
    "pi",
    "predict",
    "prune_candidates",
    "run_constrained",
    "run_random",
    "run_unconstrained",
    "sample_batch",
    "std_normal_cdf",
    "std_normal_pdf",
]
