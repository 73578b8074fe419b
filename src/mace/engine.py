"""Outer optimization loops.

Each iteration fits GP surrogates, minimizes a vector of acquisition
objectives with differential evolution, and samples a batch of query points
from the resulting Pareto set.  Constrained runs work in two stages: hunt for
a first feasible point, then optimize under a feasibility-aware ensemble with
candidate pruning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import acquisition as acq
from .acquisition import AcqContext
from .demo import DemoConfig, ParetoSet, demo_optimize
from .errors import DimensionMismatchError, EvaluatorFaultError, StageError
from .gp import Dataset, GpModel, fit_gp, predict
from .problems import Problem, evaluate

ENSEMBLE_ORDER = ("lcb", "pi", "ei")

# An evaluator maps a (B, d) block of unit-cube points to (y, C) arrays of
# shape (B,) and (B, n_constraints); faults are reported as NaN entries.
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class Phase(Enum):
    """Constrained-run stage, derived from the data: once any observation is
    feasible the run optimizes; it never reverts to seeking."""

    SEEKING = "stage1"
    OPTIMIZING = "stage2"


def stage_of(dataset: Dataset) -> Phase:
    return Phase.OPTIMIZING if bool(np.any(dataset.feasible_mask())) else Phase.SEEKING


@dataclass(frozen=True)
class RunConfig:
    """All algorithm constants for one run."""

    n_iter: int
    batch_size: int
    n_init: int = 20
    xi: float = 0.001
    nu: float = 0.5
    delta: float = 0.05
    rho: float = 0.05
    demo: DemoConfig = field(default_factory=DemoConfig)
    seed: int = 0
    mode: str = "unconstrained"
    ensemble: tuple = ENSEMBLE_ORDER
    init_design: str = "lhs"
    gp_restarts: int = 5
    one_stage: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ensemble", _canonical_ensemble(self.ensemble))
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.n_init < 2:
            raise ValueError("n_init must be at least 2")
        if self.n_iter < 0:
            raise ValueError("n_iter must be non-negative")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.mode not in ("unconstrained", "constrained"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.init_design not in ("lhs", "uniform"):
            raise ValueError(f"unknown init_design: {self.init_design!r}")

    @property
    def total_evaluations(self) -> int:
        return self.n_init + self.n_iter * self.batch_size


@dataclass(frozen=True)
class BatchProposal:
    """The points selected for concurrent evaluation in one iteration.

    ``objectives`` holds the acquisition objective vector of each
    pareto-sample point (NaN rows for fallback-random points).
    """

    points: np.ndarray
    provenance: tuple
    stage: str
    objectives: np.ndarray


@dataclass(frozen=True)
class Incumbent:
    """Best observation so far: feasibility first, then objective value.

    For runs with no feasible point yet the ordering falls back to the total
    observed constraint violation.  Ties keep the earliest observation.
    """

    point: np.ndarray
    value: float
    feasible: bool
    total_violation: float
    eval_index: int

    def order_key(self) -> tuple:
        primary = self.value if self.feasible else self.total_violation
        return (0 if self.feasible else 1, primary)

    def improves_on(self, other: Optional["Incumbent"]) -> bool:
        return other is None or self.order_key() < other.order_key()


@dataclass(frozen=True)
class EvalRecord:
    """One evaluator call: the point, its results and bookkeeping."""

    iteration: int
    eval_index: int
    x: np.ndarray
    y: float
    c: np.ndarray
    feasible: bool
    provenance: str
    wall_ms: float

    @property
    def faulted(self) -> bool:
        return not (np.isfinite(self.y) and np.all(np.isfinite(self.c)))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration metadata: stage, pruning fallback and proposal diagnostics."""

    t: int
    stage: str
    fallback: bool
    provenance: tuple
    objectives: np.ndarray
    adaptive_violations: Optional[np.ndarray]


@dataclass
class RunRecord:
    """Full history of a single run."""

    problem_name: str
    algorithm: str
    dim: int
    n_constraints: int
    config: RunConfig
    evaluations: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    incumbent_trace: list = field(default_factory=list)

    @property
    def final_incumbent(self) -> Optional[Incumbent]:
        return self.incumbent_trace[-1] if self.incumbent_trace else None

    @property
    def evals_to_first_feasible(self) -> Optional[int]:
        for rec in self.evaluations:
            if rec.feasible:
                return rec.eval_index + 1
        return None

    @property
    def evals_to_best(self) -> Optional[int]:
        inc = self.final_incumbent
        return None if inc is None else inc.eval_index + 1

    def signature(self) -> tuple:
        """Deterministic content of the record, excluding wall-clock times."""
        return (
            self.problem_name,
            self.algorithm,
            tuple(
                (r.iteration, r.eval_index, r.x.tobytes(), r.y, r.c.tobytes(), r.feasible, r.provenance)
                for r in self.evaluations
            ),
            tuple(
                (it.t, it.stage, it.fallback, it.provenance, it.objectives.tobytes())
                for it in self.iterations
            ),
        )


def make_evaluator(problem: Problem) -> Evaluator:
    """Evaluator over a built-in problem; faults are recorded as NaN rows.

    Any exception raised while evaluating a point faults that point only, so
    one bad evaluation never ends the run.
    """

    def evaluator(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(X)
        y = np.empty(X.shape[0])
        C = np.full((X.shape[0], problem.n_constraints), np.nan)
        for i, x in enumerate(X):
            try:
                y[i], C[i] = evaluate(problem, x)
            except Exception:
                y[i] = np.nan
        return y, C

    return evaluator


def _canonical_ensemble(ensemble) -> tuple:
    """Lower-cased ensemble names in ``ENSEMBLE_ORDER``; unknown or no names raise."""
    names = {str(e).lower() for e in ensemble}
    unknown = names - set(ENSEMBLE_ORDER)
    if unknown:
        raise ValueError(f"unknown ensemble members: {sorted(unknown)}")
    if not names:
        raise ValueError("ensemble must contain at least one of lcb, pi, ei")
    return tuple(e for e in ENSEMBLE_ORDER if e in names)


def _acq_columns(mu: np.ndarray, s: np.ndarray, coords: tuple, beta: float, ctx: AcqContext) -> list:
    """Acquisition objective columns (LCB, -PI, -EI) for the canonical ``coords``."""
    cols = []
    for name in coords:
        if name == "lcb":
            cols.append(acq.lcb(mu, s, beta))
        elif name == "pi":
            cols.append(-acq.pi(mu, s, ctx))
        else:
            cols.append(-acq.ei(mu, s, ctx))
    return cols


def _constraint_posteriors(constraint_models, X: np.ndarray):
    pairs = [predict(m, X) for m in constraint_models]
    means = np.column_stack([p[0] for p in pairs])
    stds = np.column_stack([p[1] for p in pairs])
    return means, stds


def build_unconstrained_objectives(model: GpModel, ctx: AcqContext, ensemble=ENSEMBLE_ORDER):
    """Vector objective (LCB, -PI, -EI), restricted to the configured ensemble."""
    coords = _canonical_ensemble(ensemble)
    beta = acq.beta_schedule(ctx)

    def objectives(X: np.ndarray) -> np.ndarray:
        mu, s = predict(model, np.atleast_2d(X))
        return np.column_stack(_acq_columns(mu, s, coords, beta, ctx))

    return objectives


def build_stage1_objectives(constraint_models, dataset: Dataset):
    """Feasibility-hunting objective (-PF, naive violation, adaptive violation)."""
    if len(constraint_models) < 1:
        raise DimensionMismatchError("stage 1 requires at least one constraint model")
    if bool(np.any(dataset.feasible_mask())):
        raise StageError("stage 1 objectives requested but the dataset has a feasible point")

    def objectives(X: np.ndarray) -> np.ndarray:
        mu, s = _constraint_posteriors(constraint_models, np.atleast_2d(X))
        return np.column_stack(
            [-acq.pf(mu, s), acq.naive_violation(mu), acq.adaptive_violation(mu, s)]
        )

    return objectives


def build_stage2_objectives(
    objective_model: GpModel,
    constraint_models,
    ctx: AcqContext,
    dataset: Dataset,
    ensemble=ENSEMBLE_ORDER,
    require_feasible: bool = True,
):
    """Constrained ensemble: acquisition coordinates plus the three feasibility terms.

    ``require_feasible=False`` supports the one-stage variant, where the
    incumbent may still be infeasible.
    """
    if len(constraint_models) < 1:
        raise DimensionMismatchError("constrained mode requires at least one constraint model")
    if require_feasible and not bool(np.any(dataset.feasible_mask())):
        raise StageError("stage 2 objectives requested before any feasible observation")
    coords = _canonical_ensemble(ensemble)
    beta = acq.beta_schedule(ctx)

    def objectives(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        mu, s = predict(objective_model, X)
        cmu, cs = _constraint_posteriors(constraint_models, X)
        cols = _acq_columns(mu, s, coords, beta, ctx)
        cols.extend([-acq.pf(cmu, cs), acq.naive_violation(cmu), acq.adaptive_violation(cmu, cs)])
        return np.column_stack(cols)

    return objectives


def prune_candidates(pareto: ParetoSet, constraint_models, rho: float):
    """Drop Pareto members whose confidence-scaled violation exceeds rho.

    Returns (pruned_set, fallback); when pruning would empty the set the
    original set is returned unchanged with the fallback flag raised.
    """
    mu, s = _constraint_posteriors(constraint_models, pareto.points)
    viol = acq.adaptive_violation(mu, s)
    keep = viol <= rho
    if not bool(np.any(keep)):
        return pareto, True
    return pareto.subset(np.flatnonzero(keep)), False


def _dedup_indices(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    # Points closer than tol in every coordinate collapse onto the same grid
    # cell; keep the first occurrence of each cell.
    keys = np.round(points / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    return first


def sample_batch(pareto: ParetoSet, batch_size: int, rng: np.random.Generator, stage: str) -> BatchProposal:
    """Draw batch_size points uniformly without replacement from the Pareto set.

    Near-duplicate members are counted once; any deficit is filled with
    uniform random points flagged fallback-random.
    """
    uniq = _dedup_indices(pareto.points)
    take = min(batch_size, uniq.size)
    chosen = uniq[rng.choice(uniq.size, size=take, replace=False)]
    points = pareto.points[chosen]
    objectives = pareto.objectives[chosen]
    provenance = ["pareto-sample"] * take
    deficit = batch_size - take
    if deficit > 0:
        d = pareto.points.shape[1]
        points = np.vstack([points, rng.random((deficit, d))])
        objectives = np.vstack(
            [objectives, np.full((deficit, pareto.objectives.shape[1]), np.nan)]
        )
        provenance += ["fallback-random"] * deficit
    return BatchProposal(points, tuple(provenance), stage, objectives)


def _initial_design(config: RunConfig, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Initial design in the unit cube: uniform, or a randomized Latin hypercube.

    The Latin hypercube puts one point in each of the ``n_init`` strata of every
    column.  Its draws follow ``scipy.stats.qmc.LatinHypercube(d=dim, seed=s)
    .random(n_init)`` with ``g = default_rng(s)``, so the design is byte-identical
    to scipy's, and ``import mace`` need not load ``scipy.stats``, a slow import.
    """
    n = config.n_init
    if config.init_design == "uniform":
        return rng.random((n, dim))
    g = np.random.default_rng(int(rng.integers(2**31 - 1)))
    u = g.uniform(size=(n, dim))
    perms = np.tile(np.arange(1, n + 1), (dim, 1))
    for row in perms:
        g.shuffle(row)
    return (perms.T - u) / n


def _warm_start(dataset: Dataset, cap: int) -> np.ndarray:
    """Observed points used to seed the inner solver's population (constrained runs).

    Best observations first (feasible ones, ordered by objective, ahead of
    infeasible ones ordered by total violation).  With a thin feasible region
    the surrogate's predicted-feasible set shrinks to small neighborhoods of
    the feasible observations, which a uniformly initialized population can
    miss entirely; seeding the dataset keeps those neighborhoods in the pool.
    """
    viol = np.sum(np.maximum(dataset.C, 0.0), axis=1)
    feasible = dataset.feasible_mask()
    order = np.lexsort((np.where(feasible, dataset.y, viol), ~feasible))
    return dataset.X[order[:cap]]


class _Recorder:
    """Accumulates evaluation rows and maintains the incumbent trace."""

    def __init__(self, problem: Problem, config: RunConfig, algorithm: str):
        self.problem = problem
        self.record = RunRecord(
            problem_name=problem.name,
            algorithm=algorithm,
            dim=problem.dim,
            n_constraints=problem.n_constraints,
            config=config,
        )
        self._incumbent: Optional[Incumbent] = None

    def add_batch(self, iteration: int, X: np.ndarray, y: np.ndarray, C: np.ndarray, provenance, wall_ms: float):
        for i in range(X.shape[0]):
            idx = len(self.record.evaluations)
            ci = np.asarray(C[i], dtype=float)
            ok = bool(np.isfinite(y[i])) and bool(np.all(np.isfinite(ci)))
            feasible = ok and bool(np.all(ci < 0))
            self.record.evaluations.append(
                EvalRecord(iteration, idx, X[i].copy(), float(y[i]), ci.copy(), feasible, provenance[i], wall_ms)
            )
            if ok:
                cand = Incumbent(
                    point=X[i].copy(),
                    value=float(y[i]),
                    feasible=feasible,
                    total_violation=float(np.sum(np.maximum(ci, 0.0))),
                    eval_index=idx,
                )
                if cand.improves_on(self._incumbent):
                    self._incumbent = cand
            self.record.incumbent_trace.append(self._incumbent)

    def ok_dataset(self) -> Dataset:
        rows = [r for r in self.record.evaluations if not r.faulted]
        if len(rows) < 2:
            raise EvaluatorFaultError("fewer than two usable observations; cannot fit surrogates")
        X = np.vstack([r.x for r in rows])
        y = np.array([r.y for r in rows])
        C = (
            np.vstack([r.c for r in rows])
            if self.problem.n_constraints
            else np.zeros((len(rows), 0))
        )
        return Dataset(X, y, C, self.problem.bounds)


def _timed_eval(evaluator: Evaluator, X: np.ndarray):
    start = time.perf_counter()
    y, C = evaluator(X)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return np.asarray(y, dtype=float), np.atleast_2d(np.asarray(C, dtype=float)), wall_ms


def run_unconstrained(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
                      algorithm: str = "mace") -> RunRecord:
    """Batch optimization loop over the acquisition ensemble (no constraints used)."""
    evaluator = evaluator or make_evaluator(problem)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder(problem, config, algorithm)

    X0 = _initial_design(config, problem.dim, rng)
    y0, C0, wall = _timed_eval(evaluator, X0)
    rec.add_batch(0, X0, y0, C0, ["init"] * config.n_init, wall)

    for t in range(1, config.n_iter + 1):
        fit_seed = int(rng.integers(2**31 - 1))
        demo_seed = int(rng.integers(2**31 - 1))
        ds = rec.ok_dataset()
        model = fit_gp(ds, restarts=config.gp_restarts, seed=fit_seed)
        ctx = AcqContext(tau=float(ds.y.min()), d=problem.dim, t=t,
                         xi=config.xi, nu=config.nu, delta=config.delta)
        objective_fn = build_unconstrained_objectives(model, ctx, config.ensemble)
        pareto = demo_optimize(objective_fn, problem.dim, replace(config.demo, seed=demo_seed))
        proposal = sample_batch(pareto, config.batch_size, rng, stage="unconstrained")
        y, C, wall = _timed_eval(evaluator, proposal.points)
        rec.add_batch(t, proposal.points, y, C, proposal.provenance, wall)
        rec.record.iterations.append(
            IterationRecord(t, "unconstrained", False, proposal.provenance, proposal.objectives, None)
        )
    return rec.record


def run_constrained(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
                    algorithm: Optional[str] = None) -> RunRecord:
    """Two-stage constrained loop; ``config.one_stage`` selects the ablation variant."""
    if problem.n_constraints < 1:
        raise DimensionMismatchError("constrained runs need at least one constraint")
    if algorithm is None:
        algorithm = "omace" if config.one_stage else "mace"
    evaluator = evaluator or make_evaluator(problem)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder(problem, config, algorithm)

    X0 = _initial_design(config, problem.dim, rng)
    y0, C0, wall = _timed_eval(evaluator, X0)
    rec.add_batch(0, X0, y0, C0, ["init"] * config.n_init, wall)

    for t in range(1, config.n_iter + 1):
        obj_seed = int(rng.integers(2**31 - 1))
        con_seeds = [int(rng.integers(2**31 - 1)) for _ in range(problem.n_constraints)]
        demo_seed = int(rng.integers(2**31 - 1))
        ds = rec.ok_dataset()
        phase = stage_of(ds)
        feasible_any = phase is Phase.OPTIMIZING

        objective_model = fit_gp(ds, restarts=config.gp_restarts, seed=obj_seed)
        constraint_models = [
            fit_gp(Dataset(ds.X, ds.C[:, j], np.zeros((ds.n, 0)), ds.bounds),
                   restarts=config.gp_restarts, seed=con_seeds[j])
            for j in range(problem.n_constraints)
        ]

        if config.one_stage or feasible_any:
            if feasible_any:
                tau = float(ds.y[ds.feasible_mask()].min())
            else:
                tau = float(ds.y.min())
            ctx = AcqContext(tau=tau, d=problem.dim, t=t,
                             xi=config.xi, nu=config.nu, delta=config.delta)
            objective_fn = build_stage2_objectives(
                objective_model, constraint_models, ctx, ds,
                ensemble=config.ensemble, require_feasible=not config.one_stage,
            )
            pareto = demo_optimize(
                objective_fn, problem.dim, replace(config.demo, seed=demo_seed),
                initial_points=_warm_start(ds, config.demo.population_size // 2),
            )
            pruned, fallback = prune_candidates(pareto, constraint_models, config.rho)
            proposal = sample_batch(pruned, config.batch_size, rng, stage="stage2")
            stage = "stage2"
        else:
            objective_fn = build_stage1_objectives(constraint_models, ds)
            pareto = demo_optimize(
                objective_fn, problem.dim, replace(config.demo, seed=demo_seed),
                initial_points=_warm_start(ds, config.demo.population_size // 2),
            )
            proposal = sample_batch(pareto, config.batch_size, rng, stage="stage1")
            fallback = False
            stage = "stage1"

        mu, s = _constraint_posteriors(constraint_models, proposal.points)
        proposal_viol = acq.adaptive_violation(mu, s)

        y, C, wall = _timed_eval(evaluator, proposal.points)
        rec.add_batch(t, proposal.points, y, C, proposal.provenance, wall)
        rec.record.iterations.append(
            IterationRecord(t, stage, fallback, proposal.provenance, proposal.objectives,
                            np.atleast_1d(proposal_viol))
        )
    return rec.record


def run_random(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
               algorithm: str = "random") -> RunRecord:
    """Uniform random search with the same budget and record shape as the engine."""
    evaluator = evaluator or make_evaluator(problem)
    rng = np.random.default_rng(config.seed)
    rec = _Recorder(problem, config, algorithm)

    X0 = _initial_design(config, problem.dim, rng)
    y0, C0, wall = _timed_eval(evaluator, X0)
    rec.add_batch(0, X0, y0, C0, ["init"] * config.n_init, wall)

    for t in range(1, config.n_iter + 1):
        X = rng.random((config.batch_size, problem.dim))
        y, C, wall = _timed_eval(evaluator, X)
        rec.add_batch(t, X, y, C, ["random"] * config.batch_size, wall)
    return rec.record
