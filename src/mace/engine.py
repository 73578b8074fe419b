"""The optimization loop and its proposers.

One loop evaluates a proposed batch per iteration, the initial design first.
The MACE proposer starts from a Latin hypercube, then fits GP surrogates,
minimizes a vector of acquisition objectives with differential evolution, and
samples the batch from the Pareto set; under constraints it first hunts for a
feasible point, then optimizes a feasibility-aware ensemble with candidate
pruning.  Stage 1 reads only the constraint models, so it fits only those; the
objective model is fitted from stage 2 on.  After its first fit, each model's
fit restarts from its optimum at the previous iteration.  The random proposer
draws every point uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import acquisition as acq
# _dedup_indices is not used here: perfbench/tracer.py (_sample_attrs) reads engine._dedup_indices.
from .demo import DemoConfig, ParetoSet, _dedup_indices, demo_optimize
from .errors import DimensionMismatchError, EvaluatorFaultError, _require_count, _require_counts, _require_non_negative
from .gp import Dataset, GpModel, fit_gp, predict
from .problems import Problem, evaluate

# Each ensemble member's objective column, in canonical order, from the posterior
# (mu, s), the incumbent tau (read by PI and EI) and LCB's coefficient beta.
_ACQ_COLUMN = {
    "lcb": lambda mu, s, tau, beta: acq.lcb(mu, s, beta),
    "pi": lambda mu, s, tau, beta: -acq.pi(mu, s, tau),
    "ei": lambda mu, s, tau, beta: -acq.ei(mu, s, tau),
}
ENSEMBLE_ORDER = tuple(_ACQ_COLUMN)
MODES = ("unconstrained", "constrained")

# An evaluator maps a (B, d) block of unit-cube points to (y, C) arrays of
# shape (B,) and (B, n_constraints); faults are reported as NaN entries.
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class RunConfig:
    """All algorithm constants for one run."""

    n_iter: int
    batch_size: int
    n_init: int = 20
    rho: float = 0.05
    demo: DemoConfig = field(default_factory=DemoConfig)
    seed: int = 0
    mode: str = "unconstrained"
    ensemble: tuple = ENSEMBLE_ORDER
    one_stage: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ensemble", _canonical_ensemble(self.ensemble))
        _require_counts(self, n_iter=0, batch_size=1, n_init=2, seed=0)
        if not isinstance(self.one_stage, (bool, np.bool_)):
            raise ValueError(f"one_stage must be a bool, not {self.one_stage!r}")
        _require_non_negative("rho", self.rho)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")

    @property
    def total_evaluations(self) -> int:
        return self.n_init + self.n_iter * self.batch_size


def _feasible(C: np.ndarray) -> np.ndarray:
    """True where every constraint value is below zero; always True with no constraints."""
    return np.all(C < 0, axis=-1)


@dataclass(frozen=True)
class BatchProposal:
    """The points selected for concurrent evaluation in one iteration.

    ``objectives`` holds the acquisition objective vector of each
    pareto-sample point (NaN rows for fallback-random points).
    """

    points: np.ndarray
    provenance: tuple
    objectives: np.ndarray


@dataclass(frozen=True)
class EvalRecord:
    """One evaluator call: the point, its results and bookkeeping.

    ``RunRecord.incumbent_trace`` holds these records themselves, ranked by
    ``order_key``.
    """

    iteration: int
    eval_index: int
    x: np.ndarray
    y: float
    c: np.ndarray
    provenance: str
    wall_ms: float

    @property
    def faulted(self) -> bool:
        return not (np.isfinite(self.y) and np.all(np.isfinite(self.c)))

    @property
    def feasible(self) -> bool:
        return not self.faulted and bool(_feasible(self.c))

    @property
    def value(self) -> float:
        """Alias of ``y``, read only by ``perfbench/run.py``; it goes when ``RunConfig.mode`` does."""
        return self.y

    def order_key(self) -> tuple:
        """Best-first rule for usable records: feasible ones by ``y``, ahead of the rest by total violation."""
        return (0, self.y) if self.feasible else (1, float(acq.naive_violation(self.c)))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration metadata: stage, pruning fallback and proposal diagnostics.

    ``hyperparams`` holds each model's fitted ``KernelHyperParams``, or None
    where the model was not fitted: the constraints first, then the objective.
    The next iteration restarts each model's fit from its entry here.
    """

    t: int
    stage: str
    fallback: bool
    provenance: tuple
    objectives: np.ndarray
    hyperparams: tuple

    @property
    def adaptive_violations(self) -> Optional[np.ndarray]:
        """The scored adaptive violations (last objective column; NaN if fallback-random), or None unconstrained."""
        return None if self.stage == "unconstrained" else self.objectives[:, -1]


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
    def final_incumbent(self) -> Optional[EvalRecord]:
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

    def add_batch(self, iteration: int, X: np.ndarray, y: np.ndarray, C: np.ndarray, provenance, wall_ms: float):
        """Append one evaluated batch and extend the incumbent trace point by point.

        The incumbent is the best usable record so far by ``EvalRecord.order_key``;
        ties keep the earliest.  The trace holds it (or None) after each record.
        """
        B = X.shape[0]
        if y.shape != (B,) or C.shape != (B, self.n_constraints):
            raise DimensionMismatchError(f"evaluator returned y of shape {y.shape} and C of shape {C.shape} for "
                                         f"{B} points; expected {(B,)} and {(B, self.n_constraints)}")
        incumbent = self.final_incumbent
        for i in range(B):
            r = EvalRecord(iteration, len(self.evaluations), X[i].copy(), float(y[i]),
                           np.array(C[i], dtype=float), provenance[i], wall_ms)
            self.evaluations.append(r)
            if not r.faulted and (incumbent is None or r.order_key() < incumbent.order_key()):
                incumbent = r
            self.incumbent_trace.append(incumbent)

    def dataset(self, n_c: int) -> tuple[Dataset, np.ndarray]:
        """The usable observations, and their first ``n_c`` constraint values as an (N, n_c) array."""
        rows = [r for r in self.evaluations if not r.faulted]
        if len(rows) < 2:
            raise EvaluatorFaultError("fewer than two usable observations; cannot fit surrogates")
        return (Dataset(np.vstack([r.x for r in rows]), [r.y for r in rows]),
                np.vstack([r.c[:n_c] for r in rows]))

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
    """Lower-cased ensemble names in ``ENSEMBLE_ORDER``; a string is one name; a non-iterable, unknown or no names raise."""
    if isinstance(ensemble, str):
        ensemble = (ensemble,)
    try:
        members = iter(ensemble)
    except TypeError:
        raise ValueError(f"ensemble must be a name or an iterable of names, not {ensemble!r}") from None
    names = {str(e).lower() for e in members}
    unknown = names - set(ENSEMBLE_ORDER)
    if unknown:
        raise ValueError(f"unknown ensemble members: {sorted(unknown)}")
    if not names:
        raise ValueError(f"ensemble must contain at least one of {', '.join(ENSEMBLE_ORDER)}")
    return tuple(e for e in ENSEMBLE_ORDER if e in names)


def build_unconstrained_objectives(model: GpModel, tau: float, t: int = 1, ensemble=ENSEMBLE_ORDER):
    """Vector objective (LCB, -PI, -EI), restricted to the configured ensemble.

    PI and EI improve on the incumbent ``tau``; LCB's beta is the schedule at
    iteration ``t`` and the model's input dimension.
    """
    coords = _canonical_ensemble(ensemble)
    beta = acq.beta_schedule(model.X.shape[1], t)

    def objectives(X: np.ndarray) -> np.ndarray:
        mu, s = predict(model, np.atleast_2d(X))
        return np.column_stack([_ACQ_COLUMN[name](mu, s, tau, beta) for name in coords])

    return objectives


def build_stage1_objectives(constraint_models):
    """Feasibility objective (-PF, naive violation, adaptive violation) over the constraint models.

    The only scorer of the constraint models.  Its last column, also stage 2's,
    is the adaptive violation that ``prune_candidates`` and
    ``IterationRecord.adaptive_violations`` read.
    """
    if len(constraint_models) < 1:
        raise DimensionMismatchError("need at least one constraint model")

    def objectives(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        mu, s = (np.column_stack(v) for v in zip(*(predict(m, X) for m in constraint_models)))
        return np.column_stack([-acq.pf(mu, s), acq.naive_violation(mu), acq.adaptive_violation(mu, s)])

    return objectives


# Stage 2 composes the builders as bound here: perfbench's tracer replaces the
# public names with wrappers that time each scorer as one span, and stage 2's
# own span must not nest two more.
_acquisition_block, _feasibility_block = build_unconstrained_objectives, build_stage1_objectives


def build_stage2_objectives(objective_model: GpModel, constraint_models, tau: float, t: int = 1,
                            ensemble=ENSEMBLE_ORDER):
    """Constrained ensemble: the unconstrained columns, then the stage-1 feasibility columns."""
    feasibility = _feasibility_block(constraint_models)
    acquisition = _acquisition_block(objective_model, tau, t, ensemble)
    return lambda X: np.hstack([acquisition(X), feasibility(X)])


def prune_candidates(pareto: ParetoSet, rho: float):
    """Drop Pareto members whose scored adaptive violation, the last objective column, exceeds rho.

    Returns (pruned_set, fallback); when pruning would empty the set the
    original set is returned unchanged with the fallback flag raised.
    """
    _require_non_negative("rho", rho)
    keep = pareto.objectives[:, -1] <= rho
    if not bool(np.any(keep)):
        return pareto, True
    return ParetoSet(pareto.points[keep], pareto.objectives[keep]), False


def sample_batch(pareto: ParetoSet, batch_size: int, rng: np.random.Generator) -> BatchProposal:
    """Draw batch_size points uniformly without replacement from the Pareto set.

    ``ParetoSet`` holds each point once, so no two draws coincide; any deficit
    is filled with uniform random points flagged fallback-random.
    """
    _require_count("batch_size", batch_size, 1)
    take = min(batch_size, len(pareto))
    chosen = rng.choice(len(pareto), size=take, replace=False)
    points = pareto.points[chosen]
    objectives = pareto.objectives[chosen]
    provenance = ["pareto-sample"] * take
    deficit = batch_size - take
    if deficit > 0:
        points = np.vstack([points, rng.random((deficit, pareto.points.shape[1]))])
        objectives = np.vstack([objectives, np.full((deficit, pareto.objectives.shape[1]), np.nan)])
        provenance += ["fallback-random"] * deficit
    return BatchProposal(points, tuple(provenance), objectives)


def _latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """A randomized Latin hypercube of ``n`` unit-cube points: one in each of the ``n`` strata of every column.

    Its draws follow ``scipy.stats.qmc.LatinHypercube(d=dim, seed=s).random(n)``
    with ``s`` drawn from ``rng``, so the design is byte-identical to scipy's,
    and ``import mace`` need not load ``scipy.stats``, a slow import.
    """
    g = np.random.default_rng(int(rng.integers(2**31 - 1)))
    u = g.uniform(size=(n, dim))
    perms = np.tile(np.arange(1, n + 1), (dim, 1))
    for row in perms:
        g.shuffle(row)
    return (perms.T - u) / n


def _warm_start(dataset: Dataset, C: np.ndarray, cap: int) -> np.ndarray:
    """Observed points used to seed the inner solver's population (constrained runs).

    Best observations first: ``EvalRecord.order_key`` over arrays (feasible
    ones by objective, ahead of infeasible ones by total violation).  The
    seeding matters most on constrained-branin, whose feasible disc covers
    pi/4 (79%) of the box, so the reason is not a thin feasible region.
    Seeding from the previous iteration's front instead took its median
    regret over seeds 0-59 (16 batches of 5 after 20 initial points) from
    6.2e-5 to 1.07e-2.
    """
    viol = acq.naive_violation(C)
    feasible = _feasible(C)
    order = np.lexsort((np.where(feasible, dataset.y, viol), ~feasible))
    return dataset.X[order[:cap]]


def _run(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator], algorithm: str,
         propose) -> RunRecord:
    """The loop every runner shares: one proposed batch per iteration, ``t = 0`` the initial design.

    ``propose(rec, t, rng)`` returns iteration ``t``'s ``(points, provenance,
    IterationRecord or None)``; ``rng`` is the run's only generator.
    """
    evaluator = evaluator or make_evaluator(problem)
    rng = np.random.default_rng(config.seed)
    rec = RunRecord(problem.name, algorithm, problem.dim, problem.n_constraints, config)
    for t in range(config.n_iter + 1):
        points, provenance, info = propose(rec, t, rng)
        start = time.perf_counter()
        y, C = evaluator(points)
        wall_ms = (time.perf_counter() - start) * 1000.0
        rec.add_batch(t, points, np.asarray(y, dtype=float), np.atleast_2d(np.asarray(C, dtype=float)),
                      provenance, wall_ms)
        if info is not None:
            rec.iterations.append(info)
    return rec


def _mace_proposer(problem: Problem, config: RunConfig, n_c: int):
    """MACE proposals over the problem's first ``n_c`` constraints, from a Latin hypercube at ``t = 0``.

    ``n_c = 0`` is the unconstrained run: no warm start and no pruning.  With
    constraints, stage 1 (skipped when ``config.one_stage``) hunts for a
    feasible point, then stage 2 samples the pruned front.
    """

    def propose(rec: RunRecord, t: int, rng: np.random.Generator):
        if t == 0:
            return _latin_hypercube(config.n_init, problem.dim, rng), ["init"] * config.n_init, None
        # Drawn in stage 1 too, so the rng stream does not depend on the stage.
        obj_seed = int(rng.integers(2**31 - 1))
        con_seeds = [int(rng.integers(2**31 - 1)) for _ in range(n_c)]
        demo_seed = int(rng.integers(2**31 - 1))
        ds, C = rec.dataset(n_c)
        # With n_c = 0 every usable row counts as feasible.
        feasible = _feasible(C)
        stage = "unconstrained"
        if n_c:
            stage = "stage2" if config.one_stage or feasible.any() else "stage1"
        # Each model's previous fit, constraints first; None for a first fit.
        previous = rec.iterations[-1].hyperparams if rec.iterations else (None,) * (n_c + 1)
        constraint_models = [fit_gp(Dataset(ds.X, C[:, j]), seed=con_seeds[j], previous=previous[j])
                             for j in range(n_c)]
        objective_model = None
        if stage == "stage1":
            objective_fn = build_stage1_objectives(constraint_models)
        else:
            objective_model = fit_gp(ds, seed=obj_seed, previous=previous[n_c])
            tau = float(ds.y[feasible].min()) if feasible.any() else float(ds.y.min())
            if stage == "stage2":
                objective_fn = build_stage2_objectives(objective_model, constraint_models, tau, t, config.ensemble)
            else:
                objective_fn = build_unconstrained_objectives(objective_model, tau, t, config.ensemble)
        warm = _warm_start(ds, C, config.demo.population_size // 2) if n_c else None
        pareto = demo_optimize(objective_fn, problem.dim, config.demo, seed=demo_seed, initial_points=warm)
        fallback = False
        if stage == "stage2":
            pareto, fallback = prune_candidates(pareto, config.rho)
        proposal = sample_batch(pareto, config.batch_size, rng)
        hyperparams = tuple(None if m is None else m.hyperparams for m in (*constraint_models, objective_model))
        info = IterationRecord(t, stage, fallback, proposal.provenance, proposal.objectives, hyperparams)
        return proposal.points, proposal.provenance, info

    return propose


def run_unconstrained(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
                      algorithm: str = "mace") -> RunRecord:
    """Batch optimization loop over the acquisition ensemble (no constraints used)."""
    return _run(problem, config, evaluator, algorithm, _mace_proposer(problem, config, 0))


def run_constrained(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
                    algorithm: Optional[str] = None) -> RunRecord:
    """Two-stage constrained loop; ``config.one_stage`` selects the ablation variant."""
    if problem.n_constraints < 1:
        raise DimensionMismatchError("constrained runs need at least one constraint")
    if algorithm is None:
        algorithm = "omace" if config.one_stage else "mace"
    return _run(problem, config, evaluator, algorithm,
                _mace_proposer(problem, config, problem.n_constraints))


def run_random(problem: Problem, config: RunConfig, evaluator: Optional[Evaluator] = None,
               algorithm: str = "random") -> RunRecord:
    """Uniform random search, initial design included, with the same budget and record shape as the engine."""

    def propose(rec, t, rng):
        n, label = (config.n_init, "init") if t == 0 else (config.batch_size, "random")
        return rng.random((n, problem.dim)), [label] * n, None

    return _run(problem, config, evaluator, algorithm, propose)
