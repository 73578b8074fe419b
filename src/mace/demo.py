"""Differential evolution for multi-objective minimization over the unit cube.

The optimizer follows the DEMO selection scheme: a trial vector replaces its
parent when it dominates it, is discarded when dominated, and otherwise joins
the population, which is then truncated back to size with non-dominated
sorting and crowding distance.  An external archive keeps the non-dominated
set of everything evaluated so far.

All dominance tests go through one n-by-n weak-order matrix, ``le[i, j] =
all(A[i] <= B[j])``, built column by column.  Row i dominates row j exactly
when ``le[i, j] and not le[j, i]``: given ``all(Fi <= Fj)``, some ``Fi < Fj``
holds iff not every ``Fj <= Fi``.  ``le[i, j]`` is only true when every
coordinate pair was ordered, so the identity also holds with infinities and
NaN (a NaN coordinate makes both entries false, and nothing dominates).

Objective callables receive a whole candidate batch at once: ``f(X)`` with
``X`` of shape (n, d) must return an (n, m) array of objective values, all in
minimization orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluatorFaultError


@dataclass(frozen=True)
class DemoConfig:
    """Run budget and variation-operator constants for the evolution."""

    population_size: int = 100
    max_evaluations: int = 2000
    scale_factor: float = 0.8
    crossover_rate: float = 0.9
    seed: int = 0
    archive_cap: int = 600

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.max_evaluations < self.population_size:
            raise ValueError("max_evaluations must be at least population_size")
        if not 0 < self.scale_factor:
            raise ValueError("scale_factor must be positive")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.archive_cap < 1:
            raise ValueError("archive_cap must be positive")


@dataclass(frozen=True)
class ParetoSet:
    """Mutually non-dominated candidate points with their objective vectors."""

    points: np.ndarray      # (k, d), unit cube
    objectives: np.ndarray  # (k, m)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        obj = np.atleast_2d(np.asarray(self.objectives, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "objectives", obj)
        if pts.shape[0] != obj.shape[0]:
            raise DimensionMismatchError("points and objectives must have equal row counts")
        if pts.shape[0] < 1:
            raise ValueError("a Pareto set holds at least one member")

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, indices) -> "ParetoSet":
        return ParetoSet(self.points[indices], self.objectives[indices])


def dominates(a, b) -> bool:
    """True iff a is no worse than b everywhere and strictly better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"objective vectors of shape {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def _weakly_le(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Weak order between row sets: entry (i, j) is True iff ``all(A[i] <= B[j])``.

    Built as an AND over the m columns into one (len(A), len(B)) array, so no
    (n, n, m) intermediate is ever formed.
    """
    le = np.ones((A.shape[0], B.shape[0]), dtype=bool)
    for k in range(A.shape[1]):
        le &= A[:, None, k] <= B[None, :, k]
    return le


def _domination_matrix(F: np.ndarray) -> np.ndarray:
    """Pairwise dominance: entry (i, j) is True iff row i dominates row j.

    With ``le = _weakly_le(F, F)`` this is ``le & ~le.T``.  It is exact: when
    ``le[i, j]`` holds, ``any(F[i] < F[j])`` equals ``not all(F[j] <= F[i])``,
    and ``le[i, j]`` requires every coordinate pair to be ordered, so ties,
    duplicate rows, infinities and NaN all give the textbook answer.
    """
    le = _weakly_le(F, F)
    return le & ~le.T


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row.

    Exact duplicates of a front member are all retained: equal vectors never
    dominate each other.
    """
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    return ~_domination_matrix(F).any(axis=0)


def pareto_front(objectives) -> np.ndarray:
    """Indices of the non-dominated rows, in their original order."""
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    if F.shape[0] == 0:
        raise ValueError("pareto_front needs a non-empty list")
    return np.flatnonzero(non_dominated_mask(F))


def fast_non_dominated_fronts(F: np.ndarray) -> list[np.ndarray]:
    """Successive non-dominated fronts (index arrays) of the rows of F."""
    D = _domination_matrix(F)
    counts = D.sum(axis=0)
    unassigned = np.ones(F.shape[0], dtype=bool)
    fronts = []
    while unassigned.any():
        front = np.flatnonzero(unassigned & (counts == 0))
        fronts.append(front)
        unassigned[front] = False
        counts = counts - D[front].sum(axis=0)
    return fronts


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row within one front."""
    n, m = F.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        fj = F[order, j]
        span = fj[-1] - fj[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (fj[2:] - fj[:-2]) / span
    return dist


def _truncate(points: np.ndarray, objs: np.ndarray, size: int):
    """Keep `size` members by front rank, breaking ties with crowding distance."""
    chosen: list[np.ndarray] = []
    taken = 0
    for front in fast_non_dominated_fronts(objs):
        if taken + front.size <= size:
            chosen.append(front)
            taken += front.size
        else:
            crowd = crowding_distance(objs[front])
            order = np.argsort(-crowd, kind="stable")
            chosen.append(front[order[: size - taken]])
            taken = size
        if taken == size:
            break
    idx = np.concatenate(chosen)
    idx.sort()  # preserve population order for reproducibility
    return points[idx], objs[idx]


def _evaluate(objective_fn, X: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(objective_fn(X), dtype=float))
    if F.shape[0] != X.shape[0]:
        raise DimensionMismatchError("objective_fn must return one row per point")
    if np.isnan(F).any():
        raise EvaluatorFaultError("objective_fn returned NaN")
    return F


def _update_archive(arch_x, arch_f, new_x, new_f, cap: int):
    """Merge new evaluations into the non-dominated archive, crowding-pruned at cap.

    The archive is already mutually non-dominated, so only child-vs-child and
    the two cross directions need checking.  Both cross directions come from
    the two weak-order matrices ``le_ac`` (archive <= child) and ``le_ca``
    (child <= archive): archive row i dominates child j iff
    ``le_ac[i, j] and not le_ca[j, i]``, by the identity in the module
    docstring, and symmetrically for children over archive rows.
    """
    child_mask = non_dominated_mask(new_f)
    cx, cf = new_x[child_mask], new_f[child_mask]
    le_ac = _weakly_le(arch_f, cf)
    le_ca = _weakly_le(cf, arch_f)
    arch_dom_child = le_ac & ~le_ca.T
    child_dom_arch = le_ca & ~le_ac.T
    keep_arch = ~child_dom_arch.any(axis=0)
    keep_child = ~arch_dom_child.any(axis=0)
    X = np.vstack([arch_x[keep_arch], cx[keep_child]])
    F = np.vstack([arch_f[keep_arch], cf[keep_child]])
    if X.shape[0] > cap:
        keep = np.argsort(-crowding_distance(F), kind="stable")[:cap]
        keep.sort()
        X, F = X[keep], F[keep]
    return X, F


def _reflect_unit(v: np.ndarray) -> np.ndarray:
    """Reflect out-of-bounds coordinates back into [0, 1]."""
    v = np.where(v < 0.0, -v, v)
    v = np.where(v > 1.0, 2.0 - v, v)
    return np.clip(v, 0.0, 1.0)  # guards pathological multi-bounce cases


def demo_optimize(objective_fn, dim: int, config: DemoConfig, initial_points=None) -> ParetoSet:
    """Minimize a vector objective over [0,1]^dim and return a non-dominated set.

    Exactly ``config.max_evaluations`` points are scored after the initial
    population.  ``initial_points`` warm-start part of that population (rows
    beyond the population size are ignored); the rest is uniform random.  The
    result merges the final population with the archive of all non-dominated
    evaluated points; it is deterministic for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    pop = config.population_size
    F_scale, CR = config.scale_factor, config.crossover_rate

    pop_x = rng.random((pop, dim))
    if initial_points is not None:
        seeds = np.clip(np.atleast_2d(np.asarray(initial_points, dtype=float)), 0.0, 1.0)
        k = min(pop, seeds.shape[0])
        if seeds.shape[1] != dim:
            raise DimensionMismatchError("initial_points dimension does not match dim")
        pop_x[:k] = seeds[:k]
    pop_f = _evaluate(objective_fn, pop_x)
    mask0 = non_dominated_mask(pop_f)
    arch_x, arch_f = pop_x[mask0].copy(), pop_f[mask0].copy()

    evals_left = config.max_evaluations
    while evals_left > 0:
        n_children = min(pop, evals_left)
        # DE/rand/1: three distinct partners per child, none equal to the parent.
        keys = rng.random((n_children, pop))
        keys[np.arange(n_children), np.arange(n_children)] = np.inf
        picked = np.argpartition(keys, 3, axis=1)[:, :3]
        order = np.argsort(np.take_along_axis(keys, picked, axis=1), axis=1)
        r = np.take_along_axis(picked, order, axis=1)
        mutants = _reflect_unit(
            pop_x[r[:, 0]] + F_scale * (pop_x[r[:, 1]] - pop_x[r[:, 2]])
        )
        cross = rng.random((n_children, dim)) < CR
        cross[np.arange(n_children), rng.integers(dim, size=n_children)] = True
        trial = np.where(cross, mutants, pop_x[:n_children])
        trial_f = _evaluate(objective_fn, trial)
        evals_left -= n_children

        parent_f = pop_f[:n_children]
        child_wins = np.all(trial_f <= parent_f, axis=1) & np.any(trial_f < parent_f, axis=1)
        parent_wins = np.all(parent_f <= trial_f, axis=1) & np.any(parent_f < trial_f, axis=1)
        both = ~child_wins & ~parent_wins
        pop_x[:n_children][child_wins] = trial[child_wins]
        pop_f[:n_children][child_wins] = trial_f[child_wins]
        if both.any():
            pop_x = np.vstack([pop_x, trial[both]])
            pop_f = np.vstack([pop_f, trial_f[both]])
        if pop_x.shape[0] > pop:
            pop_x, pop_f = _truncate(pop_x, pop_f, pop)

        arch_x, arch_f = _update_archive(arch_x, arch_f, trial, trial_f, config.archive_cap)

    all_x = np.vstack([pop_x, arch_x])
    all_f = np.vstack([pop_f, arch_f])
    mask = non_dominated_mask(all_f)
    return ParetoSet(all_x[mask], all_f[mask])
