"""Differential evolution for multi-objective minimization over the unit cube.

The optimizer follows the DEMO selection scheme: a trial vector replaces its
parent when it dominates it, is discarded when dominated, and otherwise joins
the population, which is then truncated back to size with non-dominated
sorting and crowding distance.  An external archive is the non-dominated set
of everything evaluated so far only while that set stays within
``ARCHIVE_CAP`` members; above it, crowding distance keeps 600 members.

Every dominance test, between row sets or between a parent and its child, goes
through the weak order ``le[i, j] = all(A[i] <= B[j])``.  Row i dominates row
j exactly when ``le[i, j] and not le[j, i]``: given ``all(Fi <= Fj)``, some
``Fi < Fj`` holds iff not every ``Fj <= Fi``.  ``le[i, j]`` is only true when
every coordinate pair was ordered, so the identity also holds with infinities
and NaN (a NaN coordinate makes both entries false, and nothing dominates).

Objective callables receive a whole candidate batch at once: ``f(X)`` with
``X`` of shape (n, d) must return an (n, m) array of objective values, all in
minimization orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluatorFaultError, _require_count, _require_counts, _require_unit_cube

# DE/rand/1 variation: mutation scale factor F and binomial crossover rate CR.
SCALE_FACTOR = 0.8
CROSSOVER_RATE = 0.9
# Above this many members the archive is pruned by crowding distance.
ARCHIVE_CAP = 600


@dataclass(frozen=True)
class DemoConfig:
    """Budget of one inner solve: population size and scored trial points."""

    population_size: int = 100
    max_evaluations: int = 2000

    def __post_init__(self):
        _require_counts(self, population_size=4, max_evaluations=self.population_size)


def _dedup_indices(points: np.ndarray) -> np.ndarray:
    # Points closer than 1e-9 in every coordinate collapse onto the same grid
    # cell; keep the first occurrence of each cell.
    keys = np.round(points / 1e-9).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    return first


@dataclass(frozen=True)
class ParetoSet:
    """Unit-cube points, each held once (the first row of each ``_dedup_indices`` cell), with their objectives."""

    points: np.ndarray      # (k, d)
    objectives: np.ndarray  # (k, m)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        obj = np.atleast_2d(np.asarray(self.objectives, dtype=float))
        if pts.shape[0] != obj.shape[0]:
            raise DimensionMismatchError("points and objectives must have equal row counts")
        if pts.shape[0] < 1:
            raise ValueError("a Pareto set holds at least one member")
        _require_unit_cube("Pareto set points", pts)
        first = _dedup_indices(pts)
        object.__setattr__(self, "points", pts[first])
        object.__setattr__(self, "objectives", obj[first])

    def __len__(self) -> int:
        return self.points.shape[0]


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


def fast_non_dominated_fronts(F: np.ndarray, size: int | None = None) -> list[np.ndarray]:
    """Successive non-dominated fronts (index arrays) of F's rows, until they hold ``size`` rows if given."""
    D = _domination_matrix(F)
    # Each row's unranked dominators, or -1 once ranked: no later front dominates an earlier one.
    counts = D.sum(axis=0)
    left = F.shape[0] if size is None else min(size, F.shape[0])
    fronts = []
    while left > 0:
        front = np.flatnonzero(counts == 0)
        fronts.append(front)
        left -= front.size
        counts[front] = -1
        counts -= D[front[0]] if front.size == 1 else D[front].sum(axis=0)
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
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        lo, hi = fj[0], fj[-1]
        # A column with an infinite end adds no interior gaps: its span and the
        # gap next to that end are both infinite.
        if -np.inf < lo < hi < np.inf:
            dist[order[1:-1]] += (fj[2:] - fj[:-2]) / (hi - lo)
    return dist


def _most_spread(F: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of largest crowding distance (ties to the earlier row), in row order."""
    return np.sort(np.argsort(-crowding_distance(F), kind="stable")[:k])


def _truncate(points: np.ndarray, objs: np.ndarray, size: int):
    """Keep `size` members: every front but the last whole, the last trimmed by crowding."""
    *whole, last = fast_non_dominated_fronts(objs, size)
    k = size - sum(front.size for front in whole)
    idx = np.concatenate([*whole, last[_most_spread(objs[last], k)]])
    idx.sort()  # preserve population order for reproducibility
    return points[idx], objs[idx]


def _evaluate(objective_fn, X: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(objective_fn(X), dtype=float))
    if F.shape[0] != X.shape[0]:
        raise DimensionMismatchError("objective_fn must return one row per point")
    if np.isnan(F).any():
        raise EvaluatorFaultError("objective_fn returned NaN")
    return F


def _survivors(arch_f: np.ndarray, new_f: np.ndarray):
    """Masks over a mutually non-dominated archive and over new rows: the rows nothing in their union dominates.

    Only new-vs-new and the two cross directions need checking, and by
    transitivity only against the non-dominated new rows.  Both cross
    directions come from the weak-order matrices ``le_an`` (archive <= new)
    and ``le_na`` (new <= archive): archive row i dominates new row j iff
    ``le_an[i, j] and not le_na[j, i]``, by the identity in the module
    docstring, and symmetrically for new rows over archive rows.
    """
    keep_new = non_dominated_mask(new_f)
    le_an = _weakly_le(arch_f, new_f[keep_new])
    le_na = _weakly_le(new_f[keep_new], arch_f)
    keep_arch = ~(le_na & ~le_an.T).any(axis=0)
    keep_new[keep_new] = ~(le_an & ~le_na.T).any(axis=0)
    return keep_arch, keep_new


def _update_archive(arch_x, arch_f, new_x, new_f, cap: int):
    """Merge new evaluations into the non-dominated archive (see ``_survivors``), crowding-pruned at cap."""
    keep_arch, keep_new = _survivors(arch_f, new_f)
    X = np.vstack([arch_x[keep_arch], new_x[keep_new]])
    F = np.vstack([arch_f[keep_arch], new_f[keep_new]])
    if X.shape[0] > cap:
        keep = _most_spread(F, cap)
        X, F = X[keep], F[keep]
    return X, F


def _reflect_unit(v: np.ndarray) -> np.ndarray:
    """Reflect out-of-bounds coordinates back into [0, 1].

    Once is enough: a DE/rand/1 mutant of unit-cube points lies in [-F, 1 + F], F = SCALE_FACTOR < 1.
    """
    v = np.where(v < 0.0, -v, v)
    return np.where(v > 1.0, 2.0 - v, v)


def demo_optimize(objective_fn, dim: int, config: DemoConfig, seed: int = 0, initial_points=None) -> ParetoSet:
    """Minimize a vector objective over [0,1]^dim and return a non-dominated set.

    Exactly ``config.max_evaluations`` points are scored after the initial
    population.  ``initial_points`` warm-start part of that population (rows
    beyond the population size are ignored; coordinates are clipped into the
    cube, and a NaN raises ``ValueError``; an input holding no values seeds
    nothing, as ``None`` does); the rest is uniform random.  The result is the
    final population's and the archive's members that nothing in their union
    dominates, population first, each point once under ``ParetoSet``'s
    identity rule; it is deterministic for a fixed seed.
    """
    _require_count("dim", dim, 1)
    rng = np.random.default_rng(seed)
    pop = config.population_size

    pop_x = rng.random((pop, dim))
    if initial_points is not None and np.size(initial_points):
        seeds = np.atleast_2d(np.asarray(initial_points, dtype=float))
        if seeds.shape[1] != dim:
            raise DimensionMismatchError("initial_points dimension does not match dim")
        if np.isnan(seeds).any():
            raise ValueError("initial_points must not contain NaN")
        seeds = np.clip(seeds, 0.0, 1.0)
        k = min(pop, seeds.shape[0])
        pop_x[:k] = seeds[:k]
    pop_f = _evaluate(objective_fn, pop_x)
    arch_x, arch_f = _update_archive(pop_x[:0], pop_f[:0], pop_x, pop_f, ARCHIVE_CAP)

    for done in range(0, config.max_evaluations, pop):
        n_children = min(pop, config.max_evaluations - done)
        # DE/rand/1: three distinct partners per child, none equal to the parent.
        keys = rng.random((n_children, pop))
        keys[np.arange(n_children), np.arange(n_children)] = np.inf
        r = np.argsort(keys, axis=1)[:, :3]
        mutants = _reflect_unit(
            pop_x[r[:, 0]] + SCALE_FACTOR * (pop_x[r[:, 1]] - pop_x[r[:, 2]])
        )
        cross = rng.random((n_children, dim)) < CROSSOVER_RATE
        cross[np.arange(n_children), rng.integers(dim, size=n_children)] = True
        trial = np.where(cross, mutants, pop_x[:n_children])
        trial_f = _evaluate(objective_fn, trial)

        parent_f = pop_f[:n_children]
        child_le = np.all(trial_f <= parent_f, axis=1)
        parent_le = np.all(parent_f <= trial_f, axis=1)
        child_wins = child_le & ~parent_le
        both = child_le == parent_le  # neither dominates the other
        pop_x[:n_children][child_wins] = trial[child_wins]
        pop_f[:n_children][child_wins] = trial_f[child_wins]
        if both.any():
            pop_x = np.vstack([pop_x, trial[both]])
            pop_f = np.vstack([pop_f, trial_f[both]])
        if pop_x.shape[0] > pop:
            pop_x, pop_f = _truncate(pop_x, pop_f, pop)

        arch_x, arch_f = _update_archive(arch_x, arch_f, trial, trial_f, ARCHIVE_CAP)

    # Each point once, before the merge: the population's copies of archive members go here.
    first = _dedup_indices(np.vstack([pop_x, arch_x]))
    p, a = first[first < len(pop_x)], first[first >= len(pop_x)] - len(pop_x)
    keep_arch, keep_pop = _survivors(arch_f[a], pop_f[p])
    return ParetoSet(np.vstack([pop_x[p[keep_pop]], arch_x[a[keep_arch]]]),
                     np.vstack([pop_f[p[keep_pop]], arch_f[a[keep_arch]]]))
