"""Built-in analytic benchmark problems and the problem abstraction.

Feasibility follows the strict convention c(x) < 0; a constraint value of
exactly zero counts as infeasible.  Objectives are always minimized; metrics
that should be maximized are negated before weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluatorFaultError, _require_counts, _require_unit_cube


@dataclass(frozen=True)
class Problem:
    """A box-constrained scalar objective with optional inequality constraints."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], float]
    constraints: tuple = ()
    known_optimum: Optional[float] = None

    def __post_init__(self):
        _require_counts(self, dim=1)
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError("bounds must match the problem dimension")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be below its upper bound")

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def denormalize(self, x_unit: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(x_unit, dtype=float) * (self.upper - self.lower)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lower) / (self.upper - self.lower)


def fom_weighted_sum(weights, metrics) -> Callable[[np.ndarray], float]:
    """Weighted combination of performance metrics, minimized as one scalar: x -> sum_i w_i * f_i(x)."""
    weights, metrics = tuple(weights), tuple(metrics)
    if len(weights) < 1 or len(weights) != len(metrics):
        raise ValueError("need one finite weight per metric, at least one metric")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")

    def fom(x: np.ndarray) -> float:
        return float(sum(w * f(x) for w, f in zip(weights, metrics)))

    return fom


def evaluate(problem: Problem, x_unit) -> tuple[float, np.ndarray]:
    """De-normalize a unit-cube point and evaluate objective plus constraints."""
    x_unit = np.atleast_1d(np.asarray(x_unit, dtype=float))
    if x_unit.shape != (problem.dim,):
        raise ValueError(f"expected a point of dimension {problem.dim}")
    _require_unit_cube("point", x_unit)
    x = problem.denormalize(x_unit)
    y = float(problem.objective(x))
    if not np.isfinite(y):
        raise EvaluatorFaultError(f"{problem.name}: objective returned {y!r}")
    c = np.array([float(g(x)) for g in problem.constraints])
    if not np.all(np.isfinite(c)):
        raise EvaluatorFaultError(f"{problem.name}: constraints returned {c!r}")
    return y, c


def _branin(x: np.ndarray) -> float:
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    t = 1.0 / (8.0 * np.pi)
    return float(
        (x[1] - b * x[0] ** 2 + c * x[0] - 6.0) ** 2
        + 10.0 * (1.0 - t) * np.cos(x[0])
        + 10.0
    )


_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ]
)
_HARTMANN6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])


def _hartmann6(x: np.ndarray) -> float:
    inner = np.sum(_HARTMANN6_A * (x - _HARTMANN6_P) ** 2, axis=1)
    return float(-np.dot(_HARTMANN6_ALPHA, np.exp(-inner)))


# Ring geometry: band |r - RING_RADIUS| < RING_HALFWIDTH around the box center,
# sized so the feasible area is 1% of the unit square.  The small radius keeps
# the band wide (area fixed, circumference short), a feature scale a smooth
# surrogate can actually resolve.
RING_CENTER = np.array([0.5, 0.5])
RING_RADIUS = 0.08
RING_HALFWIDTH = 0.01 / (4.0 * np.pi * RING_RADIUS)
_RING_TARGET = np.array([0.9, 0.9])


def _ring_objective(x: np.ndarray) -> float:
    return float(np.sum((x - _RING_TARGET) ** 2))


def _ring_constraint(x: np.ndarray) -> float:
    r = float(np.hypot(x[0] - RING_CENTER[0], x[1] - RING_CENTER[1]))
    return abs(r - RING_RADIUS) - RING_HALFWIDTH


def _ring_optimum() -> float:
    # Closest approach to the target on the outer circle of the band.
    gap = float(np.hypot(*(_RING_TARGET - RING_CENTER))) - (RING_RADIUS + RING_HALFWIDTH)
    return gap**2


_AMP_ANCHOR = np.array([0.62, 0.31, 0.48, 0.55, 0.7, 0.44, 0.36, 0.58, 0.52, 0.67])
_AMP_PHASE = np.array([0.15, 0.85, 0.4, 0.6, 0.25, 0.75, 0.5, 0.1, 0.9, 0.35])


def _amp_mimic_objective() -> Callable[[np.ndarray], float]:
    # Smooth multimodal stand-in for a 10-variable sizing task: a quadratic
    # "power" term plus an oscillatory "gain" term (maximized, hence negated).
    def power_like(x):
        return float(np.mean((x - _AMP_ANCHOR) ** 2))

    def gain_like(x):
        return float(np.mean(np.cos(3.0 * np.pi * (x - _AMP_PHASE))))

    return fom_weighted_sum((1.0, 0.35), (power_like, lambda x: -gain_like(x)))


def _amp_constraint_budget(x: np.ndarray) -> float:
    # "Area budget": designs must stay near the anchor on average.
    return float(np.mean((x - _AMP_ANCHOR) ** 2) - 0.08)


def _amp_constraint_spread(x: np.ndarray) -> float:
    # "Matching": the first half of the design may not drift from the second.
    return float(abs(np.mean(x[:5]) - np.mean(x[5:])) - 0.25)


def _constrained_branin() -> Problem:
    branin = builtin("branin")

    def disc(x):
        u = branin.normalize(x)
        return float((u[0] - 0.5) ** 2 + (u[1] - 0.5) ** 2 - 0.25)

    # The unconstrained minimizer sits inside the disc, so the optimum is unchanged.
    return Problem(
        name="constrained-branin",
        dim=2,
        lower=branin.lower,
        upper=branin.upper,
        objective=branin.objective,
        constraints=(disc,),
        known_optimum=branin.known_optimum,
    )


# Factories rather than instances, so that each lookup builds a new Problem.
_BUILTINS = {
    "branin": lambda: Problem(
        name="branin",
        dim=2,
        lower=np.array([-5.0, 0.0]),
        upper=np.array([10.0, 15.0]),
        objective=_branin,
        known_optimum=0.39788735772973816,
    ),
    "hartmann6": lambda: Problem(
        name="hartmann6",
        dim=6,
        lower=np.zeros(6),
        upper=np.ones(6),
        objective=_hartmann6,
        known_optimum=-3.322368011391339,
    ),
    "sphere10": lambda: Problem(
        name="sphere10",
        dim=10,
        lower=-np.ones(10),
        upper=np.ones(10),
        objective=lambda x: float(np.sum(x**2)),
        known_optimum=0.0,
    ),
    "ring-constrained-2d": lambda: Problem(
        name="ring-constrained-2d",
        dim=2,
        lower=np.zeros(2),
        upper=np.ones(2),
        objective=_ring_objective,
        constraints=(_ring_constraint,),
        known_optimum=_ring_optimum(),
    ),
    "constrained-branin": _constrained_branin,
    "amp-mimic-10d": lambda: Problem(
        name="amp-mimic-10d",
        dim=10,
        lower=np.zeros(10),
        upper=np.ones(10),
        objective=_amp_mimic_objective(),
        constraints=(_amp_constraint_budget, _amp_constraint_spread),
    ),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Problem:
    """A new instance of the built-in problem ``name``, one of :data:`BUILTIN_NAMES`."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin problem: {name!r}")
    return _BUILTINS[name]()
