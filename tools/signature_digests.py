"""Print one ``group digest`` line for each of the 13 groups of seeded runs.

A run's digest is the sha256 of ``repr(RunRecord.signature())``.  A group's
digest is the first 16 hex digits of the sha256 of its runs' hex digests,
concatenated in seed order (seeds 0-2).  Two trees that print the same lines
ran the same trajectories, so a change that must not alter behaviour is
checked by running this on the parent commit and on the change::

    python tools/signature_digests.py

It imports ``mace`` from this checkout's ``src/`` and takes about 13 s on a
2-core machine at ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mace.cli import parse_config, run_single  # noqa: E402
from mace.engine import RunConfig, run_constrained, run_random, run_unconstrained  # noqa: E402
from mace.problems import builtin  # noqa: E402

SEEDS = range(3)
# run_single's small campaign, per algorithm; omace needs a constrained problem.
SMALL = {"budget": 40, "batch": 4, "n_init": 8, "demo_population": 30, "demo_evaluations": 120, "gp_restarts": 3}


def _engine(runner, problem, **config):
    return lambda seed: runner(builtin(problem), RunConfig(seed=seed, **config))


def _spec(**config):
    spec = parse_config(config)
    return lambda seed: run_single(spec, seed)


GROUPS = {
    "branin-b5": _engine(run_unconstrained, "branin", n_iter=16, batch_size=5, n_init=20),
    "branin-b15": _engine(run_unconstrained, "branin", n_iter=5, batch_size=15, n_init=20),
    "ring-mace": _engine(run_constrained, "ring-constrained-2d", n_iter=20, batch_size=5, n_init=20),
    "ring-omace": _engine(run_constrained, "ring-constrained-2d", n_iter=20, batch_size=5, n_init=20,
                          one_stage=True),
    "ring-random-uniform": _engine(run_random, "ring-constrained-2d", n_iter=20, batch_size=5, n_init=20,
                                   init_design="uniform"),
    "amp10-mace": _spec(problem="amp-mimic-10d", budget=60, batch=5, algorithm="mace"),
    **{f"single-{algo}": _spec(problem="ring-constrained-2d" if algo == "omace" else "branin",
                               algorithm=algo, **SMALL)
       for algo in ("mace", "omace", "random", "sequential-ei", "sequential-lcb")},
    # Two-stage with a one-member ensemble (["ei"], B=1): stage 2 over a subset of the columns.
    "ring-sequential-ei": _spec(problem="ring-constrained-2d", algorithm="sequential-ei", **SMALL),
    "ring-unconstrained": _spec(problem="ring-constrained-2d", mode="unconstrained", budget=60, batch=5),
}


def group_digest(run) -> str:
    runs = "".join(hashlib.sha256(repr(run(seed).signature()).encode()).hexdigest() for seed in SEEDS)
    return hashlib.sha256(runs.encode()).hexdigest()[:16]


def main() -> int:
    for name, run in GROUPS.items():
        print(name, group_digest(run), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
