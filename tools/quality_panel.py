"""Print the result quality of seeded campaigns, one JSON line per group.

Each group runs seeds 0-59 of one campaign shape and prints
``{"group": ..., "runs": [...]}`` with, per seed, the final regret (the final
feasible incumbent's value minus the known optimum; the value itself for a
problem without a known optimum, such as ``amp-mimic-10d``; null when no
feasible point was found), the evaluations to the first feasible point, the
share of proposed points that are ``fallback-random`` padding, and the share of
proposed points whose ``x`` bytes equal an earlier evaluation's (a repeated
simulation).  The runs are deterministic, so two trees are compared by
running this on each and then comparing the outputs::

    python tools/quality_panel.py > change.jsonl
    python tools/quality_panel.py --compare parent.jsonl change.jsonl

The comparison prints, per group and measure, the median and interquartile
range on each side and how many seeds the second file wins, loses and ties
(lower is better for every measure; a missing regret loses to any value).
It then names each group, and each seed of a shared group, that only one file
has, and exits 1 if it named any or if the files share no group.  It also
names each measure that only one file holds, without failing, and compares
the measures both hold.  It imports
``mace`` from this checkout's ``src/``.  All groups take about 9 minutes on a
2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mace.engine import run_constrained, run_unconstrained  # noqa: E402
from mace.problems import builtin  # noqa: E402
from signature_digests import GROUPS as DIGEST_GROUPS, _engine  # noqa: E402

SEEDS = range(60)
MEASURES = ("regret", "evals_to_first_feasible", "fallback_share", "repeat_share")

# Criterion 6's branin shapes, criterion 7's ring runs, three more problems at
# branin's B=5 budget (a constrained one, a 10-d and a 6-d unconstrained one)
# and the benchmark's 10-d constrained campaign.
GROUPS = {
    **{name: DIGEST_GROUPS[name] for name in ("branin-b5", "branin-b15", "ring-mace", "ring-omace")},
    "constrained-branin": _engine(run_constrained, "constrained-branin", n_iter=16, batch_size=5, n_init=20),
    "sphere10-b5": _engine(run_unconstrained, "sphere10", n_iter=16, batch_size=5, n_init=20),
    "hartmann6-b5": _engine(run_unconstrained, "hartmann6", n_iter=16, batch_size=5, n_init=20),
    "amp10-mace": DIGEST_GROUPS["amp10-mace"],
}


def measure(run, seed: int) -> dict:
    rec = run(seed)
    optimum = builtin(rec.problem_name).known_optimum
    best = rec.final_incumbent
    proposed, repeats, seen = [], 0, set()
    for r in rec.evaluations:
        key = r.x.tobytes()
        if r.iteration > 0:
            proposed.append(r.provenance)
            repeats += key in seen
        seen.add(key)
    return {
        "seed": seed,
        "regret": best.y - (optimum or 0.0) if best is not None and best.feasible else None,
        "evals_to_first_feasible": rec.evals_to_first_feasible,
        "fallback_share": proposed.count("fallback-random") / len(proposed) if proposed else 0.0,
        "repeat_share": repeats / len(proposed) if proposed else 0.0,
    }


def _quartiles(values) -> str:
    if not values:
        return "none"
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_path: str, change_path: str) -> bool:
    """Print the comparison; True when both files hold the same groups and seeds, at least one group."""
    def load(path):
        with open(path) as fh:
            groups = [json.loads(line) for line in fh if line.strip()]
        return {g["group"]: {r["seed"]: r for r in g["runs"]} for g in groups}

    parent, change = load(parent_path), load(change_path)
    # The measures every run of a file holds; an output of an older version of this tool lacks newer ones.
    held = [{m for m in MEASURES if all(m in r for runs in panel.values() for r in runs.values())}
            for panel in (parent, change)]
    shared = [g for g in parent if g in change]
    for group in shared:
        seeds = sorted(parent[group].keys() & change[group].keys())
        for name in (m for m in MEASURES if m in held[0] & held[1]):
            a = [parent[group][s][name] for s in seeds]
            b = [change[group][s][name] for s in seeds]
            # None (nothing feasible) ranks after every value.
            key = [(float("inf") if v is None else v) for v in a], [(float("inf") if v is None else v) for v in b]
            wins = sum(y < x for x, y in zip(*key))
            losses = sum(y > x for x, y in zip(*key))
            print(f"{group:20s} {name:24s} n={len(seeds)}  "
                  f"parent {_quartiles([v for v in a if v is not None])}  "
                  f"change {_quartiles([v for v in b if v is not None])}  "
                  f"change better/worse/tied {wins}/{losses}/{len(seeds) - wins - losses}")
    unmatched = []
    for path, ours, theirs in ((parent_path, parent, change), (change_path, change, parent)):
        for group, runs in ours.items():
            if group not in theirs:
                unmatched.append(f"{group} only in {path}")
            elif only := sorted(runs.keys() - theirs[group].keys()):
                unmatched.append(f"{group} seeds only in {path}: {', '.join(map(str, only))}")
    if not shared:
        unmatched.append("no group in both files")
    for line in unmatched:
        print(line)
    for path, ours, theirs in ((parent_path, *held), (change_path, *held[::-1])):
        for name in (m for m in MEASURES if m in ours - theirs):
            print(f"measure {name} only in {path}")
    return not unmatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two outputs of this tool instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    for name, run in GROUPS.items():
        runs = [measure(run, seed) for seed in SEEDS]
        print(json.dumps({"group": name, "runs": runs}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
