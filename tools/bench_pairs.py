"""Compare two checkouts on the benchmark's end-to-end metrics, in alternating pairs.

Runs ``BENCHMARK.json``'s command (``python3 perfbench/run.py``) with
``--trace 0`` in the parent's and in the change's checkout, one after the
other, as a subprocess in each checkout's directory::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N --seed-base S [--workload W]

Pair ``i`` (0 to N - 1) runs seed ``S + i`` on both sides; odd pairs run the
parent first and even pairs the change, so that drift and warm-up do not land
on one side.  ``--workload`` defaults to ``all``.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` it prints the parent's median and
quartiles, the change's median and the pairs the change won (a tie counts for
neither side), then each flag that holds:

- ``unresolved`` when the parent's interquartile range exceeds the metric's
  bound (a share of the parent's median), unless every run of the change is
  better than every run of the parent;
- ``gain`` when the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range.

Each workload's block starts with each side's median one-minute load average
at the start of its runs (``loadavg_start`` of the ``env`` line that
``perfbench/run.py`` prints), since a busy machine slows both sides unevenly.
The last line of stdout is the JSON record: the arguments, every run's seed,
side, correctness and ``loadavg_start``, and per workload and metric the values
on each side and the comparison.  The exit status is 1 if any run was not
``correct``, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, seed: int, command: list, workload: str) -> dict:
    """One ``--trace 0`` run in ``checkout``: the summary its last stdout line holds.

    ``loadavg_start`` is copied into it from the run's ``env`` line, or is None
    when the run printed none.
    """
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {}
    summary["correct"] = proc.returncode == 0 and summary.get("correct") is True
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    summary["loadavg_start"] = env.get("loadavg_start")
    return summary


def run_pairs(parent: Path, change: Path, pairs: int, seed_base: int, run) -> list:
    """``(parent summary, change summary)`` per pair; ``run(checkout, seed)`` makes one run."""
    results = []
    for i in range(pairs):
        seed = seed_base + i
        order = (("parent", parent), ("change", change)) if i % 2 else (("change", change), ("parent", parent))
        out = {}
        for side, checkout in order:
            out[side] = run(checkout, seed)
            print(f"pair {i} seed {seed} {side}: {'correct' if out[side]['correct'] else 'NOT correct'}", flush=True)
        results.append((out["parent"], out["change"]))
    return results


def by_workload(summary: dict, workload: str) -> dict:
    """``{workload: {metric: value}}`` from one run's summary."""
    metrics = summary.get("metrics", {})
    if workload != "all":
        return {workload: {name: m["value"] for name, m in metrics.items()}}
    out: dict = {}
    for key, m in metrics.items():
        name, metric = key.split("/", 1)
        out.setdefault(name, {})[metric] = m["value"]
    return out


def compare(parent, change, better: str, bound: float) -> dict:
    """The paired comparison of one metric; ``parent[i]`` and ``change[i]`` ran the same seed."""
    sign = 1.0 if better == "lower" else -1.0  # below, lower is better
    p, c = sign * np.asarray(parent, dtype=float), sign * np.asarray(change, dtype=float)
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    change_median = float(np.median(change))
    iqr = q3 - q1
    wins = int(np.sum(c < p))
    return {
        "parent": list(parent),
        "change": list(change),
        "parent_median": float(median),
        "parent_quartiles": [float(q1), float(q3)],
        "change_median": change_median,
        "wins": wins,
        "pairs": len(parent),
        "unresolved": bool(iqr > bound * abs(median) and not c.max() < p.min()),
        "gain": bool(wins >= 0.9 * len(parent) and sign * (median - change_median) > iqr),
    }


def main(argv=None, run=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed_base < 0:
        parser.error("--pairs must be at least 1 and --seed-base non-negative")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if run is None:
        def run(checkout, seed):
            return run_once(checkout, seed, manifest["command"], args.workload)

    results = run_pairs(args.parent.resolve(), args.change.resolve(), args.pairs, args.seed_base, run)
    sides = [(by_workload(p, args.workload), by_workload(c, args.workload)) for p, c in results]
    names = [w["name"] for w in manifest["workloads"]] if args.workload == "all" else [args.workload]
    load = {side: [s["loadavg_start"][0] for s in column if s.get("loadavg_start")]
            for side, column in zip(("parent", "change"), zip(*results))}
    load_text = "  ".join(f"{side} {np.median(v):.3g}" if v else f"{side} -" for side, v in load.items())
    table: dict = {}
    for name in names:
        print(f"{name:12s} {'loadavg_start':20s} {load_text}")
        for spec in manifest["end_to_end"]:
            metric = spec["name"]
            paired = [(p[name][metric], c[name][metric]) for p, c in sides
                      if metric in p.get(name, {}) and metric in c.get(name, {})]
            if not paired:
                continue
            row = compare(*zip(*paired), spec["better"], spec["bound"])
            table.setdefault(name, {})[metric] = row
            flags = " ".join(flag for flag in ("unresolved", "gain") if row[flag])
            q1, q3 = row["parent_quartiles"]
            print(f"{name:12s} {metric:20s} parent {row['parent_median']:.4g} [{q1:.4g}, {q3:.4g}]  "
                  f"change {row['change_median']:.4g}  wins {row['wins']}/{row['pairs']}  {flags}".rstrip())
    correct = all(s["correct"] for pair in results for s in pair)
    record = {
        "parent": str(args.parent), "change": str(args.change), "workload": args.workload,
        "pairs": args.pairs, "seed_base": args.seed_base, "correct": correct,
        "runs": [{"pair": i, "seed": args.seed_base + i, "side": side, "correct": s["correct"],
                  "loadavg_start": s.get("loadavg_start")}
                 for i, pair in enumerate(results) for side, s in zip(("parent", "change"), pair)],
        "metrics": table,
    }
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
