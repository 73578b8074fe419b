"""Campaign benchmark: proposal latency, run time and result quality of mace.

Run from the repository root::

    python3 perfbench/run.py [--workload all|branin-cmd|ring-mace|amp10-mace]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs seeded batch-BO campaigns through the public API, one
after another in this process (a closed loop: the next batch is proposed only
after the previous one is evaluated).  Campaign ``i`` of a run uses seed
``1000 * N + i``, so ``mace run --seed 1000N --repeats K`` repeats the same
campaigns.  ``--seconds`` sets the amount of work, not a deadline: a run makes
``round(campaigns * S / RUN_SECONDS)`` campaigns, which take about ``S``
seconds or less on the 2-core reference machine, so a faster program measures
the same campaigns in less time.  Only a run slowed down far beyond that stops
starting campaigns after ``STOP_STARTING_S`` seconds.

With ``--trace 0`` the timed runs observe only the evaluator the benchmark
passes in, and the run prints every end-to-end metric.  With ``--trace 1`` it
runs each seed untraced and traced (see ``tracer.py``), checks that both
give the same ``RunRecord.signature()``, and prints the per-layer metrics.
Either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed output check
makes the exit code 1.  ``--manifest`` prints ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mace  # noqa: E402
from mace.cli import ExternalEvaluator, parse_config, resolve_problem, spec_to_runconfig  # noqa: E402
from mace.engine import RunRecord, make_evaluator, run_constrained, run_unconstrained  # noqa: E402
from mace.problems import builtin, evaluate  # noqa: E402

if Path(mace.__file__).resolve().parent != ROOT / "src" / "mace":
    sys.exit(f"mace was imported from {mace.__file__}, not from this checkout's src/")

sys.path.insert(0, str(BENCH))
from tracer import Tracer, layer_metrics, traced  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    budget: int
    why: str
    campaigns: int  # per run of RUN_SECONDS
    # Analytic lower bound of the objective, subtracted from final_best so the
    # reported value is positive (a relative bound needs a positive median).
    objective_floor: float = 0.0
    external: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("branin-cmd", "branin", 100,
                 "branin B=5 through the JSON-lines child: one d=2 GP per iteration, m=3 front, "
                 "the only workload that spawns an external evaluator",
                 campaigns=6, external=True),
        Workload("ring-mace", "ring-constrained-2d", 120,
                 "two-stage constrained run, m=3 then m=6 with pruning; DEMO sorting is heaviest "
                 "and GP fits are cheap (2 models at d=2)",
                 campaigns=5),
        # Budget 60 rather than 100: at 100 only 4 campaigns fit a run, and the
        # seed-to-seed spread of propose_ms.p50 and final_best was 0.17.
        Workload("amp10-mace", "amp-mimic-10d", 60,
                 "budget 60: 3 GPs on the same X at d=10, so GP fit dominates and DEMO is small; "
                 "feasible from the first batch, so stage 2 with pruning throughout",
                 campaigns=9, objective_floor=-0.35),
    )
}

BATCH = 5
SETUP_REPEATS = 3
# A run stops starting campaigns after this long, so that it ends within 180 s
# even on a machine several times slower than the reference.
STOP_STARTING_S = 120.0

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("propose_ms.p50", "ms", "lower", 0.25),
    ("propose_ms.p90", "ms", "lower", 0.25),
    ("run_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("final_best.median", "objective", "lower", 0.25),
    ("feasible_share", "ratio", "higher", 0.2),
)

# name, unit, better; the prefix before the first dot names the layer.
PER_LAYER = (
    ("gp.fit.calls", "count", "lower"),
    ("gp.fit.ms", "ms", "lower"),
    ("gp.fit.share", "ratio", "lower"),
    ("gp.fit.nfev", "count", "lower"),
    ("gp.fit.failed_restarts", "count", "lower"),
    ("gp.build.ms", "ms", "lower"),
    ("gp.predict.calls", "count", "lower"),
    ("gp.predict.rows", "count", "lower"),
    ("gp.predict.ms", "ms", "lower"),
    ("acq.score.calls", "count", "lower"),
    ("acq.score.rows", "count", "lower"),
    ("acq.score.self_ms", "ms", "lower"),
    ("demo.calls", "count", "lower"),
    ("demo.ms", "ms", "lower"),
    ("demo.share", "ratio", "lower"),
    ("demo.sort_ms", "ms", "lower"),
    ("demo.self_ms", "ms", "lower"),
    ("demo.front_size", "count", "higher"),
    ("demo.unique_ratio", "ratio", "higher"),
    ("engine.prune.share", "ratio", "lower"),
    ("engine.prune.fallbacks", "count", "lower"),
    ("engine.sample.ms", "ms", "lower"),
    ("engine.fallback_share", "ratio", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.stage1_iters", "count", "lower"),
    ("eval.batch_ms", "ms", "lower"),
    ("cli.ext.share", "ratio", "lower"),
    ("cli.ext.spawns", "count", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

RUN_SECONDS = 40


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------- campaigns


class StampedEvaluator:
    """Passes batches to the real evaluator and stamps each call's start and end."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[float, float]] = []

    def __call__(self, X):
        start = time.perf_counter()
        out = self.inner(X)
        self.calls.append((start, time.perf_counter()))
        return out


@dataclass
class Setup:
    workload: Workload
    spec: object
    problem: object

    def evaluator(self):
        if self.spec.is_external:
            return ExternalEvaluator(self.spec, self.problem)
        return make_evaluator(self.problem)

    def runner(self):
        return run_constrained if self.spec.mode == "constrained" else run_unconstrained


def prepare(workload: Workload, seed: int) -> Setup:
    """Resolve the campaign spec and problem the way ``mace run`` does."""
    config = {"problem": workload.problem, "budget": workload.budget, "batch": BATCH,
              "seed": 1000 * seed, "algorithm": "mace"}
    if workload.external:
        ref = builtin(workload.problem)
        child = shlex.join([sys.executable, str(BENCH / "branin_child.py")])
        config.update(problem=f"cmd:{child}", dim=ref.dim,
                      bounds=[[float(lo), float(hi)] for lo, hi in zip(ref.lower, ref.upper)])
    spec = parse_config(config)
    return Setup(workload, spec, resolve_problem(spec))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Campaign:
    seed: int
    budget: int
    record: Optional[RunRecord]
    calls: list
    wall_s: float
    cpu_s: float
    error: str = ""

    @property
    def proposal_ms(self) -> list[float]:
        return [(self.calls[k][0] - self.calls[k - 1][1]) * 1000.0 for k in range(1, len(self.calls))]

    @property
    def eval_ms(self) -> list[float]:
        return [(end - start) * 1000.0 for start, end in self.calls]


def run_campaign(setup: Setup, index: int, tracer: Optional[Tracer] = None) -> Campaign:
    seed = setup.spec.seed + index
    config = spec_to_runconfig(setup.spec, seed)
    evaluator = StampedEvaluator(setup.evaluator())
    runner = setup.runner()
    record, error = None, ""
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        if tracer is None:
            record = runner(setup.problem, config, evaluator, algorithm=setup.spec.algorithm)
        else:
            tracer.run = run_label(setup.workload, seed)
            with traced(tracer):
                record = runner(setup.problem, config, evaluator, algorithm=setup.spec.algorithm)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall = time.perf_counter() - start
    return Campaign(seed, config.total_evaluations, record, evaluator.calls, wall, _cpu_s() - cpu0, error)


def check(setup: Setup, c: Campaign) -> list[str]:
    """Output checks of one campaign; an empty list means it passed."""
    if c.record is None:
        return [f"seed {c.seed}: run raised {c.error.strip().splitlines()[-1]}"]
    rec, problems = c.record, []
    if len(rec.evaluations) != c.budget:
        problems.append(f"seed {c.seed}: {len(rec.evaluations)} evaluations, budget {c.budget}")
    keys = [inc.order_key() for inc in rec.incumbent_trace if inc is not None]
    started = [inc is not None for inc in rec.incumbent_trace]
    if any(b > a for a, b in zip(keys, keys[1:])) or started != sorted(started):
        problems.append(f"seed {c.seed}: incumbent trace is not monotone")
    rho = setup.spec.rho
    for it in rec.iterations:
        if it.stage != "stage2" or it.fallback:
            continue
        for prov, viol in zip(it.provenance, it.adaptive_violations):
            if prov == "pareto-sample" and not viol <= rho:
                problems.append(f"seed {c.seed} iter {it.t}: stage-2 proposal violation {viol:.4g} > rho {rho}")
    if setup.workload.external:
        ref = builtin(setup.workload.problem)
        for r in rec.evaluations:
            expected, _ = evaluate(ref, r.x)
            if not math.isclose(r.y, expected, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"seed {c.seed} eval {r.eval_index}: child returned {r.y!r}, builtin {expected!r}")
                break
    return problems


def failed_evaluations(c: Campaign, problems: list[str]) -> int:
    if problems or c.record is None:
        return c.budget
    return sum(1 for r in c.record.evaluations if r.faulted) + c.budget - len(c.record.evaluations)


# ----------------------------------------------------------------- metrics


def measure_setup(workload: Workload) -> float:
    """Median wall time from interpreter start to a resolved campaign, over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--setup-probe", "--workload", workload.name],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return statistics.median(times)


def end_to_end(setup: Setup, campaigns: list[Campaign], setup_s: float) -> tuple[dict, dict]:
    """Gated end-to-end metrics, plus reported-only context (sample counts, evals to feasible)."""
    wl = setup.workload
    done = [c for c in campaigns if c.record is not None]
    proposals = [ms for c in done for ms in c.proposal_ms]
    finals = [c.record.final_incumbent for c in done]
    feasible = [inc for inc in finals if inc is not None and inc.feasible]
    firsts = [c.record.evals_to_first_feasible for c in done if c.record.evals_to_first_feasible]
    metrics = {
        "setup_s": setup_s,
        "propose_ms.p50": float(np.percentile(proposals, 50)) if proposals else None,
        "propose_ms.p90": float(np.percentile(proposals, 90)) if proposals else None,
        "run_s.p50": statistics.median(c.wall_s for c in campaigns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_best.median": statistics.median(inc.value - wl.objective_floor for inc in feasible) if feasible else None,
        "feasible_share": len(feasible) / len(campaigns),
    }
    context = {
        "propose_ms.samples": len(proposals),
        "campaigns": len(campaigns),
        "evals_to_feasible.median": statistics.median(firsts) if firsts else None,
    }
    return metrics, context


def per_layer(workload: Workload, pairs: list[tuple[Campaign, Campaign]], tracer: Tracer) -> dict:
    """Mean over traced campaigns of each layer metric, plus tracing overhead."""
    rows = []
    for _, c in pairs:
        if c.record is None:
            continue
        spans = [s for s in tracer.spans if s.run == run_label(workload, c.seed)]
        row = layer_metrics(spans, c.proposal_ms, c.eval_ms, c.wall_s)
        row["engine.stage1_iters"] = sum(1 for it in c.record.iterations if it.stage == "stage1")
        row["proc.cpu_per_wall"] = c.cpu_s / c.wall_s
        rows.append(row)
    metrics = {name: float(np.mean([r[name] for r in rows])) if rows else None
               for name, _, _ in PER_LAYER if name != "trace.overhead"}
    untraced = sum(u.wall_s for u, _ in pairs)
    metrics["trace.overhead"] = sum(t.wall_s for _, t in pairs) / untraced - 1.0
    return metrics


def run_label(workload: Workload, seed: int) -> str:
    return f"{workload.name}/{seed}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
    }


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process (left at its default)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


# -------------------------------------------------------------------- main


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    setup = prepare(workload, seed)
    n = max(1, round(workload.campaigns * seconds / RUN_SECONDS))

    def in_time(i: int) -> bool:
        return i == 0 or time.monotonic() - started < STOP_STARTING_S

    problems: list[str] = []
    failed = attempted = 0

    def account(c: Campaign) -> None:
        nonlocal failed, attempted
        found = check(setup, c)
        problems.extend(found)
        failed += failed_evaluations(c, found)
        attempted += c.budget

    if trace:
        tracer = Tracer()
        pairs = []
        for i in range(max(1, n // 2)):
            if not in_time(i):
                break
            # Alternate which side runs first, so that drift and warm-up do not
            # land on one side of trace.overhead.
            if i % 2 == 0:
                untraced_c = run_campaign(setup, i)
                traced_c = run_campaign(setup, i, tracer)
            else:
                traced_c = run_campaign(setup, i, tracer)
                untraced_c = run_campaign(setup, i)
            account(untraced_c)
            account(traced_c)
            if untraced_c.record and traced_c.record and untraced_c.record.signature() != traced_c.record.signature():
                problems.append(f"seed {traced_c.seed}: traced signature differs from untraced")
            pairs.append((untraced_c, traced_c))
        metrics = per_layer(workload, pairs, tracer)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
        context = {"traced_campaigns": len(pairs)}
    else:
        setup_s = measure_setup(workload)
        campaigns = [run_campaign(setup, i) for i in range(n) if in_time(i)]
        for c in campaigns:
            account(c)
        metrics, context = end_to_end(setup, campaigns, setup_s)
        context["failed_share"] = failed / attempted

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    for key, value in {**metrics, **context}.items():
        print(f"{workload.name}  {key} = {value} {units.get(key, '')}".rstrip())
    for p in problems:
        print(f"{workload.name}  CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="seed base; campaign i uses 1000*seed + i")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="work per workload, in campaign-seconds of the reference machine")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.setup_probe:
        prepare(WORKLOADS[args.workload], 0)
        print("ready", flush=True)
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    print("env", json.dumps(environment()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
