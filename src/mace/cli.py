"""Command-line front end: configs, campaigns, logging and external evaluators.

Configuration is JSON (file plus flag overrides), run traces are CSV, and the
external-evaluator wire protocol is JSON lines over a child process's
stdin/stdout: one ``{"id": k, "x": [...]}`` request per point, answered by
``{"id": k, "y": <real>, "c": [<reals>]}`` lines in any order.
"""

from __future__ import annotations

import argparse
import csv
import json
import queue
import shlex
import subprocess
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .demo import DemoConfig
from .engine import (
    RunConfig,
    RunRecord,
    make_evaluator,
    run_constrained,
    run_random,
    run_unconstrained,
)
from .errors import ConfigError, ProtocolError
from .problems import Problem, builtin
from . import problems as problems_mod

ALGORITHMS = ("mace", "omace", "random", "sequential-ei", "sequential-lcb")

_SPEC_DEFAULTS = dict(
    problem=None,
    algorithm="mace",
    mode=None,
    batch=1,
    budget=None,
    n_init=20,
    repeats=None,
    seed=0,
    ensemble=["pi", "ei", "lcb"],
    out_dir="mace-results",
    max_parallel=None,
    xi=0.001,
    nu=0.5,
    delta=0.05,
    rho=0.05,
    demo_population=100,
    demo_evaluations=2000,
    gp_restarts=5,
    init_design="lhs",
    dim=None,
    n_constraints=None,
    bounds=None,
    timeout=300.0,
)


@dataclass
class ExperimentSpec:
    """Fully resolved campaign configuration (all defaults applied)."""

    problem: str
    algorithm: str
    mode: str
    batch: int
    budget: int
    n_init: int
    repeats: int
    seed: int
    ensemble: list
    out_dir: str
    max_parallel: Optional[int]
    xi: float
    nu: float
    delta: float
    rho: float
    demo_population: int
    demo_evaluations: int
    gp_restarts: int
    init_design: str
    dim: Optional[int]
    n_constraints: Optional[int]
    bounds: Optional[list]
    timeout: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @property
    def n_iter(self) -> int:
        return (self.budget - self.n_init) // self.batch

    @property
    def is_external(self) -> bool:
        return self.problem.startswith("cmd:")


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def parse_config(config_path=None, overrides: Optional[dict] = None) -> ExperimentSpec:
    """Merge a JSON config file with flag overrides and apply defaults.

    Unknown keys and out-of-range values raise :class:`ConfigError` naming the
    offending key.
    """
    raw: dict = {}
    if config_path is not None:
        if isinstance(config_path, dict):
            raw.update(config_path)
        else:
            with open(config_path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ConfigError("config root must be a JSON object")
            raw.update(loaded)
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v

    unknown = set(raw) - set(_SPEC_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown key: {sorted(unknown)[0]}")

    merged = dict(_SPEC_DEFAULTS)
    merged.update(raw)

    _require(merged["problem"] is not None, "problem", "is required")
    problem_name = str(merged["problem"])
    external = problem_name.startswith("cmd:")
    if not external:
        _require(problem_name in problems_mod.BUILTIN_NAMES, "problem",
                 f"unknown builtin {problem_name!r}; use one of {problems_mod.BUILTIN_NAMES} or a cmd: evaluator")

    if external:
        _require(merged["dim"] is not None and int(merged["dim"]) >= 1, "dim",
                 "external problems need an explicit positive dimension")
        merged["dim"] = int(merged["dim"])
        nc = 0 if merged["n_constraints"] is None else int(merged["n_constraints"])
        _require(nc >= 0, "n_constraints", "must be non-negative")
        merged["n_constraints"] = nc
        if merged["bounds"] is not None:
            b = merged["bounds"]
            _require(
                isinstance(b, list) and len(b) == merged["dim"]
                and all(isinstance(p, (list, tuple)) and len(p) == 2 and p[0] < p[1] for p in b),
                "bounds", "must be a [lower, upper] pair per dimension",
            )
            merged["bounds"] = [[float(p[0]), float(p[1])] for p in b]
        n_con = nc
    else:
        merged["dim"] = None
        merged["n_constraints"] = None
        merged["bounds"] = None
        n_con = builtin(problem_name).n_constraints

    if merged["mode"] is None:
        merged["mode"] = "constrained" if n_con > 0 else "unconstrained"
    _require(merged["mode"] in ("unconstrained", "constrained"), "mode",
             "must be unconstrained or constrained")
    if merged["mode"] == "constrained":
        _require(n_con >= 1, "mode", "constrained mode needs a problem with constraints")

    _require(merged["algorithm"] in ALGORITHMS, "algorithm", f"must be one of {ALGORITHMS}")
    if merged["algorithm"] == "sequential-ei":
        merged["batch"] = 1
        merged["ensemble"] = ["ei"]
    elif merged["algorithm"] == "sequential-lcb":
        merged["batch"] = 1
        merged["ensemble"] = ["lcb"]
    if merged["algorithm"] == "omace":
        _require(merged["mode"] == "constrained", "algorithm", "omace only applies to constrained mode")

    if merged["repeats"] is None:
        merged["repeats"] = 12 if merged["mode"] == "constrained" else 20

    if isinstance(merged["ensemble"], str):
        merged["ensemble"] = [p for p in merged["ensemble"].split(",") if p]
    merged["ensemble"] = [str(e).lower() for e in merged["ensemble"]]
    _require(
        len(merged["ensemble"]) >= 1 and set(merged["ensemble"]) <= {"pi", "ei", "lcb"},
        "ensemble", "must be a non-empty subset of pi, ei, lcb",
    )

    _require(merged["budget"] is not None, "budget", "is required")
    for key, lo in (("batch", 1), ("budget", 1), ("n_init", 2), ("repeats", 1), ("seed", 0),
                    ("demo_population", 4), ("demo_evaluations", 4), ("gp_restarts", 1)):
        merged[key] = int(merged[key])
        _require(merged[key] >= lo, key, f"must be at least {lo}")
    for key in ("xi", "nu", "delta", "rho", "timeout"):
        merged[key] = float(merged[key])
    _require(merged["xi"] >= 0, "xi", "must be non-negative")
    _require(merged["nu"] > 0, "nu", "must be positive")
    _require(0 < merged["delta"] < 1, "delta", "must lie in (0, 1)")
    _require(merged["rho"] >= 0, "rho", "must be non-negative")
    _require(merged["timeout"] > 0, "timeout", "must be positive")
    _require(merged["budget"] >= merged["n_init"], "budget",
             "must cover at least the initial design")
    _require(merged["demo_evaluations"] >= merged["demo_population"], "demo_evaluations",
             "must be at least demo_population")
    if merged["max_parallel"] is not None:
        merged["max_parallel"] = int(merged["max_parallel"])
        _require(merged["max_parallel"] >= 1, "max_parallel", "must be positive")
    _require(merged["init_design"] in ("lhs", "uniform"), "init_design",
             "must be lhs or uniform")
    merged["out_dir"] = str(merged["out_dir"])
    merged["problem"] = problem_name
    return ExperimentSpec(**merged)


def _external_problem(spec: ExperimentSpec) -> Problem:
    d = spec.dim
    if spec.bounds is not None:
        lower = np.array([b[0] for b in spec.bounds])
        upper = np.array([b[1] for b in spec.bounds])
    else:
        lower, upper = np.zeros(d), np.ones(d)

    def _no_direct_eval(_x):
        raise RuntimeError("external problems are evaluated through the wire protocol")

    return Problem(
        name=spec.problem,
        dim=d,
        lower=lower,
        upper=upper,
        objective=_no_direct_eval,
        constraints=tuple(_no_direct_eval for _ in range(spec.n_constraints or 0)),
    )


def resolve_problem(spec: ExperimentSpec) -> Problem:
    return _external_problem(spec) if spec.is_external else builtin(spec.problem)


def external_evaluate(command, points, n_constraints: int = 0,
                      timeout: float = 300.0, max_parallel: Optional[int] = None):
    """Evaluate a batch of points through a child process.

    Requests are written as JSON lines, at most ``max_parallel`` outstanding at
    a time (all at once by default).  Each point has ``timeout`` seconds from
    when its request is sent; once the oldest unanswered point runs out of
    time, it and every other point not yet answered are faulted (NaN), as are
    points the child never answers before exiting.  Malformed responses raise
    :class:`ProtocolError`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    y = np.full(n, np.nan)
    C = np.full((n, n_constraints), np.nan)

    cmd = shlex.split(command) if isinstance(command, str) else list(command)
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )

    lines: queue.Queue = queue.Queue()
    _EOF = object()

    def _reader():
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.put(line)
        lines.put(_EOF)

    reader = threading.Thread(target=_reader, daemon=True)
    reader.start()

    window = n if max_parallel is None else max(1, min(n, max_parallel))
    sent = 0
    sent_at: list[float] = []  # monotonic send time of each request, by id
    pipe_open = True
    answered: set[int] = set()

    def _send_next():
        nonlocal sent, pipe_open
        if sent >= n or not pipe_open or proc.stdin is None:
            return
        payload = json.dumps({"id": sent, "x": [float(v) for v in points[sent]]})
        try:
            proc.stdin.write(payload + "\n")
            proc.stdin.flush()
            sent_at.append(time.monotonic())
            sent += 1
            if sent == n:
                proc.stdin.close()
        except (BrokenPipeError, OSError):
            pipe_open = False  # child is gone; the unsent points stay faulted

    try:
        for _ in range(window):
            _send_next()
        oldest = 0  # lowest id not yet answered; ids are sent in order
        while len(answered) < sent:
            while oldest in answered:
                oldest += 1
            remaining = sent_at[oldest] + timeout - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = lines.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _EOF:
                break
            text = item.strip()
            if not text:
                continue
            try:
                msg = json.loads(text)
                point_id = int(msg["id"])
                value = float(msg["y"])
            except (ValueError, TypeError, KeyError) as exc:
                raise ProtocolError(f"malformed evaluator response: {text!r}") from exc
            if point_id < 0 or point_id >= n or point_id in answered or point_id >= sent:
                raise ProtocolError(f"unexpected response id {point_id}")
            cvals = msg.get("c", [])
            if n_constraints:
                if not isinstance(cvals, list) or len(cvals) != n_constraints:
                    raise ProtocolError(
                        f"response for id {point_id} has {len(cvals) if isinstance(cvals, list) else 'non-list'}"
                        f" constraint values, expected {n_constraints}"
                    )
                C[point_id] = [float(v) for v in cvals]
            answered.add(point_id)
            y[point_id] = value  # NaN stays a fault for this point only
            _send_next()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        # The child is gone, so the reader reaches EOF; the bound only guards
        # against a grandchild that inherited the pipe and keeps it open.
        # Closing stdout under a running reader would block on its lock.
        reader.join(timeout=5.0)
        if not reader.is_alive():
            proc.stdout.close()
        if not proc.stdin.closed:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass  # unsent bytes of a failed write; the fd is closed regardless

    return y, C


class ExternalEvaluator:
    """Engine-facing adapter running one child process per batch."""

    def __init__(self, spec: ExperimentSpec, problem: Problem):
        self.command = spec.problem[len("cmd:"):]
        self.problem = problem
        self.n_constraints = problem.n_constraints
        self.timeout = spec.timeout
        self.max_parallel = spec.max_parallel

    def __call__(self, X_unit: np.ndarray):
        X_phys = np.vstack([self.problem.denormalize(x) for x in np.atleast_2d(X_unit)])
        return external_evaluate(
            self.command, X_phys,
            n_constraints=self.n_constraints,
            timeout=self.timeout,
            max_parallel=self.max_parallel,
        )


def spec_to_runconfig(spec: ExperimentSpec, seed: int) -> RunConfig:
    return RunConfig(
        n_iter=spec.n_iter,
        batch_size=spec.batch,
        n_init=spec.n_init,
        xi=spec.xi,
        nu=spec.nu,
        delta=spec.delta,
        rho=spec.rho,
        demo=DemoConfig(
            population_size=spec.demo_population,
            max_evaluations=spec.demo_evaluations,
        ),
        seed=seed,
        mode=spec.mode,
        ensemble=tuple(spec.ensemble),
        init_design=spec.init_design,
        gp_restarts=spec.gp_restarts,
        one_stage=spec.algorithm == "omace",
    )


def run_single(spec: ExperimentSpec, seed: int, problem: Optional[Problem] = None) -> RunRecord:
    """Execute one run of the configured algorithm with the given seed."""
    problem = problem or resolve_problem(spec)
    evaluator = ExternalEvaluator(spec, problem) if spec.is_external else make_evaluator(problem)
    config = spec_to_runconfig(spec, seed)
    if spec.algorithm == "random":
        return run_random(problem, config, evaluator)
    if spec.mode == "constrained":
        return run_constrained(problem, config, evaluator, algorithm=spec.algorithm)
    return run_unconstrained(problem, config, evaluator, algorithm=spec.algorithm)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(path, record: RunRecord):
    """One row per evaluator call, faulted points included (flagged, y = nan)."""
    d, nc = record.dim, record.n_constraints
    header = (
        ["iter", "eval_index"]
        + [f"x_{i}" for i in range(d)]
        + ["y"]
        + [f"c_{j}" for j in range(nc)]
        + ["feasible", "provenance", "incumbent", "wall_ms"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, inc in zip(record.evaluations, record.incumbent_trace):
            incumbent = inc.value if inc is not None and inc.feasible else float("nan")
            writer.writerow(
                [row.iteration, row.eval_index]
                + [_fmt(float(v)) for v in row.x]
                + [_fmt(row.y)]
                + [_fmt(float(v)) for v in row.c]
                + [int(row.feasible), row.provenance, _fmt(incumbent), _fmt(row.wall_ms)]
            )


def _aggregate(values: list) -> Optional[dict]:
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {
        "best": float(arr.min()),
        "worst": float(arr.max()),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
    }


def summarize_records(spec: ExperimentSpec, records: list) -> dict:
    """Campaign summary: final-incumbent statistics plus feasibility accounting."""
    per_run = []
    for i, rec in enumerate(records):
        inc = rec.final_incumbent
        success = inc is not None and inc.feasible
        per_run.append(
            {
                "run": i,
                "seed": spec.seed + i,
                "final_best": inc.value if success else None,
                "final_feasible": bool(success),
                "evals_to_first_feasible": rec.evals_to_first_feasible,
                "evals_to_best": rec.evals_to_best,
                "faults": sum(1 for r in rec.evaluations if r.faulted),
            }
        )
    finals = [r["final_best"] for r in per_run if r["final_best"] is not None]
    summary = {
        "spec": spec.to_dict(),
        "runs": per_run,
        "final_best": _aggregate(finals),
        "success_count": sum(1 for r in per_run if r["final_feasible"]),
    }
    if spec.mode == "constrained":
        firsts = [r["evals_to_first_feasible"] for r in per_run if r["evals_to_first_feasible"]]
        bests = [r["evals_to_best"] for r in per_run if r["final_feasible"]]
        summary["mean_evals_to_first_feasible"] = float(np.mean(firsts)) if firsts else None
        summary["mean_evals_to_best"] = float(np.mean(bests)) if bests else None
    return summary


def run_campaign(spec: ExperimentSpec) -> dict:
    """Run ``spec.repeats`` seeded runs, write per-run CSVs and the summary files."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = resolve_problem(spec)
    records = []
    for i in range(spec.repeats):
        rec = run_single(spec, spec.seed + i, problem)
        write_run_csv(out / f"run_{i}.csv", rec)
        records.append(rec)

    summary = summarize_records(spec, records)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "seed", "final_best", "final_feasible",
                         "evals_to_first_feasible", "evals_to_best", "faults"])
        for row in summary["runs"]:
            writer.writerow(
                [row["run"], row["seed"],
                 "" if row["final_best"] is None else _fmt(row["final_best"]),
                 int(row["final_feasible"]),
                 row["evals_to_first_feasible"] or "",
                 row["evals_to_best"] or "",
                 row["faults"]]
            )
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mace",
        description="Batch Bayesian optimization via a multi-objective acquisition ensemble",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a repeated-seed optimization campaign")
    run_p.add_argument("--config", default=None, help="JSON config file; flags override it")
    run_p.add_argument("--problem", default=None,
                       help="builtin problem name, or 'cmd:<shell command>' for an external evaluator")
    run_p.add_argument("--mode", choices=["unconstrained", "constrained"], default=None)
    run_p.add_argument("--batch", type=int, default=None, help="points proposed per iteration")
    run_p.add_argument("--budget", type=int, default=None, help="total evaluations incl. initial design")
    run_p.add_argument("--repeats", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--algo", dest="algorithm", choices=list(ALGORITHMS), default=None)
    run_p.add_argument("--ensemble", default=None, help="comma list from pi,ei,lcb")
    run_p.add_argument("--out", dest="out_dir", default=None)
    run_p.add_argument("--max-parallel", dest="max_parallel", type=int, default=None,
                       help="cap on in-flight external evaluations per batch")
    run_p.add_argument("--n-init", dest="n_init", type=int, default=None)
    run_p.add_argument("--dim", type=int, default=None, help="dimension of a cmd: problem")
    run_p.add_argument("--nc", dest="n_constraints", type=int, default=None,
                       help="constraint count of a cmd: problem")
    run_p.add_argument("--timeout", type=float, default=None,
                       help="per-point external evaluation timeout in seconds")
    run_p.add_argument("--init-design", dest="init_design", choices=["lhs", "uniform"], default=None)
    run_p.add_argument("--gp-restarts", dest="gp_restarts", type=int, default=None)
    run_p.add_argument("--rho", type=float, default=None)
    run_p.add_argument("--xi", type=float, default=None)

    args = parser.parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        spec = parse_config(args.config, overrides)
    except ConfigError as exc:
        parser.error(str(exc))
        return 2
    summary = run_campaign(spec)
    agg = summary["final_best"]
    print(f"wrote {spec.out_dir}/summary.json")
    if agg is not None:
        print(
            f"{spec.algorithm} on {spec.problem}: best={agg['best']:.6g} "
            f"worst={agg['worst']:.6g} mean={agg['mean']:.6g} std={agg['std']:.6g}"
        )
    if spec.mode == "constrained":
        print(f"success {summary['success_count']}/{spec.repeats}, "
              f"mean evals to first feasible: {summary.get('mean_evals_to_first_feasible')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
