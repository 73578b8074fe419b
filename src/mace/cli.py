"""Command-line front end: configs, campaigns, logging and external evaluators.

Configuration is JSON (file plus flag overrides), run traces are CSV, and the
external-evaluator wire protocol is JSON lines over a child process's
stdin/stdout: one ``{"id": k, "x": [...]}`` request per point, answered by
``{"id": k, "y": <number>, "c": [<numbers>]}`` lines in any order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import select
import selectors
import shlex
import subprocess
import time
import weakref
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .demo import DemoConfig
from .engine import (
    ENSEMBLE_ORDER,
    MODES,
    RunConfig,
    RunRecord,
    _canonical_ensemble,
    make_evaluator,
    run_constrained,
    run_random,
    run_unconstrained,
)
from .errors import ConfigError, ProtocolError
from .problems import Problem, builtin
from . import problems as problems_mod

ALGORITHMS = ("mace", "omace", "random", "sequential-ei", "sequential-lcb")


def _key(default, help=None, choices=None, low=None, flag=None):
    """A config key's default, allowed values, lower bound, flag help and flag spelling."""
    return field(default=default, metadata={"help": help, "choices": choices, "low": low, "flag": flag})


@dataclass
class ExperimentSpec:
    """Campaign configuration: one field per config key, with its type and default.

    :func:`parse_config` resolves the None defaults: ``problem`` and ``budget``
    are required, ``mode`` and ``repeats`` follow from the problem.  The GP
    fit's starts and the kind of initial design are the engine's, not keys.
    """

    problem: Optional[str] = _key(None, "builtin problem name, or 'cmd:<shell command>' for an external evaluator")
    algorithm: str = _key("mace", choices=ALGORITHMS, flag="--algo")
    mode: Optional[str] = _key(None, "defaults from the problem", choices=MODES)
    batch: int = _key(1, "points proposed per iteration", low=1)
    budget: Optional[int] = _key(None, "total evaluations incl. initial design", low=1)
    n_init: int = _key(RunConfig.n_init, low=2)
    repeats: Optional[int] = _key(None, "seeded runs; defaults to 20 unconstrained, 12 constrained", low=1)
    seed: int = _key(RunConfig.seed, low=0)
    ensemble: list = _key(ENSEMBLE_ORDER, f"comma list from {','.join(ENSEMBLE_ORDER)}")
    out_dir: str = _key("mace-results", flag="--out")
    rho: float = _key(RunConfig.rho, low=0)
    demo_population: int = _key(DemoConfig.population_size, low=4)
    demo_evaluations: int = _key(DemoConfig.max_evaluations, low=4)
    dim: Optional[int] = _key(None, "dimension of a cmd: problem", low=1)
    n_constraints: Optional[int] = _key(None, "constraint count of a cmd: problem", low=0, flag="--nc")
    bounds: Optional[list] = None  # a [lower, upper] pair per dimension; no flag sets it
    timeout: float = _key(300.0, "seconds an external evaluator has for each batch")

    @property
    def n_iter(self) -> int:
        return (self.budget - self.n_init) // self.batch

    @property
    def is_external(self) -> bool:
        return self.problem.startswith("cmd:")


def _as_int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _as_list(value) -> list:
    if isinstance(value, str):  # a comma list, as flags spell it
        return [p for p in value.split(",") if p]
    if not isinstance(value, (list, tuple)):  # a JSON array; an object is not a list of its keys
        raise TypeError(value)
    return list(value)


# Conversion of a key's value by the type its ExperimentSpec field declares.
_CONVERT = {int: (_as_int, "an integer"), float: (float, "a number"),
            str: (str, "a string"), list: (_as_list, "a list")}


def _convert(key: str, kind: type, value):
    """``value`` as the ``kind`` a spec field declares; ConfigError names ``key`` if it is not one."""
    convert, expected = _CONVERT[kind]
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: must be {expected}, got {value!r}") from None


def _require(cond: bool, key: str, message: str):
    if not cond:
        raise ConfigError(f"{key}: {message}")


def parse_config(config_path=None, overrides: Optional[dict] = None) -> ExperimentSpec:
    """Merge a JSON config file with flag overrides and apply defaults.

    Unknown keys, values of the wrong type and out-of-range values raise
    :class:`ConfigError` naming the offending key.  A None override is no
    override, and a None in the file leaves the key at its default.
    """
    raw: dict = {}
    if config_path is not None:
        if isinstance(config_path, dict):
            raw.update(config_path)
        else:
            try:
                with open(config_path) as fh:
                    loaded = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"config: {exc}") from None
            if not isinstance(loaded, dict):
                raise ConfigError("config root must be a JSON object")
            raw.update(loaded)
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})

    spec_fields = {f.name: f for f in fields(ExperimentSpec)}
    unknown = set(raw) - set(spec_fields)
    if unknown:
        raise ConfigError(f"unknown key: {sorted(unknown)[0]}")

    hints = get_type_hints(ExperimentSpec)
    merged = asdict(ExperimentSpec())
    for key, value in raw.items():
        if value is None:
            continue
        kind = next((t for t in get_args(hints[key]) if t is not type(None)), hints[key])
        merged[key] = _convert(key, kind, value)
        choices, low = spec_fields[key].metadata.get("choices"), spec_fields[key].metadata.get("low")
        _require(choices is None or merged[key] in choices, key, f"must be one of {choices}")
        _require(low is None or merged[key] >= low, key, f"must be at least {low}")

    _require(merged["problem"] is not None, "problem", "is required")
    problem_name = merged["problem"]
    external = problem_name.startswith("cmd:")
    if not external:
        _require(problem_name in problems_mod.BUILTIN_NAMES, "problem",
                 f"unknown builtin {problem_name!r}; use one of {problems_mod.BUILTIN_NAMES} or a cmd: evaluator")

    if external:
        _require(merged["dim"] is not None, "dim", "external problems need an explicit positive dimension")
        merged["n_constraints"] = merged["n_constraints"] or 0
        b = merged["bounds"]
        if b is not None:
            _require(len(b) == merged["dim"] and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in b),
                     "bounds", "must be a [lower, upper] pair per dimension")
            merged["bounds"] = [[_convert("bounds", float, v) for v in p] for p in b]
            _require(all(-np.inf < lo < hi < np.inf for lo, hi in merged["bounds"]), "bounds",
                     "must be finite, each lower below its upper")
    else:
        for key in ("dim", "n_constraints", "bounds"):
            _require(merged[key] is None, key, "applies only to a cmd: problem")
    n_con = merged["n_constraints"] if external else builtin(problem_name).n_constraints

    if merged["mode"] is None:
        merged["mode"] = "constrained" if n_con > 0 else "unconstrained"
    if merged["mode"] == "constrained":
        _require(n_con >= 1, "mode", "constrained mode needs a problem with constraints")

    if merged["algorithm"].startswith("sequential-"):
        merged["batch"] = 1
        merged["ensemble"] = [merged["algorithm"][len("sequential-"):]]
    if merged["algorithm"] == "omace":
        _require(merged["mode"] == "constrained", "algorithm", "omace only applies to constrained mode")

    if merged["repeats"] is None:
        merged["repeats"] = 12 if merged["mode"] == "constrained" else 20

    try:
        merged["ensemble"] = list(_canonical_ensemble(merged["ensemble"]))
    except ValueError as exc:
        raise ConfigError(f"ensemble: {exc}") from None

    _require(merged["budget"] is not None, "budget", "is required")
    _require(merged["timeout"] > 0, "timeout", "must be positive")
    _require(merged["budget"] >= merged["n_init"], "budget",
             "must cover at least the initial design")
    _require(merged["demo_evaluations"] >= merged["demo_population"], "demo_evaluations",
             "must be at least demo_population")
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


def _start_child(command) -> subprocess.Popen:
    """Start an evaluator child for one batch; it gets no request until :func:`external_evaluate`."""
    cmd = shlex.split(command) if isinstance(command, str) else list(command)
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` unless it has exited, wait for it and close its pipes.

    Nothing is buffered in the pipes' file objects, so closing them neither
    blocks nor raises.
    """
    proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def _stop_spare(spare: list) -> None:
    """Stop the unused child in ``spare``, if any.

    It was sent no request, so it gets no EOF either.
    """
    while spare:
        _reap(spare.pop())


def _json_number(value) -> float:
    """A value that ``json.loads`` read as a number (``NaN`` and ``Infinity`` included), as a float.

    A bool or a string is not a number and raises TypeError; an integer too
    large for a float raises OverflowError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def _parse_response(line: bytes, sent: int, answered: set, n_constraints: int):
    """The id, y and constraint values of one response line.

    Raises :class:`ProtocolError` for a line that is not UTF-8 JSON, an id
    that is not a JSON integer naming a request already written and not yet
    answered, or a ``y`` or ``c`` that breaks the protocol.
    """
    try:
        msg = json.loads(line.decode())
        point_id, value = msg["id"], msg["y"]
    except (ValueError, TypeError, KeyError) as exc:  # UnicodeDecodeError is a ValueError
        raise ProtocolError(f"malformed evaluator response: {line!r}") from exc
    if type(point_id) is not int or not 0 <= point_id < sent or point_id in answered:
        raise ProtocolError(f"unexpected response id {point_id!r}")
    cvals = msg.get("c", []) if n_constraints else []
    if not isinstance(cvals, list) or len(cvals) != n_constraints:
        raise ProtocolError(
            f"response for id {point_id} has {len(cvals) if isinstance(cvals, list) else 'non-list'}"
            f" constraint values, expected {n_constraints}"
        )
    try:
        value, *cvals = (_json_number(v) for v in (value, *cvals))
    except (TypeError, OverflowError) as exc:
        raise ProtocolError(f"response for id {point_id} has a non-numeric y or c: {line!r}") from exc
    return point_id, value, cvals


# The longest single wait for the child, in seconds; between waits the loop
# looks whether the child has exited.
_POLL_SLICE = 0.05


def external_evaluate(command, points, n_constraints: int = 0, timeout: float = ExperimentSpec.timeout):
    """Evaluate a batch of points through a child process.

    ``command`` is a shell-style string or an argument list to start the
    child from, or a child from :func:`_start_child` that has had no request
    yet.  Either way the child is reaped before this returns or raises.

    All requests go out at once as JSON lines, and the batch has ``timeout``
    seconds from when the first is written, writes included.  Points not
    answered by then, or before the child exits or closes its output, are
    faulted (NaN), as are points whose requests could not be written.  Malformed
    responses raise :class:`ProtocolError`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    y = np.full(n, np.nan)
    C = np.full((n, n_constraints), np.nan)

    proc = command if isinstance(command, subprocess.Popen) else _start_child(command)
    requests = "".join(json.dumps({"id": i, "x": [float(v) for v in p]}) + "\n"
                       for i, p in enumerate(points)).encode()
    written = sent = 0  # bytes written, and requests written in full
    partial = b""  # the start of a response line not yet ended
    answered: set[int] = set()
    deadline = time.monotonic() + timeout
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdin, selectors.EVENT_WRITE)
            out_key = selector.register(proc.stdout, selectors.EVENT_READ)
            exited = False
            while len(answered) < n and selector.get_map() and not exited:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                events = selector.select(min(remaining, _POLL_SLICE))
                if not events and proc.poll() is not None:
                    # A process the child left may hold its stdout open, so EOF may not
                    # come: what stdout holds now is the child's last output.
                    exited = True
                    os.set_blocking(proc.stdout.fileno(), False)
                    events = [(out_key, selectors.EVENT_READ)] if proc.stdout in selector.get_map() else []
                for key, _ in events:
                    if key.fileobj is proc.stdin:
                        # A writable pipe takes PIPE_BUF bytes without blocking.
                        try:
                            written += os.write(proc.stdin.fileno(), requests[written:written + select.PIPE_BUF])
                        except BrokenPipeError:
                            written = len(requests)  # the child is gone; the unsent points stay faulted
                        else:
                            sent = requests.count(b"\n", 0, written)
                        if written == len(requests):
                            selector.unregister(proc.stdin)
                            proc.stdin.close()
                    else:
                        try:
                            chunk = os.read(proc.stdout.fileno(), 65536)
                        except BlockingIOError:  # the child has exited and left nothing more
                            chunk = b""
                        lines = (partial + chunk).split(b"\n")
                        if chunk and not exited:
                            partial = lines.pop()
                        else:  # EOF, or the exited child's last output: what is left is the last line
                            selector.unregister(proc.stdout)
                        for line in filter(None, map(bytes.strip, lines)):
                            point_id, value, cvals = _parse_response(line, sent, answered, n_constraints)
                            answered.add(point_id)
                            y[point_id] = value  # NaN stays a fault for this point only
                            C[point_id] = cvals
    finally:
        _reap(proc)
    return y, C


class ExternalEvaluator:
    """Engine-facing adapter running one child process per batch.

    A run calls it ``1 + spec.n_iter`` times.  When a call returns normally
    and another is due, the next batch's child is started at once, so its
    interpreter start-up overlaps the next proposal; the previous child has
    exited by then.  :meth:`close` stops such a spare child if no call took
    it, and garbage collection of the evaluator does the same.
    """

    def __init__(self, spec: ExperimentSpec, problem: Problem):
        self.command = spec.problem[len("cmd:"):]
        self.problem = problem
        self.n_constraints = problem.n_constraints
        self.timeout = spec.timeout
        self._calls_left = 1 + spec.n_iter
        # At most one started child, not yet sent a request; a list, so that the
        # finalizer reaches the current spare without holding the evaluator.
        self._spare: list = []
        weakref.finalize(self, _stop_spare, self._spare)

    def __call__(self, X_unit: np.ndarray):
        X_phys = self.problem.denormalize(np.atleast_2d(X_unit))
        child = self._spare.pop() if self._spare else self.command
        y, C = external_evaluate(child, X_phys, n_constraints=self.n_constraints, timeout=self.timeout)
        self._calls_left -= 1
        if self._calls_left > 0:
            try:
                self._spare.append(_start_child(self.command))
            except OSError:
                pass  # the next call starts its child itself and reports the error there
        return y, C

    def close(self) -> None:
        """Stop the spare child, if one was started and no call took it."""
        _stop_spare(self._spare)


def spec_to_runconfig(spec: ExperimentSpec, seed: int) -> RunConfig:
    """The engine config of one run: keys named alike carry over, the rest translate."""
    spec_keys = {f.name for f in fields(ExperimentSpec)}
    shared = {f.name: getattr(spec, f.name) for f in fields(RunConfig)
              if f.name in spec_keys and f.name != "seed"}
    return RunConfig(
        n_iter=spec.n_iter,
        batch_size=spec.batch,
        demo=DemoConfig(population_size=spec.demo_population, max_evaluations=spec.demo_evaluations),
        seed=seed,
        one_stage=spec.algorithm == "omace",
        **shared,
    )


def run_single(spec: ExperimentSpec, seed: int, problem: Optional[Problem] = None) -> RunRecord:
    """Execute one run of the configured algorithm with the given seed."""
    problem = problem or resolve_problem(spec)
    evaluator = ExternalEvaluator(spec, problem) if spec.is_external else make_evaluator(problem)
    config = spec_to_runconfig(spec, seed)
    try:
        if spec.algorithm == "random":
            return run_random(problem, config, evaluator)
        if spec.mode == "constrained":
            return run_constrained(problem, config, evaluator, algorithm=spec.algorithm)
        return run_unconstrained(problem, config, evaluator, algorithm=spec.algorithm)
    finally:
        if spec.is_external:
            evaluator.close()


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
            incumbent = inc.y if inc is not None and inc.feasible else float("nan")
            writer.writerow(
                [row.iteration, row.eval_index, *row.x.tolist(), row.y, *row.c.tolist(),
                 int(row.feasible), row.provenance, incumbent, row.wall_ms]
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
                "seed": rec.config.seed,
                "final_best": inc.y if success else None,
                "final_feasible": bool(success),
                "evals_to_first_feasible": rec.evals_to_first_feasible,
                "evals_to_best": rec.evals_to_best,
                "faults": sum(1 for r in rec.evaluations if r.faulted),
            }
        )
    finals = [r["final_best"] for r in per_run if r["final_best"] is not None]
    summary = {
        "spec": asdict(spec),
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
        # The columns of summary.json's runs; csv.writer writes None as an empty cell.
        writer.writerow(summary["runs"][0])
        for row in summary["runs"]:
            writer.writerow(int(v) if isinstance(v, bool) else v for v in row.values())
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
    for f in fields(ExperimentSpec):
        if f.name == "bounds":
            continue  # a pair per dimension, set in the config file
        flag = f.metadata.get("flag") or "--" + f.name.replace("_", "-")
        run_p.add_argument(flag, dest=f.name, default=None,
                           choices=f.metadata.get("choices"), help=f.metadata.get("help"))

    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        spec = parse_config(args.config, overrides)
    except ConfigError as exc:
        parser.error(str(exc))  # exits with status 2
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
