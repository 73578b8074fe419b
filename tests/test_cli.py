"""Config parsing, the external-evaluator wire protocol and campaign output."""

import csv
import gc
import json
import os
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mace import cli, engine
from mace.cli import (
    ExperimentSpec,
    external_evaluate,
    main,
    parse_config,
    run_campaign,
    run_single,
)
from mace.errors import ConfigError, ProtocolError

# A second argument names a PID log: the child appends its PID on start, and
# the lines already there tell it how many children were started before it.
CHILD_SOURCE = r"""
import json, math, os, sys, time

mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
launch = 0
if len(sys.argv) > 2:
    with open(sys.argv[2], "a+") as fh:
        fh.seek(0)
        launch = len(fh.read().split())
        fh.write(f"{os.getpid()}\n")

if mode == "reversed":
    reqs = [json.loads(l) for l in sys.stdin]
    for req in reversed(reqs):
        print(json.dumps({"id": req["id"], "y": sum(req["x"])}), flush=True)
    sys.exit(0)

answered = 0
for line in sys.stdin:
    req = json.loads(line)
    i, x = req["id"], req["x"]
    if mode == "die" and answered >= 1:
        sys.exit(1)
    if mode == "sleep" and i == 1:
        time.sleep(10)
    if (mode == "malformed" and i == 1) or (mode == "malformed-second" and launch == 1):
        print("{this is not json", flush=True)
        answered += 1
        continue
    y = float("nan") if (mode == "nan0" and i == 0) else sum(x)
    if mode == "branin":
        b, c, s = 5.1 / (4 * math.pi**2), 5 / math.pi, 1 / (8 * math.pi)
        y = (x[1] - b * x[0] ** 2 + c * x[0] - 6) ** 2 + 10 * (1 - s) * math.cos(x[0]) + 10
    bad_id = {"id-text": "1", "id-bool": True, "id-frac": 1.7}  # the id the answer to request 1 carries
    resp = {"id": bad_id[mode] if mode in bad_id and i == 1 else i,
            "y": {"y-bool": True, "y-text": "1.5"}.get(mode, y)}
    if mode == "constrained":
        resp["c"] = [x[0] - 0.5]
    if mode == "infeasible":
        resp["c"] = [1.0]
    bad_c = {"c-text": ["x"], "c-null": [None], "c-bool": [True], "c-numtext": ["-2"], "c-inf": [float("inf")],
             "c-two": [0.0, 0.0], "c-scalar": 1}
    if mode in bad_c:
        resp["c"] = bad_c[mode]
    print(json.dumps(resp), flush=True)
    if mode == "dup" and i == 0:
        print(json.dumps(resp), flush=True)
    if mode == "non-utf8" and i == 0:
        sys.stdout.buffer.write(b"\xff\n")
        sys.stdout.buffer.flush()
    answered += 1
"""


@pytest.fixture
def child(tmp_path):
    script = tmp_path / "evaluator.py"
    script.write_text(CHILD_SOURCE)

    def command(mode="echo", pid_log=None):
        return f"{sys.executable} {script} {mode}" + ("" if pid_log is None else f" {pid_log}")

    return command


def tiny_overrides(**extra):
    base = dict(
        problem="branin",
        budget=14,
        batch=3,
        n_init=8,
        repeats=2,
        seed=0,
        demo_population=20,
        demo_evaluations=60,
        gp_restarts=2,
    )
    base.update(extra)
    return base


class TestParseConfig:
    def test_defaults_from_flags_only(self):
        spec = parse_config(None, {"problem": "branin", "budget": 100, "batch": 5})
        assert spec.rho == 0.05
        assert spec.demo_population == 100 and spec.demo_evaluations == 2000
        assert spec.n_init == 20 and spec.repeats == 20
        assert spec.mode == "unconstrained" and spec.algorithm == "mace"
        assert spec.n_iter == 16

    def test_constrained_defaults(self):
        spec = parse_config(None, {"problem": "ring-constrained-2d", "budget": 120, "batch": 5})
        assert spec.mode == "constrained"
        assert spec.repeats == 12

    def test_negative_rho_names_key(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(None, {"problem": "branin", "budget": 50, "rho": -1})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="batchsize"):
            parse_config(None, {"problem": "branin", "budget": 50, "batchsize": 4})

    def test_round_trip_identical(self, tmp_path):
        spec = parse_config(None, tiny_overrides(algorithm="sequential-ei"))
        path = tmp_path / "resolved.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = parse_config(path, None)
        assert again == spec

    def test_sequential_baselines_rewrite_batch_and_ensemble(self):
        spec = parse_config(None, tiny_overrides(algorithm="sequential-ei", batch=7))
        assert spec.batch == 1 and spec.ensemble == ["ei"]
        spec = parse_config(None, tiny_overrides(algorithm="sequential-lcb", batch=7))
        assert spec.batch == 1 and spec.ensemble == ["lcb"]

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"problem": "branin", "budget": 40, "batch": 2}))
        spec = parse_config(cfg, {"batch": 4})
        assert spec.batch == 4 and spec.budget == 40

    def test_external_needs_dim(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config(None, {"problem": "cmd:echo", "budget": 30})

    def test_omace_requires_constrained(self):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(None, {"problem": "branin", "budget": 50, "algorithm": "omace"})

    def test_budget_must_cover_init(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_config(None, {"problem": "branin", "budget": 10, "n_init": 20})

    @pytest.mark.parametrize("key, value", [
        ("budget", "abc"), ("rho", "x"), ("timeout", "q"), ("ensemble", 5), ("batch", 2.9),
        ("seed", True), ("bounds", [[0.0, "x"], [0.0, 1.0]]), ("bounds", [[1.0, 0.0], [0.0, 1.0]]),
        ("ensemble", ["lcb", "ucb"]), ("ensemble", []),
    ])
    def test_malformed_value_names_key(self, key, value, tmp_path):
        config = {"problem": "cmd:true", "dim": 2, "budget": 30, key: value}
        with pytest.raises(ConfigError, match=key):
            parse_config(config)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path)])
        assert exit_info.value.code == 2

    def test_integral_float_accepted_for_integer_key(self):
        assert parse_config(None, {"problem": "branin", "budget": 30.0, "batch": "3"}).batch == 3

    def test_acquisition_constants_are_unknown_keys(self, tmp_path, capsys):
        # Keys that were removed: xi, nu and delta are mace.acquisition constants, and
        # a child that must cap its concurrent simulations queues them itself.
        path = tmp_path / "c.json"
        for key, text in (("xi", "0.01"), ("nu", "0.5"), ("delta", "0.1"), ("max_parallel", "2")):
            flag = "--" + key.replace("_", "-")
            path.write_text(json.dumps({"problem": "branin", "budget": 30, key: float(text)}))
            for argv, named in ((["run", "--config", str(path)], f"unknown key: {key}"),
                                (["run", "--problem", "branin", "--budget", "30", flag, text],
                                 f"unrecognized arguments: {flag}")):
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                assert exit_info.value.code == 2
                assert named in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "config"), ("{not json", "config"), ("[1, 2]", "JSON object"),
    ], ids=["missing", "invalid-json", "non-object"])
    def test_unusable_config_file(self, content, message, tmp_path):
        path = tmp_path / "c.json"  # missing when content is None
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(path)])
        assert exit_info.value.code == 2


class TestExternalEvaluate:
    def test_echo_sums(self, child):
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.25]])
        y, C = external_evaluate(child("echo"), pts, n_constraints=0, timeout=30)
        np.testing.assert_allclose(y, pts.sum(axis=1))
        assert C.shape == (3, 0)

    def test_missing_c_accepted_when_unconstrained(self, child):
        y, C = external_evaluate(child("echo"), np.array([[0.5, 0.5]]), n_constraints=0, timeout=30)
        assert np.isfinite(y[0]) and C.shape == (1, 0)

    def test_constraints_passed_through(self, child):
        pts = np.array([[0.2, 0.9], [0.8, 0.1]])
        y, C = external_evaluate(child("constrained"), pts, n_constraints=1, timeout=30)
        np.testing.assert_allclose(C[:, 0], pts[:, 0] - 0.5)

    def test_nan_y_faults_single_point(self, child):
        pts = np.array([[0.1, 0.1], [0.2, 0.2]])
        y, _ = external_evaluate(child("nan0"), pts, timeout=30)
        assert np.isnan(y[0]) and y[1] == pytest.approx(0.4)

    def test_out_of_order_ids_matched(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        y, _ = external_evaluate(child("reversed"), pts, timeout=30)
        np.testing.assert_allclose(y, [0.1, 0.2, 0.3])

    def test_child_early_exit_faults_remaining(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        y, _ = external_evaluate(child("die"), pts, timeout=5)
        assert np.isfinite(y[0])
        assert np.isnan(y[1]) and np.isnan(y[2])

    def test_child_that_reads_nothing_faults_the_unsent_points(self):
        # Past the 64 KiB a pipe buffers, writing to the exited child breaks the pipe.
        pts = np.full((4000, 2), 0.123456789)
        assert len(pts) * len(json.dumps({"id": 0, "x": [0.123456789] * 2})) > 65536
        y, C = external_evaluate(f"{sys.executable} -c pass", pts, n_constraints=1, timeout=30)
        assert np.isnan(y).all() and np.isnan(C).all() and C.shape == (4000, 1)

    @pytest.mark.parametrize("mode", ["c-text", "c-null", "c-bool", "c-numtext"])
    def test_non_numeric_constraint_raises_protocol_error(self, child, mode):
        with pytest.raises(ProtocolError, match="id 0"):
            external_evaluate(child(mode), np.array([[0.1, 0.0]]), n_constraints=1, timeout=30)

    @pytest.mark.parametrize("mode", ["y-bool", "y-text"])
    def test_non_numeric_y_raises_protocol_error(self, child, mode):
        with pytest.raises(ProtocolError, match="id 0"):
            external_evaluate(child(mode), np.array([[0.1, 0.0]]), timeout=30)

    @pytest.mark.parametrize("mode", ["c-two", "c-scalar"])
    def test_wrong_constraint_count_raises_protocol_error(self, child, mode):
        with pytest.raises(ProtocolError, match="id 0"):
            external_evaluate(child(mode), np.array([[0.1, 0.0]]), n_constraints=1, timeout=30)

    def test_infinity_token_is_a_number(self, child):
        # It reaches the record, which faults the point.
        _, C = external_evaluate(child("c-inf"), np.array([[0.1, 0.0]]), n_constraints=1, timeout=30)
        assert C[0, 0] == np.inf

    def test_infinite_timeout_waits_without_limit(self, child):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        for timeout in (float("inf"), 1e300):
            y, _ = external_evaluate(child("echo"), pts, timeout=timeout)
            np.testing.assert_allclose(y, pts.sum(axis=1))

    def test_malformed_line_raises_protocol_error(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ProtocolError):
            external_evaluate(child("malformed"), pts, timeout=5)

    def test_timeout_faults_unanswered_points(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        y, _ = external_evaluate(child("sleep"), pts, timeout=1.0)
        assert np.isfinite(y[0])
        assert np.isnan(y[1]) and np.isnan(y[2])

    def test_writes_count_against_the_timeout(self):
        # About 168 KB of requests, more than a pipe holds, to a child that reads none.
        started = time.monotonic()
        y, _ = external_evaluate("sleep 6", np.full((3000, 2), 0.5), timeout=1)
        assert time.monotonic() - started < 4
        assert np.isnan(y).all()

    def test_duplicate_id_raises_protocol_error(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ProtocolError):
            external_evaluate(child("dup"), pts, timeout=5)

    @pytest.mark.parametrize("mode", ["id-text", "id-bool", "id-frac"])
    def test_non_integer_id_raises_protocol_error(self, child, mode):
        pts = np.array([[0.5, 0.0], [1.5, 0.0], [2.5, 0.0]])
        with pytest.raises(ProtocolError, match="unexpected response id"):
            external_evaluate(child(mode), pts, timeout=30)

    def test_non_utf8_output_raises_protocol_error(self, child):
        # The child answers id 0, then writes the byte 0xff.
        with pytest.raises(ProtocolError, match="malformed"):
            external_evaluate(child("non-utf8"), np.array([[0.1, 0.0], [0.2, 0.0]]), timeout=4)

    def test_process_left_holding_stdout_does_not_stall(self, child):
        # The shell's background sleep keeps the child's stdout open for 3 s after it exits.
        proc = cli._start_child(["sh", "-c", f"sleep 3 & exec {child('echo')}"])
        threads, started = threading.active_count(), time.monotonic()
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        y, _ = external_evaluate(proc, pts, timeout=30)
        assert time.monotonic() - started < 2.5
        assert threading.active_count() == threads
        assert proc.stdout.closed
        np.testing.assert_allclose(y, pts.sum(axis=1))

    def test_child_exit_ends_batch_while_stdout_is_held(self, child):
        # The child answers one point and exits; the background sleep keeps its stdout open.
        proc = cli._start_child(["sh", "-c", f"sleep 4 & exec {child('die')}"])
        started = time.monotonic()
        y, _ = external_evaluate(proc, np.array([[0.5, 0.5], [0.2, 0.2], [0.3, 0.3]]), timeout=3)
        assert time.monotonic() - started < 1
        np.testing.assert_array_equal(y, [1.0, np.nan, np.nan])


def external_spec(command, **extra):
    """A small cmd: campaign: 8 initial points, then 3 batches of 2."""
    base = dict(problem=f"cmd:{command}", dim=2, budget=14, batch=2, n_init=8, repeats=1, seed=1,
                demo_population=20, demo_evaluations=40, gp_restarts=2, timeout=30)
    base.update(extra)
    return parse_config(None, base)


def is_running(pid):
    """True while ``pid`` exists, also as a zombie nobody reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def started(monkeypatch):
    """Every child the evaluator starts, in order."""
    procs, start = [], cli._start_child

    def start_and_record(command):
        procs.append(start(command))
        return procs[-1]

    monkeypatch.setattr(cli, "_start_child", start_and_record)
    return procs


class TestPreStartedChild:
    def test_one_child_per_batch_and_none_left(self, child, started, tmp_path):
        pid_log = tmp_path / "pids"
        spec = external_spec(child("echo", pid_log))
        run_single(spec, seed=1)
        pids = [int(p) for p in pid_log.read_text().split()]
        assert len(pids) == 1 + spec.n_iter == len(started)
        assert pids == [p.pid for p in started]
        assert not any(is_running(pid) for pid in pids)

    def test_run_that_raises_leaves_no_child(self, child, started, tmp_path):
        pid_log = tmp_path / "pids"
        spec = external_spec(child("malformed-second", pid_log))
        with pytest.raises(ProtocolError):
            run_single(spec, seed=1)
        pids = [int(p) for p in pid_log.read_text().split()]
        assert len(pids) == 2 == len(started)  # no spare after the batch that raised
        assert not any(is_running(pid) for pid in pids)

    def test_proposal_that_raises_leaves_no_child(self, child, started, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("proposal failed")

        monkeypatch.setattr(engine, "demo_optimize", fail)
        # Holding the traceback keeps the evaluator alive, so only close() can stop the spare.
        with pytest.raises(RuntimeError, match="proposal failed") as raised:
            run_single(external_spec(child("echo")), seed=1)
        assert len(started) == 2  # the initial design's child and the spare
        assert all(p.returncode is not None for p in started)
        assert raised.traceback

    def test_close_and_collection_stop_the_spare(self, child, started):
        spec = external_spec(child("echo"))
        points = np.full((2, 2), 0.5)
        evaluator = cli.ExternalEvaluator(spec, cli.resolve_problem(spec))
        evaluator(points)
        spare = started[-1]
        assert len(started) == 2 and spare.returncode is None
        evaluator.close()
        assert spare.returncode is not None and spare.stdin.closed and spare.stdout.closed

        evaluator(points)
        spare = started[-1]
        assert len(started) == 4 and spare.returncode is None
        del evaluator
        gc.collect()
        assert spare.returncode is not None and spare.stdin.closed and spare.stdout.closed

    def test_spare_that_fails_to_start_keeps_the_batch(self, child, monkeypatch):
        start, calls = cli._start_child, []

        def fail_second(command):
            calls.append(command)
            if len(calls) == 2:
                raise OSError("no process slots")
            return start(command)

        monkeypatch.setattr(cli, "_start_child", fail_second)
        spec = external_spec(child("echo"))
        points = np.array([[0.1, 0.2], [0.3, 0.4]])
        evaluator = cli.ExternalEvaluator(spec, cli.resolve_problem(spec))
        try:
            first, _ = evaluator(points)
            second, _ = evaluator(points)  # no spare, so this call starts its own child
        finally:
            evaluator.close()
        assert len(calls) == 4
        np.testing.assert_allclose(first, points.sum(axis=1))
        np.testing.assert_allclose(second, points.sum(axis=1))

    def test_timeout_counts_from_send_not_child_start(self, child, started):
        spec = external_spec(child("echo"), timeout=0.5)
        points = np.array([[0.1, 0.2], [0.3, 0.4]])
        evaluator = cli.ExternalEvaluator(spec, cli.resolve_problem(spec))
        try:
            evaluator(points)
            time.sleep(1.0)  # the spare child has been up for longer than the timeout
            y, _ = evaluator(points)
        finally:
            evaluator.close()
        assert len(started) == 3  # the second batch ran on the spare
        np.testing.assert_allclose(y, points.sum(axis=1))

    def test_signature_same_with_early_or_cold_child(self, child):
        spec = external_spec(child("branin"), budget=35, batch=5, n_init=20, bounds=[[-5, 10], [0, 15]])
        problem = cli.resolve_problem(spec)
        early = run_single(spec, seed=0, problem=problem)

        evaluator = cli.ExternalEvaluator(spec, problem)

        def cold(X):
            evaluator.close()  # stop the spare, so every batch starts its own child
            return evaluator(X)

        try:
            cold_rec = engine.run_unconstrained(problem, cli.spec_to_runconfig(spec, 0), cold)
        finally:
            evaluator.close()
        assert early.signature() == cold_rec.signature()


class TestCampaign:
    def test_summary_and_csvs(self, tmp_path):
        spec = parse_config(None, tiny_overrides(out_dir=str(tmp_path / "camp")))
        summary = run_campaign(spec)
        assert (tmp_path / "camp" / "summary.json").exists()
        assert (tmp_path / "camp" / "summary.csv").exists()
        for i in range(spec.repeats):
            with open(tmp_path / "camp" / f"run_{i}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == spec.n_init + spec.n_iter * spec.batch
        assert summary["final_best"]["std"] >= 0
        assert summary["success_count"] == spec.repeats

    def test_single_repeat_zero_std(self, tmp_path):
        spec = parse_config(None, tiny_overrides(repeats=1, out_dir=str(tmp_path / "one")))
        summary = run_campaign(spec)
        assert summary["final_best"]["std"] == 0.0

    def test_rerun_byte_identical_summary(self, tmp_path):
        spec_a = parse_config(None, tiny_overrides(out_dir=str(tmp_path / "a")))
        spec_b = parse_config(None, tiny_overrides(out_dir=str(tmp_path / "b")))
        run_campaign(spec_a)
        run_campaign(spec_b)
        a = (tmp_path / "a" / "summary.json").read_text()
        b = (tmp_path / "b" / "summary.json").read_text()
        assert a.replace(str(tmp_path / "a"), "X") == b.replace(str(tmp_path / "b"), "X")

    def test_summary_recomputable_from_csvs(self, tmp_path):
        spec = parse_config(None, tiny_overrides(out_dir=str(tmp_path / "rc")))
        summary = run_campaign(spec)
        finals = []
        for i in range(spec.repeats):
            with open(tmp_path / "rc" / f"run_{i}.csv") as fh:
                rows = list(csv.DictReader(fh))
            ys = [float(r["y"]) for r in rows if r["feasible"] == "1"]
            finals.append(min(ys))
        assert summary["final_best"]["mean"] == pytest.approx(float(np.mean(finals)), abs=1e-9)
        assert summary["final_best"]["best"] == pytest.approx(min(finals), abs=1e-9)

    def test_summary_csv_holds_summary_json_runs(self, tmp_path):
        # At seed 1 the first ring run ends infeasible, so its row has empty cells.
        spec = parse_config(None, dict(problem="ring-constrained-2d", budget=40, batch=5, n_init=20,
                                       repeats=2, seed=1, out_dir=str(tmp_path / "ring")))
        summary = run_campaign(spec)
        with open(tmp_path / "ring" / "summary.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == list(summary["runs"][0])
        assert len(rows) == len(summary["runs"])
        assert any(run["final_best"] is None for run in summary["runs"])
        for cells, run in zip(rows, summary["runs"]):
            assert len(cells) == len(run)
            for cell, value in zip(cells, run.values()):
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == str(int(value))
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

    def test_external_problem_end_to_end(self, child, tmp_path):
        spec = parse_config(
            None,
            dict(
                problem=f"cmd:{child('echo')}",
                dim=2,
                budget=10,
                batch=2,
                n_init=6,
                repeats=1,
                seed=1,
                demo_population=20,
                demo_evaluations=40,
                gp_restarts=2,
                out_dir=str(tmp_path / "ext"),
                timeout=30,
            ),
        )
        summary = run_campaign(spec)
        assert summary["final_best"]["best"] >= 0.0  # sums of unit-cube coords
        with open(tmp_path / "ext" / "run_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10

    def test_random_and_sequential_algorithms_run(self, tmp_path):
        for algo in ("random", "sequential-ei"):
            spec = parse_config(
                None,
                tiny_overrides(
                    algorithm=algo, repeats=1, budget=10, n_init=8,
                    out_dir=str(tmp_path / algo),
                ),
            )
            rec = run_single(spec, seed=0)
            assert rec.algorithm == algo
            assert len(rec.evaluations) == spec.n_init + spec.n_iter * spec.batch
            if algo == "sequential-ei":
                assert rec.config.batch_size == 1
                assert rec.config.ensemble == ("ei",)


BASE = {"problem": "ring-constrained-2d", "budget": 30}
EXTERNAL = {"problem": "cmd:true", "dim": 2, "budget": 30}

# One case per spec key but bounds: (key, flag as the README spells it, flag text, JSON value, base).
SURFACE = [
    ("problem", "--problem", "constrained-branin", "constrained-branin", BASE),
    ("algorithm", "--algo", "omace", "omace", BASE),
    ("mode", "--mode", "unconstrained", "unconstrained", BASE),
    ("batch", "--batch", "3", 3, BASE),
    ("budget", "--budget", "40", 40, BASE),
    ("n_init", "--n-init", "10", 10, BASE),
    ("repeats", "--repeats", "2", 2, BASE),
    ("seed", "--seed", "7", 7, BASE),
    ("ensemble", "--ensemble", "ei,lcb", ["ei", "lcb"], BASE),
    ("out_dir", "--out", "elsewhere", "elsewhere", BASE),
    ("rho", "--rho", "0.1", 0.1, BASE),
    ("demo_population", "--demo-population", "20", 20, BASE),
    ("demo_evaluations", "--demo-evaluations", "4000", 4000, BASE),
    ("gp_restarts", "--gp-restarts", "3", 3, BASE),
    ("init_design", "--init-design", "uniform", "uniform", BASE),
    ("dim", "--dim", "3", 3, EXTERNAL),
    ("n_constraints", "--nc", "1", 1, EXTERNAL),
    ("timeout", "--timeout", "12.5", 12.5, EXTERNAL),
]


def test_surface_covers_every_key_but_bounds():
    assert [case[0] for case in SURFACE] == [f.name for f in fields(ExperimentSpec) if f.name != "bounds"]


@pytest.mark.parametrize("key, flag, text, value, base", SURFACE, ids=[case[0] for case in SURFACE])
def test_flag_resolves_like_config_key(key, flag, text, value, base, tmp_path, monkeypatch):
    specs = []
    monkeypatch.setattr(cli, "run_campaign",
                        lambda spec: specs.append(spec) or {"final_best": None, "success_count": 0})
    base_path, key_path = tmp_path / "base.json", tmp_path / "key.json"
    base_path.write_text(json.dumps(base))
    key_path.write_text(json.dumps(dict(base, **{key: value})))
    assert main(["run", "--config", str(base_path), flag, text]) == 0
    from_file = parse_config(key_path)
    assert specs == [from_file]
    assert getattr(from_file, key) != getattr(parse_config(base), key)


def test_bounds_has_no_flag():
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--problem", "cmd:true", "--dim", "1", "--budget", "30", "--bounds", "[[0, 1]]"])
    assert exit_info.value.code == 2


class TestMain:
    def test_campaign_with_no_feasible_run_prints_no_best(self, child, tmp_path, capsys):
        rc = main([
            "run", "--problem", f"cmd:{child('infeasible')}", "--dim", "2", "--nc", "1",
            "--budget", "12", "--batch", "2", "--n-init", "8", "--repeats", "1",
            "--demo-population", "20", "--demo-evaluations", "40", "--gp-restarts", "2",
            "--timeout", "30", "--out", str(tmp_path / "cli"),
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
        assert summary["final_best"] is None and summary["success_count"] == 0
        assert summary["runs"][0]["final_best"] is None
        out = capsys.readouterr().out
        assert "best=" not in out
        assert "success 0/1" in out

    def test_cli_run_smoke(self, tmp_path, capsys):
        rc = main([
            "run", "--problem", "branin", "--budget", "12", "--batch", "2",
            "--n-init", "8", "--repeats", "1", "--seed", "0",
            "--out", str(tmp_path / "cli"),
        ] + ["--gp-restarts", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary.json" in out
        assert (tmp_path / "cli" / "summary.json").exists()
