"""Config parsing, the external-evaluator wire protocol and campaign output."""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mace.cli import (
    ExperimentSpec,
    external_evaluate,
    main,
    parse_config,
    run_campaign,
    run_single,
)
from mace.errors import ConfigError, ProtocolError

CHILD_SOURCE = r"""
import json, sys, time

mode = sys.argv[1] if len(sys.argv) > 1 else "echo"

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
    if mode == "slow":
        time.sleep(0.4)
    if mode == "malformed" and i == 1:
        print("{this is not json", flush=True)
        answered += 1
        continue
    y = float("nan") if (mode == "nan0" and i == 0) else sum(x)
    resp = {"id": i, "y": y}
    if mode == "constrained":
        resp["c"] = [x[0] - 0.5]
    print(json.dumps(resp), flush=True)
    if mode == "dup" and i == 0:
        print(json.dumps(resp), flush=True)
    answered += 1
"""


@pytest.fixture
def child(tmp_path):
    script = tmp_path / "evaluator.py"
    script.write_text(CHILD_SOURCE)

    def command(mode="echo"):
        return f"{sys.executable} {script} {mode}"

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
        assert spec.xi == 0.001 and spec.nu == 0.5 and spec.delta == 0.05 and spec.rho == 0.05
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
        path.write_text(spec.to_json())
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

    def test_malformed_line_raises_protocol_error(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ProtocolError):
            external_evaluate(child("malformed"), pts, timeout=5)

    def test_timeout_faults_unanswered_points(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
        y, _ = external_evaluate(child("sleep"), pts, timeout=1.0)
        assert np.isfinite(y[0])
        assert np.isnan(y[1]) and np.isnan(y[2])

    def test_timeout_counts_per_point_under_max_parallel(self, child):
        # Each answer takes 0.4 s; the batch takes 1.6 s, each point 0.4 s.
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]])
        y, _ = external_evaluate(child("slow"), pts, timeout=1.0, max_parallel=1)
        np.testing.assert_allclose(y, pts.sum(axis=1))

    def test_duplicate_id_raises_protocol_error(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ProtocolError):
            external_evaluate(child("dup"), pts, timeout=5)

    def test_windowed_dispatch_with_max_parallel(self, child):
        pts = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]])
        y, _ = external_evaluate(child("echo"), pts, timeout=30, max_parallel=1)
        np.testing.assert_allclose(y, pts.sum(axis=1))


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


class TestMain:
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
