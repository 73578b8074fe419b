"""Tests of the benchmark's own parts: the branin child, tracing and the output checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from mace import cli, demo, engine, gp  # noqa: E402
from mace.engine import RunConfig, run_constrained, run_unconstrained  # noqa: E402
from mace.problems import builtin  # noqa: E402


def test_branin_child_trajectory_matches_builtin():
    setup = run.prepare(run.WORKLOADS["branin-cmd"], seed=0)
    config = cli.spec_to_runconfig(setup.spec, setup.spec.seed)
    through_child = run_unconstrained(setup.problem, config, setup.evaluator())
    direct = run_unconstrained(builtin("branin"), config)
    assert len(through_child.evaluations) == config.total_evaluations
    for a, b in zip(through_child.evaluations, direct.evaluations):
        assert np.array_equal(a.x, b.x)
        assert a.y == b.y
        assert a.provenance == b.provenance


def test_tracing_keeps_the_signature_and_restores_the_modules():
    problem = builtin("ring-constrained-2d")
    config = RunConfig(n_iter=3, batch_size=5, seed=4, mode="constrained")
    originals = (engine.fit_gp, engine.predict, gp.minimize, demo.crowding_distance, cli.external_evaluate)
    plain = run_constrained(problem, config)
    tracer = run.Tracer()
    with run.traced(tracer):
        traced = run_constrained(problem, config)
    assert traced.signature() == plain.signature()
    assert (engine.fit_gp, engine.predict, gp.minimize, demo.crowding_distance, cli.external_evaluate) == originals
    names = {s.name for s in tracer.spans}
    assert {"engine.fit_gp", "gp.minimize", "engine.demo_optimize", "acq.score",
            "demo.fast_non_dominated_fronts", "engine.sample_batch"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_checks_flag_a_short_run_and_a_non_monotone_incumbent():
    setup = run.prepare(run.WORKLOADS["ring-mace"], seed=0)
    config = dataclasses.replace(cli.spec_to_runconfig(setup.spec, 3), n_iter=2)
    record = run_constrained(setup.problem, config)
    campaign = run.Campaign(3, config.total_evaluations, record, [], 1.0, 1.0)
    assert run.check(setup, campaign) == []

    record.evaluations.pop()
    record.incumbent_trace.reverse()
    found = run.check(setup, campaign)
    assert any("evaluations" in p for p in found)
    assert any("monotone" in p for p in found)
    assert run.failed_evaluations(campaign, found) == config.total_evaluations


def test_benchmark_json_is_the_manifest():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.manifest()
