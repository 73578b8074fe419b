"""``tools/quality_panel.py``: its measures and the comparison mode, which judges changes that move trajectories."""

import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PANEL = Path(__file__).resolve().parents[1] / "tools" / "quality_panel.py"


def write_panel(path, regrets, evals, shares, groups=("ring-mace",), repeats=None):
    runs = [{"seed": s, "regret": r, "evals_to_first_feasible": e, "fallback_share": f}
            for s, (r, e, f) in enumerate(zip(regrets, evals, shares))]
    for run, share in zip(runs, repeats or ()):
        run["repeat_share"] = share
    path.write_text("".join(json.dumps({"group": g, "runs": runs}) + "\n" for g in groups), encoding="utf-8")


def run_compare(parent, change):
    return subprocess.run([sys.executable, str(PANEL), "--compare", str(parent), str(change)],
                          capture_output=True, text=True, timeout=60)


def test_compare_counts_a_missing_regret_as_a_loss(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_panel(parent, [None, 0.5, 0.2], [30, 40, None], [0.0, 0.2, 0.4])
    write_panel(change, [0.3, None, 0.1], [30, 35, 50], [0.0, 0.2, 0.4])
    result = run_compare(parent, change)
    assert result.returncode == 0, result.stderr
    out = result.stdout
    lines = {line.split()[1]: line for line in out.splitlines()}
    assert sorted(lines) == ["evals_to_first_feasible", "fallback_share", "regret"]
    # Seed 0: a value beats the parent's null; seed 1: the change's null loses.
    regret = lines["regret"]
    assert "n=3" in regret
    assert "parent 0.35 [0.275, 0.425]" in regret
    assert "change 0.2 [0.15, 0.25]" in regret
    assert regret.endswith("change better/worse/tied 2/1/0")
    assert lines["evals_to_first_feasible"].endswith("change better/worse/tied 2/0/1")
    assert "parent 35 [32.5, 37.5]" in lines["evals_to_first_feasible"]
    assert lines["fallback_share"].endswith("change better/worse/tied 0/0/3")


def test_compare_names_what_only_one_file_has_and_fails(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_panel(parent, [0.5, 0.2, 0.1], [30, 40, 50], [0.0, 0.2, 0.4], groups=("ring-mace", "branin-b5"))
    write_panel(change, [0.3, 0.1], [30, 35], [0.0, 0.2], groups=("ring-mace",))
    result = run_compare(parent, change)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert f"branin-b5 only in {parent}" in lines
    assert f"ring-mace seeds only in {parent}: 2" in lines
    # The shared group is still compared, on its shared seeds.
    assert sum("ring-mace" in line and "n=2" in line for line in lines) == 3


def test_compare_with_no_shared_group_fails(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    result = run_compare(empty, empty)
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["no group in both files"]


def test_compare_names_a_measure_only_one_file_holds(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_panel(parent, [0.5, 0.2], [30, 40], [0.0, 0.2])
    write_panel(change, [0.3, 0.1], [30, 35], [0.0, 0.2], repeats=[0.0, 0.1])
    result = run_compare(parent, change)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == f"measure repeat_share only in {change}"
    assert sorted(line.split()[1] for line in lines[:-1]) == [
        "evals_to_first_feasible", "fallback_share", "regret"]


def test_compare_counts_repeat_share_wins(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_panel(parent, [0.5, 0.2], [30, 40], [0.0, 0.2], repeats=[0.25, 0.0])
    write_panel(change, [0.5, 0.2], [30, 40], [0.0, 0.2], repeats=[0.0, 0.0])
    result = run_compare(parent, change)
    assert result.returncode == 0, result.stderr
    line = next(line for line in result.stdout.splitlines() if line.split()[1] == "repeat_share")
    assert line.endswith("change better/worse/tied 1/0/1")


def test_repeat_share_counts_proposals_equal_to_an_earlier_evaluation(monkeypatch):
    monkeypatch.syspath_prepend(str(PANEL.parent))
    panel = importlib.import_module("quality_panel")
    a, b, c = np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])
    # The initial design (iteration 0) holds a and b; the batch repeats a, then c within itself.
    steps = [(0, a), (0, b), (1, a.copy()), (1, c), (1, c.copy()), (2, np.array([0.1, 0.2000001]))]
    rec = SimpleNamespace(problem_name="branin", final_incumbent=None, evals_to_first_feasible=None,
                          evaluations=[SimpleNamespace(iteration=i, x=x, provenance="pareto-sample")
                                       for i, x in steps])
    out = panel.measure(lambda seed: rec, 3)
    assert out["seed"] == 3 and out["regret"] is None
    assert out["repeat_share"] == 2 / 4
    assert out["fallback_share"] == 0.0


def test_regret_is_the_final_value_without_a_known_optimum(monkeypatch):
    monkeypatch.syspath_prepend(str(PANEL.parent))
    panel = importlib.import_module("quality_panel")
    best = SimpleNamespace(y=0.2133, feasible=True)
    rec = SimpleNamespace(problem_name="amp-mimic-10d", final_incumbent=best, evals_to_first_feasible=4,
                          evaluations=[])
    assert panel.measure(lambda seed: rec, 0)["regret"] == 0.2133
    # With a known optimum the regret subtracts it; an infeasible incumbent has none.
    rec.problem_name = "hartmann6"
    assert panel.measure(lambda seed: rec, 0)["regret"] == 0.2133 - (-3.322368011391339)
    best.feasible = False
    assert panel.measure(lambda seed: rec, 0)["regret"] is None


PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(PAIRS.parent))
    return importlib.import_module("bench_pairs")


def test_pairs_count_wins_and_leave_ties_to_neither_side(monkeypatch):
    tool = bench_pairs(monkeypatch)
    row = tool.compare([3.0, 2.0, 1.0, 5.0], [2.0, 2.0, 4.0, 1.0], "lower", 10.0)
    assert (row["wins"], row["pairs"]) == (2, 4)
    # For a higher-is-better metric the same values win the other pairs.
    assert tool.compare([3.0, 2.0, 1.0, 5.0], [2.0, 2.0, 4.0, 1.0], "higher", 10.0)["wins"] == 1


def test_pairs_flag_a_parent_spread_wider_than_the_bound_unresolved(monkeypatch):
    tool = bench_pairs(monkeypatch)
    parent = [40.0, 50.0, 60.0, 70.0, 80.0]  # median 60, IQR 20: a third of the median
    row = tool.compare(parent, [45.0, 55.0, 58.0, 75.0, 79.0], "lower", 0.25)
    assert row["parent_median"] == 60.0 and row["parent_quartiles"] == [50.0, 70.0]
    assert row["change_median"] == 58.0
    assert row["unresolved"] and not row["gain"]
    assert not tool.compare(parent, [45.0, 55.0, 58.0, 75.0, 79.0], "lower", 0.5)["unresolved"]
    # Every change run better than every parent run resolves it, in either direction.
    assert not tool.compare(parent, [30.0, 31.0, 32.0, 33.0, 39.0], "lower", 0.25)["unresolved"]
    assert not tool.compare(parent, [81.0, 90.0, 85.0, 82.0, 99.0], "higher", 0.25)["unresolved"]
    assert tool.compare(parent, [30.0, 31.0, 32.0, 33.0, 40.0], "lower", 0.25)["unresolved"]


def test_pairs_claim_a_gain_on_nine_tenths_of_wins_beyond_the_parent_iqr(monkeypatch):
    tool = bench_pairs(monkeypatch)
    parent = [50.0, 51.0, 52.0, 53.0, 54.0, 55.0, 56.0, 57.0, 58.0, 59.0]  # median 54.5, IQR 4.5
    nine = [40.0] * 9 + [60.0]
    assert tool.compare(parent, nine, "lower", 0.25)["gain"]
    # Eight wins of ten are too few, however large the gap.
    assert not tool.compare(parent, [40.0] * 8 + [60.0, 60.0], "lower", 0.25)["gain"]
    # Ten wins whose median gap (4.0) is inside the parent's IQR are no gain either.
    assert not tool.compare(parent, [v - 4.0 for v in parent], "lower", 0.25)["gain"]
    assert tool.compare(parent, [v - 5.0 for v in parent], "lower", 0.25)["gain"]
    # Higher is better: the same gap counts only upward.
    assert tool.compare(parent, [v + 5.0 for v in parent], "higher", 0.25)["gain"]
    assert not tool.compare(parent, nine, "higher", 0.25)["gain"]


def test_pairs_run_the_parent_first_on_odd_pairs(monkeypatch, tmp_path, capsys):
    tool = bench_pairs(monkeypatch)
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def run(checkout, seed):
        calls.append((checkout.name, seed))
        value = 50.0 if checkout.name == "parent" else 40.0
        return {"correct": seed != 932 or checkout.name == "parent",
                "metrics": {"propose_ms.p50": {"value": value + seed - 930, "unit": "ms"}}}

    status = tool.main([str(parent), str(change), "--pairs", "4", "--seed-base", "930",
                        "--workload", "amp10-mace"], run=run)
    assert calls == [("change", 930), ("parent", 930), ("parent", 931), ("change", 931),
                     ("change", 932), ("parent", 932), ("parent", 933), ("change", 933)]
    # One change run was not correct, so the tool fails, and still reports.
    assert status == 1
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert record["correct"] is False
    assert [(r["seed"], r["side"], r["correct"]) for r in record["runs"]][4:6] == [
        (932, "parent", True), (932, "change", False)]
    row = record["metrics"]["amp10-mace"]["propose_ms.p50"]
    assert row["parent"] == [50.0, 51.0, 52.0, 53.0] and row["wins"] == 4
    assert "amp10-mace   propose_ms.p50       parent 51.5 [50.75, 52.25]  change 41.5  wins 4/4  gain" in lines


def test_pairs_record_and_print_the_load_at_each_run_start(monkeypatch, tmp_path, capsys):
    tool = bench_pairs(monkeypatch)
    loads = {("parent", 40): 0.5, ("change", 40): 1.5, ("parent", 41): 2.5, ("change", 41): 1.0,
             ("parent", 42): 1.0}

    def run(checkout, seed):
        value = 50.0 if checkout.name == "parent" else 40.0
        load = loads.get((checkout.name, seed))
        return {"correct": True, "loadavg_start": None if load is None else [load, 0.9, 0.8],
                "metrics": {"propose_ms.p50": {"value": value, "unit": "ms"}}}

    status = tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "3",
                        "--seed-base", "40", "--workload", "ring-mace"], run=run)
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert [(r["seed"], r["side"], r["loadavg_start"]) for r in record["runs"]] == [
        (40, "parent", [0.5, 0.9, 0.8]), (40, "change", [1.5, 0.9, 0.8]),
        (41, "parent", [2.5, 0.9, 0.8]), (41, "change", [1.0, 0.9, 0.8]),
        (42, "parent", [1.0, 0.9, 0.8]), (42, "change", None)]
    # The medians of the one-minute loads; a run without an env line is left out.
    assert "ring-mace    loadavg_start        parent 1  change 1.25" in lines


def test_pairs_read_the_load_from_the_env_line(monkeypatch, tmp_path):
    tool = bench_pairs(monkeypatch)
    summary = {"correct": True, "metrics": {}}
    script = tmp_path / "fake_run.py"
    script.write_text(
        "import json\n"
        "print('env', json.dumps({'nproc': 2, 'loadavg_start': [0.25, 0.5, 0.75]}))\n"
        "print('ring-mace  propose_ms.p50 = 40 ms')\n"
        f"print(json.dumps({summary!r}))\n")
    out = tool.run_once(tmp_path, 7, [sys.executable, str(script)], "ring-mace")
    assert out["correct"] and out["loadavg_start"] == [0.25, 0.5, 0.75]
