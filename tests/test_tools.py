"""The comparison mode of ``tools/quality_panel.py``, which judges changes that move trajectories."""

import json
import subprocess
import sys
from pathlib import Path

PANEL = Path(__file__).resolve().parents[1] / "tools" / "quality_panel.py"


def write_panel(path, regrets, evals, shares, groups=("ring-mace",)):
    runs = [{"seed": s, "regret": r, "evals_to_first_feasible": e, "fallback_share": f}
            for s, (r, e, f) in enumerate(zip(regrets, evals, shares))]
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
