"""The comparison mode of ``tools/quality_panel.py``, which judges changes that move trajectories."""

import json
import subprocess
import sys
from pathlib import Path

PANEL = Path(__file__).resolve().parents[1] / "tools" / "quality_panel.py"


def write_panel(path, regrets, evals, shares):
    runs = [{"seed": s, "regret": r, "evals_to_first_feasible": e, "fallback_share": f}
            for s, (r, e, f) in enumerate(zip(regrets, evals, shares))]
    path.write_text(json.dumps({"group": "ring-mace", "runs": runs}) + "\n", encoding="utf-8")


def test_compare_counts_a_missing_regret_as_a_loss(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    write_panel(parent, [None, 0.5, 0.2], [30, 40, None], [0.0, 0.2, 0.4])
    write_panel(change, [0.3, None, 0.1], [30, 35, 50], [0.0, 0.2, 0.4])
    out = subprocess.run([sys.executable, str(PANEL), "--compare", str(parent), str(change)],
                         capture_output=True, text=True, timeout=60, check=True).stdout
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
