"""README examples run against the current API."""

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np

from mace.cli import external_evaluate

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the README heading ``## <section>``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("Library use"), f"{README}:Library use", "exec"), {})
    value, point = out.getvalue().split(" ", 1)
    # Branin's global minimum is 0.397887; 16 batches of 5 get close to it.
    assert 0.397887 <= float(value) < 0.41
    assert point.startswith("[")


def test_minimal_evaluator_block_answers(tmp_path):
    script = tmp_path / "evaluator.py"
    script.write_text(python_block("External evaluator protocol"), encoding="utf-8")
    points = np.array([[0.25, 3.1], [0.0, -1.5], [2.0, 0.5]])
    y, C = external_evaluate([sys.executable, str(script)], points, timeout=30)
    np.testing.assert_allclose(y, np.sum(points**2, axis=1), rtol=1e-15)
    assert C.shape == (3, 0)
