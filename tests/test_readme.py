"""README examples run against the current API."""

import contextlib
import io
import re
from pathlib import Path

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
