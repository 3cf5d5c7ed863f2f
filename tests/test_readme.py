"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(text: str, after: str) -> str:
    """The first ```python block that follows the line ``after``."""
    match = re.compile(r"^```python\n(.*?)^```$", re.S | re.M).search(text, text.index(after))
    return match.group(1)


def test_quick_start_and_direct_solve_run_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    namespace: dict = {}
    # the second block reads the first one's data
    for after in ("## Quick start", "Solving one instance directly:"):
        exec(compile(python_block(text, after), f"README.md, after {after!r}", "exec"),
             namespace)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("lambda = ") and "converged = True" in out[0]
    assert out[1].startswith("matrix criterion = ")
    assert namespace["mtraj"].final.criterion <= namespace["traj"].final.criterion
    assert len(namespace["curve"]) == 100
    assert namespace["est"].tol == 1e-8
