"""README.md's Python examples run as written, and its stop table is the code's."""

import ast
import re
from pathlib import Path

from glassotune.bilevel import CONVERGED_STOPS

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
    # the sweep stops past its best level: the curve holds the evaluated ones
    curve = namespace["curve"]
    assert 0 < len(curve) < 100
    assert [g.lam for g in curve] == list(namespace["grid"][-len(curve):])
    assert namespace["est"].tol == 1e-8


def stop_table(text: str) -> dict:
    """README's ``stop_reason`` table: each stop's name and its ``converged`` cell."""
    start = text.index("| `stop_reason` |")
    rows = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[-1] == "true"
    return rows


def descend_stops() -> set:
    """The stop names ``_descend`` passes to ``_stop`` as plain literals."""
    source = README.parent / "src" / "glassotune" / "bilevel.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    descend = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_descend")
    # an abort's reason is an f-string, so only the named stops are constants
    return {node.args[1].value for node in ast.walk(descend)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_stop"
            and isinstance(node.args[1], ast.Constant)}


def test_stop_table_lists_the_stops_of_the_code():
    rows = stop_table(README.read_text(encoding="utf-8"))
    assert set(rows) == descend_stops()
    assert {name for name, converged in rows.items() if converged} == set(CONVERGED_STOPS)
