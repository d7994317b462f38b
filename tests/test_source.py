"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geomatch"


def test_library_has_no_assert_statements():
    # python -O drops assert statements, so every invariant check in the
    # library raises InvariantViolation instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# imported but unused on purpose: bench/test_bench.py requires the tracer to
# wrap a ``geomatch.subdivision.components`` binding
HELD_IMPORTS = {"subdivision.py:components"}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in a module-level __all__ are its re-exports
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{name}" for name in imported if name not in used]


def test_library_imports_no_name_it_never_uses():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f for path in files for f in unused_imports(path)]
    assert [f for f in found if f not in HELD_IMPORTS] == []


def test_unused_import_check_sees_a_stale_name(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom fractions import Fraction as F, Decimal\n"
        "__all__ = ['Decimal']\n\ndef f(x: F):\n    return os.path.join(x)\n"
    )
    assert unused_imports(stale) == ["stale.py:math"]
