"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ddmsim"

# Imported but never read in its module: bench/spans.py traces
# `ddmsim.sweep.liouvillian_rhs`, `.steady_state` and `.g2_zero` under
# these names, and bench/gate.py wraps `.steady_state`.
HELD_IMPORTS = {"ddmsim.sweep.liouvillian_rhs", "ddmsim.sweep.steady_state",
                "ddmsim.sweep.g2_zero"}


def unread_imports(path):
    """The names a module imports but never reads, as module.name."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:  # names listed in __all__ are exported, so read
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    module = "ddmsim" if path.stem == "__init__" else f"ddmsim.{path.stem}"
    return {f"{module}.{name}" for name in imported - read}


def test_every_import_is_read():
    unread = set().union(*map(unread_imports, sorted(SRC.glob("*.py"))))
    assert unread == HELD_IMPORTS


def test_guard_sees_an_unread_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os, math as m\n"
                    "from a.b import c, d\n__all__ = ['d']\nprint(os.sep)\n")
    assert unread_imports(path) == {"ddmsim.mod.m", "ddmsim.mod.c"}
