"""Static checks on the package source."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ddmsim"

# Imported but never read in its module: bench/spans.py traces
# `ddmsim.sweep.liouvillian_rhs`, `.steady_state`, `.g2_zero` and
# `.cooperativity_mu` under these names, and bench/gate.py wraps
# `.steady_state`.
HELD_IMPORTS = {"ddmsim.sweep.liouvillian_rhs", "ddmsim.sweep.steady_state",
                "ddmsim.sweep.g2_zero", "ddmsim.sweep.cooperativity_mu"}


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


def rebound_names(path):
    """The top-level class and function names a module binds more than
    once: the later binding hides the earlier, whose tests never run."""
    seen, twice = set(), set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            (twice if node.name in seen else seen).add(node.name)
    return twice


def test_no_test_module_rebinds_a_name():
    rebound = {path.name: names for path in sorted(TESTS.glob("*.py"))
               if (names := rebound_names(path))}
    assert rebound == {}


def test_guard_sees_a_rebound_name(tmp_path):
    path = tmp_path / "test_mod.py"
    path.write_text("class TestA:\n    pass\n\ndef helper():\n    pass\n\n"
                    "class TestA:\n    pass\n\nasync def helper():\n    pass\n\n"
                    "def other():\n    def inner():\n        pass\n    def inner():\n"
                    "        pass\n")
    assert rebound_names(path) == {"TestA", "helper"}
