"""Every function, method and class in ``src/delpezzo`` has a caller outside tests.

A name counts as used when ``src/`` or ``perfbench/`` refers to it anywhere
but inside its own definition: as a loaded name or attribute, in an import
(so an export from ``__init__.py`` counts), or as a dotted part of a string
(the perfbench tracer names its targets that way).  Dunder methods are called
by the language and are not checked.  The check reads syntax trees only: it
imports and executes nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delpezzo"

# (module, name) pairs kept without a caller in src/ or perfbench/.
ALLOWED = {
    ("cli", "reproduce_paper"),  # the library entry point to the corpus
}


def _definitions_and_references():
    defined, referenced = [], []
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.is_relative_to(SRC)
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))):
                defined.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.alias):
                referenced.append((node.name.rpartition(".")[2], path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced += [(part, path, node.lineno) for part in node.value.split(".")
                               if part.isidentifier()]
    return defined, referenced


def test_no_function_method_or_class_is_only_called_by_tests():
    defined, referenced = _definitions_and_references()
    uses: dict[str, list[tuple[Path, int]]] = {}
    for name, path, line in referenced:
        uses.setdefault(name, []).append((path, line))
    unused = sorted(
        (path.stem, name) for name, path, first, last in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not any(not (p == path and first <= line <= last) for p, line in uses.get(name, ())))
    assert set(unused) - ALLOWED == set(), "no caller in src/ or perfbench/"
    assert ALLOWED <= set(unused), "an allowed name has a caller now: drop it from ALLOWED"
