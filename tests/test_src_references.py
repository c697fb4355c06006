"""Every function, method, class and class field in ``src/delpezzo`` has a
reader outside tests.

A function, method or class counts as used when ``src/`` or ``perfbench/``
refers to it anywhere but inside its own definition: as a loaded name or
attribute, in an import (so an export from ``__init__.py`` counts), or as a
dotted part of a string (the perfbench tracer names its targets that way).
An annotated class field (a dataclass field) counts as read only when an
attribute load reads it (``res.farkas``) or a dotted string names it: a bare
name or a one-word string is a local variable or a literal, not a field
read.  Receivers are not resolved, so a field or method of one class is
kept by a read of the same name on another.  Dunder methods are called by
the language and are not checked.  The check reads syntax trees only: it
imports and executes nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delpezzo"

# (module, name) pairs kept without a reader in src/ or perfbench/.
ALLOWED = {
    ("cli", "reproduce_paper"),  # the library entry point to the corpus
    ("lp", "pivots"),  # the LP's exact work count, for the benchmark's counter gate
}


def _definitions_and_references():
    """(defined, referenced): each function, method, class and annotated class
    field of src/ as (name, path, first line, last line, is a field), and each
    reference as (name, path, line, reads an attribute)."""
    defined, referenced = [], []
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.is_relative_to(SRC)
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))):
                defined.append((node.name, path, node.lineno, node.end_lineno, False))
            if path.is_relative_to(SRC) and isinstance(node, ast.ClassDef):
                defined += [(st.target.id, path, st.lineno, st.end_lineno, True)
                            for st in node.body
                            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.append((node.id, path, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.append((node.attr, path, node.lineno, True))
            elif isinstance(node, ast.alias):
                referenced.append((node.name.rpartition(".")[2], path, node.lineno, False))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted = "." in node.value
                referenced += [(part, path, node.lineno, dotted)
                               for part in node.value.split(".") if part.isidentifier()]
    return defined, referenced


def test_no_function_method_or_class_is_only_called_by_tests():
    defined, referenced = _definitions_and_references()
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for name, path, line, attribute in referenced:
        uses.setdefault(name, []).append((path, line, attribute))
    unused = sorted(
        (path.stem, name) for name, path, first, last, field in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not any(not (p == path and first <= line <= last) and (attribute or not field)
                    for p, line, attribute in uses.get(name, ())))
    assert set(unused) - ALLOWED == set(), "no reader in src/ or perfbench/"
    assert ALLOWED <= set(unused), "an allowed name has a reader now: drop it from ALLOWED"
