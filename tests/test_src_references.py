"""Every function, method, class, class field and instance attribute in
``src/delpezzo`` has a reader outside tests.

A function, method or class counts as used when ``src/`` or ``perfbench/``
refers to it anywhere but inside its own definition: as a loaded name or
attribute, in an import (so an export from ``__init__.py`` counts), or as a
dotted part of a string (the perfbench tracer names its targets that way).
A method, an annotated class field (a dataclass field) or an instance
attribute that a method assigns as ``self.<name> = ...`` (tuple targets
included) counts as read only when an attribute load reads it
(``res.farkas``) or a dotted string names it: a bare name or a one-word
string is a local variable or a literal, not a member read.  A read
through ``self`` counts only for the class whose body encloses it; other
receivers are not resolved, so a member of one class is still kept by a
read of the same name on another object.  Dunder methods are called by the
language and are not checked.  The check reads syntax trees only: it
imports and executes nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delpezzo"

# (module, name) pairs kept without a reader in src/ or perfbench/.
ALLOWED = {
    ("lp", "pivots"),  # the LP's exact work count, for the benchmark's counter gate
}


def _targets(nodes):
    """The assignment targets in nodes, with tuple and list targets unpacked."""
    for node in nodes:
        if isinstance(node, (ast.Tuple, ast.List)):
            yield from _targets(node.elts)
        else:
            yield node


def _definitions_and_references():
    """(defined, referenced): each function, method, class, annotated class
    field and instance attribute of src/ as (name, path, first line, last
    line, owning class or None), and each reference as (name, path, line,
    reads an attribute, class of the ``self`` it is read through or None)."""
    defined, referenced = [], []

    def visit(node, path, in_src, cls):
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            if in_src and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((child.name, path, child.lineno, child.end_lineno, owner))
            elif (in_src and owner and isinstance(child, ast.AnnAssign)
                  and isinstance(child.target, ast.Name)):
                defined.append((child.target.id, path, child.lineno, child.end_lineno, owner))
            elif in_src and cls and isinstance(child, ast.Assign):
                defined.extend((t.attr, path, child.lineno, child.end_lineno, cls)
                               for t in _targets(child.targets)
                               if isinstance(t, ast.Attribute)
                               and isinstance(t.value, ast.Name) and t.value.id == "self")
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                referenced.append((child.id, path, child.lineno, False, None))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                referenced.append((child.attr, path, child.lineno, True, cls if on_self else None))
            elif isinstance(child, ast.alias):
                referenced.append((child.name.rpartition(".")[2], path, child.lineno, False, None))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                dotted = "." in child.value
                referenced.extend((part, path, child.lineno, dotted, None)
                                  for part in child.value.split(".") if part.isidentifier())
            visit(child, path, in_src, child.name if isinstance(child, ast.ClassDef) else cls)

    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.is_relative_to(SRC), None)
    return defined, referenced


def test_no_function_method_or_class_is_only_called_by_tests():
    defined, referenced = _definitions_and_references()
    uses: dict[str, list[tuple[Path, int, bool, str | None]]] = {}
    for name, path, line, attribute, receiver in referenced:
        uses.setdefault(name, []).append((path, line, attribute, receiver))
    unused = sorted(
        (path.stem, name) for name, path, first, last, owner in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not any(not (p == path and first <= line <= last)
                    and (attribute or owner is None)
                    and (receiver is None or (p, receiver) == (path, owner))
                    for p, line, attribute, receiver in uses.get(name, ())))
    assert set(unused) - ALLOWED == set(), "no reader in src/ or perfbench/"
    assert ALLOWED <= set(unused), "an allowed name has a reader now: drop it from ALLOWED"
