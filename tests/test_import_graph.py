"""The modules of ``src/delpezzo`` import each other without a cycle, and
each package attribute has one meaning.

Every relative import is an edge, at module level and inside functions:
``from .x import ...`` leads to ``x``, and ``from . import x, y`` to each of
``x`` and ``y``.  ``__init__`` imports every module to export its names and
is left out of the graph.  A name that ``__init__`` binds must not be a
submodule's name: importing the submodule rebinds the package attribute,
so its meaning would depend on import order.  The checks read syntax trees
only: they import nothing.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delpezzo"


def import_graph() -> dict[str, set[str]]:
    """Each module of the package, except ``__init__``, and the modules it imports."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        imported = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update([node.module] if node.module else (a.name for a in node.names))
    return graph


def test_the_module_import_graph_is_acyclic():
    try:
        TopologicalSorter(import_graph()).prepare()
    except CycleError as exc:
        # graphlib lists each module before the one that imports it
        pytest.fail("import cycle: " + " -> ".join(reversed(exc.args[1])))


def test_the_scan_reads_imports_inside_functions_and_keeps_localvol_a_leaf():
    graph = import_graph()
    assert "parse" in graph["valuative"]  # imported inside resolve_divisor_spec
    assert graph["localvol"] == {"exactnum"}
    assert "catalog" not in graph["lattice"]


def package_bindings() -> set[str]:
    """The names that ``src/delpezzo/__init__.py`` binds at module level."""
    names = set()
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def test_no_package_name_shadows_a_submodule():
    shadowed = package_bindings() & set(import_graph())
    assert not shadowed, f"__init__ binds submodule names: {sorted(shadowed)}"
    assert {"get_model", "catalog_names", "__version__"} <= package_bindings()
