"""Every function that the perfbench tracer wraps still exists.

``perfbench/tracing.py`` names its targets in ``TARGETS`` as (module,
attribute path, span name), and ``Tracer.install`` looks each one up with
``getattr`` (a method in its class's own ``__dict__``), so a renamed or
deleted target crashes ``perfbench/run.py --trace 1``.  The list is read
from the file's syntax tree: the file is neither imported nor executed.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for modname, path, _ in targets:
        owner = importlib.import_module(f"delpezzo.{modname}")
        if "." in path:
            cls_name, attr = path.split(".")
            fn = vars(getattr(owner, cls_name)).get(attr)
        else:
            fn = getattr(owner, path, None)
        assert callable(fn), f"delpezzo.{modname}.{path} is traced but does not exist"
