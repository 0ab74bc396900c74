"""The benchmark tracer's targets name functions the package still has.

perfbench/tracing.py wraps each (module, attribute) of its TARGETS table by
name, so renaming or deleting one of them would silently drop a layer from
the traced run. The table is read from the source with ast.literal_eval:
nothing under perfbench/ is imported.
"""
import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def trace_targets():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


def test_the_table_lists_planarwbc_targets():
    targets = trace_targets()
    assert targets
    assert all(module.startswith("planarwbc.") for module, _, _ in targets)


@pytest.mark.parametrize("module, attribute, kind", trace_targets(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_every_trace_target_resolves(module, attribute, kind):
    target = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(target)
    assert kind in ("span", "count")
