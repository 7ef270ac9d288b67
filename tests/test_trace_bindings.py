"""The traced benchmark wraps module attributes by name; each must still resolve.

``perfbench/trace_launch.py`` is only read here, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_launch.py"


def _bindings() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACE_LAUNCH.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no BINDINGS in {TRACE_LAUNCH}")


@pytest.mark.parametrize("module, attr, layer", _bindings())
def test_binding_resolves(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr, None))
