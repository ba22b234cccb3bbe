"""The package imports nothing outside the standard library at runtime,
and only the CLI (its seeded example roots) draws random numbers."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bmwparam"
MODULES = sorted(SRC.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_modules_found():
    assert {"cli.py", "fields.py", "symfun.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only(path):
    imports = list(_absolute_imports(path))
    outside = [m for m in imports
               if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"
    if path.name != "cli.py":
        assert not [m for m in imports if m.split(".")[0] == "random"], \
            f"{path.name} imports random"
