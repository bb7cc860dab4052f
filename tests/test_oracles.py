"""The oracles check the library only while they share none of its code."""
from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_from_the_library():
    modules = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "numpy" in modules  # the walk sees the imports
    assert not [m for m in modules if m.split(".")[0] == "dickesim"], modules
