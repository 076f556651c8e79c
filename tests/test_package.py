"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import metareplay

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in metareplay.__all__ if not hasattr(metareplay, name)]
    assert missing == []


def test_every_name_a_demo_imports_resolves():
    # no demo runs under the tests, so a removed name would break it silently
    assert DEMOS
    missing = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "metareplay":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "metareplay":
                        importlib.import_module(alias.name)
    assert missing == []
