"""The package's public surface."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metareplay

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in metareplay.__all__ if not hasattr(metareplay, name)]
    assert missing == []


def test_every_name_a_demo_imports_resolves():
    # demos 04 and 05 do not run under the tests, so a removed name would
    # break them silently
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


# 04 (meta vs plain pre-training) and 05 (replay and a sweep) are left
# out: on two cores they take about 19 s and 12 s, against about 2 s for
# 01-03 together, and the meta, adapt and harness tests already run their
# code paths.
@pytest.mark.parametrize("name", ["01_autodiff_basics", "02_synthetic_domains",
                                  "03_pretext_objectives"])
def test_fast_demo_runs(name, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_every_module_uses_what_it_imports():
    # no linter runs in tier-1; an import left behind by a deletion fails here
    unused = []
    for path in sorted((ROOT / "src" / "metareplay").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(((a.asname or a.name).split(".")[0], node.lineno)
                                for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # perfbench/tracer.py wraps these by name; a refactor that deletes one
    # fails here instead of in the benchmark's traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)   # its dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, _span, _windows in tracer.default_targets():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        if "." in attr:                 # Class.method, defined on the class itself
            cls_name, method = attr.split(".")
            found = method in vars(getattr(module, cls_name, type))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
