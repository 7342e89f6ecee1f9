"""The package's runtime dependencies are the stdlib, numpy and PyYAML.

scipy and the other test tools are in the `test` extra of pyproject.toml and
may be imported by the tests only. Every import of the package sits at module
level, so importing a module loads everything it will use.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import rholoss

RUNTIME_DEPENDENCIES = {"numpy", "yaml"}


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import in source, at any depth, that is not
    relative, not of the stdlib and not of a runtime dependency."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in RUNTIME_DEPENDENCIES:
                found.append((node.lineno, name))
    return found


def test_the_package_imports_only_the_stdlib_numpy_and_yaml():
    sample = "import os, numpy as np\nfrom . import nn\nfrom yaml import safe_load\ndef f():\n    from scipy import stats\n"
    assert _foreign_imports(sample) == [(5, "scipy")]
    package = Path(rholoss.__file__).parent
    foreign = {
        path.name: found
        for path in sorted(package.rglob("*.py"))
        if (found := _foreign_imports(path.read_text()))
    }
    assert foreign == {}


def _imports_in_functions(source: str) -> list[int]:
    """Lines of every import inside a function body, at any depth."""
    return sorted({
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def test_the_package_imports_at_module_level_only():
    sample = "import os\ndef f():\n    if os:\n        from .nn import forward\n    def g():\n        import json\n"
    assert _imports_in_functions(sample) == [4, 6]
    package = Path(rholoss.__file__).parent
    lazy = {
        path.name: found
        for path in sorted(package.rglob("*.py"))
        if (found := _imports_in_functions(path.read_text()))
    }
    assert lazy == {}


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(rholoss.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rholoss, rholoss.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
