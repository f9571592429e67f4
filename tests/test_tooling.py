"""The test configuration and the source tree.

A failing property test is reported, not a crash, and no module of the
package keeps a module-level import that it neither uses nor exports.
"""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "eventpipe").glob("*.py"))

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_given_test_fails_alone_under_the_project_warning_filters(tmp_path):
    # Hypothesis prints the patch of a failing example through libcst, whose
    # import raises a DeprecationWarning; under the project's error filters
    # that warning must not end the session with INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of tree that it never reads nor exports."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_level_import_is_used_or_exported(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from typing import Callable, Sequence\nimport os.path\nimport json\n"
        "__all__ = ['Sequence']\nos.getcwd()\n"
    )
    assert _unused_imports(tree) == ["Callable (line 1)", "json (line 3)"]
