"""The test configuration, the source tree, and the README's documented usage.

A failing property test is reported, not a crash, no module of the package
keeps a module-level import that it neither uses nor exports, README's
command-line and configuration blocks say what the parser and the config
loader accept, and its artifact field lists are the stages' row fields.
"""
from __future__ import annotations

import argparse
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eventpipe import cli, config, prompts
from eventpipe.config import PipelineConfig
from eventpipe.pipeline import STAGES

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "eventpipe").glob("*.py"))
README = ROOT / "README.md"

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


def _readme_block(heading: str) -> str:
    """The first fenced code block under README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def _readme_commands() -> list[list[str]]:
    """README's `eventpipe ...` lines as argument lists, comments and optional brackets dropped."""
    commands = []
    for line in _readme_block("Command line").splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("eventpipe "):
            commands.append(line.replace("[", " ").replace("]", " ").split()[1:])
    return commands


def test_every_readme_command_parses():
    parser, commands = cli._build_parser(), _readme_commands()
    for argv in commands:
        parser.parse_args(argv)
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(subcommands.choices)
    assert len(subcommands.choices) == 9


def _readme_config() -> dict:
    """README's jsonc configuration block, with its // comments removed, as JSON."""
    text = _readme_block("Configuration")
    return json.loads(re.sub(r'("(?:[^"\\]|\\.)*")|//[^\n]*', lambda m: m.group(1) or "", text))


def test_readme_config_names_exactly_the_config_keys():
    data = _readme_config()
    assert {section: set(keys) for section, keys in data.items()} == {
        section: set(keys) for section, keys in config._LAYOUT.items()
    }


def test_readme_config_shows_the_defaults():
    data = _readme_config()
    shown = PipelineConfig.from_dict(data)
    paths = ("gold", "transcripts", "support", "output_dir")
    required = {
        "paths": {key: data["paths"][key] for key in paths},
        "llm": {"default": data["llm"]["default"]},
    }
    assert shown.to_dict() == PipelineConfig.from_dict(required).to_dict()


def test_readme_artifact_fields_are_the_stage_fields():
    section = README.read_text(encoding="utf-8").split("\n## File formats\n", 1)[1]
    listed = re.findall(r"^  - (\w+): `([\w ]+)`$", section.split("\n## ", 1)[0], re.M)
    assert [(name, tuple(names.split())) for name, names in listed] == [
        (stage.name, stage.fields) for stage in STAGES
    ]


def test_artifact_stages_fill_the_prompt_stages_in_order():
    assert [stage.prompt for stage in STAGES] == list(prompts.STAGES)
