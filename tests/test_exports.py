"""The package's public names: every export resolves, and no import cycle hides in the graph."""
from __future__ import annotations

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eventpipe

MODULES = ["eventpipe"] + [
    f"eventpipe.{info.name}" for info in pkgutil.iter_modules(eventpipe.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


# Imports each module named on the command line first, in a fresh module table.
IMPORT_EACH_FIRST = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [key for key in sys.modules if key.partition(".")[0] == "eventpipe"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except ImportError as exc:
        print(f"{name}: {exc!r}")
"""


def test_each_module_imports_first_without_a_cycle():
    # A cycle in the import graph fails only in the order that enters it at
    # one of its modules, so each module is imported first in turn.
    package_root = str(Path(eventpipe.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST, *MODULES[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


# Hooks in benchmarks/tracer.py whose targets no longer exist in eventpipe:
# their per-layer metrics read nothing until the tracer is brought up to date.
STALE_HOOKS = {
    "eventpipe.pipeline:Pipeline.run_gate",
    "eventpipe.pipeline:Pipeline.run_triggers",
    "eventpipe.pipeline:Pipeline.run_arguments",
    "eventpipe.pipeline:Pipeline.run_final",
    "eventpipe.gate:FileVerdictProvider.presence_probability",
    "eventpipe.gate:HttpVerdictProvider.presence_probability",
    "eventpipe.retrieval:embed",
    "eventpipe.llm:complete_with_retry",
    "eventpipe.llm:cached_complete",
    "eventpipe.extract:parse_argument_reply",
}


def _resolves(target: str) -> bool:
    """Whether the tracer finds target: a module function, or a method defined on its class."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = path.rpartition(".")
    if not owner_name:
        return hasattr(module, path)
    owner = getattr(module, owner_name, None)
    return owner is not None and method in vars(owner)


def test_benchmark_hooks_resolve_except_the_known_stale_ones():
    tracer_path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {target for _, target, _ in tracer.HOOKS}
    assert STALE_HOOKS <= targets
    assert {target for target in targets if not _resolves(target)} == STALE_HOOKS


def test_only_the_llm_module_calls_a_provider():
    # Every stage asks through its StageModel, which looks each attempt up in
    # the cache and counts the calls that reach the provider; a stage that
    # called its provider itself would bypass both.
    package = Path(eventpipe.__file__).resolve().parent
    callers = {path.name for path in package.glob("*.py") if ".complete(" in path.read_text()}
    assert callers == {"llm.py"}
