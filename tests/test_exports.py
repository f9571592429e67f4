"""The package's public names: every export resolves."""
from __future__ import annotations

import importlib
import pkgutil

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
