"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

from setgraphs import core

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports setgraphs from this checkout.

    `pythonpath` in pyproject.toml reaches only the pytest process, so a child
    started with `sys.executable` gets `src` on its own `PYTHONPATH`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def builds(monkeypatch):
    """The sizes passed to `core._materialize`, with its cache emptied first
    so that every build reaches the spy."""
    core._materialize.cache_clear()
    built = []
    build = core._materialize

    def counted_build(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(core, "_materialize", counted_build)
    return built
