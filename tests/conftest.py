"""Test-session setup shared by every test module."""

import os
from pathlib import Path

import pytest

import circlelab

# the source tree of the package under test, for the CLI subprocesses
_SRC = str(Path(circlelab.__file__).resolve().parents[1])


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Let ``python -m circlelab.cli`` children import the same package."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
        yield
