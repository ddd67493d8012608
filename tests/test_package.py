"""The package's lazy exports, and which modules a cold command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qonsager


def test_every_export_resolves_to_its_submodules_own_object():
    for module, names in qonsager._EXPORTS.items():
        submodule = importlib.import_module(f"qonsager.{module}")
        for name in names:
            assert getattr(qonsager, name) is getattr(submodule, name), name
    # no name is exported by two submodules
    assert sorted(qonsager.__all__) == sorted(
        name for names in qonsager._EXPORTS.values() for name in names)
    namespace = {}
    exec("from qonsager import *", namespace)
    assert set(qonsager.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qonsager.no_such_name


# In a fresh interpreter: a submodule is loaded by attribute access, as when
# the package imported them all
_SUBMODULE = """
import sys
import qonsager
assert "qonsager.central" not in sys.modules
print(qonsager.central.__name__, "qonsager.series" in sys.modules)
"""


# In a fresh interpreter: the lazily loaded modules present after importing
# the CLI, after a `check ambiguities` run and after a `zn` run.
_LOADED = """
import contextlib, io, sys
import qonsager.cli

LAZY = ("qonsager.series", "qonsager.central", "qonsager.dims", "dataclasses")

def loaded():
    print(" ".join(m for m in LAZY if m in sys.modules) or "-")

loaded()
for argv in (["check", "ambiguities", "--bound", "1"], ["zn", "--n", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qonsager.cli.main(argv) == 0
    loaded()
"""


def _fresh(script: str) -> list:
    """The stdout lines of script, run in a fresh interpreter."""
    src = Path(qonsager.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)}
                          ).stdout.splitlines()


def test_a_submodule_is_an_attribute_of_the_package():
    assert _fresh(_SUBMODULE) == ["qonsager.central True"]


def test_a_cold_command_loads_only_the_modules_it_runs():
    assert _fresh(_LOADED) == ["-", "-", "qonsager.series qonsager.central"]
