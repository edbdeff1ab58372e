"""What importing the package loads: numpy, never scipy, and of its own
modules only those whose names are used; every exported name still resolves
to its module's object, whichever way it is imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wlanmodel

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {"csma", "metrics", "oracle", "pipeline", "propagation", "radio_plan", "rates",
           "scenario"}


def _fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports from SRC."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def _loaded_after(statement: str, prefix: str) -> list[str]:
    return _fresh(f"import sys; {statement}; "
                  f"print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
                  ).split()


def test_a_cold_import_loads_no_scipy():
    assert _loaded_after("import wlanmodel, wlanmodel.cli", "scipy") == []


@pytest.mark.parametrize("statement, prefix, loaded", [
    ("import wlanmodel", "wlanmodel", ["wlanmodel"]),
    ("import wlanmodel.scenario", "wlanmodel", ["wlanmodel", "wlanmodel.scenario"]),
    ("import wlanmodel.cli", "concurrent", []),
])
def test_an_import_loads_only_what_it_names(statement, prefix, loaded):
    assert sorted(_loaded_after(statement, prefix)) == loaded


@pytest.mark.parametrize("access", ["from wlanmodel import {name} as value",
                                    "value = wlanmodel.{name}"])
def test_every_export_resolves_to_its_module_object(access):
    exports = wlanmodel._MODULE_OF
    assert set(exports) == set(wlanmodel.__all__)
    assert {m for m in exports.values() if m} == MODULES
    assert len(exports) == 57 + len(MODULES)
    check = f"""
import importlib, wlanmodel
for name, module in wlanmodel._MODULE_OF.items():
    exec({access!r}.format(name=name))
    home = importlib.import_module("wlanmodel." + (module or name))
    if value is not (getattr(home, name) if module else home):
        print(name)
"""
    assert _fresh(check).split() == []


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from wlanmodel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wlanmodel.__all__)
    assert set(wlanmodel.__all__) <= set(dir(wlanmodel))


def test_an_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wlanmodel.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from wlanmodel import no_such_name  # noqa: F401
