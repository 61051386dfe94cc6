"""The package root holds only ``__version__``; every other name is
imported from the module that defines it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import lowrankrec

MODULES = ("rand", "matcore", "measure", "diagnostics", "solve", "optspace",
           "oracle", "bench", "cli")


def test_root_holds_only_the_version():
    assert lowrankrec.__all__ == ["__version__"]
    namespace = {}
    exec("from lowrankrec import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ["__version__"]
    assert isinstance(lowrankrec.__version__, str)


def test_a_module_alias_binds_the_module():
    import lowrankrec.optspace as m
    assert m is sys.modules["lowrankrec.optspace"]
    assert callable(m.trim) and callable(m.optspace)


def test_every_exported_name_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"lowrankrec.{name}")
        assert len(set(mod.__all__)) == len(mod.__all__), name
        for attr in mod.__all__:
            assert getattr(mod, attr, None) is not None, f"{name}.{attr}"


def test_importing_a_module_loads_only_its_dependencies():
    code = ("import json, sys, lowrankrec.measure; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lowrankrec'))))")
    src = str(Path(lowrankrec.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert json.loads(out) == ["lowrankrec", "lowrankrec._version", "lowrankrec.matcore",
                         "lowrankrec.measure", "lowrankrec.rand"]
