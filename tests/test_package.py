"""The package namespace re-exports each module's public names, and only
those."""

import importlib

import lowrankrec

MODULES = ("rand", "matcore", "measure", "diagnostics", "solve", "optspace",
           "oracle", "bench")


def test_all_is_version_plus_the_modules_public_names():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"lowrankrec.{name}").__all__
    assert lowrankrec.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves():
    for name in lowrankrec.__all__:
        assert getattr(lowrankrec, name, None) is not None, name
    for name in ("EXPERIMENTS", "FitResult", "apply_stack", "spawn_seeds"):
        assert name in lowrankrec.__all__
    namespace = {}
    exec("from lowrankrec import *", namespace)
    assert set(lowrankrec.__all__) <= set(namespace)
