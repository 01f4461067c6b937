"""The public surface: every name a package exports resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


def test_star_import_of_the_package_root():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert namespace["__version__"] == repro.__version__
