"""Every exported name resolves: a deletion must not leave a stale __all__ entry."""

import importlib
import pkgutil

import pytest

import hankel_spectra

MODULES = ["hankel_spectra"] + [
    f"hankel_spectra.{info.name}" for info in pkgutil.iter_modules(hankel_spectra.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
