import importlib
import pkgutil

import pytest

import absadmm

MODULES = ["absadmm"] + sorted(f"absadmm.{m.name}" for m in pkgutil.iter_modules(absadmm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted or renamed function must leave no stale name behind in __all__
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)
