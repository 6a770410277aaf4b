import importlib
import pkgutil

import pytest

import logloss_lab

MODULES = ["logloss_lab"] + [
    f"logloss_lab.{m.name}" for m in pkgutil.iter_modules(logloss_lab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from <module> import *`
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
