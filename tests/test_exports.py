import importlib
import pkgutil

import pytest

import pcelabs

MODULES = ["pcelabs", *(f"pcelabs.{m.name}" for m in pkgutil.iter_modules(pcelabs.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition went away would make
    ``from module import *`` raise."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})

