"""Runs the docstring examples of every circledeg module."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import circledeg

MODULES = sorted(["circledeg"] + [f"circledeg.{info.name}" for info in
                                  pkgutil.iter_modules(circledeg.__path__)])


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
