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
