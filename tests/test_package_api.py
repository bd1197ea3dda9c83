"""The package namespace loads its modules on first access (PEP 562) and
keeps its public API: every name of __all__ resolves to the object its
module defines, shows in dir() and binds under a star import. (That a
submodule resolves after a bare import, in a fresh interpreter, is
checked in test_scipy_imports.)"""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

import pytest

import aerosurvey


def test_every_public_name_is_its_modules_object():
    for name in aerosurvey.__all__:
        module = f"aerosurvey.{aerosurvey._SOURCE[name]}"
        obj = getattr(aerosurvey, name)
        assert obj is getattr(import_module(module), name), name
        assert getattr(obj, "__module__", module) == module, name


def test_dir_lists_every_public_name():
    assert set(aerosurvey.__all__) <= set(dir(aerosurvey))


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from aerosurvey import *", scope)
    assert set(aerosurvey.__all__) <= set(scope)
    assert all(scope[n] is getattr(aerosurvey, n) for n in aerosurvey.__all__)


def test_an_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        aerosurvey.no_such_name
    assert not hasattr(aerosurvey, "no_such_name")


def test_crossover_row_is_cores_and_still_resolves_from_qc():
    from aerosurvey import core, qc
    assert aerosurvey.CrossoverRow is core.CrossoverRow is qc.CrossoverRow


def test_the_io_layer_imports_no_analysis_module():
    # io_csv reads and writes the types of core; qc, gridding and the
    # simulator build on it, not the other way round
    source = Path(aerosurvey.io_csv.__file__).read_text(encoding="utf-8")
    imported = {node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"core", "errors", "numtext"}
