"""The lane engine and the fast planner are the only production paths.

The scalar engine and the scalar planning loops are bitwise oracles for
tests (:mod:`repro.check.oracles`), not user-facing choices. These guards
keep an ``engine=`` / ``planner=`` switch, its environment variable or
its factory from coming back, and keep the oracle module out of every
production import graph.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.config
import repro.core
import repro.pim
from repro.core import (distribute, partition, plan_spmm, plan_spmv,
                        reorder_by_levels, run_spmm, run_spmv, run_sptrsv,
                        shard_channels)
from repro.core.sptrsv import level_schedule

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ENTRY_POINTS = (run_spmv, run_spmm, run_sptrsv, plan_spmv, plan_spmm,
                partition, distribute, shard_channels, level_schedule,
                reorder_by_levels)


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
def test_entry_point_has_no_selection_parameter(fn):
    params = inspect.signature(fn).parameters
    assert "engine" not in params
    assert "planner" not in params


@pytest.mark.parametrize("module,name", [
    (repro.config, "resolve_engine"), (repro.config, "resolve_planner"),
    (repro.config, "ENGINE_ENV"), (repro.config, "PLANNER_ENV"),
    (repro.pim, "make_engine"), (repro.core, "make_planner"),
    (repro.core, "Planner"),
])
def test_selection_factories_are_gone(module, name):
    assert not hasattr(module, name)


def test_selection_env_vars_are_not_read():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert "PSYNCPIM_ENGINE" not in text, path
        assert "PSYNCPIM_PLANNER" not in text, path


def _imported_modules(path: Path):
    """Absolute names of every module *path* imports (``from a import b``
    yields both ``a`` and ``a.b``, since ``b`` may be a submodule)."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
    if path.name != "__init__.py":
        package = package.rsplit(".", 1)[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0] \
                    if node.level > 1 else package
                base = f"{parent}.{base}" if base else parent
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_resolver_sees_relative_imports():
    # The scan below is only as good as its import resolution.
    names = set(_imported_modules(SRC / "check" / "oracles.py"))
    assert "repro.core.sptrsv" in names
    assert "repro.pim.AllBankEngine" in names


def test_oracles_are_imported_only_inside_repro_check():
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] != "check"
        and "repro.check.oracles" in set(_imported_modules(path))]
    assert offenders == []
