"""The lane engine and the fast planner are the only production paths.

The reference interpreter and the scalar planning loops are bitwise
oracles for tests (:mod:`repro.check.oracles`), not user-facing
choices. These guards keep an ``engine=`` / ``planner=`` switch, its
environment variable or its factory from coming back, and keep the
oracle module out of every production import graph. Likewise there is
no jobs tier: sweeps run one job per worker submission and every fuzz
seed goes through both ISA interpreters, so no ``batch=`` /
``group_size=`` switch may return. Nor is
there an SpMM width knob or a second SpMM execution record: the width
comes from the operand or an explicit argument, and SpMV is SpMM at
``k = 1`` in one record. Nor do the partitioning strategy, the channel
width or attribution come from the environment: they are arguments, so
setting the variables that once chose them (or the legacy scale alias)
changes no result. Nor may the solve and planning entry points grow a
parameter at all: their parameter lists are pinned.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.check.fuzz
import repro.config
import repro.core
import repro.core.spmm
import repro.pim
import repro.sweep
import repro.sweep.runner
from repro.check import fuzz_range
from repro.cli import main
from repro.config import default_system
from repro.core import (distribute, ildu, partition, plan_spmm, plan_spmv,
                        reorder_by_levels, run_spmm, run_spmv, run_sptrsv,
                        shard_channels, tune_strategy)
from repro.core.sptrsv import level_schedule
from repro.formats import generate
from repro.sweep import (SweepJob, execute_job, run_sweep, stable_digest,
                         suite_jobs)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ENTRY_POINTS = (run_spmv, run_spmm, run_sptrsv, plan_spmv, plan_spmm,
                partition, distribute, shard_channels, level_schedule,
                reorder_by_levels, run_sweep, execute_job, fuzz_range)


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
def test_entry_point_has_no_selection_parameter(fn):
    params = inspect.signature(fn).parameters
    for name in ("engine", "planner", "batch", "group_size"):
        assert name not in params


#: The exact parameter lists of the planning and solve entry points. A
#: solve's update SpMVs are planned in one pass with no switch between
#: it and the per-block path, so none of these grows a parameter for it.
PARAMETERS = {
    run_sptrsv: ("tri", "b", "config", "lower", "precision", "fidelity",
                 "reorder", "leaf_size", "engine_banks", "channels",
                 "strategy"),
    run_spmv: ("matrix", "x", "config", "precision", "compress", "policy",
               "fidelity", "accumulate", "multiply", "y0", "engine_banks",
               "matrix_format", "plan", "assignment", "validate",
               "channels", "strategy", "tuner_cache"),
    plan_spmv: ("matrix", "config", "precision", "compress", "policy",
                "matrix_format", "plan", "assignment", "validate",
                "channels", "strategy", "tuner_cache"),
    partition: ("matrix", "config", "precision", "compress", "tile_rows",
                "tile_cols", "validate"),
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_entry_point_parameters_are_fixed(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]


# The jobs-tier, width-knob, second-record and environment-knob names
# are spelled in pieces so that a ``git grep`` for them finds only live
# references, never this guard.
BATCH = "batch"
RHS = "rhs"
SPMM = "Spmm"
KNOBS = ("STRATEGY", "CHANNELS", "ATTRIB")
STRATEGY_VAR, CHANNELS_VAR, ATTRIB_VAR = ("PSYNCPIM_" + knob for knob in KNOBS)
LEGACY_SCALE_VAR = "REPRO_" + "BENCH_SCALE"

#: The variables that once chose the strategy, the channel width and
#: attribution, and the legacy scale alias, each set to a value that
#: would change a result if anything still read it.
REMOVED_KNOBS = {STRATEGY_VAR: "auto", CHANNELS_VAR: "4", ATTRIB_VAR: "1",
                 LEGACY_SCALE_VAR: "0.5"}


@pytest.mark.parametrize("module,name", [
    (repro.config, "resolve_engine"), (repro.config, "resolve_planner"),
    (repro.config, "ENGINE_ENV"), (repro.config, "PLANNER_ENV"),
    (repro.pim, "make_engine"), (repro.core, "make_planner"),
    (repro.core, "Planner"), (repro.config, "resolve_" + BATCH),
    (repro.config, BATCH.upper() + "_ENV"),
    (repro.pim, "make_" + BATCH + "_engine"),
    (repro.pim, BATCH.title() + "Engine"),
    (repro.check.fuzz, "fuzz_" + BATCH), (repro.check.fuzz, "vary_" + "case"),
    (repro.sweep, "execute_" + BATCH),
    (repro.config, "resolve_" + RHS), (repro.config, RHS.upper() + "_ENV"),
    (repro.core, SPMM + "Execution"), (repro.core, SPMM + "Result"),
    (repro.core.spmm, SPMM + "Execution"), (repro.core.spmm, SPMM + "Result"),
    *((repro.config, "resolve_" + knob.lower()) for knob in KNOBS + ("OBS",)),
    *((repro.config, knob + "_ENV") for knob in KNOBS + ("OBS",)),
    (repro.config, "_resolve_switch"), (repro.config, "_TRUTHY"),
    (repro.config, "_FALSY"), (repro.config, "os"),
    *((module, "LEGACY_SCALE" + "_ENV") for module in (repro.sweep, repro.sweep.runner)),
])
def test_selection_factories_are_gone(module, name):
    assert not hasattr(module, name)


def test_selection_env_vars_are_not_read():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert "PSYNCPIM_ENGINE" not in text, path
        assert "PSYNCPIM_PLANNER" not in text, path
        assert "PSYNCPIM_" + BATCH.upper() not in text, path
        assert "PSYNCPIM_" + RHS.upper() not in text, path
        for name in REMOVED_KNOBS:
            assert name not in text, path


def test_config_and_core_read_no_environment():
    for path in [SRC / "config.py", *(SRC / "core").rglob("*.py")]:
        assert "os.environ" not in path.read_text(), path


def _everything_a_knob_could_move(capsys):
    """Results of every entry point the removed variables once steered."""
    config = default_system()
    matrix = generate("cant", scale=0.01)
    _, _, execution = plan_spmv(matrix, config)
    tri = ildu(generate("rma10", scale=0.01)).lower
    b = np.random.default_rng(0).random(tri.shape[0])
    solve = run_sptrsv(tri, b, config)
    tuned = tune_strategy(matrix, config)
    record = execute_job(SweepJob(kernel="sptrsv", matrix="rma10",
                                  scale=0.01, with_energy=True),
                         use_cache=False)
    assert main(["spmv", "--matrix", "cant", "--scale", "0.01"]) == 0
    return {
        "plan": stable_digest(execution),
        "solve": stable_digest(solve.x, solve.execution),
        "tune": (tuned.chosen, tuned.scores, tuned.cycles),
        "suite_scale": {job.scale for job in suite_jobs("spmv")},
        "record": (record.label, record.extras, record.report,
                   record.attrib, record.error),
        "stdout": capsys.readouterr().out,
    }


def test_removed_variables_change_nothing(monkeypatch, capsys):
    for name in REMOVED_KNOBS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.delenv("PSYNCPIM_SCALE", raising=False)
    unset = _everything_a_knob_could_move(capsys)
    for name, value in REMOVED_KNOBS.items():
        monkeypatch.setenv(name, value)
    moved = _everything_a_knob_could_move(capsys)
    for key, value in unset.items():
        assert moved[key] == value, key


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
    assert "repro.check.reference.ReferenceEngine" in names


def test_oracles_are_imported_only_inside_repro_check():
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] != "check"
        and "repro.check.oracles" in set(_imported_modules(path))]
    assert offenders == []
