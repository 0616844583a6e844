"""Tests of the benchmark itself: seeded inputs, cross-path cycles, tracing.

    python -m pytest perfbench -q
"""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, hostspeed
from perfbench.harness import Pass
from perfbench.tracer import Tracer
from perfbench.workloads import (FIG8, FIG8_SCALE, FIG9, FIG9_SCALE,
                                 SPMM_MATRICES, SPMM_SCALE, Op, Outcome,
                                 SpmmAuto, SpmvFig8, SptrsvFig9, SweepWarm,
                                 Workload, seeded_matrix)
from repro.formats import generate

ROOT = Path(__file__).resolve().parent.parent


def _same(a, b) -> bool:
    return (a.shape == b.shape and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and np.array_equal(a.vals, b.vals))


@pytest.mark.parametrize("names,scale", [(FIG8, FIG8_SCALE),
                                         (FIG9, FIG9_SCALE),
                                         (SPMM_MATRICES, SPMM_SCALE)])
def test_seed_zero_is_the_library_regeneration(names, scale):
    for name in names:
        assert _same(seeded_matrix(name, scale, 0),
                     generate(name, scale=scale)), name


def test_seed_moves_seeded_classes_only():
    assert not _same(seeded_matrix("cant", FIG8_SCALE, 1),
                     seeded_matrix("cant", FIG8_SCALE, 0))
    # stencil classes have no generator seed
    assert _same(seeded_matrix("poisson3Da", FIG9_SCALE, 1),
                 seeded_matrix("poisson3Da", FIG9_SCALE, 0))


def test_spmm_passes_get_fresh_instances(tmp_path):
    workload = SpmmAuto(0, tmp_path)
    first, second = workload.pass_ops(1), workload.pass_ops(2)
    assert first[0].work != second[0].work or not np.array_equal(
        first[0].call.args[1].rows, second[0].call.args[1].rows)


def _totals(outcomes):
    device = {}
    for outcome in outcomes:
        for category, cycles in outcome.device.items():
            device[category] = device.get(category, 0) + cycles
    return (sum(o.cycles for o in outcomes),
            sum(o.energy_pj for o in outcomes), device)


def test_sweep_path_prices_like_the_direct_paths(tmp_path):
    """At seed 0, sweep-warm's simulated totals are spmv-fig8's AB ones
    plus sptrsv-fig9's on the same matrices and scales."""
    direct, errors = [], []
    for cls in (SpmvFig8, SptrsvFig9):
        workload = cls(0, tmp_path)
        workload.build_inputs()
        outcomes = Pass(workload.pass_ops(1)).outcomes
        assert all(o.ok for o in outcomes), cls.name
        direct.append(_totals(outcomes))
        errors.append(workload.paper_errors(outcomes))
    sweep = SweepWarm(0, tmp_path)
    try:
        sweep.build_inputs()
        outcomes = Pass(sweep.pass_ops(1)).outcomes
    finally:
        sweep.close()
    assert all(o.ok for o in outcomes)
    # the same Fig. 8 / Fig. 14 ratios, read from the sweep reports
    assert sweep.paper_errors(outcomes) == pytest.approx(errors[0])
    assert errors[1]["paper_err"] > 0
    cycles, energy, device = _totals(outcomes)
    assert cycles == direct[0][0] + direct[1][0]
    assert energy == pytest.approx(direct[0][1] + direct[1][1], rel=1e-12)
    assert device == {c: direct[0][2][c] + direct[1][2][c] for c in device}
    assert not (tmp_path / ".perfbench-cache").exists()


def _layer_functions():
    modules = [importlib.import_module(name) for name in (
        "repro.core.partition", "repro.core.spmv", "repro.dram.controller")]
    return (modules[0].partition, modules[1].partition,
            modules[2].MemoryController.run)


def test_traced_run_prices_like_the_untraced_run(tmp_path):
    originals = _layer_functions()
    workload = SpmvFig8(0, tmp_path)
    workload.build_inputs()
    plain = Pass(workload.pass_ops(1))
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert all(a is not b
                   for a, b in zip(_layer_functions(), originals))
        traced = Pass(workload.pass_ops(1), tracer)
    finally:
        restore()
    assert _layer_functions() == originals
    assert [o.cycles for o in traced.outcomes] == \
        [o.cycles for o in plain.outcomes]
    assert [o.device for o in traced.outcomes] == \
        [o.device for o in plain.outcomes]
    seconds = tracer.layer_seconds()
    assert seconds["core.partition.partition"] > 0
    assert seconds["dram.price"] > 0
    assert tracer.totals.tiles > 0 and tracer.totals.commands > 0


def _ops(count):
    return [Op(f"op{i}", 10 * (i + 1), lambda: None, lambda out: Outcome())
            for i in range(count)]


def _pass(seconds, scale):
    done = Pass([])
    done.ops, done.seconds, done.scale = _ops(len(seconds)), seconds, scale
    return done


def test_host_times_are_scaled_pass_by_pass():
    """A pass run at half speed (scale 0.5) reads like one at full speed."""
    slow = [_pass([0.2, 0.4, 0.6, 0.8], 0.5) for _ in range(30)]
    fast = [_pass([0.1, 0.2, 0.3, 0.4], 1.0) for _ in range(30)]
    assert harness._host_times(slow, scaled=True) == pytest.approx(
        harness._host_times(fast, scaled=False))
    assert harness._host_times(slow, scaled=False)["nnz_per_s"] == \
        pytest.approx(100 / 2.0)


class _Idle(Workload):
    name = "idle"

    def pass_ops(self, index):
        return _ops(10)


def test_passes_take_the_scale_of_their_bracketing_probes(monkeypatch,
                                                          tmp_path):
    probes = iter(hostspeed.NOMINAL_S * k for k in range(1, 100))
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    passes = harness._measure(_Idle(0, tmp_path), 0.0, None)
    assert len(passes) == harness.MIN_OPS // 10
    # pass k (from 1) lies between probes of k and k + 1 nominal times
    assert [p.scale for p in passes] == pytest.approx(
        [2 / (2 * k + 1) for k in range(1, len(passes) + 1)])


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmv-fig8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
