"""One synthesis and one pricing pass per run.

:func:`repro.core.timing.price` is the single synthesise-and-schedule
pass of an execution record; ``time_*`` and ``attribute_*`` are views
over it. These tests count the passes the user-facing paths make
(``MemoryController.run`` and ``synthesize`` calls) and pin that the
attribution collector leaves the whole PerfReport, energy included,
bitwise unchanged.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.check.golden import WORKLOADS, build_record
from repro.cli import main
from repro.config import default_system
from repro.core import run_spmm, run_sptrsv
from repro.core import trace as trace_mod
from repro.core.timing import price
from repro.dram.controller import MemoryController
from repro.formats.generators import uniform_random, unit_lower_from
from repro.sweep import SweepJob, execute_job

SCALE = 0.005


@pytest.fixture(autouse=True)
def _unconfigured(monkeypatch):
    """Pin the knobs that change what a run plans or prices."""
    monkeypatch.delenv("PSYNCPIM_OBS", raising=False)


@pytest.fixture
def passes(monkeypatch):
    """Live counts of scheduling and synthesis calls, wherever bound."""
    counts = {"run": 0, "synthesize": 0}
    run = MemoryController.run
    synthesize = trace_mod.synthesize

    def counted_run(self, *args, **kwargs):
        counts["run"] += 1
        return run(self, *args, **kwargs)

    def counted_synthesize(*args, **kwargs):
        counts["synthesize"] += 1
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(MemoryController, "run", counted_run)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) \
                and getattr(module, "synthesize", None) is synthesize:
            monkeypatch.setattr(module, "synthesize", counted_synthesize)
    return counts


def _reset(counts):
    counts.update(run=0, synthesize=0)


# ----------------------------------------------------------------------
# pass counts
# ----------------------------------------------------------------------
SWEEP_JOBS = {
    "spmv": SweepJob(kernel="spmv", matrix="cant", scale=SCALE),
    "spmm-k4": SweepJob(kernel="spmm", matrix="cant", scale=SCALE, rhs=4),
    "sptrsv": SweepJob(kernel="sptrsv", matrix="poisson3Da", scale=SCALE),
}


@pytest.mark.parametrize("name", sorted(SWEEP_JOBS))
def test_sweep_job_prices_once_cold_and_never_warm(name, passes, tmp_path):
    base = SWEEP_JOBS[name]
    job = replace(base, attrib=True, with_energy=True)
    cold = execute_job(job, cache_dir=tmp_path)
    assert not cold.failed, cold.error
    assert cold.attrib is not None
    assert passes == {"run": 1, "synthesize": 1}
    _reset(passes)
    warm = execute_job(job, cache_dir=tmp_path)
    assert warm.cache_misses == 0
    assert passes == {"run": 0, "synthesize": 0}
    assert warm.report == cold.report
    assert warm.attrib.to_dict() == cold.attrib.to_dict()


def test_sweep_jobs_with_and_without_attrib_share_the_trace(passes,
                                                            tmp_path):
    job = SWEEP_JOBS["spmv"]
    plain = execute_job(job, cache_dir=tmp_path)
    _reset(passes)
    attributed = execute_job(replace(job, attrib=True), cache_dir=tmp_path)
    assert passes == {"run": 1, "synthesize": 0}
    assert attributed.report == plain.report
    assert plain.attrib is None and attributed.attrib is not None


@pytest.mark.parametrize("argv, runs", [
    (["spmv", "--matrix", "cant"], 2),
    (["spmm", "--matrix", "cant", "--rhs", "4"], 3),
    (["sptrsv", "--matrix", "poisson3Da"], 2),
], ids=["spmv", "spmm-k4", "sptrsv"])
def test_cli_attrib_verbs_price_once_per_report(argv, runs, passes, capsys):
    assert main(argv + ["--scale", str(SCALE), "--attrib"]) == 0
    assert "cycle attribution" in capsys.readouterr().out
    assert passes == {"run": runs, "synthesize": runs}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_record_prices_once(name, passes):
    build_record(name)
    assert passes["run"] == 1
    assert passes["synthesize"] == (0 if name == "dense_stream_ab" else 1)


# ----------------------------------------------------------------------
# the collector never changes the report
# ----------------------------------------------------------------------
def _execution(num_rhs, channels):
    """A small SpMM (``num_rhs`` columns) or, for ``None``, an SpTRSV."""
    config = default_system()
    if num_rhs is None:
        tri = unit_lower_from(uniform_random(80, 80, 0.05, seed=5), seed=6)
        b = np.random.default_rng(7).random(80)
        return run_sptrsv(tri, b, config, channels=channels).execution
    matrix = uniform_random(96, 96, 0.05, seed=3)
    x = np.random.default_rng(4).random((96, num_rhs))
    return run_spmm(matrix, x, config, channels=channels).execution


#: (rhs width or None for SpTRSV, channels, mode); SpTRSV is AB-only.
CASES = ([(k, c, mode) for k in (1, 4) for c in (None, 4)
          for mode in ("ab", "pb")]
         + [(None, c, "ab") for c in (None, 4)])


@pytest.mark.parametrize("with_energy", [False, True],
                         ids=["cycles", "energy"])
@pytest.mark.parametrize(
    "num_rhs, channels, mode", CASES,
    ids=[f"{f'spmm-k{k}' if k else 'sptrsv'}-{c or 'rep'}ch-{m}"
         for k, c, m in CASES])
def test_attributed_price_reports_bitwise_like_plain(num_rhs, channels,
                                                     mode, with_energy):
    config = default_system()
    execution = _execution(num_rhs, channels)
    plain, none = price(execution, config, mode=mode,
                        with_energy=with_energy)
    attributed, attribution = price(execution, config, mode=mode,
                                    with_energy=with_energy, attrib=True)
    assert none is None
    assert attribution.total_cycles == plain.cycles
    assert attributed == plain
    if with_energy:
        assert attributed.energy.as_dict() == plain.energy.as_dict()
