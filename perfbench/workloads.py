"""The benchmark's workloads: seeded inputs, timed ops and their checks.

A workload is a list of ops that makes up one *pass*. Every op has three
parts, kept apart so that only library work is timed:

* ``call``  — the library entry points the matching ``psyncpim`` verb or
  ``run_sweep`` calls (this is the only timed part);
* ``check`` — verification of the outputs against an independent
  reference plus the simulated numbers the op produced;
* ``work``  — matrix nonzeros the op completes (times k for SpMM).

Inputs come from the workload seed only. Table IX stand-ins are rebuilt
through the public generators of :mod:`repro.formats.generators` with
generator seed ``spec.seed + seed`` (same class, scaled dimension and
mean row population as :func:`repro.formats.generate`), so seed 0 is
bit-for-bit the library's own regeneration. The stencil classes
(``stencil2d``/``stencil3d``, most of Fig. 9) take no seed: for them a
seed only changes the right-hand sides.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import PSyncPIM
from repro.analysis import geomean
from repro.baselines import GPUModel
from repro.core import as_spmm_execution, level_schedule, time_spmm
from repro.formats import generate, generators, matrix_spec
from repro.obs.attrib import CATEGORIES, attribute_spmm, attribute_sptrsv
from repro.obs.report import build_run_report
from repro.sweep import SweepJob, run_sweep

#: Fig. 8's matrices: 11 in fp64 and the 3 the figure runs in int8.
FIG8_FP64 = ("bcsstk32", "cant", "consph", "crankseg_2", "ct20stif",
             "pdb1HYS", "pwtk", "shipsec1", "xenon2", "lhr71", "ohne2")
FIG8_INT8 = ("soc-sign-epinions", "Stanford", "webbase-1M")
FIG8 = FIG8_FP64 + FIG8_INT8
#: Fig. 9's matrices (both ILDU factors of each are solved).
FIG9 = ("2cubes_sphere", "offshore", "parabolic_fem", "poisson3Da", "rma10")
#: The FEM (``banded_fem``) subset of Fig. 8 that the SpMM workload runs.
SPMM_MATRICES = FIG8_FP64[:9]

#: Dimension scales: small enough that a run of at least 100 ops takes
#: under half a minute on a two-core x86 host (see README.md).
FIG8_SCALE = 0.02
FIG9_SCALE = 0.005
SPMM_SCALE = 0.002
SPMM_RHS = 4
SPMM_CHANNELS = 16

#: Headline ratios of the paper the simulated numbers are compared with.
PAPER_FIG8_PB_OVER_AB = 6.26
PAPER_FIG9_SPEEDUP = 3.53
PAPER_FIG14_ENERGY = 2.67

#: Generator-seed stride between SpMM matrix instances of one run.
INSTANCE_STRIDE = 1_000_003

_SEEDED_KINDS = ("fem", "powerlaw", "rmat", "random")


def seeded_matrix(name: str, scale: float, seed: int):
    """Table IX stand-in *name* whose generator seed is offset by *seed*.

    ``seeded_matrix(name, scale, 0)`` equals ``generate(name, scale)``
    bit for bit; the stencil classes have no seed and ignore it.
    """
    spec = matrix_spec(name)
    if spec.kind not in _SEEDED_KINDS:
        return generate(name, scale=scale)
    n = max(64, int(round(spec.dimension * scale)))
    mean_row = max(spec.mean_row_nnz, 1.0)
    gseed = spec.seed + seed
    if spec.kind == "fem":
        matrix = generators.banded_fem(n, avg_row_nnz=mean_row, seed=gseed)
    elif spec.kind == "powerlaw":
        matrix = generators.power_law_graph(n, avg_degree=mean_row,
                                            seed=gseed)
    elif spec.kind == "rmat":
        matrix = generators.rmat(n, nnz=int(n * mean_row), seed=gseed)
    else:
        matrix = generators.uniform_random(n, n, density=mean_row / n,
                                           seed=gseed)
    if "sptrsv" in spec.applications or "pcg" in spec.applications:
        matrix = generators.make_spd(matrix)
    return matrix


# ----------------------------------------------------------------------
# ops and their outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one op's check found, plus the simulated numbers it made."""

    ok: bool = True
    failure: str = ""
    #: Modelled cycles (and energy) that count towards ``device_cycles``
    #: (and ``device_energy_uj``); zero for ops outside that sum.
    cycles: int = 0
    energy_pj: float = 0.0
    #: Attribution category lane-cycles, ``Attribution.device_cycles()``.
    device: Dict[str, int] = field(default_factory=dict)
    #: Per-op inputs of the workload's paper comparison.
    paper: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One timed op; ``check`` raises when an output is wrong."""

    label: str
    work: int
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


class CheckFailed(Exception):
    """An op's output failed a check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_attribution(attribution, perf, report, cycles: int) -> None:
    """Sum-to-total holds and the attribution accounts for *cycles*."""
    attribution.check()
    _require(perf.cycles == cycles and attribution.total_cycles == cycles,
             f"attributed {attribution.total_cycles} != priced {cycles}")
    _require(report.total_cycles == cycles,
             f"report total {report.total_cycles} != priced {cycles}")


def _check_residual(residual: float) -> None:
    _require(residual <= 1e-8, f"residual {residual:.2e}")


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root

    def build_inputs(self) -> None:
        """Generate inputs (and factors, or a cold cache); repeatable."""

    def factorize(self) -> None:
        """Host pre-processing outside the ops (ILDU); part of set-up."""

    def pass_ops(self, index: int) -> List[Op]:
        raise NotImplementedError

    def cache_mb(self) -> float:
        """Size of the workload's artifact cache on disk."""
        return 0.0

    def paper_errors(self, outcomes: List[Outcome]
                     ) -> Dict[str, Optional[float]]:
        """``|measured/paper - 1|`` per headline ratio (None: no model)."""
        return {"paper_err": None, "paper_err_energy": None}

    def close(self) -> None:
        """Release what set-up created on disk."""


def _fig8_errors(pairs) -> Dict[str, Optional[float]]:
    """Fig. 8 / Fig. 14 errors from per-matrix ``(AB, PB)`` pricings,
    each a ``(seconds, picojoules)`` pair."""
    pairs = list(pairs)
    time_ratio = geomean(pb[0] / ab[0] for ab, pb in pairs)
    energy_ratio = geomean(pb[1] / ab[1] for ab, pb in pairs)
    return {"paper_err": abs(time_ratio / PAPER_FIG8_PB_OVER_AB - 1.0),
            "paper_err_energy": abs(energy_ratio / PAPER_FIG14_ENERGY
                                    - 1.0)}


# ----------------------------------------------------------------------
# spmv-fig8
# ----------------------------------------------------------------------
class SpmvFig8(Workload):
    """The ``psyncpim spmv --attrib`` flow over Fig. 8's matrices."""

    name = "spmv-fig8"

    def build_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.items = []
        for name in FIG8:
            precision = "int8" if name in FIG8_INT8 else "fp64"
            matrix = seeded_matrix(name, FIG8_SCALE, self.seed)
            x = rng.random(matrix.shape[1])
            self.items.append((name, precision, matrix, x))

    def pass_ops(self, index: int) -> List[Op]:
        return [Op(f"spmv/{name}", matrix.nnz,
                   partial(self._call, name, precision, matrix, x),
                   partial(self._check, matrix, x))
                for name, precision, matrix, x in self.items]

    @staticmethod
    def _call(name, precision, matrix, x):
        pim = PSyncPIM(precision=precision)
        result = pim.spmv(matrix, x)
        # SpMV is SpMM at k = 1: price and attribute through the
        # k-general entry points, which are bitwise the SpMV ones.
        execution = as_spmm_execution(result.execution, 1)
        ab = time_spmm(execution, pim.config, mode="ab", with_energy=True)
        pb = time_spmm(execution, pim.config, mode="pb", with_energy=True)
        attribution, perf = attribute_spmm(execution, pim.config, mode="ab")
        report = build_run_report(
            attribution, perf, label=f"spmv/{name}", kind="spmv",
            matrix=name, mode="ab", channels=execution.num_channels,
            precision=precision, config=pim.config,
            alu_operations=2 * execution.total_elements)
        return result, ab, pb, attribution, perf, report

    @staticmethod
    def _check(matrix, x, out) -> Outcome:
        result, ab, pb, attribution, perf, report = out
        _require(np.allclose(result.y, matrix.matvec(x)), "y != A @ x")
        _check_attribution(attribution, perf, report, ab.cycles)
        return Outcome(
            cycles=ab.cycles, energy_pj=ab.energy.total_pj,
            device=attribution.device_cycles(),
            paper={"ab": (ab.seconds, ab.energy.total_pj),
                   "pb": (pb.seconds, pb.energy.total_pj)})

    def paper_errors(self, outcomes):
        return _fig8_errors((o.paper["ab"], o.paper["pb"])
                            for o in outcomes)


# ----------------------------------------------------------------------
# sptrsv-fig9
# ----------------------------------------------------------------------
class SptrsvFig9(Workload):
    """The ``psyncpim sptrsv --attrib`` flow over Fig. 9's ILDU factors."""

    name = "sptrsv-fig9"

    def build_inputs(self) -> None:
        self.matrices = [(name, seeded_matrix(name, FIG9_SCALE, self.seed))
                         for name in FIG9]
        self.factorize()

    def factorize(self) -> None:
        pim = PSyncPIM()
        rng = np.random.default_rng(self.seed)
        self.items = []
        for name, matrix in self.matrices:
            factors = pim.factorize(matrix)
            for factor, tri, lower in (("lower", factors.lower, True),
                                       ("upper", factors.upper, False)):
                b = rng.random(tri.shape[0])
                self.items.append((f"{name}/{factor}", tri, lower, b))

    def pass_ops(self, index: int) -> List[Op]:
        return [Op(f"sptrsv/{label}", tri.nnz,
                   partial(self._call, label, tri, lower, b),
                   partial(self._check, tri, lower, b))
                for label, tri, lower, b in self.items]

    @staticmethod
    def _call(label, tri, lower, b):
        pim = PSyncPIM()
        solve = pim.sptrsv(tri, b, lower=lower)
        timed = pim.time_sptrsv(solve, with_energy=True)
        execution = solve.execution
        attribution, perf = attribute_sptrsv(execution, pim.config)
        report = build_run_report(
            attribution, perf, label=f"sptrsv/{label}", kind="sptrsv",
            channels=execution.num_channels, config=pim.config,
            alu_operations=2 * execution.total_elements)
        return solve, timed, attribution, perf, report

    @staticmethod
    def _check(tri, lower, b, out) -> Outcome:
        solve, timed, attribution, perf, report = out
        _check_residual(float(np.abs(tri.matvec(solve.x) - b).max()))
        _check_attribution(attribution, perf, report, timed.cycles)
        # Fig. 9's GPU model takes the dependency depth of the factor.
        levels = len(level_schedule(tri, lower=lower))
        gpu = GPUModel().sptrsv_seconds(tri.shape[0], tri.nnz, levels)
        return Outcome(
            cycles=timed.cycles, energy_pj=timed.energy.total_pj,
            device=attribution.device_cycles(),
            paper={"speedup": gpu / timed.seconds})

    def paper_errors(self, outcomes):
        speedup = geomean(o.paper["speedup"] for o in outcomes)
        return {"paper_err": abs(speedup / PAPER_FIG9_SPEEDUP - 1.0),
                "paper_err_energy": None}


# ----------------------------------------------------------------------
# spmm-k4-16ch-auto
# ----------------------------------------------------------------------
class SpmmAuto(Workload):
    """``psyncpim spmm --attrib`` at k = 4 on 16 channels, auto strategy.

    Every op gets a fresh matrix instance (pass *p* uses generator seed
    ``spec.seed + seed + p * INSTANCE_STRIDE``), so the in-process tune
    memo never hits and every op tunes.
    """

    name = "spmm-k4-16ch-auto"

    def pass_ops(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for name in SPMM_MATRICES:
            matrix = seeded_matrix(name, SPMM_SCALE,
                                   self.seed + index * INSTANCE_STRIDE)
            x = rng.random((matrix.shape[1], SPMM_RHS))
            ops.append(Op(f"spmm/{name}", matrix.nnz * SPMM_RHS,
                          partial(self._call, name, matrix, x),
                          partial(self._check, matrix, x)))
        return ops

    @staticmethod
    def _call(name, matrix, x):
        pim = PSyncPIM(channels=SPMM_CHANNELS, strategy="auto")
        result = pim.spmm(matrix, x)
        timed = pim.time_spmm(result, with_energy=True)
        execution = result.execution
        attribution, perf = attribute_spmm(execution, pim.config, mode="ab")
        report = build_run_report(
            attribution, perf, label=f"spmm/{name}", kind="spmm",
            matrix=name, mode="ab", channels=execution.num_channels,
            strategy="auto", config=pim.config,
            alu_operations=2 * execution.total_elements * SPMM_RHS)
        return result, timed, attribution, perf, report

    @staticmethod
    def _check(matrix, x, out) -> Outcome:
        result, timed, attribution, perf, report = out
        for j in range(x.shape[1]):
            _require(np.allclose(result.y[:, j], matrix.matvec(x[:, j])),
                     f"column {j} != A @ x")
        _check_attribution(attribution, perf, report, timed.cycles)
        return Outcome(cycles=timed.cycles, energy_pj=timed.energy.total_pj,
                       device=attribution.device_cycles())


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
def sweep_jobs(seed: int) -> List[SweepJob]:
    """Fig. 8 AB+PB jobs and Fig. 9 jobs, energy and attribution on.

    The sweep regenerates Table IX matrices by name, so the seed reaches
    only the SpTRSV right-hand sides (``SweepJob.seed``).
    """
    jobs = []
    for name in FIG8:
        precision = "int8" if name in FIG8_INT8 else "fp64"
        for mode in ("ab", "pb"):
            jobs.append(SweepJob(kernel="spmv", matrix=name,
                                 scale=FIG8_SCALE, precision=precision,
                                 mode=mode, with_energy=True, attrib=True))
    for name in FIG9:
        for lower in (True, False):
            jobs.append(SweepJob(kernel="sptrsv", matrix=name,
                                 scale=FIG9_SCALE, lower=lower, seed=seed,
                                 with_energy=True, attrib=True))
    return jobs


class SweepWarm(Workload):
    """``run_sweep(workers=1)`` job by job against a cache filled in set-up.

    The cache lives in a private directory inside the checkout, fresh for
    every fill and deleted by :meth:`close`, so a previous run can never
    turn the cold fill warm.
    """

    name = "sweep-warm"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.base = root / ".perfbench-cache" / f"sweep-{os.getpid()}"
        self.fills = 0
        self.cache_dir: Optional[Path] = None

    def build_inputs(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.fills += 1
        self.cache_dir = self.base / f"fill-{self.fills}"
        self.jobs = sweep_jobs(self.seed)
        cold = run_sweep(self.jobs, workers=1, cache_dir=self.cache_dir)
        cold.raise_failures()
        self.cold = {rec.label: rec for rec in cold.records}

    def cache_mb(self) -> float:
        return sum(p.stat().st_size for p in self.cache_dir.rglob("*")
                   if p.is_file()) / 1e6

    def pass_ops(self, index: int) -> List[Op]:
        ops = []
        for job in self.jobs:
            cold = self.cold[job.resolved_label()]
            ops.append(Op(f"sweep/{cold.label}", int(cold.extras["nnz"]),
                          partial(self._call, job),
                          partial(self._check, cold)))
        return ops

    def _call(self, job):
        return run_sweep([job], workers=1, cache_dir=self.cache_dir)

    @staticmethod
    def _check(cold, out) -> Outcome:
        (record,) = out.records
        _require(not record.failed, record.error)
        _require(record.cache_misses == 0,
                 f"{record.cache_misses} warm misses")
        report, attrib = record.report, record.attrib
        attrib.check()
        _require(report.cycles == cold.report.cycles
                 and attrib.total_cycles == report.cycles,
                 "warm cycles != cold cycles")
        _check_residual(record.extras.get("residual", 0.0))
        paper = {"priced": (report.seconds, attrib.energy_pj)}
        if record.job.mode == "pb":  # priced only for the Fig. 8/14 ratios
            return Outcome(paper=paper)
        return Outcome(cycles=report.cycles,
                       energy_pj=attrib.energy_pj,
                       device=attrib.device_cycles(), paper=paper)

    def paper_errors(self, outcomes):
        # Outcomes arrive in job order: each Fig. 8 matrix as (ab, pb).
        fig8 = [o.paper["priced"] for o in outcomes[:2 * len(FIG8)]]
        return _fig8_errors(zip(fig8[0::2], fig8[1::2]))

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()
        except OSError:  # another run's cache is still there
            pass


WORKLOADS = {cls.name: cls for cls in (SpmvFig8, SptrsvFig9, SpmmAuto,
                                       SweepWarm)}

__all__ = ["WORKLOADS", "Workload", "Op", "Outcome", "seeded_matrix",
           "sweep_jobs", "CATEGORIES"]
