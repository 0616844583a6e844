"""Batched execution tier: N same-program jobs as jobs x banks lanes.

:class:`BatchEngine` extends the jobs dimension of the lane engine. Where
:class:`~repro.pim.lane_engine.LaneEngine` stacks the banks of *one* job
as numpy lanes, the batch engine stacks ``num_jobs`` whole jobs — every
piece of architectural state (scalar registers, dense registers, circular
sparse queues, stream cursors, predication/exit/exhaustion masks) gains a
leading jobs axis, flattened job-major into ``num_jobs * num_banks``
lanes, and each broadcast beat executes every job in the same handful of
masked array passes.

Why stacking jobs is sound: lanes never interact. Every lane-engine
handler reads and writes per-lane state under per-lane masks; the only
shared state is the program counter and the JUMP loop counters, and the
PC walk is *data independent* — JUMP counts are immediates, CEXIT removes
lanes from the active cohort but the surviving cohort's ``pc`` advances
identically, and an exited lane only accumulates NOP beats, never
architectural state. Two jobs running the same program and beat stream
therefore walk the same PC sequence they would have walked alone, and the
final registers, queues, bank memory and exit state of each job are
bitwise-identical to a per-job :class:`LaneEngine` run. The differential
suite (``tests/test_pim_batch_engine.py``) verifies exactly that, against
both the per-job lane engine and the scalar oracle.

What is *not* preserved: beat accounting. A batch keeps consuming beats
until the slowest job exits, so a fast job's NOP/beat counters include
trailing broadcasts its solo run never saw. Stats are diagnostics, not
architectural state, and are deliberately excluded from the bitwise
contract.

The scalar :class:`~repro.pim.engine.AllBankEngine` remains the sole
semantics oracle; the batch tier is selected with ``PSYNCPIM_BATCH``
(see :func:`repro.config.resolve_batch`) and is always checked against
the per-job path it accelerates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..config import ProcessingUnitConfig
from ..errors import ExecutionError
from .. import obs
from .lane_engine import LaneBankView, LaneEngine, LaneUnitView


class BatchEngine(LaneEngine):
    """Lock-step broadcast execution over ``num_jobs * num_banks`` lanes.

    Lane ``job * num_banks + bank`` holds bank *bank* of job *job*; the
    ``*_jobs`` views expose the same arrays with an explicit leading jobs
    axis. All jobs must share one program and one beat stream (same
    template); their input data is free to differ per job and per bank.
    """

    def __init__(self, num_jobs: int, num_banks: int,
                 config: ProcessingUnitConfig = ProcessingUnitConfig(),
                 precision: str = "fp64",
                 check_lockstep: bool = True) -> None:
        if num_jobs <= 0:
            raise ExecutionError("need at least one job")
        super().__init__(num_jobs * num_banks, config=config,
                         precision=precision,
                         check_lockstep=check_lockstep)
        self.num_jobs = num_jobs
        self.num_banks = num_banks

    # ------------------------------------------------------------------
    # jobs-axis views of the flat lane state
    # ------------------------------------------------------------------
    def _jobs_axis(self, array: np.ndarray) -> np.ndarray:
        """Reshape a lanes-leading array to (jobs, banks, ...)."""
        return array.reshape((self.num_jobs, self.num_banks)
                             + array.shape[1:])

    @property
    def scalar_jobs(self) -> np.ndarray:
        """SRF values as a (jobs, banks) view."""
        return self._jobs_axis(self.scalar)

    @property
    def dense_jobs(self) -> np.ndarray:
        """Dense registers as a (registers, jobs, banks, lanes) view."""
        r, _, lanes = self.dense.shape
        return self.dense.reshape(r, self.num_jobs, self.num_banks, lanes)

    @property
    def exited_jobs(self) -> np.ndarray:
        """Exit flags as a (jobs, banks) view."""
        return self._jobs_axis(self.exited)

    @property
    def exhausted_mask_jobs(self) -> np.ndarray:
        """Exhaustion bitmasks as a (jobs, banks) view."""
        return self._jobs_axis(self.exhausted_mask)

    @property
    def load_targets_mask_jobs(self) -> np.ndarray:
        """Load-target bitmasks as a (jobs, banks) view."""
        return self._jobs_axis(self.load_targets_mask)

    @property
    def job_exited(self) -> np.ndarray:
        """Per-job completion: True once every bank of the job exited."""
        return self.exited_jobs.all(axis=1)

    def lane(self, job: int, bank: int) -> int:
        """Flat lane index of (*job*, *bank*)."""
        self._check_job(job)
        if not 0 <= bank < self.num_banks:
            raise ExecutionError(
                f"bank {bank} out of range (have {self.num_banks})")
        return job * self.num_banks + bank

    def _check_job(self, job: int) -> None:
        if not 0 <= job < self.num_jobs:
            raise ExecutionError(
                f"job {job} out of range (have {self.num_jobs})")

    # ------------------------------------------------------------------
    # per-job views (the per-job LaneEngine interface subset)
    # ------------------------------------------------------------------
    def job_units(self, job: int) -> List[LaneUnitView]:
        """The job's banks through the ProcessingUnit view interface."""
        self._check_job(job)
        base = job * self.num_banks
        return self.units[base:base + self.num_banks]

    def job_banks(self, job: int) -> List[LaneBankView]:
        """The job's bank memories (snapshot read interface)."""
        self._check_job(job)
        base = job * self.num_banks
        return self.banks[base:base + self.num_banks]

    # ------------------------------------------------------------------
    # host-side (SB mode) per-job data access
    # ------------------------------------------------------------------
    def host_write_dense_jobs(self, name: str,
                              per_job: Sequence[Sequence]) -> None:
        """Write one dense region from ``per_job[job][bank]`` arrays."""
        self.memory.add_dense(name, self._flatten(per_job, "array"))

    def host_write_triples_jobs(self, name: str,
                                per_job: Sequence[Sequence]) -> None:
        """Write one COO region from ``per_job[job][bank]`` triples."""
        self.memory.add_triples(name, self._flatten(per_job, "triple"))

    def host_read_dense_jobs(self, name: str) -> List[List[np.ndarray]]:
        """Read a dense region back as ``[job][bank]`` arrays."""
        flat = self.host_read_dense(name)
        return [flat[j * self.num_banks:(j + 1) * self.num_banks]
                for j in range(self.num_jobs)]

    def _flatten(self, per_job: Sequence[Sequence], what: str) -> List:
        self._require_sb("host writes")
        if len(per_job) != self.num_jobs:
            raise ExecutionError(
                f"need one {what} list per job "
                f"(got {len(per_job)}, have {self.num_jobs} jobs)")
        flat: List = []
        for job, per_bank in enumerate(per_job):
            if len(per_bank) != self.num_banks:
                raise ExecutionError(
                    f"job {job}: need one {what} per bank "
                    f"(got {len(per_bank)}, have {self.num_banks} banks)")
            flat.extend(per_bank)
        return flat

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _obs_emit(self, mark) -> None:
        """Per-bank counters from the lane tier plus batch-level ones."""
        super()._obs_emit(mark)
        obs.add_counter("batch.jobs", self.num_jobs)
        obs.add_counter("batch.jobs_exited", int(self.job_exited.sum()))
        obs.add_counter("batch.lanes", self.num_lanes)


def make_batch_engine(num_jobs: int, num_banks: int,
                      config: ProcessingUnitConfig = ProcessingUnitConfig(),
                      precision: str = "fp64",
                      check_lockstep: bool = True) -> BatchEngine:
    """Build a jobs x banks batch engine.

    There is only one batched implementation; the factory keeps batch
    construction a single call site.
    """
    return BatchEngine(num_jobs, num_banks, config=config,
                       precision=precision, check_lockstep=check_lockstep)
