"""Conformance and fuzzing subsystem: the repo's independent oracles.

Three pillars, each checking the model from outside the code paths that
produce results (DESIGN.md, "Three-oracle verification"):

* :mod:`repro.check.protocol` — an independent JEDEC protocol checker
  replaying timed command streams against the HBM2 rules, re-derived
  from :class:`~repro.dram.TimingParams` alone;
* :mod:`repro.check.fuzz` — a seeded ISA program fuzzer running random
  well-formed kernels through the lane engine and the independent
  per-bank reference interpreter (:mod:`repro.check.reference`),
  asserting bitwise-equal architectural state and beat counts;
* :mod:`repro.check.golden` — golden-trace regression snapshots of
  canonical workloads (full command traces, cycle counts, energy),
  compared exactly in CI.

:mod:`repro.check.oracles` holds the scalar planning oracles and the
hooks tests use to swap them, and the reference engine, into the
production path; it is not imported here.
"""

from .fuzz import (FuzzCase, build_case, fuzz_range, generate_case,
                   generate_spmm_case, run_case, shrink_case)
from .golden import (build_record, compare_golden, default_golden_dir,
                     golden_traces, update_golden)
from .protocol import (ProtocolChecker, Violation, check_timed,
                       check_trace, summarize)
from .reference import ReferenceEngine

__all__ = [
    "FuzzCase",
    "ProtocolChecker",
    "ReferenceEngine",
    "Violation",
    "build_case",
    "build_record",
    "check_timed",
    "check_trace",
    "compare_golden",
    "default_golden_dir",
    "fuzz_range",
    "generate_case",
    "generate_spmm_case",
    "golden_traces",
    "run_case",
    "shrink_case",
    "summarize",
    "update_golden",
]
