"""Pricing synthesised traces under the DRAM timing and energy models.

This is the glue between execution records (what a kernel did), trace
synthesis (the command stream it implies on one channel) and the
:mod:`repro.dram` scheduler (how many cycles/joules that stream costs).

:func:`price` is the one synthesise-and-price pass of a record; the
``time_*`` pricers and ``repro.obs.attrib.attribute_*`` are views over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..dram import (HOST_TAGS, CommandType, EnergyReport, MemoryController,
                    TimingParams, TraceEntry)
from .. import obs
from .spmv import SpmvExecution
from .sptrsv import SpTrsvExecution
from .trace import TraceParams, dense_stream_trace, synthesize


@dataclass
class PerfReport:
    """Cycles, commands and energy of one kernel on one channel."""

    cycles: int
    seconds: float
    commands: int
    row_commands: int
    column_commands: int
    counts: Dict[CommandType, int]
    tag_cycles: Dict[str, int]
    energy: Optional[EnergyReport] = None

    @property
    def host_cycles(self) -> int:
        """Cycles attributed to external staging/merging traffic."""
        return sum(cycles for tag, cycles in self.tag_cycles.items()
                   if tag in HOST_TAGS)

    @property
    def kernel_cycles(self) -> int:
        return self.cycles - self.host_cycles


def price_trace(trace: List[TraceEntry], config: SystemConfig,
                timing: TimingParams = TimingParams(),
                with_energy: bool = False, alu_operations: int = 0,
                precision: str = "fp64",
                enable_refresh: bool = True,
                channels: Optional[int] = None,
                collector=None) -> PerfReport:
    """Schedule *trace* under the platform's full channel hierarchy.

    ``channels=None`` is the representative-channel model: the trace
    covers one channel and energy is scaled by the platform channel count.
    ``channels=C`` marks a channel-sharded trace whose commands already
    carry explicit channel ids — the scheduler clocks each channel
    independently (total cycles = max over channels) and command energy is
    already per-channel-exact, so only the cube count multiplies it.

    ``collector`` is handed to :meth:`MemoryController.run` so cycle
    attribution (:mod:`repro.obs.attrib`) can observe the one scheduling
    pass; pricing itself is unaffected.
    """
    controller = MemoryController(
        timing=timing, num_channels=config.memory.num_pseudo_channels,
        banks_per_channel=config.memory.banks_per_channel,
        enable_refresh=enable_refresh)
    with obs.span("price_trace", cat="dram", entries=len(trace)):
        result = controller.run(trace, with_energy=with_energy,
                                host_tags=HOST_TAGS,
                                collector=collector)
    if with_energy and result.energy is not None:
        # Representative model: the trace covers one channel and every
        # channel of the cube runs the same schedule, so command and
        # background energy scale by the channel count. Sharded model:
        # the trace already spans all modelled channels, so only the cube
        # count multiplies. ALU work is charged once for the whole system
        # (it is already a global operation count).
        if channels is None:
            scale = config.memory.num_pseudo_channels * config.num_cubes
        else:
            scale = config.num_cubes
        e = result.energy
        e.activation_pj *= scale
        e.read_pj *= scale
        e.write_pj *= scale
        e.external_pj *= scale
        e.refresh_pj *= scale
        e.background_pj *= scale
        if alu_operations:
            from ..dram import EnergyModel
            EnergyModel(timing=timing).add_alu(e, alu_operations,
                                               precision)
        if obs.enabled():
            for name, pj in e.as_dict().items():
                if pj:
                    obs.add_counter(f"energy.{name}", pj)
            obs.add_counter("energy.total_pj", e.total_pj)
    return PerfReport(cycles=result.total_cycles,
                      seconds=result.seconds(timing),
                      commands=result.command_total,
                      row_commands=result.row_commands,
                      column_commands=result.column_commands,
                      counts=result.counts,
                      tag_cycles=result.tag_cycles,
                      energy=result.energy)


def alu_operations(execution) -> int:
    """ALU work of one execution record: one multiply + one accumulate
    per element, on every bank it touches, per right-hand side."""
    return 2 * execution.total_elements * execution.num_rhs


def price(execution, config: SystemConfig, mode: str = "ab",
          params: TraceParams = TraceParams(), with_energy: bool = False,
          attrib: bool = False
          ) -> Tuple[PerfReport, Optional[obs.Attribution]]:
    """Synthesise and price one execution record in a single pass.

    Returns ``(PerfReport, Attribution or None)``; the report is bitwise
    the same either way (the attribution collector only observes).
    """
    seg = synthesize(execution, config, mode=mode, params=params)
    return price_segmented(seg, execution, config, mode=mode,
                           with_energy=with_energy, attrib=attrib)


def price_segmented(seg, execution, config: SystemConfig,
                    mode: str = "ab", with_energy: bool = False,
                    attrib: bool = False
                    ) -> Tuple[PerfReport, Optional[obs.Attribution]]:
    """:func:`price` for a trace already synthesised from *execution*.

    The record's type picks the padding split's useful loads, as it picks
    the kernel in ``synthesize``. The primitives are called through their
    module globals, so wrapping one (tracing, profiling) wraps this pass.
    """
    kwargs = dict(with_energy=with_energy,
                  alu_operations=alu_operations(execution),
                  precision=execution.precision,
                  channels=execution.num_channels)
    if not attrib:
        return price_trace(seg.trace, config, **kwargs), None
    attrib_mod = obs.attrib
    if isinstance(execution, SpTrsvExecution):
        loads = attrib_mod.sptrsv_useful_loads(execution)
    else:
        loads = attrib_mod.spmv_useful_loads(execution, mode)
    attribution, perf = attrib_mod.attribute_trace(
        seg.trace, config, segments=seg.segments, useful_loads=loads,
        **kwargs)
    return perf, attribution


def time_spmm(execution: SpmvExecution, config: SystemConfig,
              mode: str = "ab", params: TraceParams = TraceParams(),
              with_energy: bool = False) -> PerfReport:
    """Price one SpMV/SpMM in all-bank (``"ab"``) or per-bank (``"pb"``)
    mode.

    The right-hand-side width is the record's ``num_rhs`` (``1`` for an
    SpMV).
    """
    return price(execution, config, mode=mode, params=params,
                 with_energy=with_energy)[0]


#: SpMV is SpMM at ``k = 1``: one pricing view serves both names.
time_spmv = time_spmm


def time_sptrsv(execution: SpTrsvExecution, config: SystemConfig,
                params: TraceParams = TraceParams(),
                with_energy: bool = False) -> PerfReport:
    """Price one triangular solve (leaf levels + recursive updates)."""
    return price(execution, config, params=params,
                 with_energy=with_energy)[0]


def time_dense_kernel(elements: int, reads_per_group: int,
                      writes_per_group: int, config: SystemConfig,
                      precision: str = "fp64", mode: str = "ab",
                      ops_per_element: int = 1,
                      with_energy: bool = False,
                      params: TraceParams = TraceParams()) -> PerfReport:
    """Price a dense streaming kernel over *elements* total elements.

    The vector is spread over all banks; the representative channel streams
    ``elements / (16 * cubes)`` per bank-group in AB mode, or drives each
    of its 16 banks separately in PB mode.
    """
    per_bank = -(-elements // config.total_units)
    trace = dense_stream_trace(per_bank, reads_per_group, writes_per_group,
                               precision, all_bank=(mode == "ab"),
                               params=params)
    return price_trace(trace, config, with_energy=with_energy,
                       alu_operations=ops_per_element * elements,
                       precision=precision)
