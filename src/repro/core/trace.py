"""Command-trace synthesis: execution records -> DRAM command streams.

The functional tier establishes *what* a kernel does; this module expands
its execution record into the memory-command stream one *representative
pseudo-channel* sees, which the :mod:`repro.dram` scheduler then prices
under full JEDEC timing. One channel suffices because pSyncPIM drives all
channels with symmetric broadcast streams — total time is the max over
channels and the workload is laid out channel-symmetrically; host staging
traffic is divided by the channel count for the same reason.

Layout conventions (documented, not load-bearing for functional results):
matrix streams occupy rows from 0 upward, the staged input segment lives in
one reserved row, the output tile in another, and kernel programs in a
third — matching §V's rule that vector tiles may not span memory rows.

The locality parameters of :class:`TraceParams` encode how many 32 B column
accesses a batch of gathers/scatters costs: tiles are stored column-sorted
(the Fig. 7 order), so consecutive gathers hit neighbouring words of the
open input row, while scatter read-modify-writes cluster by output window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Union

import numpy as np

from ..config import SystemConfig, element_size
from ..dram import (BankSweep, Command, CommandType, RowVisit, Stretch,
                    TraceEntry)
from ..errors import ExecutionError, MappingError
from .spmv import SpmvExecution, element_bytes
from .sptrsv import SpTrsvExecution

#: Reserved rows of the per-bank layout used by the synthesised traces.
PROGRAM_ROW = 16000
INPUT_ROW = 16100
OUTPUT_ROW = 16200

#: One 32 B data beat per column command.
BEAT_BYTES = 32


@dataclass(frozen=True)
class TraceParams:
    """Cost knobs of the synthesised schedules (calibration constants)."""

    #: Consecutive gathers served per 32 B read of the open input row.
    #: Tiles are row-sorted and compression packs each tile's live columns
    #: densely (Fig. 6), so neighbouring gathers usually share words of the
    #: open row.
    gather_locality: float = 4.0
    #: Queue batches processed per row-switch phase. The three 192 B SpVQs
    #: triple-buffer element loads, and the PU keeps streaming a matrix row
    #: while earlier batches gather/accumulate, so one row visit feeds
    #: several queue batches before the input row must be re-opened.
    queue_phases: int = 6
    #: Instructions written when programming a kernel (<=32).
    program_instructions: int = 12
    #: PB mode drives one bank at a time with single-bank commands.
    per_bank_banks: int = 16
    #: Bytes per SpVQ sub-queue (64 B in Table VIII); the hardware-sizing
    #: ablation sweeps this to trade queue SRAM area against row-switch
    #: amortisation.
    subqueue_bytes: int = 64


def _beats(nbytes: float) -> int:
    """Column commands needed to move *nbytes*."""
    return max(1, math.ceil(nbytes / BEAT_BYTES)) if nbytes > 0 else 0


class _RowVisits:
    """Emits one stream's row visits onto *trace*.

    Columns on the row already open extend its visit; a column on
    another row closes the visit (its ``PRE``) and opens the next one.
    """

    def __init__(self, trace: List[TraceEntry], all_bank: bool,
                 bank: int = 0, channel: int = 0) -> None:
        self._trace = trace
        self._all_bank = all_bank
        self._bank = bank
        self._channel = channel
        self._row: Optional[int] = None
        self._stretches: List[Stretch] = []
        if all_bank:
            self._kinds = (CommandType.RD_AB, CommandType.WR_AB)
        else:
            self._kinds = (CommandType.RD, CommandType.WR)

    def open_row(self, row: int) -> None:
        if self._row != row:
            self.close()
            self._row = row

    def columns(self, row: int, write: bool, beats: int, col: int = 0,
                tag: Optional[str] = None) -> None:
        """*beats* column commands on *row*, carrying their first beat's
        column (the scheduler never reads ``col``)."""
        self.open_row(row)
        if beats > 0:
            self._stretches.append((self._kinds[write], beats, col % 64,
                                    tag))

    def close(self) -> None:
        if self._row is not None:
            self._trace.append(RowVisit(self._all_bank, self._channel,
                                        self._bank, self._row,
                                        tuple(self._stretches)))
            self._row = None
            self._stretches = []


@functools.lru_cache(maxsize=4096)
def _column(write: bool, row: int, col: int = 0, bank: int = 0,
            tag: Optional[str] = None, channel: int = 0) -> Command:
    """A single-bank column command; commands are immutable, so equal
    ones are shared."""
    return Command(CommandType.WR if write else CommandType.RD,
                   bank=bank, row=row, col=col % 64, tag=tag,
                   channel=channel)


# ----------------------------------------------------------------------
# timeline segments
# ----------------------------------------------------------------------
class TraceSegment(NamedTuple):
    """Half-open entry-index range ``[start, end)`` of one timeline phase.

    Labels are dotted ``<group>.<phase>`` pairs — ``r3.kernel`` (SpMV round
    3's AB-PIM phase; ``r3.b1.kernel`` is an SpMM's second rhs-block of
    it), ``L7.broadcast`` (SpTRSV level 7's solved-value
    broadcast), ``U1.r0.stage`` (an update SpMV's staging) — so consumers
    can aggregate per group (critical path over rounds/levels) or per
    phase suffix (stage/seam/kernel/merge timeline decomposition).
    """

    label: str
    channel: int
    start: int
    end: int


class SegmentedTrace(NamedTuple):
    """A command trace plus the labelled phase segments that tile it.

    Segments cover every entry exactly once and appear in trace order, so
    replaying the trace while sampling the per-channel clock at segment
    boundaries reconstructs the full phase timeline (``repro.obs.attrib``
    does exactly this).
    """

    trace: List[TraceEntry]
    segments: List[TraceSegment]


class _SegmentBuilder:
    """Accumulates trace entries under labelled, index-aligned segments."""

    def __init__(self) -> None:
        self.trace: List[TraceEntry] = []
        self.segments: List[TraceSegment] = []

    def add(self, label: str, channel: int,
            entries: List[TraceEntry]) -> None:
        start = len(self.trace)
        self.trace.extend(entries)
        if len(self.trace) > start:
            self.segments.append(
                TraceSegment(label, channel, start, len(self.trace)))

    def splice(self, sub: SegmentedTrace) -> None:
        """Append another segmented trace, re-basing its entry indices."""
        base = len(self.trace)
        self.trace.extend(sub.trace)
        self.segments.extend(
            TraceSegment(s.label, s.channel, s.start + base, s.end + base)
            for s in sub.segments)

    def done(self) -> SegmentedTrace:
        return SegmentedTrace(self.trace, self.segments)


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _mode(channel: int) -> Command:
    return Command(CommandType.MODE, channel=channel)


def mode_switch(channel: int = 0) -> List[Command]:
    return [_mode(channel)]


def program_load(params: TraceParams, channel: int = 0) -> List[TraceEntry]:
    """AB-mode write of the kernel into the control registers."""
    trace: List[TraceEntry] = []
    visits = _RowVisits(trace, True, channel=channel)
    visits.columns(PROGRAM_ROW, True, _beats(params.program_instructions * 4),
                   tag="program")
    visits.close()
    return trace


def host_stage(bytes_per_bank: float, write: bool, row: int,
               tag: str, channel: int = 0,
               banks: int = 16) -> List[TraceEntry]:
    """SB-mode host traffic: stage/collect one region on a channel's banks.

    One :class:`~repro.dram.BankSweep`: per bank an ``ACT``, the column
    beats and a ``PRE``.
    """
    beats = _beats(bytes_per_bank)
    if beats == 0:
        return []
    return [BankSweep(_column(write, row, tag=tag, channel=channel),
                      beats, banks)]


def _kernel_batches(batches: int, batch_elems: int, eb: float,
                    params: TraceParams, all_bank: bool,
                    bank: int = 0, y_bytes: int = 1024,
                    channel: int = 0, rhs: int = 1) -> List[TraceEntry]:
    """The AB-PIM (or PB) phase schedule for one tile stream.

    Per queue batch: stream the COO elements from the matrix rows, then
    gather x[col] values from the (re-opened) input row. Output follows
    Algorithm 2's accumulate-into-DRF0-then-write scheme: elements are
    row-sorted, so the 32 B output window advances monotonically and is
    flushed (read-modify-write on the output row) only when it moves —
    amortising output row visits over many batches.

    *rhs* widens each gather to an rhs-block of dense columns (SpMM):
    the matrix stream is paid once per block while every element gathers
    ``rhs`` input values; callers pass ``y_bytes`` pre-scaled by the
    block width. ``rhs=1`` is bitwise the SpMV schedule.
    """
    trace: List[TraceEntry] = []
    visits = _RowVisits(trace, all_bank, bank=bank, channel=channel)
    mat_bytes_done = 0
    gather_beats = max(1, round(batch_elems / params.gather_locality)) * rhs
    y_beats_total = _beats(y_bytes)
    flush_debt = 0.0
    flush_per_batch = y_beats_total / max(batches, 1)
    flushed = 0
    for _ in range(batches):
        # phase 1: stream the COO batch from the matrix rows, one visit
        # per 1024 B matrix row
        beats_left = _beats(batch_elems * eb)
        while beats_left:
            mat_row = mat_bytes_done // 1024
            room = (1024 - mat_bytes_done % 1024) // BEAT_BYTES
            n = min(beats_left, room)
            visits.columns(mat_row, False, n,
                           col=(mat_bytes_done % 1024) // BEAT_BYTES,
                           tag="matrix")
            mat_bytes_done += n * BEAT_BYTES
            beats_left -= n
        # phase 2: gather x[col] from the open input row
        visits.columns(INPUT_ROW, False, gather_beats, tag="gather")
        # phase 3: flush output windows that advanced past this batch
        flush_debt += flush_per_batch
        if flush_debt >= 1.0:
            visits.open_row(OUTPUT_ROW)
            while flush_debt >= 1.0 and flushed < y_beats_total:
                visits.columns(OUTPUT_ROW, False, 1, flushed, tag="scatter")
                visits.columns(OUTPUT_ROW, True, 1, flushed, tag="scatter")
                flush_debt -= 1.0
                flushed += 1
    # final window flush
    while flushed < y_beats_total:
        visits.columns(OUTPUT_ROW, False, 1, flushed, tag="scatter")
        visits.columns(OUTPUT_ROW, True, 1, flushed, tag="scatter")
        flushed += 1
    visits.close()
    return trace


# ----------------------------------------------------------------------
# SpMM traces: one resident plan, k right-hand sides in rhs-blocks
# ----------------------------------------------------------------------
def rhs_block_width(precision: str) -> int:
    """Dense columns one 32 B output window serves per output word.

    The accumulate-into-DRF0 window holds one output word per block
    column, so an rhs-block is at most ``BEAT_BYTES / value_bytes``
    columns wide (4 for fp64, 8 for fp32); wider workloads re-stream the
    matrix once per block.
    """
    return max(1, BEAT_BYTES // element_size(precision))


def _rhs_blocks(num_rhs: int, precision: str) -> List[int]:
    """Split *num_rhs* columns into per-block widths."""
    block = rhs_block_width(precision)
    return [min(block, num_rhs - at)
            for at in range(0, num_rhs, block)]


def _kernel_label(prefix: str, r: int, j: int, num_rhs: int) -> str:
    """``r<N>.b<J>.kernel`` per rhs-block; plain ``r<N>.kernel`` at k=1."""
    return (f"{prefix}r{r}.b{j}.kernel" if num_rhs > 1
            else f"{prefix}r{r}.kernel")


def spmm_ab_segments(execution: SpmvExecution, config: SystemConfig,
                     params: TraceParams = TraceParams(),
                     channel: int = 0,
                     banks: Optional[int] = None,
                     prefix: str = "") -> SegmentedTrace:
    """All-bank SpMV/SpMM schedule with per-round, per-rhs-block segments.

    Per round: ``r<N>.stage`` (SB host staging of all ``k`` input
    columns), ``r<N>.seam`` (mode switches + kernel programming, paid
    ONCE per round — the amortised cost), one ``r<N>.b<J>.kernel``
    AB-PIM segment per rhs-block streaming the resident matrix against
    that block's columns, and ``r<N>.merge`` (the exit switch + host
    merge of all ``k`` output columns). A plain SpMV execution record is
    ``k = 1``: one block, labelled ``r<N>.kernel``. *channel* stamps
    every command (channel-sharded executions concatenate per-channel
    streams); *banks* (the channel width the host staging fans over)
    defaults to the record's ``banks_per_channel``; *prefix* namespaces
    the labels when the SpMV is embedded in a larger schedule (SpTRSV
    updates).
    """
    num_rhs = execution.num_rhs
    banks = banks if banks is not None else execution.banks_per_channel
    vb = element_size(execution.precision)
    eb = execution.stream_bytes_per_element
    rf_batch = _queue_batch(execution.precision, params.subqueue_bytes)
    blocks = _rhs_blocks(num_rhs, execution.precision)
    out = _SegmentBuilder()
    for r, round_elems in enumerate(execution.round_batches):
        # host stages every column of this round's input segments
        out.add(f"{prefix}r{r}.stage", channel,
                host_stage(execution.round_x_lengths[r] * vb * num_rhs,
                           write=True, row=INPUT_ROW, tag="stage_x",
                           channel=channel, banks=banks))
        # SB -> AB: program once; the block loop re-enters AB-PIM freely
        out.add(f"{prefix}r{r}.seam", channel,
                mode_switch(channel) + program_load(params, channel=channel)
                + mode_switch(channel))
        phase = rf_batch * params.queue_phases
        batches = max(1, math.ceil(round_elems / phase))
        for j, width in enumerate(blocks):
            out.add(_kernel_label(prefix, r, j, num_rhs), channel,
                    _kernel_batches(
                        batches, phase, eb, params, all_bank=True,
                        y_bytes=execution.round_y_lengths[r] * vb * width,
                        channel=channel, rhs=width))
        # AB-PIM -> SB, then the host merges every output column
        out.add(f"{prefix}r{r}.merge", channel,
                mode_switch(channel)
                + host_stage(execution.round_y_lengths[r] * vb * num_rhs,
                             write=False, row=OUTPUT_ROW, tag="merge_y",
                             channel=channel, banks=banks))
    return out.done()


def spmm_ab_trace(execution: SpmvExecution, config: SystemConfig,
                  params: TraceParams = TraceParams(),
                  channel: int = 0,
                  banks: Optional[int] = None) -> List[TraceEntry]:
    """All-bank pSyncPIM schedule of one SpMV/SpMM on one channel."""
    return spmm_ab_segments(execution, config, params, channel=channel,
                            banks=banks).trace


def spmm_pb_segments(execution: SpmvExecution, config: SystemConfig,
                     params: TraceParams = TraceParams(),
                     channel: int = 0,
                     banks: Optional[int] = None,
                     prefix: str = "") -> SegmentedTrace:
    """Per-bank SpMV/SpMM schedule with per-round, per-rhs-block segments.

    The host drives each bank's kernel separately: every kernel segment
    replays each bank's single-bank arm (its mode switch + stream)
    against one rhs-block, each bank streaming only its own elements (no
    lock-step padding — PB's one advantage). Stage/merge traffic and
    labels match AB mode so the two modes diff phase-by-phase.
    """
    num_rhs = execution.num_rhs
    banks = banks if banks is not None else execution.banks_per_channel
    vb = element_size(execution.precision)
    eb = execution.stream_bytes_per_element
    rf_batch = _queue_batch(execution.precision, params.subqueue_bytes)
    per_bank = _representative_channel_loads(execution, banks)
    rounds = max(1, execution.num_rounds)
    blocks = _rhs_blocks(num_rhs, execution.precision)
    out = _SegmentBuilder()
    for r in range(rounds):
        out.add(f"{prefix}r{r}.stage", channel,
                host_stage(execution.round_x_lengths[r] * vb * num_rhs,
                           write=True, row=INPUT_ROW, tag="stage_x",
                           channel=channel, banks=banks))
        for j, width in enumerate(blocks):
            arms: List[TraceEntry] = []
            for bank, elements in enumerate(per_bank):
                share = elements / rounds
                if share <= 0:
                    continue
                arms += mode_switch(channel)  # per-bank kernel arm
                phase = rf_batch * params.queue_phases
                batches = max(1, math.ceil(share / phase))
                arms += _kernel_batches(
                    batches, phase, eb, params, all_bank=False, bank=bank,
                    y_bytes=execution.round_y_lengths[r] * vb * width,
                    channel=channel, rhs=width)
            out.add(_kernel_label(prefix, r, j, num_rhs), channel, arms)
        out.add(f"{prefix}r{r}.merge", channel,
                mode_switch(channel)
                + host_stage(execution.round_y_lengths[r] * vb * num_rhs,
                             write=False, row=OUTPUT_ROW, tag="merge_y",
                             channel=channel, banks=banks))
    return out.done()


def spmm_pb_trace(execution: SpmvExecution, config: SystemConfig,
                  params: TraceParams = TraceParams(),
                  channel: int = 0,
                  banks: Optional[int] = None) -> List[TraceEntry]:
    """Per-bank SpMV/SpMM schedule (each bank streams each rhs-block)."""
    return spmm_pb_segments(execution, config, params, channel=channel,
                            banks=banks).trace


def spmm_channels_segments(execution: SpmvExecution, config: SystemConfig,
                           params: TraceParams = TraceParams(),
                           mode: str = "ab") -> SegmentedTrace:
    """Concatenated per-channel streams of a channel-sharded SpMV/SpMM.

    Each shard's sub-execution is synthesised with its channel id stamped
    on every command; the scheduler routes them to independent per-channel
    clocks, so total time is the max over channels, not the sum. Shards
    with no elements emit nothing (an idle channel issues no commands).
    """
    if not execution.channel_execs:
        raise MappingError(
            "spmm_channels_trace needs a channel-sharded execution "
            "(plan_spmv/plan_spmm(..., channels=C))")
    synth = spmm_ab_segments if mode == "ab" else spmm_pb_segments
    out = _SegmentBuilder()
    for ch, sub in enumerate(execution.channel_execs):
        if sub.total_elements == 0:
            continue
        out.splice(synth(sub, config, params, channel=ch,
                         banks=execution.banks_per_channel))
    return out.done()


def spmm_channels_trace(execution: SpmvExecution, config: SystemConfig,
                        params: TraceParams = TraceParams(),
                        mode: str = "ab") -> List[TraceEntry]:
    """Concatenated per-channel streams of a channel-sharded SpMV/SpMM."""
    return spmm_channels_segments(execution, config, params,
                                  mode=mode).trace


def _representative_channel_loads(execution: SpmvExecution,
                                  banks: Optional[int] = None
                                  ) -> List[float]:
    """Per-bank element loads of the busiest channel-width chunk.

    The channel width comes from the execution record (or the caller's
    explicit *banks*), not a hardcoded 16, so PB traces chunk correctly
    under non-default channel geometry.
    """
    width = banks if banks is not None else execution.banks_per_channel
    busiest = _busiest_chunks(execution.per_bank_elements[None], width)
    return busiest[0].astype(float).tolist()


def _busiest_chunks(loads: np.ndarray, width: int) -> np.ndarray:
    """Each row's busiest *width*-wide chunk of per-bank loads: the first
    chunk with the largest (exact, integer) element sum, for every row of
    a ``(records, banks)`` array at once."""
    records, size = loads.shape
    channels = max(1, size // width)
    chunks = loads[:, :channels * width].reshape(records, channels, -1)
    return chunks[np.arange(records), chunks.sum(axis=2).argmax(axis=1)]


def _queue_batch(precision: str, subqueue_bytes: int = 64) -> int:
    """Elements per lock-step batch: the SpVQ capacity for the format
    (value sub-queue vs 16-bit index sub-queue, whichever binds)."""
    value_bytes = element_size(precision)
    return min(subqueue_bytes // value_bytes, subqueue_bytes // 2)


# ----------------------------------------------------------------------
# SpTRSV trace
# ----------------------------------------------------------------------
def sptrsv_ab_segments(execution: SpTrsvExecution, config: SystemConfig,
                       params: TraceParams = TraceParams(),
                       channel: int = 0,
                       host_channels: Optional[int] = None
                       ) -> SegmentedTrace:
    """Segmented §VI-C flow: per level ``L<N>.merge`` (SB read of solved
    values), ``L<N>.broadcast`` (mode switch + broadcast + programming) and
    ``L<N>.kernel`` (the AB-PIM level kernel with its exit switch); the
    recursive update SpMVs follow under ``U<K>.r<N>.*`` labels. The level
    chain is the dependency spine the critical-path analysis walks.
    """
    vb = element_size(execution.precision)
    eb = element_bytes(execution.precision)
    rf_batch = _queue_batch(execution.precision, params.subqueue_bytes)
    if host_channels is None:
        host_channels = config.memory.num_pseudo_channels
    num_channels = host_channels * config.num_cubes
    phase = rf_batch * params.queue_phases
    # a level updates at most one output row per element it holds
    max_rows = min(execution.leaf_size, execution.n)
    # A level's entries depend only on its width and its batch, which
    # repeat across levels: build each shape once per call and add the
    # shared, immutable entries wherever it recurs.
    merges: Dict[int, List[TraceEntry]] = {}
    broadcasts: Dict[int, List[TraceEntry]] = {}
    kernels: Dict[int, List[TraceEntry]] = {}
    out = _SegmentBuilder()
    for level in range(execution.num_levels):
        width = execution.level_widths[level]
        batch_elems = execution.level_batches[level]
        # 1) SB mode: read the solved values of this level's columns
        read_bytes = max(1.0, width * vb / num_channels)
        merge = merges.get(_beats(read_bytes))
        if merge is None:
            merge = merges[_beats(read_bytes)] = host_stage(
                read_bytes, write=False, row=OUTPUT_ROW, tag="read_b",
                channel=channel)
        out.add(f"L{level}.merge", channel, merge)
        # 2) AB mode: broadcast them + program the kernel
        beats = _beats(width * vb)
        bcast = broadcasts.get(beats)
        if bcast is None:
            bcast = broadcasts[beats] = list(mode_switch(channel))
            visits = _RowVisits(bcast, True, channel=channel)
            visits.columns(INPUT_ROW, True, beats, tag="broadcast")
            visits.close()
            bcast += program_load(params, channel=channel)
        out.add(f"L{level}.broadcast", channel, bcast)
        # 3) AB-PIM: the scalar-multiply level kernel (Algorithm 3)
        kernel = kernels.get(batch_elems)
        if kernel is None:
            kernel = kernels[batch_elems] = list(mode_switch(channel))
            if batch_elems > 0:
                batches = max(1, math.ceil(batch_elems / phase))
                kernel += _kernel_batches(
                    batches, phase, eb, params, all_bank=True,
                    y_bytes=min(max_rows, batch_elems) * vb,
                    channel=channel)
            kernel += mode_switch(channel)  # back to SB for the next level
        out.add(f"L{level}.kernel", channel, kernel)
    # the recursive off-diagonal updates are ordinary SpMVs
    for u, update in enumerate(execution.update_execs):
        out.splice(spmm_ab_segments(update, config, params, channel=channel,
                                    prefix=f"U{u}."))
    return out.done()


def sptrsv_ab_trace(execution: SpTrsvExecution, config: SystemConfig,
                    params: TraceParams = TraceParams(),
                    channel: int = 0,
                    host_channels: Optional[int] = None) -> List[TraceEntry]:
    """The §VI-C flow: per level, SB reads -> broadcast -> AB-PIM kernel.

    ``host_channels`` is how many channels share the host-side read of the
    solved values (the external bus serves them concurrently); the
    representative-channel default assumes every platform channel
    participates symmetrically.
    """
    return sptrsv_ab_segments(execution, config, params, channel=channel,
                              host_channels=host_channels).trace


def sptrsv_channels_trace(execution: SpTrsvExecution, config: SystemConfig,
                          params: TraceParams = TraceParams(),
                          ) -> List[TraceEntry]:
    """Concatenated per-channel streams of a channel-sharded SpTRSV.

    Every channel walks the same level schedule in lock step (the solved
    values must be broadcast device-wide before the next level — the
    explicit inter-channel reduction seam), so no shard is skipped: an
    idle channel still pays the broadcast and mode traffic of each level.
    """
    return sptrsv_channels_segments(execution, config, params).trace


def sptrsv_channels_segments(execution: SpTrsvExecution,
                             config: SystemConfig,
                             params: TraceParams = TraceParams(),
                             ) -> SegmentedTrace:
    """Segmented form of :func:`sptrsv_channels_trace` (same trace).

    Every channel emits the same ``L<N>.*`` labels, so each level's
    per-channel durations line up for barrier-accurate critical-path and
    slack analysis.
    """
    if not execution.channel_execs:
        raise MappingError(
            "sptrsv_channels_trace needs a channel-sharded execution "
            "(run_sptrsv(..., channels=C))")
    out = _SegmentBuilder()
    for ch, sub in enumerate(execution.channel_execs):
        out.splice(sptrsv_ab_segments(sub, config, params, channel=ch,
                                      host_channels=execution.num_channels))
    return out.done()


# ----------------------------------------------------------------------
# the one synthesis dispatch
# ----------------------------------------------------------------------
def synthesize(execution: Union[SpmvExecution, SpTrsvExecution],
               config: SystemConfig, mode: str = "ab",
               params: TraceParams = TraceParams()) -> SegmentedTrace:
    """The segmented command trace of one execution record.

    The kernel comes from the record's type (SpTRSV, or SpMV/SpMM — an
    SpMV is the ``k = 1`` SpMM), the channel model from its
    ``num_channels`` (``None`` is one representative channel, ``C``
    concatenates the per-channel shards), and *mode* picks all-bank
    (``"ab"``) or per-bank (``"pb"``) driving; SpTRSV is all-bank only.
    The synthesisers are called through this module's globals, so
    wrapping one of them (tracing, profiling) also wraps every caller.
    """
    if mode not in ("ab", "pb"):
        raise ExecutionError(f"unknown PIM mode {mode!r}")
    sharded = execution.num_channels is not None
    if isinstance(execution, SpTrsvExecution):
        if mode != "ab":
            raise ExecutionError("SpTRSV runs in all-bank mode only")
        if sharded:
            return sptrsv_channels_segments(execution, config, params)
        return sptrsv_ab_segments(execution, config, params)
    if sharded:
        return spmm_channels_segments(execution, config, params, mode=mode)
    if mode == "ab":
        return spmm_ab_segments(execution, config, params)
    return spmm_pb_segments(execution, config, params)


# ----------------------------------------------------------------------
# dense streaming trace (BLAS-1 / Fig. 10)
# ----------------------------------------------------------------------
def dense_stream_trace(elements_per_bank: int, reads_per_group: int,
                       writes_per_group: int, precision: str,
                       all_bank: bool = True,
                       active_banks: int = 16,
                       params: TraceParams = TraceParams()) -> List[TraceEntry]:
    """Streaming kernels: per 32 B group, fixed reads/writes per region.

    In AB mode one command stream drives all banks, one row visit per
    1024 B row; in PB mode the stream repeats per bank on the shared
    buses, as plain commands because the banks' short runs interleave.
    """
    vb = element_size(precision)
    groups = _beats(elements_per_bank * vb)
    trace: List[TraceEntry] = []
    # one arm/disarm sequence per kernel; in PB mode the controller
    # interleaves the banks' streams on the shared buses (it cannot
    # broadcast, but it can overlap different banks' latencies).
    trace += mode_switch()
    if all_bank:
        trace += program_load(params)
        visits = _RowVisits(trace, True)
        for group in range(groups):
            row, offset = divmod(group * BEAT_BYTES, 1024)
            col = offset // BEAT_BYTES
            visits.columns(row, False, reads_per_group, col, tag="stream")
            visits.columns(row, True, writes_per_group, col, tag="stream")
        visits.close()
    else:
        banks = range(active_banks)
        open_row: Optional[int] = None
        for group in range(groups):
            row, offset = divmod(group * BEAT_BYTES, 1024)
            col = offset // BEAT_BYTES
            if row != open_row:
                for bank in banks:
                    if open_row is not None:
                        trace.append(Command(CommandType.PRE, bank=bank))
                    trace.append(Command(CommandType.ACT, bank=bank, row=row))
                open_row = row
            # batch all reads before all writes (FR-FCFS-style grouping
            # keeps data-bus turnarounds to two per group, not per bank)
            for write, beats in ((False, reads_per_group),
                                 (True, writes_per_group)):
                for bank in banks:
                    trace += [_column(write, row, col, bank=bank,
                                      tag="stream")] * beats
        if open_row is not None:
            trace += [Command(CommandType.PRE, bank=bank) for bank in banks]
    trace += mode_switch()
    return trace
