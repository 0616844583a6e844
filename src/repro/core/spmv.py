"""End-to-end SpMV/SpMM execution: partition -> distribute -> rounds ->
merge.

SpMV is SpMM at ``k = 1``: one plan, one :class:`SpmvExecution` record
(``num_rhs`` wide) and one body per fidelity serve both kernels.
:func:`run_spmv` and :func:`~repro.core.spmm.run_spmm` only check their
own shape contracts (a vector, or an ``(n, k)`` block) and then run
:func:`_run`. Two fidelities share the same plan:

* ``functional`` — every round runs on the instruction-accurate all-bank
  engine (:mod:`repro.pim`) as ``banks x k`` lanes
  (:func:`repro.kernels.run_tile_block`); used by the test-suite and
  examples to prove the kernel/ISA path computes exactly A @ x.
* ``fast`` — every round is computed with vectorised numpy over the same
  tiles, exercising the identical plan (replication, local indices, host
  accumulation) at paper scale without interpreting instructions.

The record holds the quantities the timing and energy models consume
(per-round lock-step batch counts, per-bank loads, external traffic,
utilisation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..config import (SystemConfig, check_channels, check_strategy,
                      element_size)
from ..errors import ConfigError, ExecutionError
from ..formats import COOMatrix, reject_nan
from ..isa.assembler import binary_op
from ..kernels import Tile, run_tile_block
from .. import obs
from ..pim import LaneEngine
from .distribution import (Assignment, ChannelAssignment,
                           accumulation_traffic_bytes, check_policy,
                           distribute, replication_traffic_bytes,
                           shard_channels)
from .partition import PartitionPlan, partition


@dataclass
class SpmvExecution:
    """Everything the performance model needs to cost one SpMV/SpMM."""

    precision: str
    num_banks: int
    #: Lock-step element count per round (max tile nnz in the round).
    round_batches: List[int]
    #: Per-bank total elements over all rounds.
    per_bank_elements: np.ndarray
    #: Host -> bank staged input bytes (replication, Fig. 6 traffic).
    input_bytes: int
    #: Bank -> host partial-output bytes (remote accumulation).
    output_bytes: int
    #: Matrix stream bytes resident in banks (row/col/value triples).
    matrix_bytes: int
    banks_used: int
    imbalance: float
    policy: str
    compressed: bool
    #: On-bank matrix representation: "coo" (default), "csr" or "bitmap"
    #: (paper §IV-C / §VIII).
    matrix_format: str = "coo"
    #: Average bytes streamed from the bank per matrix element — set by
    #: the format (COO: 2x16-bit indices + value; CSR: one index + value
    #: + amortised row pointers; bitmap: value + presence bits).
    stream_bytes_per_element: float = 12.0
    #: Per-round x/y tile lengths of the *largest* tile (trace synthesis).
    round_x_lengths: List[int] = field(default_factory=list)
    round_y_lengths: List[int] = field(default_factory=list)
    #: Channel-sharded executions carry the shard width here; ``None``
    #: selects the legacy representative-channel model (work over
    #: ``config.total_units`` banks, one synthesised channel stream).
    num_channels: Optional[int] = None
    banks_per_channel: int = 16
    #: One per-channel sub-execution per shard (empty when unsharded).
    channel_execs: List["SpmvExecution"] = field(default_factory=list)
    #: Dense right-hand-side columns streamed through the resident plan
    #: (SpMV is ``1``). Traffic fields stay *per column*: the trace
    #: synthesisers and the ALU count scale staging and compute by it.
    num_rhs: int = 1

    @property
    def num_rounds(self) -> int:
        return len(self.round_batches)

    @property
    def lockstep_elements(self) -> int:
        return int(sum(self.round_batches))

    @property
    def total_elements(self) -> int:
        return int(self.per_bank_elements.sum())


#: A bank layout: whole-device :class:`Assignment` (legacy model) or a
#: per-channel sharded :class:`ChannelAssignment`.
AnyAssignment = Union[Assignment, ChannelAssignment]


def as_spmm_execution(execution: SpmvExecution,
                      num_rhs: int) -> SpmvExecution:
    """*execution* (and its channel shards) widened to *num_rhs* columns;
    the record itself when it already has that width."""
    if execution.num_rhs == num_rhs:
        return execution
    return dataclasses.replace(
        execution, num_rhs=num_rhs,
        channel_execs=[as_spmm_execution(sub, num_rhs)
                       for sub in execution.channel_execs])


@dataclass
class SpmvResult:
    """SpMV/SpMM output plus its execution record: ``y`` is the vector
    of :func:`run_spmv`, or the ``(m, k)`` block of
    :func:`~repro.core.spmm.run_spmm`."""

    y: np.ndarray
    execution: SpmvExecution
    plan: PartitionPlan
    assignment: AnyAssignment


#: COO element footprint: two 16-bit tile-local indices plus the value.
#: Tile dimensions are bounded by one memory row (§V), so local indices
#: always fit 16 bits; the -1 padding sentinel is 0xFFFF.
def element_bytes(precision: str) -> int:
    return 4 + element_size(precision)


#: Execution tiers (see the module docstring).
FIDELITIES = ("fast", "functional")

#: On-bank matrix representations the timing model prices.
MATRIX_FORMATS = ("coo", "csr", "bitmap")


def check_fidelity(fidelity: str) -> None:
    """Reject an execution tier outside :data:`FIDELITIES`."""
    if fidelity not in FIDELITIES:
        raise ExecutionError(f"unknown fidelity {fidelity!r}")


def plan_spmv(matrix: COOMatrix, config: SystemConfig,
              precision: str = "fp64", compress: bool = True,
              policy: str = "paper", matrix_format: str = "coo",
              plan: Optional[PartitionPlan] = None,
              assignment: Optional[AnyAssignment] = None,
              validate: bool = True,
              channels: Optional[int] = None,
              strategy: str = "paper", tuner_cache=None,
              ) -> "tuple[PartitionPlan, AnyAssignment, SpmvExecution]":
    """Lay out one SpMV without executing it numerically.

    Returns the partition plan, the bank assignment and the
    :class:`SpmvExecution` record the timing/energy models consume. This is
    the expensive, data-dependent half of :func:`run_spmv`; the sweep
    runner calls it directly when only performance numbers are needed
    (and caches the execution record, not the layout). A pre-built
    *plan* / *assignment* skips partitioning / distribution.

    ``validate=False`` skips the plan round-trip check in trusted hot
    paths such as the sweep runner.

    ``channels`` selects the execution model. ``None`` is the legacy
    representative-channel layout over ``config.total_units`` banks.
    An integer ``C`` shards tiles over ``C`` explicitly modelled
    pseudo-channels (:func:`repro.core.distribution.shard_channels`),
    each with its own per-bank distribution and trace stream.

    ``strategy`` selects the partitioning scheme (see
    :mod:`repro.core.strategies`). ``"auto"`` tunes per matrix with the
    analytic cost model, memoizing verdicts through *tuner_cache* (an
    :class:`repro.sweep.ArtifactCache`) when one is supplied. Ignored
    when a pre-built *plan* is injected.
    """
    channels = check_channels(channels)
    check_policy(policy)
    if matrix_format not in MATRIX_FORMATS:
        raise ExecutionError(f"unknown matrix format {matrix_format!r}")
    if plan is None:
        plan = _cut_plan(matrix, config, precision, compress, policy,
                         channels, check_strategy(strategy), tuner_cache,
                         validate)
    value_bytes = element_size(precision)
    stream_bpe = _stream_bytes_per_element(matrix_format, plan,
                                           value_bytes, matrix)

    if channels is None:
        num_banks = config.total_units
        if assignment is None:
            with obs.span("plan.distribute", cat="planner",
                          tiles=len(plan.tiles), policy=policy):
                assignment = distribute(plan, num_banks, policy=policy)
        execution = _assignment_execution(assignment, precision, policy,
                                          compress, matrix_format,
                                          stream_bpe)
        # The representative-channel model still needs the platform's
        # channel width (PB trace chunking); default geometry keeps the
        # historical 16.
        execution.banks_per_channel = config.memory.banks_per_channel
    else:
        available = config.memory.num_pseudo_channels
        if channels > available:
            raise ConfigError(
                f"channels={channels} exceeds the platform's "
                f"{available} pseudo-channels")
        bpc = config.memory.banks_per_channel
        if assignment is None:
            with obs.span("plan.shard", cat="planner",
                          tiles=len(plan.tiles), policy=policy,
                          channels=channels):
                assignment = shard_channels(plan, channels,
                                            banks_per_channel=bpc,
                                            policy=policy)
        elif not isinstance(assignment, ChannelAssignment):
            raise ConfigError(
                "channels= requires a ChannelAssignment layout")
        channel_execs = [
            _assignment_execution(shard, precision, policy, compress,
                                  matrix_format, stream_bpe)
            for shard in assignment.shards]
        execution = _compose_channel_execution(
            assignment, channel_execs, precision, policy, compress,
            matrix_format, stream_bpe)
    if obs.enabled():
        obs.set_gauge("spmv.banks_used", execution.banks_used)
        obs.set_gauge("spmv.imbalance", execution.imbalance)
        obs.set_gauge("spmv.rounds", execution.num_rounds)
        if channels is not None:
            obs.set_gauge("spmv.channels", channels)
        obs.add_counter("spmv.plans", 1)
    return plan, assignment, execution


def _cut_plan(matrix: COOMatrix, config: SystemConfig, precision: str,
             compress: bool, policy: str, channels: Optional[int],
             strategy: str, tuner_cache, validate: bool) -> PartitionPlan:
    """Partition *matrix* under the checked *strategy* (tuning it first
    when ``"auto"``): the partition half of :func:`plan_spmv`."""
    if strategy == "auto":
        from .strategies import tune_strategy
        with obs.span("plan.tune", cat="planner", nnz=matrix.nnz):
            tuned = tune_strategy(matrix, config, precision=precision,
                                  compress=compress, policy=policy,
                                  channels=channels, cache=tuner_cache)
        strategy = tuned.chosen
        if obs.enabled():
            obs.add_counter("spmv.tuned", 1)
    if strategy == "paper":
        with obs.span("plan.partition", cat="planner",
                      nnz=matrix.nnz, compress=compress):
            return partition(matrix, config, precision=precision,
                             compress=compress, validate=validate)
    from .strategies import make_strategy
    with obs.span("plan.partition", cat="planner",
                  nnz=matrix.nnz, compress=compress, strategy=strategy):
        return make_strategy(strategy).partition(
            matrix, config, precision=precision, compress=compress,
            validate=validate)


def _assignment_execution(assignment: Assignment, precision: str,
                          policy: str, compress: bool, matrix_format: str,
                          stream_bpe: float) -> SpmvExecution:
    """Build the execution record for one bank-level assignment.

    Shared by the legacy whole-device layout and each channel shard;
    ``assignment.total_elements`` equals the plan nnz for the former, the
    shard nnz for the latter.
    """
    value_bytes = element_size(precision)
    return SpmvExecution(
        precision=precision,
        num_banks=assignment.num_banks,
        round_batches=[assignment.round_batch_elements(r)
                       for r in range(assignment.num_rounds)],
        per_bank_elements=assignment.per_bank_elements(),
        input_bytes=replication_traffic_bytes(assignment, value_bytes),
        output_bytes=accumulation_traffic_bytes(assignment, value_bytes),
        matrix_bytes=int(round(assignment.total_elements * stream_bpe)),
        banks_used=assignment.banks_used,
        imbalance=assignment.imbalance,
        policy=policy,
        compressed=compress,
        matrix_format=matrix_format,
        stream_bytes_per_element=stream_bpe,
        round_x_lengths=[max((t.x_length for t in tiles), default=0)
                         for _, tiles in assignment.placed],
        round_y_lengths=[max((t.touched_rows for t in tiles), default=0)
                         for _, tiles in assignment.placed],
    )


def _compose_channel_execution(assignment: ChannelAssignment,
                               channel_execs: List[SpmvExecution],
                               precision: str, policy: str, compress: bool,
                               matrix_format: str,
                               stream_bpe: float) -> SpmvExecution:
    """Device-level roll-up of per-channel executions.

    The round-shaped fields report the per-round *maximum* across channels
    (channels run in parallel on independent command buses); traffic and
    utilisation fields sum. Pricing never consumes the roll-up rounds —
    the per-channel traces are synthesised from ``channel_execs``.
    """
    rounds = assignment.num_rounds
    def round_max(field_name: str) -> List[int]:
        return [max((getattr(sub, field_name)[r]
                     for sub in channel_execs if r < sub.num_rounds),
                    default=0) for r in range(rounds)]
    return SpmvExecution(
        precision=precision,
        num_banks=assignment.num_banks,
        round_batches=round_max("round_batches"),
        per_bank_elements=np.concatenate(
            [sub.per_bank_elements for sub in channel_execs]),
        input_bytes=sum(sub.input_bytes for sub in channel_execs),
        output_bytes=sum(sub.output_bytes for sub in channel_execs),
        matrix_bytes=sum(sub.matrix_bytes for sub in channel_execs),
        banks_used=sum(sub.banks_used for sub in channel_execs),
        imbalance=assignment.imbalance,
        policy=policy,
        compressed=compress,
        matrix_format=matrix_format,
        stream_bytes_per_element=stream_bpe,
        round_x_lengths=round_max("round_x_lengths"),
        round_y_lengths=round_max("round_y_lengths"),
        num_channels=assignment.num_channels,
        banks_per_channel=assignment.banks_per_channel,
        channel_execs=channel_execs,
    )


def run_spmv(matrix: COOMatrix, x: np.ndarray, config: SystemConfig,
             precision: str = "fp64", compress: bool = True,
             policy: str = "paper", fidelity: str = "fast",
             accumulate: str = "add", multiply: str = "mul",
             y0: Optional[np.ndarray] = None,
             engine_banks: Optional[int] = None,
             matrix_format: str = "coo",
             plan: Optional[PartitionPlan] = None,
             assignment: Optional[AnyAssignment] = None,
             validate: bool = True,
             channels: Optional[int] = None,
             strategy: str = "paper",
             tuner_cache=None) -> SpmvResult:
    """Execute ``y = accumulate(y0, A (.) x)`` on the pSyncPIM model.

    ``engine_banks`` caps the functional engine size (the plan itself is
    always laid out over the full ``config.total_units``); it exists because
    interpreting 256 units in Python is slow while the plan's semantics are
    bank-count independent per round. ``None`` runs each round as one wave;
    a cap must be at least 1.

    ``matrix_format`` selects the on-bank representation for the timing
    model — functional results are format-independent. ``"coo"`` is the
    paper's HPC default; ``"csr"`` models the §IV-C variant (four index
    registers + adder); ``"bitmap"`` the §VIII neural-network format.

    ``plan`` / ``assignment`` inject a previously computed layout and
    must have been produced by :func:`plan_spmv` for the same matrix,
    config and parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.shape[1],):
        raise ExecutionError("SpMV vector length mismatch")
    if y0 is not None and np.shape(y0) != (matrix.shape[0],):
        raise ExecutionError(
            f"SpMV y0 shape mismatch: expected ({matrix.shape[0]},), "
            f"got {np.shape(y0)}")
    check_engine_banks(engine_banks)
    reject_nan(matrix=matrix.vals, x=x, y0=y0)
    result = _run(
        matrix, x[:, None], None if y0 is None else np.reshape(y0, (-1, 1)),
        config, precision=precision, compress=compress, policy=policy,
        fidelity=fidelity, accumulate=accumulate, multiply=multiply,
        engine_banks=engine_banks, matrix_format=matrix_format, plan=plan,
        assignment=assignment, validate=validate, channels=channels,
        strategy=strategy, tuner_cache=tuner_cache)
    result.y = result.y[:, 0]
    return result


def _run(matrix: COOMatrix, x: np.ndarray, y0: Optional[np.ndarray],
         config: SystemConfig, precision: str, fidelity: str,
         accumulate: str, multiply: str, engine_banks: Optional[int],
         **layout) -> SpmvResult:
    """The one SpMV/SpMM execution: plan, then run every round.

    *x* is the checked ``(n, k)`` input block and *y0* ``None`` or the
    checked ``(m, k)`` seed; the result's ``y`` is ``(m, k)``. *layout*
    holds the :func:`plan_spmv` keywords.
    """
    check_fidelity(fidelity)
    _check_semiring(fidelity, accumulate, multiply)
    num_rhs = x.shape[1]
    plan, assignment, execution = plan_spmv(matrix, config,
                                            precision=precision, **layout)
    execution = as_spmm_execution(execution, num_rhs)
    # Column j accumulates in y[:, j]; Fortran order keeps every column
    # contiguous for the per-column updates.
    shape = (matrix.shape[0], num_rhs)
    y = (np.zeros(shape, order="F") if y0 is None
         else np.array(y0, dtype=np.float64, order="F"))

    # Channel-sharded layouts execute as one big lane array of
    # (channel, bank) units; channels never interact mid-kernel, so the
    # flattened lane rounds are semantically a wider single round.
    rounds = (assignment.rounds if isinstance(assignment, Assignment)
              else _lane_rounds(assignment))
    with obs.span("spmv.rounds", cat="kernel", fidelity=fidelity,
                  rounds=len(rounds), num_rhs=num_rhs):
        if fidelity == "fast":
            y = _fast_rounds(x, rounds, accumulate, multiply, y)
        else:
            y = _functional_rounds(x, rounds, precision, accumulate,
                                   multiply, y, engine_banks)
    return SpmvResult(y=y, execution=execution, plan=plan,
                      assignment=assignment)


def check_engine_banks(engine_banks: Optional[int]) -> None:
    """Reject a functional-engine width cap below one bank."""
    if engine_banks is not None and engine_banks < 1:
        raise ConfigError(
            f"engine_banks must be >= 1 (or None), got {engine_banks}")


def _lane_rounds(assignment: ChannelAssignment) -> List[list]:
    """Flatten a channel-sharded layout into channel-major lane rounds.

    Round ``r`` concatenates every shard's round ``r`` (``None``-padded to
    ``banks_per_channel`` for exhausted shards): lane ``c * bpc + b`` is
    channel *c*, bank *b*. With one channel this is exactly the shard's
    own round list, which keeps the fast-tier accumulation order — and so
    the floating-point result — bitwise identical to the legacy path.
    """
    empty = [None] * assignment.banks_per_channel
    rounds = []
    for r in range(assignment.num_rounds):
        lanes: list = []
        for shard in assignment.shards:
            lanes.extend(shard.rounds[r] if r < shard.num_rounds
                         else empty)
        rounds.append(lanes)
    return rounds


def _stream_bytes_per_element(matrix_format: str, plan: PartitionPlan,
                              value_bytes: int, matrix) -> float:
    """Average on-bank bytes per streamed matrix element by format."""
    nnz = max(plan.total_nnz, 1)
    if matrix_format == "coo":
        return 4.0 + value_bytes          # two 16-bit tile-local indices
    if matrix_format == "csr":
        # 16-bit column index per element + one 16-bit row pointer per
        # tile row (the four-register variant of §IV-C)
        pointer_bytes = 2.0 * sum(tile.y_length for tile in plan.tiles)
        return 2.0 + value_bytes + pointer_bytes / nnz
    # bitmap: one presence bit per tile position + the packed values
    area_bits = float(sum(tile.y_length * tile.x_length
                          for tile in plan.tiles))
    return value_bytes + area_bits / 8.0 / nnz


# ----------------------------------------------------------------------
# fast tier: vectorised per-tile numpy over the identical plan
# ----------------------------------------------------------------------
_ACCUM_UFUNC = {"add": np.add, "sub": np.subtract, "min": np.minimum,
                "max": np.maximum, "lor": np.logical_or}
_MULT_FUNC = {"mul": np.multiply, "add": np.add,
              "land": lambda a, b: np.logical_and(a, b).astype(float),
              "second": lambda a, b: b}


def _check_semiring(fidelity: str, accumulate: str, multiply: str) -> None:
    """Reject a semiring the chosen tier cannot run. The functional
    tier's *multiply* is any ALU operation, checked as its kernel
    assembler checks it."""
    if fidelity == "fast" and (accumulate not in _ACCUM_UFUNC
                               or multiply not in _MULT_FUNC):
        raise ExecutionError(
            f"unsupported semiring ({multiply}, {accumulate})")
    if fidelity == "functional":
        binary_op(multiply)
    if accumulate not in _MERGE:
        raise ExecutionError(f"unsupported accumulate {accumulate!r}")


def _fast_rounds(x: np.ndarray, rounds: Sequence[list], accumulate,
                 multiply, y: np.ndarray) -> np.ndarray:
    """Accumulate every tile's products into the ``(m, k)`` block *y*.

    Every placed tile, in round and bank order, joins one element
    stream, so each column costs one gather, one multiply and one 1-D
    ``ufunc.at`` on its own contiguous column of *y*. ``at`` applies its
    elements in order and the multiply is elementwise, so every
    column's float operations, and their order, are exactly the
    tile-by-tile ones; a 1-D ``at`` is several times faster than one
    2-D ``at`` over the block (even at ``k = 1``).
    """
    acc = _ACCUM_UFUNC[accumulate]
    mul = _MULT_FUNC[multiply]
    tiles = [tile for round_tiles in rounds for tile in round_tiles
             if tile is not None and tile.rows.size]
    if tiles:
        sizes = [tile.rows.size for tile in tiles]
        # Output rows (tile-local plus the tile's first row) and input
        # columns (tile-local into its global_cols, concatenated).
        rows = (np.concatenate([tile.rows for tile in tiles])
                + np.repeat([tile.row_range[0] for tile in tiles], sizes))
        widths = [tile.global_cols.size for tile in tiles]
        col_base = np.repeat(np.cumsum([0] + widths[:-1]), sizes)
        cols = np.concatenate([tile.global_cols for tile in tiles])[
            np.concatenate([tile.cols for tile in tiles]) + col_base]
        vals = np.concatenate([tile.vals for tile in tiles])
        x = np.asarray(x, dtype=np.float64)
        for j in range(x.shape[1]):
            # bank-local compute: products against the staged x values
            partial = mul(vals, x[cols, j]).astype(float)
            # host-side remote accumulation of the output partials
            acc.at(y[:, j], rows, partial)
    if accumulate == "lor":
        y = y.astype(bool).astype(float)
    return y


# ----------------------------------------------------------------------
# functional tier: the instruction-accurate engine, round by round
# ----------------------------------------------------------------------
#: In-bank output tiles are seeded with the accumulate identity; the host
#: then merges only the rows a tile touched ("accumulates only non-zero
#: outputs", Fig. 6) with the matching merge operation. Note ``sub`` tiles
#: hold -(Mx) partials, so the host merge for them is addition.
_MERGE = {"add": (0.0, np.add), "sub": (0.0, np.add),
          "min": (float("inf"), np.minimum),
          "max": (float("-inf"), np.maximum),
          "lor": (0.0, np.maximum)}


def _functional_rounds(x: np.ndarray, rounds: Sequence[list], precision,
                       accumulate, multiply, y: np.ndarray,
                       engine_banks: Optional[int]) -> np.ndarray:
    """Run every round on the engine as ``banks x k`` lanes and merge
    each tile's touched output rows into the ``(m, k)`` block *y*."""
    num_rhs = x.shape[1]
    y_init, merge = _MERGE[accumulate]
    for round_tiles in rounds:
        active = [tile for tile in round_tiles
                  if tile is not None and tile.nnz]
        if not active:
            continue
        # Run the round in engine-sized waves; semantics are identical
        # because banks never interact within a round. The wave width
        # counts tiles: the engine runs width x k lanes.
        width = engine_banks or len(active)
        for at in range(0, len(active), width):
            wave = active[at:at + width]
            engine = LaneEngine(len(wave) * num_rhs, precision=precision)
            tiles = [Tile(t.rows, t.cols, t.vals, t.x_segment(x),
                          t.y_length) for t in wave]
            result = run_tile_block(engine, tiles, num_rhs=num_rhs,
                                    accumulate=accumulate,
                                    multiply=multiply, y_init=y_init)
            for tile, partial in zip(wave, result.y_per_bank):
                touched = np.unique(tile.rows)
                rows = touched + tile.row_range[0]
                for j in range(num_rhs):
                    merge.at(y[:, j], rows, partial[touched, j])
    if accumulate == "lor":
        y = y.astype(bool).astype(float)
    return y
