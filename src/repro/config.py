"""Architectural configuration for pSyncPIM (paper Tables VII and VIII).

Three frozen dataclasses describe the modelled hardware:

* :class:`HBM2Config` — the memory organisation of one pSyncPIM cube
  (Table VII): bank groups, banks, rows, columns, pseudo-channels, stacks,
  clocking and the external/internal bandwidth split.
* :class:`ProcessingUnitConfig` — the per-bank processing unit (Table VIII):
  datapath width, per-precision ALU counts, register/queue capacities.
* :class:`SystemConfig` — an assembled pSyncPIM system: one or more cubes
  (the paper evaluates 1x and 3x), with derived totals and validation.

All sizes are in bytes, all frequencies in Hz, and all derived values are
computed properties so a config can never be internally inconsistent once
:func:`SystemConfig.validate` has passed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import ConfigError

#: Registered partitioning strategies (see :mod:`repro.core.strategies`):
#: the paper's fixed row-cut scheme, three SparseP-style alternatives, and
#: the cost-model auto-tuner that picks per matrix.
STRATEGY_CHOICES = ("paper", "nnz-rows", "2d-grid", "nnz-2d", "auto")

#: Strategy used when the caller does not choose one. The paper scheme
#: stays the default so the unconfigured path remains bitwise identical
#: to the pre-strategy-library behaviour.
DEFAULT_STRATEGY = "paper"


def check_strategy(name) -> str:
    """Reject an unknown partitioning strategy; return it normalised.

    Applies to the partitioning front-end (see
    :mod:`repro.core.strategies`). Case and surrounding whitespace are
    ignored; unknown names raise :class:`ConfigError` so typos fail
    loudly instead of silently planning with a different layout.
    """
    if isinstance(name, str):
        name = name.strip().lower()
    if name not in STRATEGY_CHOICES:
        raise ConfigError(f"unknown strategy {name!r}; expected one of "
                          f"{list(STRATEGY_CHOICES)}")
    return name


def check_channels(channels) -> Optional[int]:
    """Reject a channel-sharding width that is not ``None`` or an
    integer ``>= 1``; return it as an ``int``.

    ``None`` selects the representative-channel model: work is laid out
    over every processing unit and the synthesised trace covers one
    pseudo-channel under the symmetric-broadcast assumption. An integer
    ``C >= 1`` selects the channel-sharded model instead: tiles are
    sharded over ``C`` explicitly modelled channels, each with its own
    16-bank distribution, command stream and scheduler clock.
    """
    if channels is None:
        return None
    try:
        value = int(channels)
    except (TypeError, ValueError):
        raise ConfigError(
            f"channel count must be an integer, got {channels!r}") from None
    if value < 1:
        raise ConfigError(f"channel count must be >= 1, got {value}")
    return value


#: Precision name -> element size in bytes, for every precision the VALU
#: supports (Table VIII: INT8 through FP64).
PRECISION_BYTES: Dict[str, int] = {
    "int8": 1,
    "int16": 2,
    "int32": 4,
    "int64": 8,
    "fp16": 2,
    "fp32": 4,
    "fp64": 8,
}

#: Number of parallel ALU lanes per precision (Table VIII).
ALU_LANES: Dict[str, int] = {
    "int8": 32,
    "int16": 16,
    "fp16": 16,
    "int32": 8,
    "fp32": 8,
    "int64": 4,
    "fp64": 4,
}


def element_size(precision: str) -> int:
    """Return the element size in bytes for *precision*.

    Raises :class:`ConfigError` for unknown precision names so that typos in
    kernel code fail loudly instead of silently defaulting.
    """
    try:
        return PRECISION_BYTES[precision]
    except KeyError:
        raise ConfigError(f"unknown precision {precision!r}; expected one of "
                          f"{sorted(PRECISION_BYTES)}") from None


@dataclass(frozen=True)
class HBM2Config:
    """Memory organisation of one pSyncPIM HBM2 cube (paper Table VII)."""

    num_bankgroups: int = 4
    banks_per_group: int = 4
    num_rows: int = 16384
    #: Number of column addresses per row; one column is ``column_bytes``.
    num_columns: int = 64
    column_bytes: int = 16
    num_stacks: int = 8
    num_pseudo_channels: int = 16
    #: Address-bit order, most-significant first (Table VII, rank is 0 bit).
    address_mapping: str = "rorabgbachco"
    clock_hz: float = 1e9
    external_bandwidth: float = 256e9   # bytes/s to the host
    internal_bandwidth: float = 2e12    # bytes/s aggregated over banks
    capacity_bytes: int = 4 << 30
    #: Pseudo-channels sharing one physical channel's CA bus (HBM2 splits
    #: each 128-bit channel into two 64-bit pseudo-channels). Address
    #: mappings with an explicit ``pc`` token size their ``ch`` field by
    #: :attr:`num_physical_channels` and ``pc`` by this.
    pseudo_channels_per_channel: int = 2

    @property
    def banks_per_channel(self) -> int:
        """Banks addressable by one pseudo-channel command (4 groups x 4)."""
        return self.num_bankgroups * self.banks_per_group

    @property
    def num_physical_channels(self) -> int:
        """Physical channels: pseudo-channels / pseudo-channels-per-channel."""
        return self.num_pseudo_channels // self.pseudo_channels_per_channel

    @property
    def total_banks(self) -> int:
        """All banks of the cube across its pseudo-channels."""
        return self.banks_per_channel * self.num_pseudo_channels

    @property
    def row_bytes(self) -> int:
        """Bytes stored in one open row of one bank (1 KB for HBM2)."""
        return self.num_columns * self.column_bytes

    @property
    def bank_bytes(self) -> int:
        """Capacity of a single bank."""
        return self.num_rows * self.row_bytes

    def validate(self) -> None:
        """Check internal consistency; raise :class:`ConfigError` otherwise."""
        for name in ("num_bankgroups", "banks_per_group", "num_rows",
                     "num_columns", "column_bytes", "num_stacks",
                     "num_pseudo_channels", "pseudo_channels_per_channel"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.num_pseudo_channels % self.pseudo_channels_per_channel:
            raise ConfigError(
                f"{self.num_pseudo_channels} pseudo-channels do not split "
                f"into physical channels of "
                f"{self.pseudo_channels_per_channel}")
        if self.bank_bytes * self.total_banks != self.capacity_bytes:
            raise ConfigError(
                "capacity mismatch: banks provide "
                f"{self.bank_bytes * self.total_banks} bytes but capacity is "
                f"{self.capacity_bytes} bytes")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")
        if self.external_bandwidth >= self.internal_bandwidth:
            raise ConfigError("all-bank PIM requires internal bandwidth to "
                              "exceed the external interface")


@dataclass(frozen=True)
class ProcessingUnitConfig:
    """Per-bank processing unit specification (paper Table VIII)."""

    datapath_bytes: int = 32
    clock_hz: float = 250e6
    instruction_slots: int = 32
    instruction_bytes: int = 4
    scalar_register_bytes: int = 16
    num_dense_registers: int = 3
    dense_register_bytes: int = 32
    num_sparse_queues: int = 3
    sparse_queue_bytes: int = 192
    #: Each sparse vector queue splits into row/column/value sub-queues.
    subqueues_per_queue: int = 3

    @property
    def subqueue_bytes(self) -> int:
        """Capacity of one row/col/value sub-queue (64 B in the paper)."""
        return self.sparse_queue_bytes // self.subqueues_per_queue

    def alu_lanes(self, precision: str) -> int:
        """Parallel ALU lanes available for *precision* (Table VIII)."""
        element_size(precision)  # validates the name
        return ALU_LANES[precision]

    def throughput_ops(self, precision: str) -> float:
        """Peak per-unit throughput in operations/second for *precision*.

        One operation per ALU lane per PU clock: e.g. INT8 has 32 lanes at
        250 MHz -> 8 GIOPS peak for a single processing unit.
        """
        return self.alu_lanes(precision) * self.clock_hz

    @property
    def control_register_bytes(self) -> int:
        """Size of the control (instruction) register file: 128 B."""
        return self.instruction_slots * self.instruction_bytes

    def validate(self) -> None:
        """Check internal consistency; raise :class:`ConfigError` otherwise."""
        if self.sparse_queue_bytes % self.subqueues_per_queue:
            raise ConfigError("sparse queue must divide into equal sub-queues")
        if self.control_register_bytes != 128:
            raise ConfigError("paper specifies a 128 B control register "
                              f"(32 x 4 B); got {self.control_register_bytes}")
        if self.datapath_bytes <= 0 or self.clock_hz <= 0:
            raise ConfigError("datapath width and clock must be positive")
        if self.subqueue_bytes < self.datapath_bytes:
            raise ConfigError("a sub-queue must hold at least one 32 B beat")


@dataclass(frozen=True)
class SystemConfig:
    """A complete pSyncPIM system: ``num_cubes`` HBM2 cubes with one PU/bank.

    The paper evaluates the 1x configuration (256 processing units,
    256 GB/s external) and a 3x configuration whose 768 GB/s external
    bandwidth matches the RTX 3080's 760 GB/s.
    """

    memory: HBM2Config = dataclasses.field(default_factory=HBM2Config)
    unit: ProcessingUnitConfig = dataclasses.field(
        default_factory=ProcessingUnitConfig)
    num_cubes: int = 1
    #: Sub-matrix tiles are bounded by one memory row on each dimension.
    submatrix_limit_bytes: int = 1024

    @property
    def total_units(self) -> int:
        """Processing units in the system (one per bank; 256 per cube)."""
        return self.memory.total_banks * self.num_cubes

    @property
    def external_bandwidth(self) -> float:
        """Aggregate host-visible bandwidth in bytes/s."""
        return self.memory.external_bandwidth * self.num_cubes

    @property
    def internal_bandwidth(self) -> float:
        """Aggregate bank-level bandwidth in bytes/s."""
        return self.memory.internal_bandwidth * self.num_cubes

    def peak_throughput(self, precision: str) -> float:
        """System-wide peak ALU throughput (ops/s) for *precision*.

        Table VIII reports per-cube numbers, e.g. FP64:
        4 lanes x 250 MHz x 256 units / cube = 3.2 GFLOPS per stack group.
        """
        return self.unit.throughput_ops(precision) * self.total_units

    def vector_capacity(self, precision: str) -> int:
        """Max elements of an input/output vector tile in one memory row."""
        return self.submatrix_limit_bytes // element_size(precision)

    def validate(self) -> "SystemConfig":
        """Validate all nested configs and cross-cutting constraints."""
        self.memory.validate()
        self.unit.validate()
        if self.num_cubes <= 0:
            raise ConfigError("num_cubes must be positive")
        if self.submatrix_limit_bytes > self.memory.row_bytes:
            raise ConfigError(
                "sub-matrix tiles must fit one memory row: limit "
                f"{self.submatrix_limit_bytes} exceeds row size "
                f"{self.memory.row_bytes}")
        return self


def default_system(num_cubes: int = 1) -> SystemConfig:
    """Build and validate the paper's evaluation configuration.

    ``num_cubes=1`` is the baseline pSyncPIM; ``num_cubes=3`` is the paper's
    3x configuration used to match GPU external bandwidth in Figure 8.
    """
    return SystemConfig(num_cubes=num_cubes).validate()


def gddr6_aim_system(num_devices: int = 1) -> SystemConfig:
    """A GDDR6-AiM-style platform running the pSyncPIM execution model.

    The paper contrasts two commercial all-bank PIM products (§II-B):
    Samsung's HBM-PIM (the evaluation substrate, :func:`default_system`)
    and SK Hynix's GDDR6-AiM. This configuration approximates a 16-chip
    AiM card: per chip, 2 channels x 16 banks with 2 KB rows at 1 GHz
    command rate, one processing unit per bank — 512 units per card with
    1 TB/s aggregate external bandwidth but less internal bandwidth per
    unit than HBM2 stacks. The same partitioning/lock-step machinery runs
    unchanged; only the geometry differs.
    """
    memory = HBM2Config(
        num_bankgroups=4,
        banks_per_group=4,
        num_rows=16384,
        num_columns=64,
        column_bytes=32,          # 2 KB rows (GDDR6 page size)
        num_stacks=16,            # chips on the card
        num_pseudo_channels=32,   # 2 channels x 16 chips
        address_mapping="rorabgbachco",
        clock_hz=1e9,
        external_bandwidth=1024e9,
        internal_bandwidth=4e12,
        capacity_bytes=32 * 16 * 16384 * 2048,
    )
    return SystemConfig(memory=memory, num_cubes=num_devices,
                        submatrix_limit_bytes=2048).validate()


#: Throughput figures as printed in Table VIII (GOPS / GFLOPS). The paper
#: does not state the aggregation level explicitly; the per-unit peak is
#: ``alu_lanes(precision) * clock_hz`` and these constants are kept verbatim
#: for reporting alongside modelled numbers in the Figure 10 benchmark.
TABLE_VIII_THROUGHPUT_GOPS: Dict[str, float] = {
    "int8": 25.6,
    "int16": 12.8,
    "fp16": 12.8,
    "int32": 6.4,
    "fp32": 6.4,
    "int64": 3.2,
    "fp64": 3.2,
}
