"""pSyncPIM core: partitioning, distribution, SpMV/SpMM/SpTRSV
execution, trace synthesis and timing."""

from .partition import (PartitionPlan, SubMatrix, partition, reassemble,
                        tile_capacity)
from .distribution import (Assignment, ChannelAssignment,
                           accumulation_traffic_bytes, distribute,
                           replication_traffic_bytes, shard_channels)
from .spmv import (SpmvExecution, SpmvResult, element_bytes, plan_spmv,
                   run_spmv)
from .spmm import (SpmmExecution, SpmmResult, as_spmm_execution, plan_spmm,
                   run_spmm)
from .strategies import (AutoStrategy, PartitionStrategy, TuneResult,
                         estimate_cycles, make_strategy, register_strategy,
                         strategy_names, tune_strategy)
from .sptrsv import (ILDUFactors, SpTrsvExecution, SpTrsvResult, ildu,
                     level_schedule, recursive_plan, reorder_by_levels,
                     run_sptrsv, solve_unit_triangular_reference)
from .trace import (SegmentedTrace, TraceParams, dense_stream_trace,
                    rhs_block_width, spmm_ab_trace, spmm_channels_trace,
                    spmm_pb_trace, sptrsv_ab_trace, sptrsv_channels_trace,
                    synthesize)
from .timing import (PerfReport, price_trace, time_dense_kernel, time_spmm,
                     time_spmv, time_sptrsv)
from .runtime import PSyncPIM

__all__ = [
    "PartitionPlan", "SubMatrix", "partition", "reassemble",
    "tile_capacity", "Assignment", "ChannelAssignment",
    "accumulation_traffic_bytes",
    "distribute", "replication_traffic_bytes", "shard_channels",
    "SpmvExecution", "SpmvResult", "element_bytes", "plan_spmv",
    "run_spmv", "SpmmExecution", "SpmmResult", "as_spmm_execution",
    "plan_spmm", "run_spmm", "AutoStrategy", "PartitionStrategy",
    "TuneResult", "estimate_cycles", "make_strategy", "register_strategy",
    "strategy_names", "tune_strategy", "ILDUFactors",
    "SpTrsvExecution", "SpTrsvResult", "ildu", "level_schedule",
    "recursive_plan", "reorder_by_levels", "run_sptrsv",
    "solve_unit_triangular_reference", "SegmentedTrace", "TraceParams",
    "dense_stream_trace", "rhs_block_width", "spmm_ab_trace",
    "spmm_channels_trace", "spmm_pb_trace", "sptrsv_ab_trace",
    "sptrsv_channels_trace", "synthesize", "PerfReport", "price_trace",
    "time_dense_kernel", "time_spmm", "time_spmv", "time_sptrsv",
]
