"""Graph applications over the backend interface (Table II).

Each application is a standard linear-algebra formulation (the GraphBLAS
style the paper's GPU baseline uses): frontiers, labels and distances are
dense vectors, and every traversal step is a semiring SpMV. The same code
runs on the GPU and PIM backends; only the cost metering differs.

All functions return an :class:`AppResult` with the numerical answer, the
iteration count and the backend's kernel-class time breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..errors import ExecutionError
from ..formats import COOMatrix, group_starts, stable_order
from .backends import Backend


@dataclass
class AppResult:
    """Outcome of one application run on one backend."""

    name: str
    backend: str
    value: object
    iterations: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.breakdown.values())


def _finish(name: str, backend: Backend, value, iterations) -> AppResult:
    result = AppResult(name=name, backend=backend.name, value=value,
                       iterations=iterations,
                       breakdown=dict(backend.ledger))
    return result


def bfs(graph: COOMatrix, source: int, backend: Backend,
        precision: str = "int8") -> AppResult:
    """Breadth-first search: boolean-semiring frontier expansion.

    Returns the level (hop distance) of every vertex, -1 if unreachable.
    Frontiers are boolean, so the PIM runs the INT8 value format (§VII-B);
    the GPU model floors at FP32 either way.
    """
    n = graph.shape[0]
    if not 0 <= source < n:
        raise ExecutionError("BFS source out of range")
    backend.reset()
    at = graph.transpose()  # pull direction: f' = A^T f
    levels = np.full(n, -1.0)
    levels[source] = 0.0
    frontier = np.zeros(n)
    frontier[source] = 1.0
    iterations = 0
    while frontier.any() and iterations < n:
        iterations += 1
        reached = backend.spmv(at, frontier, multiply="land",
                               accumulate="lor", precision=precision)
        # masked frontier update: GraphBLAST fuses the visited mask into
        # the traversal, so this is one metered vector kernel
        frontier = backend.ewise(reached, (levels < 0).astype(float),
                                 "mul", precision=precision)
        levels[frontier > 0] = iterations
    return _finish("BFS", backend, levels, iterations)


def connected_components(graph: COOMatrix, backend: Backend,
                         max_iterations: int = 1000,
                         precision: str = "int32") -> AppResult:
    """Label propagation on the symmetrised graph: l' = min(l, A . l).

    Labels are vertex indices, so INT32 operands suffice on the PIM.
    """
    n = graph.shape[0]
    backend.reset()
    sym = _symmetrise(graph)
    labels = np.arange(n, dtype=float)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        pulled = backend.spmv(sym, labels, multiply="second",
                              accumulate="min",
                              y0=np.full(n, np.inf), precision=precision)
        new_labels = backend.ewise(labels, pulled, "min",
                                   precision=precision)
        changed = backend.dot((new_labels != labels).astype(float),
                              np.ones(n), precision=precision)
        labels = new_labels
        if changed == 0:
            break
    return _finish("CC", backend, labels, iterations)


def pagerank(graph: COOMatrix, backend: Backend, damping: float = 0.85,
             iterations: int = 20,
             precision: str = "fp32") -> AppResult:
    """Power-iteration PageRank with uniform teleport (FP32 ranks)."""
    n = graph.shape[0]
    backend.reset()
    out_degree = np.maximum(graph.row_counts(), 1).astype(float)
    # column-stochastic walk matrix W^T = (A / outdeg)^T
    walk = COOMatrix(graph.shape, graph.cols.copy(), graph.rows.copy(),
                     graph.vals / out_degree[graph.rows], check=False)
    rank = np.full(n, 1.0 / n)
    teleport = np.full(n, (1.0 - damping) / n)
    for _ in range(iterations):
        spread = backend.spmv(walk, rank, precision=precision)
        rank = backend.axpy(damping, spread, teleport,
                            precision=precision)
    return _finish("PR", backend, rank, iterations)


def sssp(graph: COOMatrix, source: int, backend: Backend,
         precision: str = "fp32") -> AppResult:
    """Bellman-Ford SSSP on the (min, +) semiring (FP32 distances)."""
    n = graph.shape[0]
    if not 0 <= source < n:
        raise ExecutionError("SSSP source out of range")
    backend.reset()
    at = graph.transpose()
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    iterations = 0
    while iterations < n:
        iterations += 1
        relaxed = backend.spmv(at, dist, multiply="add", accumulate="min",
                               y0=dist, precision=precision)
        changed = backend.dot((relaxed < dist).astype(float), np.ones(n),
                              precision=precision)
        dist = backend.ewise(dist, relaxed, "min", precision=precision)
        if changed == 0:
            break
    return _finish("SSSP", backend, dist, iterations)


def triangle_count(graph: COOMatrix, backend: Backend) -> AppResult:
    """Masked-SpGEMM triangle counting (the Fig. 13 workload).

    ``C = (L @ L) .* L`` over the lower triangle of the symmetrised
    adjacency counts each triangle once; the reduction of C runs as an
    SpMV against the all-ones vector (the kernel the Fig. 13 experiment
    offloads to pSyncPIM).
    """
    backend.reset()
    sym = _symmetrise(graph)
    lower = sym.strictly_lower()
    closed = backend.spgemm(lower, lower, mask=lower)
    row_sums = backend.spmv(closed, np.ones(closed.shape[1]),
                            precision="int32")
    total = backend.dot(row_sums, np.ones(row_sums.size),
                        precision="int32")
    return _finish("TC", backend, float(round(total)), 1)


def _symmetrise(graph: COOMatrix) -> COOMatrix:
    """Undirected view of a graph: pattern of A | A^T with unit weights."""
    rows = np.concatenate([graph.rows, graph.cols])
    cols = np.concatenate([graph.cols, graph.rows])
    n = graph.shape[1]
    keys = rows * n + cols
    order = stable_order(keys)
    first = order[group_starts(keys[order])]
    return COOMatrix(graph.shape, rows[first], cols[first],
                     np.ones(first.size), check=False)
