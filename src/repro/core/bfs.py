"""Vectorized breadth-first search on CSR adjacency.

BFS is the backbone of both the pseudo-peripheral vertex finder
(Algorithm 2/4) and the RCM ordering sweep (Algorithm 1/3).  The serial
reference implementation here expands whole frontiers with numpy gathers
rather than vertex-at-a-time queue pops; it is used by metrics, the serial
RCM, connected components, and as a test oracle for the algebraic
formulation.

When scipy imports, :func:`bfs_levels` called with its defaults runs the
whole traversal in one compiled ``scipy.sparse.csgraph`` call instead of
one Python iteration (~15 numpy calls) per level; the level loop stays
as the explicit-``backend=``/``direction=`` path, the scipy-absent path
and the oracle the tests compare against.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix

# Imported eagerly, never at first call: the service and the worker pool
# fork before the first ordering, and a lazy import would land in their
# first request.  scipy is optional; without it every traversal takes the
# level loop.
try:
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
except ImportError:
    breadth_first_order = None

__all__ = ["gather_rows", "bfs_levels", "bfs_parents", "level_sets"]

#: Largest vertex or entry count csgraph's int32 index arrays can hold;
#: bigger graphs take the level loop.
INT32_LIMIT = int(np.iinfo(np.int32).max)


def gather_rows(A: CSRMatrix, rows: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given rows (with duplicates)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    starts = A.indptr[rows]
    lens = A.indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
    gather = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lens)
    return A.indices[gather]


def _compiled_traversal_ok(A: CSRMatrix) -> bool:
    """True when csgraph can traverse ``A`` (scipy present, square, int32-sized)."""
    return (
        breadth_first_order is not None
        and A.nrows == A.ncols
        and max(A.nrows, A.nnz) <= INT32_LIMIT
    )


def _csgraph_pattern(A: CSRMatrix, indices: np.ndarray | None = None):
    """An int32 scipy CSR handle on ``A``'s pattern for csgraph traversals.

    ``indices`` (default ``A.indices``) may reorder the entries within
    each row; csgraph visits a row's neighbors in stored order.  The
    values are one broadcast scalar, so ``A.data`` is neither copied nor
    touched — traversals read only the structure.
    """
    if indices is None:
        indices = A.indices
    n = A.nrows
    ones = np.broadcast_to(np.float64(1.0), (A.nnz,))
    return _csr_matrix((ones, indices.astype(np.int32), A.indptr.astype(np.int32)), shape=(n, n))


def _bfs_levels_compiled(A: CSRMatrix, root: int) -> tuple[np.ndarray, int]:
    """:func:`bfs_levels` as one csgraph traversal along out-edges.

    A queue BFS visits parents in order, so the parents' positions in the
    visit order never decrease along it.  Level ``d + 1`` therefore ends
    right after the last vertex whose parent lies in level ``d``: one
    lookup in the running count of parent positions per level.
    """
    handle = A._cache.get("csgraph")
    if handle is None:
        handle = A._cache["csgraph"] = _csgraph_pattern(A)
    order, pred = breadth_first_order(handle, root, directed=True, return_predecessors=True)
    n, m = A.nrows, order.size
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(m, dtype=np.int64)
    # children_upto[p]: visited non-root vertices whose parent sits at
    # position <= p
    children_upto = np.cumsum(np.bincount(pos[pred[order[1:]]], minlength=m)).tolist()
    bounds = [0, 1]
    while bounds[-1] < m:
        bounds.append(children_upto[bounds[-1] - 1] + 1)
    nlevels = len(bounds) - 1
    levels = np.full(n, -1, dtype=np.int64)
    levels[order] = np.repeat(np.arange(nlevels, dtype=np.int64), np.diff(bounds))
    return levels, nlevels


def bfs_levels(
    A: CSRMatrix, root: int, backend=None, direction=None
) -> tuple[np.ndarray, int]:
    """Level of every vertex from ``root`` (-1 if unreachable).

    Returns ``(levels, nlevels)`` where ``nlevels`` counts nonempty levels
    (the rooted level structure length, i.e. eccentricity + 1).

    Called with its defaults, the BFS is one compiled csgraph traversal
    along out-edges (the same levels as ``direction="push"``).  It calls
    no kernel backend, so an active ``backend_scope`` does not change
    it; name the backend to time or test one.  Passing
    ``backend=`` or ``direction=`` — or running without scipy, or on a
    graph too big for int32 indices — runs the per-level loop: the
    frontier-expansion kernel is supplied by the kernel backend
    (:mod:`repro.backends`) and every backend returns identical levels.

    ``direction`` selects the level kernel (:mod:`repro.core.direction`):
    ``"push"`` expands the frontier top-down, ``"pull"`` scans the
    unvisited vertices bottom-up, and ``"adaptive"`` (the loop's
    default) switches per level on Beamer-style edge-count thresholds.
    On a structurally symmetric pattern levels are identical for every
    direction — only the work profile changes.  On a non-symmetric one
    they are not: push follows out-edges and pull follows in-edges.
    """
    n = A.nrows
    if not (0 <= root < n):
        raise ValueError("root out of range")
    if backend is None and direction is None and _compiled_traversal_ok(A):
        return _bfs_levels_compiled(A, int(root))
    from ..backends import resolve_backend
    from .direction import PULL, PUSH, resolve_direction

    policy = resolve_direction(direction)
    kernels = resolve_backend(backend)
    levels = np.full(n, -1, dtype=np.int64)
    unvisited = np.ones(n, dtype=bool)
    levels[root] = 0
    unvisited[root] = False
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    current = PUSH
    if policy.adaptive:
        degrees = A.degrees()
        unvisited_edges = int(A.nnz) - int(degrees[root])
        frontier_edges = int(degrees[root])
    while frontier.size:
        current = (
            policy.choose(
                frontier_nnz=int(frontier.size),
                frontier_edges=frontier_edges,
                unvisited_edges=unvisited_edges,
                n=n,
                current=current,
            )
            if policy.adaptive
            else policy.mode
        )
        if current == PULL:
            neigh = kernels.expand_frontier_pull(A, frontier, unvisited)
        else:
            neigh = kernels.expand_frontier(A, frontier, unvisited)
        depth += 1
        levels[neigh] = depth
        unvisited[neigh] = False
        frontier = neigh
        if policy.adaptive and frontier.size:
            frontier_edges = int(degrees[frontier].sum())
            unvisited_edges -= frontier_edges
    # the loop runs once per nonempty level, so `depth` == level count
    return levels, depth


def level_sets(levels: np.ndarray) -> list[np.ndarray]:
    """Vertices grouped by BFS level, ascending (unreached excluded)."""
    reached = levels >= 0
    if not reached.any():
        return []
    nlv = int(levels[reached].max()) + 1
    return [np.flatnonzero(levels == d).astype(np.int64) for d in range(nlv)]


def bfs_parents(A: CSRMatrix, root: int) -> np.ndarray:
    """Min-index BFS parent of each vertex (-1 for root/unreachable).

    The parent choice mirrors the paper's ``(select2nd, min)`` semiring
    when vertex labels coincide with vertex ids: each discovered vertex
    attaches to its smallest-id visited neighbor in the previous level.
    """
    n = A.nrows
    parents = np.full(n, -1, dtype=np.int64)
    levels = np.full(n, -1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        # expand with explicit (child, parent) pairs, keep min parent
        starts = A.indptr[frontier]
        stops = A.indptr[frontier + 1]
        lens = stops - starts
        children = gather_rows(A, frontier)
        parent_of_edge = np.repeat(frontier, lens)
        fresh = levels[children] == -1
        children, parent_of_edge = children[fresh], parent_of_edge[fresh]
        if children.size == 0:
            break
        order = np.lexsort((parent_of_edge, children))
        children, parent_of_edge = children[order], parent_of_edge[order]
        first = np.empty(children.size, dtype=bool)
        first[0] = True
        np.not_equal(children[1:], children[:-1], out=first[1:])
        new = children[first]
        parents[new] = parent_of_edge[first]
        levels[new] = levels[frontier[0]] + 1 if frontier.size else 0
        frontier = new
    return parents
