"""Serial Reverse Cuthill-McKee (paper Algorithms 1 and 2).

Two independent implementations are provided:

* :func:`cuthill_mckee_queue` — the textbook vertex-at-a-time queue
  formulation of Algorithm 1, kept deliberately simple; it is the oracle
  against which everything else is tested.
* :func:`rcm_serial` — labels each component with one compiled queue
  BFS (scipy's csgraph) over a copy of the graph whose rows are sorted
  by neighbor (degree, vertex id) rank: a queue BFS over rows sorted
  that way *is* Algorithm 1.  Dense graphs, and runs without scipy,
  take a vectorized level-at-a-time sweep whose per-level ordering key
  ``(parent label, degree, vertex id)`` is exactly the semantics of the
  paper's Algorithm 3.  Both must (and do, by test) coincide with the
  queue version and the distributed algebraic version.

Both handle disconnected graphs by restarting from the smallest
unnumbered vertex and finding a pseudo-peripheral root of its component,
as the paper prescribes.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .bfs import (
    _compiled_traversal_ok,
    _csgraph_pattern,
    breadth_first_order,
    gather_rows,
)
from .bfs_multi import DENSE_DEGREE_THRESHOLD
from .ordering import Ordering
from .pseudo_peripheral import find_pseudo_peripheral

__all__ = ["cuthill_mckee_queue", "rcm_serial", "cm_serial"]


def _check_adjacency(A: CSRMatrix) -> None:
    if A.nrows != A.ncols:
        raise ValueError("RCM requires a square (symmetric) matrix")


def cuthill_mckee_queue(A: CSRMatrix, root: int, degrees: np.ndarray | None = None) -> np.ndarray:
    """Classic Algorithm 1 on ``root``'s component: CM labels, -1 outside.

    For each vertex in label order, its unnumbered neighbors are appended
    sorted by (degree, vertex id).  Returns the dense label array.
    """
    _check_adjacency(A)
    if degrees is None:
        degrees = A.degrees()
    n = A.nrows
    labels = np.full(n, -1, dtype=np.int64)
    order: list[int] = [int(root)]
    labels[root] = 0
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        neigh = A.row(v)
        fresh = neigh[labels[neigh] == -1]
        if fresh.size:
            key = np.lexsort((fresh, degrees[fresh]))
            for w in fresh[key]:
                labels[w] = len(order)
                order.append(int(w))
    return labels


def _cm_component_levelwise(
    A: CSRMatrix,
    root: int,
    degrees: np.ndarray,
    labels: np.ndarray,
    next_label: int,
) -> int:
    """Label ``root``'s component level-by-level; returns the next label.

    The per-level sort key (min parent label, degree, vertex id) is the
    lexicographic tuple of Algorithm 3 line 9.
    """
    labels[root] = next_label
    next_label += 1
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        lens = A.indptr[frontier + 1] - A.indptr[frontier]
        children = gather_rows(A, frontier)
        parent_labels = np.repeat(labels[frontier], lens)
        fresh = labels[children] == -1
        children, parent_labels = children[fresh], parent_labels[fresh]
        if children.size == 0:
            break
        # minimum parent label per child == the (select2nd, min) semiring
        by_child = np.lexsort((parent_labels, children))
        children, parent_labels = children[by_child], parent_labels[by_child]
        first = np.empty(children.size, dtype=bool)
        first[0] = True
        np.not_equal(children[1:], children[:-1], out=first[1:])
        children, parent_labels = children[first], parent_labels[first]
        # Algorithm 3 line 9: lexicographic (parent label, degree, id)
        order = np.lexsort((children, degrees[children], parent_labels))
        ordered = children[order]
        labels[ordered] = next_label + np.arange(ordered.size, dtype=np.int64)
        next_label += ordered.size
        frontier = ordered
    return next_label


def _degree_ranked_csgraph(A: CSRMatrix, degrees: np.ndarray):
    """csgraph handle on ``A`` with each row sorted by neighbor (degree, id).

    Built once per matrix (cached); the sort is one fused-key
    ``np.sort`` of ``row * n + rank``, O(nnz log nnz), which is why
    dense graphs keep the level-wise sweep.
    """
    handle = A._cache.get("csgraph_cm")
    if handle is None:
        n = A.nrows
        by_rank = np.argsort(degrees, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n, dtype=np.int64)
        row_base = A.row_of_entry() * n
        rank_sorted = np.sort(row_base + rank[A.indices]) - row_base
        handle = A._cache["csgraph_cm"] = _csgraph_pattern(A, by_rank[rank_sorted])
    return handle


def _cm_component_compiled(handle, root: int, labels: np.ndarray, next_label: int) -> int | None:
    """Label ``root``'s component in queue-BFS order; returns the next label.

    Returns ``None``, labelling nothing, when the traversal reaches an
    already-labelled vertex — possible only on a non-symmetric pattern,
    where the caller falls back to the level-wise sweep.
    """
    order = breadth_first_order(handle, root, directed=True, return_predecessors=False)
    if (labels[order] != -1).any():
        return None
    labels[order] = next_label + np.arange(order.size, dtype=np.int64)
    return next_label + order.size


def cm_serial(A: CSRMatrix, start: int | None = None) -> Ordering:
    """Cuthill-McKee ordering (not reversed) of all components.

    Components are processed in order of their smallest unnumbered vertex;
    each starts from a pseudo-peripheral root found by Algorithm 2/4 (or
    from ``start`` for the first component when given).  Sparse graphs
    (average degree below ``DENSE_DEGREE_THRESHOLD``) are labelled by
    the compiled queue BFS when csgraph can run; dense ones, where
    sorting the rows costs more than it saves, level by level.
    """
    _check_adjacency(A)
    n = A.nrows
    degrees = A.degrees()
    cm_handle = None
    if A.nnz < DENSE_DEGREE_THRESHOLD * n and _compiled_traversal_ok(A):
        cm_handle = _degree_ranked_csgraph(A, degrees)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    roots: list[int] = []
    levels: list[int] = []
    bfs_total = 0
    cursor = 0
    first_component = True
    while next_label < n:
        while labels[cursor] != -1:
            cursor += 1
        seed = start if (first_component and start is not None) else cursor
        first_component = False
        pp = find_pseudo_peripheral(A, seed, degrees)
        roots.append(pp.vertex)
        levels.append(pp.nlevels)
        bfs_total += pp.bfs_count
        labelled = None
        if cm_handle is not None:
            labelled = _cm_component_compiled(cm_handle, pp.vertex, labels, next_label)
        if labelled is None:
            labelled = _cm_component_levelwise(A, pp.vertex, degrees, labels, next_label)
        next_label = labelled
    if next_label == n and (n == 0 or labels.min() >= 0):
        # every vertex labelled exactly once: invert instead of sorting
        perm = np.empty(n, dtype=np.int64)
        perm[labels] = np.arange(n, dtype=np.int64)
    else:  # a non-symmetric pattern can leave gaps
        perm = np.argsort(labels, kind="stable").astype(np.int64)
    return Ordering(
        perm=perm,
        algorithm="cm-serial",
        roots=roots,
        peripheral_bfs_count=bfs_total,
        levels_per_component=levels,
    )


def rcm_serial(A: CSRMatrix, start: int | None = None) -> Ordering:
    """Reverse Cuthill-McKee ordering of a symmetric sparse matrix.

    This is the library's serial reference implementation; see
    :func:`repro.rcm` for the user-facing entry point that can also run
    the distributed algorithm.
    """
    cm = cm_serial(A, start=start)
    rcm = cm.reversed()
    rcm.algorithm = "rcm-serial"
    return rcm
