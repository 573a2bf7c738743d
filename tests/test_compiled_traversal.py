"""The compiled whole-traversal serial path against its level-loop oracles.

``bfs_levels`` called with its defaults and the sparse-graph CM sweep of
``rcm_serial`` each run one scipy csgraph traversal.  These tests pin
them to the numpy level loop, to the textbook queue Algorithm 1 and to
the algebraic RCM, and check every fallback: scipy absent, int32
overflow, dense graphs and non-symmetric patterns.
"""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bfs_levels, cuthill_mckee_queue, rcm_algebraic, rcm_serial
from repro.core.bfs_multi import DENSE_DEGREE_THRESHOLD
from repro.matrices import stencil_2d
from repro.matrices.suite import PAPER_SUITE
from repro.sparse import COOMatrix, CSRMatrix
from tests.conftest import level_loop

# import_module: repro.core re-exports the function rcm_serial under the
# submodule's name
bfs_mod = importlib.import_module("repro.core.bfs")
rcm_mod = importlib.import_module("repro.core.rcm_serial")

needs_csgraph = pytest.mark.skipif(
    bfs_mod.breadth_first_order is None, reason="scipy.sparse.csgraph not importable"
)


def graph_from_edges(n, edges):
    """Symmetric pattern from an edge list; ``(v, v)`` keeps a self-loop."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return CSRMatrix.from_coo(COOMatrix.from_edges(n, e))


def directed_graph(n, edges):
    """Pattern with exactly the given (row, col) entries — no mirroring."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return CSRMatrix.from_coo(COOMatrix(n, n, e[:, 0], e[:, 1], np.ones(len(e))))


def queue_rcm_perm(A, roots):
    """RCM permutation from Algorithm 1 (the queue oracle) on given roots."""
    labels = np.full(A.nrows, -1, dtype=np.int64)
    offset = 0
    for root in roots:
        comp = cuthill_mckee_queue(A, root)
        mask = comp >= 0
        labels[mask] = comp[mask] + offset
        offset += int(mask.sum())
    return np.argsort(labels, kind="stable")[::-1]


@st.composite
def mixed_graphs(draw):
    """Random symmetric graphs with the shapes that break BFS shortcuts:
    disconnected pieces, isolated vertices, self-loops, one long path
    and one dense block."""
    n = draw(st.integers(min_value=1, max_value=70))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))  # loops too
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        path = rng.permutation(n)[: draw(st.integers(1, n))]
        edges += list(zip(path[:-1].tolist(), path[1:].tolist()))
    if draw(st.booleans()):
        block = rng.permutation(n)[: draw(st.integers(1, min(n, 60)))]
        edges += [(int(u), int(v)) for i, u in enumerate(block) for v in block[i + 1 :]]
    return graph_from_edges(n, edges), int(rng.integers(n))


@needs_csgraph
@given(mixed_graphs())
@settings(max_examples=60, deadline=None)
def test_compiled_paths_match_level_loop_oracles(case):
    A, root = case
    levels, nlevels = bfs_levels(A, root)
    ref, ref_n = bfs_levels(A, root, backend="numpy", direction="push")
    assert np.array_equal(levels, ref) and nlevels == ref_n
    got = rcm_serial(A)
    assert np.array_equal(got.perm, queue_rcm_perm(A, got.roots))
    assert np.array_equal(got.perm, rcm_algebraic(A).perm)


def _suite_inputs():
    small = graph_from_edges(9, [(0, 1), (1, 2), (2, 2), (4, 5), (6, 7), (7, 8), (8, 6)])
    return [PAPER_SUITE[name].build(0.3) for name in ("ldoor", "nd24k", "li7nmax6")] + [small]


@needs_csgraph
def test_without_scipy_orderings_are_identical(monkeypatch):
    """Patching the csgraph entry point to None stands in for no scipy."""
    compiled = [rcm_serial(A).perm for A in _suite_inputs()]
    monkeypatch.setattr(bfs_mod, "breadth_first_order", None)
    for A, perm in zip(_suite_inputs(), compiled):
        assert np.array_equal(rcm_serial(A).perm, perm)
        assert "csgraph" not in A._cache and "csgraph_cm" not in A._cache


@needs_csgraph
def test_default_path_calls_no_kernel_backend(monkeypatch):
    """The compiled default bypasses the kernel backend, even inside a
    backend scope; ``level_loop`` (which backend-invariance tests use)
    puts serial RCM back on the scoped backend's frontier kernels."""
    from repro.backends import backend_scope
    from repro.backends.numpy_backend import NumpyBackend

    calls = []
    for kernel in ("expand_frontier", "expand_frontier_pull"):
        inner = getattr(NumpyBackend, kernel)

        def counted(self, *args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, kernel, counted)
    A = stencil_2d(12, 12)
    with backend_scope("numpy"):
        perm = rcm_serial(A).perm
        assert not calls
        with level_loop():
            assert np.array_equal(rcm_serial(A).perm, perm)
    assert calls


@needs_csgraph
def test_int32_overflow_takes_the_level_loop(monkeypatch):
    A = stencil_2d(12, 12)
    compiled_levels = bfs_levels(A, 5)
    compiled_perm = rcm_serial(A).perm
    monkeypatch.setattr(bfs_mod, "INT32_LIMIT", A.nnz - 1)
    B = stencil_2d(12, 12)
    assert not bfs_mod._compiled_traversal_ok(B)
    levels, nlevels = bfs_levels(B, 5)
    assert np.array_equal(levels, compiled_levels[0]) and nlevels == compiled_levels[1]
    assert np.array_equal(rcm_serial(B).perm, compiled_perm)
    assert "csgraph" not in B._cache and "csgraph_cm" not in B._cache


def _random_graph(n, avg_degree, seed):
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    return graph_from_edges(n, rng.integers(0, n, size=(m, 2)))


@needs_csgraph
@pytest.mark.parametrize("avg_degree, dense", [(6.0, False), (90.0, True)])
def test_both_sides_of_the_dense_threshold_match_the_oracle(avg_degree, dense):
    A = _random_graph(300, avg_degree, seed=7)
    assert (A.nnz / A.nrows >= DENSE_DEGREE_THRESHOLD) == dense
    got = rcm_serial(A)
    # sparse graphs take the compiled CM sweep, dense ones the level-wise one
    assert ("csgraph_cm" in A._cache) != dense
    assert np.array_equal(got.perm, queue_rcm_perm(A, got.roots))
    assert np.array_equal(got.perm, rcm_algebraic(A).perm)


@needs_csgraph
def test_default_bfs_follows_out_edges_like_push():
    """Known direction dependence on non-symmetric patterns: with the
    single edge 0->1, a pull step scans in-edges and never reaches 1.
    The compiled default follows out-edges, exactly like push.  Such
    input is accepted silently today; rejecting it is still open."""
    A = directed_graph(2, [(0, 1)])
    push = bfs_levels(A, 0, direction="push")
    assert push[0].tolist() == [0, 1] and push[1] == 2
    levels, nlevels = bfs_levels(A, 0)
    assert np.array_equal(levels, push[0]) and nlevels == push[1]
    assert bfs_levels(A, 0, direction="pull")[0].tolist() == [0, -1]


@needs_csgraph
def test_compiled_sweep_refuses_to_relabel():
    """On a non-symmetric pattern the queue BFS can walk into a labelled
    component; the sweep then labels nothing and reports it."""
    A = directed_graph(3, [(0, 1), (1, 0), (2, 0)])
    handle = rcm_mod._degree_ranked_csgraph(A, A.degrees())
    labels = np.array([0, 1, -1])
    assert rcm_mod._cm_component_compiled(handle, 2, labels, 2) is None
    assert labels.tolist() == [0, 1, -1]
    assert rcm_mod._cm_component_compiled(handle, 0, np.full(3, -1), 0) == 2


@st.composite
def directed_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    return directed_graph(n, edges or np.empty((0, 2)))


@needs_csgraph
@given(directed_graphs())
@example(directed_graph(3, [(0, 1), (1, 0), (2, 0)]))  # reaches a labelled vertex
@settings(max_examples=100, deadline=None)
def test_non_symmetric_sweep_matches_the_level_wise_sweep(A):
    got = rcm_mod.cm_serial(A).perm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rcm_mod, "DENSE_DEGREE_THRESHOLD", 0.0)  # level-wise only
        ref = rcm_mod.cm_serial(A).perm
    assert np.array_equal(got, ref)
