"""Property-based tests (hypothesis) on core invariants.

These cover the load-bearing invariants with randomized inputs:
permutation algebra, ordering validity, semiring kernel equivalence,
bucket-sort agreement with the serial sort, and metric consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bandwidth, bandwidth_of_permutation, rcm_algebraic, rcm_serial
from repro.core.primitives import sortperm
from repro.distributed import (
    DistContext,
    DistDenseVector,
    DistSparseVector,
    d_sortperm,
    rcm_distributed,
)
from repro.machine import ProcessGrid, zero_latency
from repro.semiring import SELECT2ND_MIN, PLUS_TIMES, spmspv_csc, spmspv_csr
from repro.sparse import (
    CSCMatrix,
    SparseVector,
    invert_permutation,
    is_permutation,
    permute_symmetric,
)
from tests.conftest import csr_from_edges, level_loop


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_n=28):
    """A random undirected graph as (n, edge list)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    max_edges = min(n * (n - 1) // 2, 60)
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            min_size=m,
            max_size=m,
        )
    )
    return n, edges


@st.composite
def permutations(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


# ----------------------------------------------------------------------
# Permutation algebra
# ----------------------------------------------------------------------
@given(permutations())
@settings(max_examples=60, deadline=None)
def test_inverse_of_inverse_is_identity(perm):
    assert np.array_equal(invert_permutation(invert_permutation(perm)), perm)


@given(permutations())
@settings(max_examples=60, deadline=None)
def test_inverse_composes_to_identity(perm):
    ip = invert_permutation(perm)
    assert np.array_equal(perm[ip], np.arange(perm.size))


# ----------------------------------------------------------------------
# RCM validity + determinism
# ----------------------------------------------------------------------
@given(graphs())
@settings(max_examples=40, deadline=None)
def test_rcm_is_always_a_permutation(g):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    o = rcm_serial(A)
    assert is_permutation(o.perm, n)


@given(graphs(max_n=20))
@settings(max_examples=25, deadline=None)
def test_algebraic_always_matches_serial(g):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert np.array_equal(rcm_algebraic(A).perm, rcm_serial(A).perm)


@given(graphs(max_n=16), st.sampled_from([1, 4, 9]))
@settings(max_examples=20, deadline=None)
def test_distributed_always_matches_serial(g, p):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    dist = rcm_distributed(A, nprocs=p, machine=zero_latency())
    assert np.array_equal(dist.ordering.perm, rcm_serial(A).perm)


@given(graphs(max_n=20))
@settings(max_examples=25, deadline=None)
def test_symmetric_permutation_preserves_bandwidth_multiset(g):
    """bandwidth(P A P^T) under RCM's own perm == bandwidth via metrics."""
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    perm = rcm_serial(A).perm
    assert bandwidth(permute_symmetric(A, perm)) == bandwidth_of_permutation(A, perm)


# ----------------------------------------------------------------------
# SpMSpV kernels
# ----------------------------------------------------------------------
@given(graphs(max_n=24), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_csc_csr_kernels_always_agree(g, seed):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    rng = np.random.default_rng(seed)
    nnz = rng.integers(0, n + 1)
    idx = np.sort(rng.choice(n, size=nnz, replace=False)).astype(np.int64)
    x = SparseVector(n, idx, rng.integers(0, 10, nnz).astype(np.float64))
    csc = CSCMatrix.from_coo(A.to_coo())
    for sr in (SELECT2ND_MIN, PLUS_TIMES):
        assert spmspv_csc(csc, x, sr) == spmspv_csr(A, x, sr)


@given(graphs(max_n=24))
@settings(max_examples=30, deadline=None)
def test_ordering_is_backend_invariant(g):
    """RCM orderings are bit-identical under every registered backend —
    the backend registry's core contract, on arbitrary graphs.  The
    level loop is where serial RCM calls the backend's kernels."""
    from repro.backends import available_backends, backend_scope

    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    oracle = rcm_serial(A).perm
    for backend in available_backends():
        with backend_scope(backend):
            assert np.array_equal(rcm_serial(A).perm, oracle), backend
            with level_loop():
                assert np.array_equal(rcm_serial(A).perm, oracle), backend


# ----------------------------------------------------------------------
# Distributed bucket sort
# ----------------------------------------------------------------------
@given(
    st.integers(1, 3),  # grid side
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_bucket_sortperm_always_matches_serial(side, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(side * side, 40))
    nnz = int(rng.integers(1, n + 1))
    base = int(rng.integers(0, 50))
    span = int(rng.integers(1, 20))
    idx = np.sort(rng.choice(n, size=nnz, replace=False)).astype(np.int64)
    x = SparseVector(n, idx, rng.integers(base, base + span, nnz).astype(np.float64))
    degrees = rng.integers(0, 6, n).astype(np.float64)
    ctx = DistContext(ProcessGrid(side, side), zero_latency())
    out = d_sortperm(
        DistSparseVector.from_sparse(ctx, x),
        DistDenseVector.from_global(ctx, degrees),
        base,
        span,
        "t",
    )
    assert out.to_sparse() == sortperm(x, degrees)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@given(graphs())
@settings(max_examples=40, deadline=None)
def test_profile_bounded_by_n_times_bandwidth(g):
    from repro.core import profile

    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert profile(A) <= n * bandwidth(A)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_reversal_preserves_bandwidth(g):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    perm = rcm_serial(A).perm
    assert bandwidth_of_permutation(A, perm) == bandwidth_of_permutation(
        A, perm[::-1].copy()
    )


# ----------------------------------------------------------------------
# Reordering service (one shared service on a background event loop —
# forking a worker pool per example would dominate the suite)
# ----------------------------------------------------------------------
class _ServiceLoop:
    """A running :class:`ReorderingService` on a dedicated loop thread.

    ``hypothesis`` drives examples from the pytest thread; the service
    lives on its own event loop so every example can submit through
    ``run_coroutine_threadsafe`` without paying a pool fork.
    """

    def __init__(self):
        import asyncio
        import threading

        from repro.service import ReorderingService, ServiceConfig

        self._asyncio = asyncio
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="service-loop", daemon=True
        )
        self.thread.start()
        self.service = self.call(
            ReorderingService(
                ServiceConfig(workers=2, max_pending=64, cache_capacity=32)
            ).start()
        )

    def call(self, coro):
        return self._asyncio.run_coroutine_threadsafe(coro, self.loop).result(120)

    def close(self):
        self.call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(scope="module")
def service_loop():
    sl = _ServiceLoop()
    yield sl
    sl.close()


@pytest.mark.service
@given(graphs(max_n=24))
@settings(max_examples=20, deadline=None)
def test_service_always_bit_identical_to_direct_rcm(service_loop, g):
    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    r = service_loop.call(service_loop.service.submit(A))
    assert np.array_equal(r.perm, rcm_serial(A).perm)


@pytest.mark.service
@given(graphs(max_n=20), st.integers(2, 6))
@settings(max_examples=15, deadline=None)
def test_identical_concurrent_submissions_compute_once(service_loop, g, k):
    import asyncio

    n, edges = g
    A = csr_from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    svc = service_loop.service

    async def burst():
        svc.cache.clear()  # force a fresh compute for this example
        before = svc.stats.computed
        results = await asyncio.gather(*(svc.submit(A) for _ in range(k)))
        return before, results

    before, results = service_loop.call(burst())
    # single flight: one compute, k identical responses
    assert svc.stats.computed - before == 1
    assert sum(r.coalesced for r in results) == k - 1
    assert len({r.perm.tobytes() for r in results}) == 1
    assert np.array_equal(results[0].perm, rcm_serial(A).perm)


@pytest.mark.service
@given(graphs(max_n=24), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_content_hash_invariant_to_ingestion_chunk_size(g, c1, c2):
    """The service's request identity cannot depend on how the matrix
    was ingested: streaming the same edge list in different chunk sizes
    (mirrored chunk-by-chunk, like the sharded ingestion path) must
    canonicalize to the same CSR and therefore the same content hash."""
    from repro.service import content_hash
    from repro.sparse import COOMatrix, CSRMatrix
    from repro.sparse.stream import UndirectedEdgeStream

    n, edges = g
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    def assemble(chunk_entries):
        stream = UndirectedEdgeStream(
            n,
            lambda: (
                e[i:i + chunk_entries] for i in range(0, max(len(e), 1), chunk_entries)
            ),
        )
        rows, cols, vals = [], [], []
        for r, c, v in stream.chunks():
            rows.append(r)
            cols.append(c)
            vals.append(v)
        coo = COOMatrix(
            n,
            n,
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
            np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
            np.concatenate(vals) if vals else np.empty(0, dtype=np.float64),
        )
        return CSRMatrix.from_coo(coo)

    monolithic = csr_from_edges(n, e)
    A1, A2 = assemble(c1), assemble(c2)
    assert content_hash(A1) == content_hash(A2) == content_hash(monolithic)
