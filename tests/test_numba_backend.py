"""The compiled (numba) backend, validated without requiring numba.

The container may not ship numba, but the backend's kernel *logic* must
still be testable: a stub numba module (``njit`` = passthrough,
``prange`` = ``range``) makes every kernel run as plain Python, so all
code paths — serial, threaded gather/accumulate, mark-based expansion —
are exercised against the numpy oracle on any host.  When real numba is
importable the same tests run compiled, plus a few real-JIT-only checks.

Path forcing: the work thresholds steering serial/parallel/gather
routing are module constants precisely so these tests can monkeypatch
them and reach every branch on small graphs.
"""

import importlib
import pickle
import sys
import types

import numpy as np
import pytest

from repro.core import bfs_levels, rcm_serial
from repro.matrices import stencil_2d
from repro.semiring import (
    BOOLEAN,
    MIN_PLUS,
    PLUS_TIMES,
    SELECT2ND_MAX,
    SELECT2ND_MIN,
)
from repro.semiring.semiring import Semiring
from repro.semiring.spmspv import (
    spmspv_csc_numpy,
    spmspv_csr_numpy,
    spmspv_pull_numpy,
    spmv_dense_numpy,
)
from repro.sparse import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.spvector import SparseVector
from tests.conftest import csr_from_edges, level_loop

try:
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

EXACT_SEMIRINGS = [SELECT2ND_MIN, SELECT2ND_MAX, BOOLEAN, MIN_PLUS]


def _stub_numba() -> types.ModuleType:
    """A numba lookalike: decorators pass through, prange is range."""
    mod = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    state = {"threads": 1}
    mod.njit = njit
    mod.prange = range
    mod.get_num_threads = lambda: state["threads"]

    def set_num_threads(n):
        state["threads"] = int(n)

    mod.set_num_threads = set_num_threads
    mod.config = types.SimpleNamespace(NUMBA_NUM_THREADS=8)
    return mod


@pytest.fixture(scope="module")
def nb():
    """The ``repro.backends.numba_backend`` module, stub-backed if needed.

    With real numba: the already-imported, registered module.  Without:
    install the stub, import the backend module fresh, register the
    backend for the duration of this test module (so spec strings and
    ``backend_scope("numba")`` resolve), and undo everything at the end.
    """
    if HAVE_NUMBA:
        yield importlib.import_module("repro.backends.numba_backend")
        return
    import repro.backends as registry

    assert "numba" not in registry.available_backends()
    sys.modules["numba"] = _stub_numba()
    try:
        mod = importlib.import_module("repro.backends.numba_backend")
        registry.register_backend(mod.NumbaBackend())
        yield mod
    finally:
        registry._REGISTRY.pop("numba", None)
        for key in [k for k in registry._CONFIGURED if k.startswith("numba")]:
            del registry._CONFIGURED[key]
        sys.modules.pop("repro.backends.numba_backend", None)
        sys.modules.pop("numba", None)


@pytest.fixture
def force_paths(nb, monkeypatch):
    """Route every kernel call onto a chosen code path."""

    def force(path: str):
        if path == "serial":
            monkeypatch.setattr(nb, "_GATHER_MAX_WORK", -1)
            return nb.NumbaBackend(threads=1)
        if path == "parallel":
            monkeypatch.setattr(nb, "_GATHER_MAX_WORK", -1)
            monkeypatch.setattr(nb, "_PARALLEL_MIN_WORK", 0)
            monkeypatch.setattr(nb, "_MARK_MIN_WORK", 0)
            return nb.NumbaBackend(threads=4)
        if path == "gather":
            monkeypatch.setattr(nb, "_GATHER_MAX_WORK", 1 << 60)
            return nb.NumbaBackend(threads=1)
        raise AssertionError(path)

    return force


def _graphs() -> dict[str, CSRMatrix]:
    rng = np.random.default_rng(11)
    n = 40
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(60):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    return {
        "stencil": stencil_2d(8, 6),
        "random": csr_from_edges(n, edges),
        "disconnected": csr_from_edges(
            9, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (7, 8)]
        ),
    }


def _csc_of(A: CSRMatrix) -> CSCMatrix:
    return CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data)


def _frontiers(A: CSRMatrix):
    levels, _ = bfs_levels(A, 0, backend="numpy")
    out = [
        SparseVector.empty(A.nrows),
        SparseVector.single(A.nrows, A.nrows - 1, 3.0),
        SparseVector(
            A.nrows,
            np.arange(A.nrows, dtype=np.int64),
            np.arange(A.nrows, dtype=np.float64) + 1.0,
        ),
    ]
    for d in range(int(levels.max()) + 1):
        f = np.flatnonzero(levels == d).astype(np.int64)
        out.append(SparseVector(A.nrows, f, f.astype(np.float64) + 1.0))
    return out


# ----------------------------------------------------------------------
# Kernel equivalence vs the numpy oracle, on every code path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["serial", "parallel"])
@pytest.mark.parametrize("graph", list(_graphs()))
def test_spmspv_matches_oracle_on_path(force_paths, path, graph):
    backend = force_paths(path)
    A = _graphs()[graph]
    Ac = _csc_of(A)
    mask = np.zeros(A.nrows, dtype=bool)
    mask[::2] = True
    for x in _frontiers(A):
        for sr in EXACT_SEMIRINGS:
            for m in (None, mask):
                oracle = spmspv_csc_numpy(Ac, x, sr, m)
                assert backend.spmspv_csc(Ac, x, sr, mask=m) == oracle
                assert backend.spmspv_csr(A, x, sr, mask=m) == (
                    spmspv_csr_numpy(A, x, sr, m)
                )
                assert backend.spmspv_pull(A, x, sr, mask=m) == (
                    spmspv_pull_numpy(A, x, sr, m)
                )
        y_np = spmspv_csc_numpy(Ac, x, PLUS_TIMES, None)
        y_nb = backend.spmspv_csc(Ac, x, PLUS_TIMES)
        assert np.array_equal(y_np.indices, y_nb.indices)
        assert np.allclose(y_np.values, y_nb.values)


@pytest.mark.parametrize("path", ["serial", "parallel"])
@pytest.mark.parametrize("graph", list(_graphs()))
def test_spmv_dense_matches_oracle_on_path(force_paths, path, graph):
    backend = force_paths(path)
    A = _graphs()[graph]
    x = np.linspace(-1.0, 2.0, A.ncols)
    for sr in (SELECT2ND_MIN, MIN_PLUS, PLUS_TIMES, BOOLEAN):
        y_np = spmv_dense_numpy(A, x, sr)
        y_nb = backend.spmv_dense(A, x, sr)
        assert np.allclose(y_np, y_nb, equal_nan=True)


@pytest.mark.parametrize("path", ["serial", "parallel", "gather"])
@pytest.mark.parametrize("graph", list(_graphs()))
def test_expand_frontier_matches_oracle_on_path(force_paths, path, graph):
    from repro.backends import resolve_backend

    backend = force_paths(path)
    oracle = resolve_backend("numpy")
    A = _graphs()[graph]
    levels, _ = bfs_levels(A, 0, backend="numpy")
    unvisited = np.ones(A.nrows, dtype=bool)
    for d in range(int(levels.max()) + 1):
        frontier = np.flatnonzero(levels == d).astype(np.int64)
        unvisited[frontier] = False
        expected = oracle.expand_frontier(A, frontier, unvisited)
        got = backend.expand_frontier(A, frontier, unvisited)
        assert np.array_equal(got, expected)
        got_pull = backend.expand_frontier_pull(A, frontier, unvisited)
        expected_pull = oracle.expand_frontier_pull(A, frontier, unvisited)
        assert np.array_equal(got_pull, expected_pull)
    # scratch discipline: per-matrix 'seen' bytes are all-False between
    # calls, so reuse across levels can never leak marks
    seen, _out = backend._scratch(A)
    assert not seen.any()


def test_expand_frontier_empty_and_isolated(nb):
    backend = nb.NumbaBackend()
    A = csr_from_edges(4, [(0, 1), (1, 3)])  # vertex 2 isolated
    unvisited = np.ones(4, dtype=bool)
    assert backend.expand_frontier(A, np.empty(0, dtype=np.int64), unvisited).size == 0
    assert backend.expand_frontier(A, np.array([2]), unvisited).size == 0
    assert np.array_equal(backend.expand_frontier(A, np.array([1]), unvisited), [0, 3])


def test_nan_propagates_like_numpy_min(force_paths):
    """The compiled min/max add must mirror np.minimum: nan wins."""
    backend = force_paths("serial")
    A = csr_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    Ac = _csc_of(A)
    x = SparseVector(
        3, np.array([1, 2], dtype=np.int64), np.array([np.nan, 5.0])
    )
    oracle = spmspv_csc_numpy(Ac, x, MIN_PLUS, None)
    got = backend.spmspv_csc(Ac, x, MIN_PLUS)
    assert np.array_equal(got.indices, oracle.indices)
    assert np.array_equal(
        np.isnan(got.values), np.isnan(oracle.values)
    )
    both = ~np.isnan(oracle.values)
    assert np.array_equal(got.values[both], oracle.values[both])


# ----------------------------------------------------------------------
# Semiring dispatch
# ----------------------------------------------------------------------
def test_custom_semiring_falls_back_to_numpy_reference(nb):
    backend = nb.NumbaBackend()
    custom = Semiring(
        name="(select2nd, weird-min)",
        add_ufunc=np.minimum,
        multiply=lambda a, x: x,
        add_identity=np.inf,
    )
    assert nb._opcodes_for(custom) is None
    A = stencil_2d(5, 5)
    Ac = _csc_of(A)
    for x in _frontiers(A)[:4]:
        assert backend.spmspv_csc(Ac, x, custom) == spmspv_csc_numpy(
            Ac, x, custom, None
        )


def test_opcodes_survive_pickling(nb):
    """A semiring that crossed a worker pipe still dispatches compiled."""
    sr = pickle.loads(pickle.dumps(SELECT2ND_MIN))
    assert sr is not SELECT2ND_MIN
    assert nb._opcodes_for(sr) == nb._OPCODES["(select2nd, min)"]


def test_renamed_standard_semiring_is_rejected(nb):
    impostor = Semiring(
        name="(select2nd, min)",
        add_ufunc=np.maximum,  # claims min, does max
        multiply=lambda a, x: x,
        add_identity=np.inf,
    )
    assert nb._opcodes_for(impostor) is None


# ----------------------------------------------------------------------
# Spec / knob / thread plumbing
# ----------------------------------------------------------------------
def test_threads_validation(nb):
    with pytest.raises(ValueError, match="threads"):
        nb.NumbaBackend(threads=0)
    with pytest.raises(ValueError, match="threads"):
        nb.NumbaBackend(threads=True)
    assert nb.NumbaBackend(threads=3).threads == 3


def test_capabilities_and_spec_string(nb):
    backend = nb.NumbaBackend()
    assert backend.supports_threads and backend.compiled
    assert backend.spec_string == "numba"
    assert nb.NumbaBackend(threads=6).spec_string == "numba:threads=6"
    with pytest.raises(ValueError, match="does not accept knob"):
        backend.with_knobs(fastmath=True)
    configured = backend.with_knobs(threads=2)
    assert configured.threads == 2


def test_effective_threads_clamped_to_layout(nb):
    import numba as nb_mod

    limit = int(nb_mod.config.NUMBA_NUM_THREADS)
    assert nb.NumbaBackend(threads=10_000)._effective_threads() == limit
    assert nb.NumbaBackend(threads=1)._effective_threads() == 1


def test_resolution_and_scope_through_registry(nb):
    from repro.backends import backend_scope, resolve_backend

    one = resolve_backend("numba:threads=2")
    assert one.threads == 2
    assert resolve_backend("numba:threads=2") is one  # memoized
    with backend_scope("numba:threads=2") as scoped:
        assert scoped is one
        assert resolve_backend(None) is one


def test_warmup_runs_every_kernel(nb):
    nb.NumbaBackend().warmup()  # must not raise (and JITs under real numba)


# ----------------------------------------------------------------------
# Whole-algorithm equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["serial", "parallel"])
def test_bfs_and_rcm_identical_under_numba(force_paths, path):
    from repro.backends import backend_scope

    backend = force_paths(path)
    for A in _graphs().values():
        l_np, n_np = bfs_levels(A, 0, backend="numpy")
        l_nb, n_nb = bfs_levels(A, 0, backend=backend)
        assert np.array_equal(l_np, l_nb) and n_np == n_nb
        oracle = rcm_serial(A).perm
        with backend_scope(f"numba:threads={backend.threads}"), level_loop():
            assert np.array_equal(rcm_serial(A).perm, oracle)


# ----------------------------------------------------------------------
# Real-numba-only checks (CI 'compiled' job)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_NUMBA, reason="requires a real numba install")
def test_thread_scope_sets_and_restores_real_thread_count(nb):
    import numba as nb_mod

    prev = nb_mod.get_num_threads()
    with nb.NumbaBackend(threads=1)._thread_scope() as eff:
        assert eff == 1
        assert nb_mod.get_num_threads() == 1
    assert nb_mod.get_num_threads() == prev


@pytest.mark.skipif(not HAVE_NUMBA, reason="requires a real numba install")
def test_measured_thread_scaling_runs(nb):
    """The snapshot/ablation helper works end-to-end on a real JIT."""
    from repro.bench.harness import measure_thread_scaling
    from repro.matrices.suite import PAPER_SUITE

    A = PAPER_SUITE["nd24k"].build(0.4)
    seconds, identical = measure_thread_scaling(A, "numba", threads=(1, 2))
    assert identical
    assert set(seconds) == {1, 2}
    assert all(s > 0 for s in seconds.values())


def test_snapshot_numba_block_runs_the_numba_kernels(nb, monkeypatch):
    """The snapshot's numba BFS timings and its hard-gated bit-identity
    check must reach numba's frontier kernels at every thread count —
    ``bfs_levels`` without ``backend=`` is a csgraph traversal that
    calls no kernel backend at all."""
    from repro.bench.snapshot import SnapshotConfig, _compiled_backend_metrics

    threads_seen = []
    for kernel in ("expand_frontier", "expand_frontier_pull"):
        inner = getattr(nb.NumbaBackend, kernel)

        def counted(self, *args, _inner=inner, **kwargs):
            threads_seen.append(self.threads)
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(nb.NumbaBackend, kernel, counted)
    config = SnapshotConfig(
        quick=True, scale=0.3, repeats=1, compiled_matrix="nd24k", compiled_threads=(1, 2)
    )
    out = _compiled_backend_metrics(config, {})
    assert out["backend.numba.bit_identical"]["value"] == 1.0
    assert set(threads_seen) == {1, 2}
