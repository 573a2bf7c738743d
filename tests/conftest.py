"""Shared fixtures: canonical small graphs used across the test suite."""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest

from repro import faults
from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture(autouse=True)
def _disarm_faults():
    """A fault armed by one test must never leak into the next."""
    yield
    faults.reset()


@contextlib.contextmanager
def level_loop():
    """Make serial RCM traverse through the per-level kernel loop.

    Its default BFS and CM sweep are single csgraph calls that use no
    kernel backend.  With csgraph hidden, as on a host without scipy,
    they take the level loop, whose frontier kernel is the active
    backend's — so a backend scope around the call really is exercised.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("repro.core.bfs"), "breadth_first_order", None)
        yield


def csr_from_edges(n: int, edges) -> CSRMatrix:
    """Symmetric adjacency matrix from an undirected edge list."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return CSRMatrix.from_coo(COOMatrix.from_edges(n, e).drop_diagonal())


@pytest.fixture
def path5() -> CSRMatrix:
    """Path 0-1-2-3-4."""
    return csr_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def cycle6() -> CSRMatrix:
    return csr_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def star7() -> CSRMatrix:
    """Star with hub 0 and six leaves."""
    return csr_from_edges(7, [(0, i) for i in range(1, 7)])


@pytest.fixture
def paper_example() -> CSRMatrix:
    """The 8-vertex graph of the paper's Fig. 2 (a..h = 0..7).

    BFS tree rooted at a: a-{e,b}; e-{c,d,f}; b-{c? ...} — edges read off
    the figure's adjacency matrix: a-b, a-e, b-c, b-f, c-e, c-d, d-e,
    e-f(? no) ... We encode: a-b, a-e, b-c, b-f, c-d, c-e, d-e, f-g, f-h,
    g-h, e-f.
    """
    a, b, c, d, e, f, g, h = range(8)
    edges = [
        (a, b), (a, e),
        (b, c), (b, f),
        (c, d), (c, e),
        (d, e),
        (e, f),
        (f, g), (f, h),
        (g, h),
    ]
    return csr_from_edges(8, edges)


@pytest.fixture
def grid8x8() -> CSRMatrix:
    from repro.matrices import stencil_2d

    return stencil_2d(8, 8, points=5)


@pytest.fixture
def two_components() -> CSRMatrix:
    """A path 0-1-2 plus a triangle 3-4-5."""
    return csr_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def with_isolated() -> CSRMatrix:
    """Edges among {0,1,3}; vertex 2 isolated."""
    return csr_from_edges(4, [(0, 1), (1, 3)])


@pytest.fixture
def random_graph() -> CSRMatrix:
    """A connected random graph, n=60 (chain + random chords)."""
    rng = np.random.default_rng(3)
    n = 60
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(80):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    return csr_from_edges(n, edges)
