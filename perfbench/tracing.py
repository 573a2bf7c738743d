"""Outside-in tracing: spans recorded around calls into each layer.

The library is not instrumented; instead :class:`Tracer` replaces public
functions with timing wrappers *where their callers look them up* (the
module attribute a caller reads, or the class a method is found on), and
makes a delegating kernel backend active through the backend registry.
Spans (name, start, end, parent, op id, attributes) stay in memory until
the run writes them out.  ``uninstall`` restores every original object;
end-to-end runs never install anything (:func:`assert_untraced`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import time
from collections import defaultdict

from common import BenchError

#: Marker attribute set on every wrapper, so an untraced run can prove
#: that none is left behind.
MARK = "__perfbench_wrapper__"

#: Name of the delegating kernel backend registered while tracing.
TIMED_BACKEND = "perfbench-timed"

#: Layers a tracer can wrap.  "backends" swaps the default kernel
#: backend, which only in-process work sees: worker processes resolve
#: backends by name from their own registry.
LAYERS = ("core", "backends", "distributed", "runtime", "service")


def _targets(repro, layers=LAYERS) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, note)`` of the patch points of ``layers``.

    ``note(result)`` extracts span attributes from the wrapped call's
    return value (counts the layer reports about its own work).
    """
    from repro.distributed import DistSparseMatrix
    from repro.runtime import WorkerPool

    # import_module, not ``import a.b as x``: packages re-export functions
    # under their submodules' names (repro.core.rcm_serial is both)
    core_bfs = importlib.import_module("repro.core.bfs")
    core_rcm_serial = importlib.import_module("repro.core.rcm_serial")
    dist_rcm = importlib.import_module("repro.distributed.rcm")
    service_server = importlib.import_module("repro.service.server")

    points = {
        "core": [
            # repro.rcm looks rcm_serial up in the package namespace
            (repro, "rcm_serial", "core.rcm", None),
            (core_rcm_serial, "find_pseudo_peripheral", "core.finder", None),
            # the finder imports bfs_levels from repro.core.bfs at call time
            (core_bfs, "bfs_levels", "core.bfs", lambda r: {"levels": int(r[1])}),
        ],
        "distributed": [
            (DistSparseMatrix, "from_csr", "distributed.partition", None),
            (dist_rcm, "dist_spmspv", "distributed.spmspv", None),
            (dist_rcm, "dist_spmspv_pull", "distributed.spmspv", None),
            (dist_rcm, "d_sortperm", "distributed.sortperm", None),
        ],
        "runtime": [
            (
                WorkerPool,
                "map_ranks",
                "runtime.exchange",
                lambda r: {"worker_s": float(r[1]), "wall_s": float(r[2])},
            ),
        ],
        "service": [(service_server, "request_key", "service.hash", None)],
    }
    return [point for layer in layers for point in points.get(layer, ())]


def _raw(owner, attr):
    """The stored object (a classmethod stays a classmethod)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def find_wrappers(repro) -> list[str]:
    """Patch points that currently hold a tracing wrapper."""
    from repro.backends import default_backend

    found = []
    for owner, attr, name, _ in _targets(repro):
        raw = _raw(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if getattr(fn, MARK, False):
            found.append(f"{name} ({attr})")
    if default_backend() == TIMED_BACKEND:
        found.append("backends.expand (backend scope)")
    return found


def assert_untraced(repro) -> None:
    """Refuse to measure end-to-end numbers with any wrapper installed."""
    found = find_wrappers(repro)
    if found:
        raise BenchError(f"tracing wrappers installed in an untraced run: {found}")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = tuple(layers)
        #: ``[id, name, start, end, parent_id, op_id, attrs]`` per span
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )
        self._restore: list[tuple[object, str, object]] = []
        self._scope = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str, op) -> tuple[list, contextvars.Token]:
        parent, current_op = self._current.get()
        op = current_op if op is None else op
        sid = next(self._ids)
        rec = [sid, name, time.perf_counter(), None, parent, op, None]
        self.spans.append(rec)
        return rec, self._current.set((sid, op))

    def _close(self, rec: list, token: contextvars.Token) -> None:
        rec[3] = time.perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def op(self, op_id: int, label: str):
        """The root span of one benchmark op."""
        rec, token = self._open("op", op_id)
        rec[6] = {"label": label}
        try:
            yield rec
        finally:
            self._close(rec, token)

    def _wrap(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, token = tracer._open(name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec, token)
            if note is not None:
                rec[6] = note(out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, repro) -> None:
        from repro.backends import backend_scope, register_backend, resolve_backend

        if self._restore or self._scope is not None:
            raise BenchError("tracer already installed")
        for owner, attr, name, note in _targets(repro, self.layers):
            raw = _raw(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, note))
            else:
                patched = self._wrap(raw, name, note)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, patched)
        if "backends" in self.layers:
            register_backend(_timed_backend(self, resolve_backend(None)), overwrite=True)
            self._scope = backend_scope(TIMED_BACKEND)
            self._scope.__enter__()

    def uninstall(self) -> None:
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, list[list]]:
        out: dict[str, list[list]] = defaultdict(list)
        for rec in self.spans:
            out[rec[1]].append(rec)
        return out

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover.

        Children of one span run one after another (a layer calls the
        next and waits for it), so their durations add up.
        """
        own = {rec[0]: rec[3] - rec[2] for rec in self.spans}
        for rec in self.spans:
            if rec[4] is not None and rec[4] in own:
                own[rec[4]] -= rec[3] - rec[2]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        own = self.self_seconds()
        table: dict[str, dict[str, float]] = {}
        for name, recs in sorted(self.by_name().items()):
            table[name] = {
                "count": len(recs),
                "total_ms": 1e3 * sum(r[3] - r[2] for r in recs),
                "self_ms": 1e3 * sum(own[r[0]] for r in recs),
            }
        return table


def _timed_backend(tracer: Tracer, inner):
    """A kernel backend that times frontier expansion and delegates all work."""
    from repro.backends import KernelBackend

    expand = tracer._wrap(inner.expand_frontier, "backends.expand", None)
    expand_pull = tracer._wrap(inner.expand_frontier_pull, "backends.expand", None)

    class TimedBackend(KernelBackend):
        name = TIMED_BACKEND

        def spmspv_csc(self, *args, **kwargs):
            return inner.spmspv_csc(*args, **kwargs)

        def spmspv_csr(self, *args, **kwargs):
            return inner.spmspv_csr(*args, **kwargs)

        def spmspv_pull(self, *args, **kwargs):
            return inner.spmspv_pull(*args, **kwargs)

        def spmv_dense(self, *args, **kwargs):
            return inner.spmv_dense(*args, **kwargs)

        def expand_frontier(self, *args, **kwargs):
            return expand(*args, **kwargs)

        def expand_frontier_pull(self, *args, **kwargs):
            return expand_pull(*args, **kwargs)

    return TimedBackend()
