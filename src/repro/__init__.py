"""Distributed-memory Reverse Cuthill-McKee — a full reproduction.

Reproduces Azad, Jacquelin, Buluc, Ng, "The Reverse Cuthill-McKee
Algorithm in Distributed-Memory" (IPDPS 2017) as a production-quality
Python library: the matrix-algebraic RCM formulation, the CombBLAS-style
2D distributed runtime (on a deterministic simulated machine), the
SpMP-like shared-memory baseline, the iterative-solver substrate of
Fig. 1, and a benchmark harness regenerating every table and figure.

Quickstart
----------
>>> from repro import rcm, bandwidth_of_permutation
>>> from repro.matrices import stencil_2d
>>> A = stencil_2d(30, 30)
>>> ordering = rcm(A)
>>> bandwidth_of_permutation(A, ordering.perm) <= 62
True
"""

from .core.metrics import (
    bandwidth,
    bandwidth_of_permutation,
    profile,
    profile_of_permutation,
    quality_of,
)
from .core.ordering import Ordering
from .core.rcm_serial import rcm_serial
from .sparse.csr import CSRMatrix
from .sparse.io import read_matrix_market, write_matrix_market

__version__ = "1.0.0"


def rcm(A: CSRMatrix, *, nprocs: int | None = None, **kwargs) -> Ordering:
    """Reverse Cuthill-McKee ordering of a symmetric sparse matrix.

    The one-call entry point: serial by default; pass ``nprocs`` to run
    the distributed algorithm on a simulated square process grid (the
    ordering is identical either way — that is the paper's determinism
    guarantee).  Extra keyword arguments are forwarded to the distributed
    driver (``machine=``, ``random_permute=``, ``sort_impl=`` ...).
    """
    if nprocs is None:
        if kwargs:
            raise TypeError(f"unexpected arguments for serial RCM: {sorted(kwargs)}")
        return rcm_serial(A)
    from .distributed.rcm import rcm_distributed

    return rcm_distributed(A, nprocs=nprocs, **kwargs).ordering


def __getattr__(name: str):
    """Load the distributed stack on first use (PEP 562).

    Serial-only users skip importing it; ``repro.rcm_distributed`` is
    still the very object ``repro.distributed.rcm`` defines.
    """
    if name in ("rcm_distributed", "DistRCMResult"):
        from .distributed import rcm as _dist_rcm

        return getattr(_dist_rcm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "rcm",
    "rcm_serial",
    "rcm_distributed",
    "DistRCMResult",
    "Ordering",
    "CSRMatrix",
    "bandwidth",
    "bandwidth_of_permutation",
    "profile",
    "profile_of_permutation",
    "quality_of",
    "read_matrix_market",
    "write_matrix_market",
    "__version__",
]
