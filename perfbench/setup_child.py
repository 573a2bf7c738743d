"""Serial set-up in a fresh interpreter: ``import repro`` plus one warm-up op.

Prints ``{"setup_s": ...}``.  Building the warm-up input is excluded, as
input generation is in every workload.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

t0 = time.perf_counter()
sys.path.insert(0, str(SRC))
import repro  # noqa: E402

imported = time.perf_counter() - t0

from repro.matrices import stencil_2d  # noqa: E402

A = stencil_2d(6, 6)
t1 = time.perf_counter()
repro.rcm(A)
print(json.dumps({"setup_s": imported + time.perf_counter() - t1}))
