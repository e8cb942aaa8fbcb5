"""Process settings that keep step times steady from one run to the next.

The model's GEMMs are small (a few hundred rows by a few hundred columns).
With the BLAS default of one thread per core, every GEMM waits for its
slowest thread, so a step takes two to three times longer whenever another
process holds one of the cores; one BLAS thread gives up little on an idle
machine and nothing when the cores are shared.

Each step allocates and frees some megabytes of arrays. glibc's malloc hands
a large enough free block at the top of its heap back to the system, and the
next step then page-faults the same memory in again, a cost that moves with
the host. Keeping freed memory for reuse removes those faults.

``training.fit`` and ``training.evaluate_model`` call ``steady_process``
before they run the model. A setting the user made explicitly in the
environment is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, Mapping

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")
# mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Blocks up to this size come from the heap, not from their own mmap; it is
# the largest threshold every glibc accepts on 64-bit.
MMAP_THRESHOLD = 32 << 20
# Free memory at the top of the heap beyond this goes back to the system.
TRIM_THRESHOLD = 256 << 20


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``get_num_threads`` and ``set_num_threads`` of the OpenBLAS that numpy
    loaded, or None.

    Found through ``/proc/self/maps``, so only on Linux; covers numpy's
    bundled scipy-openblas (prefixed, ILP64-suffixed names) and a system
    libopenblas.
    """
    import numpy  # noqa: F401  (loads the BLAS)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def steady_process(environ: Mapping[str, str] = os.environ) -> dict[str, bool]:
    """Use one BLAS thread and keep freed heap memory for reuse, unless
    ``environ`` already sets either; returns which of the two were applied."""
    applied = {"blas": False, "malloc": False}
    calls = _openblas()
    if calls is not None and not any(environ.get(k) for k in BLAS_ENV):
        calls[1](1)
        applied["blas"] = True
    if not any(environ.get(k) for k in MALLOC_ENV):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
            applied["malloc"] = bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                                     and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    return applied
