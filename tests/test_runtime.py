"""Process settings for steady step times: one BLAS thread and a malloc
that keeps freed memory for reuse, each unless the environment sets it."""

import resource

import numpy as np
import pytest

from fuseformer import runtime


def blas_threads():
    """Threads OpenBLAS uses per call, or None if it cannot be asked."""
    calls = runtime._openblas()
    return None if calls is None else calls[0]()


def test_steady_process_uses_one_blas_thread():
    if blas_threads() is None:
        pytest.skip("no OpenBLAS found in this process")
    assert runtime.steady_process({})["blas"]
    assert blas_threads() == 1


def test_explicit_environment_settings_are_left_alone():
    before = blas_threads()
    applied = runtime.steady_process({"OPENBLAS_NUM_THREADS": "2",
                                      "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"})
    assert applied == {"blas": False, "malloc": False}
    assert blas_threads() == before


def test_freed_arrays_are_reused_without_page_faults():
    if not runtime.steady_process({})["malloc"]:
        pytest.skip("no mallopt in this C library")
    # A step's worth of 4 MB arrays freed together, as a forward pass does:
    # glibc's defaults would trim them and fault them in again every round.
    pages = 8 * (4 << 20) // resource.getpagesize()
    faults = []
    for _ in range(5):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(4 << 17) for _ in range(8)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    assert max(faults[1:]) < 0.05 * pages, faults
