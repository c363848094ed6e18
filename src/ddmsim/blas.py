"""One BLAS thread per process.

The only parallelism in ddmsim is the `--threads` worker pool. Each
process, serial run or pool worker alike, does its BLAS on one thread, so
no OpenBLAS pool spins beside a serial sweep or competes with the other
workers for the cores, and a table's bytes do not depend on how many
cores the host has or on the caller's OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache

# The C entry points that set the thread count: plain OpenBLAS, and the
# scipy-openblas builds that numpy (64-bit integers) and scipy ship.
_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads")


def openblas_libraries() -> list:
    """Paths of the OpenBLAS libraries mapped into this process, read
    from /proc/self/maps; [] where that file does not exist."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n")
                     for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


@cache
def pin_blas_threads() -> None:
    """Give this process one BLAS thread; the work is done once per process.

    OPENBLAS_NUM_THREADS=1 in the environment reaches the OpenBLAS
    libraries that load later (scipy's, on the first fit) and the workers
    that a pool starts by spawn or forkserver. Each OpenBLAS already
    mapped (numpy's, loaded before any ddmsim code runs) is set to one
    thread through its own setter; a forked worker inherits that. The
    libraries are looked up with RTLD_NOLOAD, so nothing new is loaded.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for path in openblas_libraries():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loadable by path, e.g. unmapped since
            continue
        setter = next((getattr(lib, name) for name in _SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
