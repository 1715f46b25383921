"""OpenBLAS thread budget of a sweep, set through ctypes.

numpy and scipy wheels each bundle an OpenBLAS of their own: numpy's runs
the dense d×d kernels (eigvalsh, products), scipy's is the one SuperLU
calls. Each starts with one thread per core, so sweep threads and the two
pools oversubscribe the cores, and an idle pool spins on a core another
one needs. `thread_budget` pins numpy's pool to one thread and gives
scipy's `cores // workers` for the span of a sweep, or of one
`steady_state` call (one worker) outside a sweep; it never raises a
count above its value at entry, so OPENBLAS_NUM_THREADS still caps it.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy
import scipy

log = logging.getLogger(__name__)

# thread-count symbols of the scipy-openblas builds the wheels bundle:
# numpy's 64-bit-integer build carries the suffix, scipy's does not
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


class _Pool:
    """The thread-count getter `get()` and setter `set(n)` of one loaded
    OpenBLAS."""

    def __init__(self, lib: ctypes.CDLL, symbol: str):
        self.get = getattr(lib, symbol.format("get"))
        self.get.argtypes = []
        self.get.restype = ctypes.c_int
        self.set = getattr(lib, symbol.format("set"))
        self.set.argtypes = [ctypes.c_int]
        self.set.restype = None


def _loaded_pool(package) -> _Pool:
    """The OpenBLAS the package's wheel bundles, if the process has loaded it."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    # RTLD_NOLOAD: the copy already in the process, never a second one
    mode = getattr(os, "RTLD_NOLOAD", None)
    for path in sorted(libs.glob("libscipy_openblas*.so")) if mode is not None else ():
        try:
            lib = ctypes.CDLL(str(path), mode=mode)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            if hasattr(lib, symbol.format("set")) and hasattr(lib, symbol.format("get")):
                return _Pool(lib, symbol)
    raise LookupError(f"no loaded OpenBLAS with thread control under {libs}")


class _Budget:
    """numpy's and scipy's pools; concurrent sweeps share one saved state,
    restored when the last of them ends."""

    def __init__(self, numpy_pool: _Pool, scipy_pool: _Pool):
        self.pools = (numpy_pool, scipy_pool)
        self.lock = threading.Lock()
        self.active = 0
        self.saved = (0, 0)


@cache
def _budget() -> _Budget | None:
    try:
        return _Budget(_loaded_pool(numpy), _loaded_pool(scipy))
    except LookupError as exc:
        log.debug("BLAS thread control unavailable: %s", exc)
        return None


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def thread_budget(workers: int):
    """Run the block with numpy's OpenBLAS on 1 thread and scipy's on
    min(its count at entry, cores // workers), and yield those two counts;
    yield None, changing nothing, where the libraries are not found. The
    counts at entry are restored on the way out, on error too."""
    budget = _budget()
    if budget is None:
        yield None
        return
    numpy_pool, scipy_pool = budget.pools
    with budget.lock:
        if budget.active == 0:
            budget.saved = (numpy_pool.get(), scipy_pool.get())
        budget.active += 1
        counts = (1, max(1, min(scipy_pool.get(), _cores() // workers)))
        numpy_pool.set(counts[0])
        scipy_pool.set(counts[1])
    try:
        yield counts
    finally:
        with budget.lock:
            budget.active -= 1
            if budget.active == 0:
                numpy_pool.set(budget.saved[0])
                scipy_pool.set(budget.saved[1])
