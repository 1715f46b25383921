"""OpenBLAS threads of the solving threads, set through ctypes.

numpy and scipy wheels each bundle an OpenBLAS of their own: numpy's runs
the dense d×d kernels (eigvalsh, products), scipy's is the one SuperLU
calls. Each starts with one thread per core, so the two pools, a sweep's
worker threads and any other process on the machine oversubscribe the
cores, and an idle pool spins on a core another thread needs; a second
BLAS thread does not speed up the nested-dissection LU. `thread_budget`
runs both pools on one thread for the span of a sweep, or of one
`steady_state` call outside a sweep, so the parallelism of a sweep is its
SIM_THREADS workers alone.
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


@contextmanager
def thread_budget():
    """Run the block with numpy's and scipy's OpenBLAS on 1 thread each and
    yield True; yield False, changing nothing, where the libraries are not
    found. The counts at entry are restored on the way out, on error too."""
    budget = _budget()
    if budget is None:
        yield False
        return
    with budget.lock:
        if budget.active == 0:
            budget.saved = tuple(pool.get() for pool in budget.pools)
        budget.active += 1
        for pool in budget.pools:
            pool.set(1)
    try:
        yield True
    finally:
        with budget.lock:
            budget.active -= 1
            if budget.active == 0:
                for pool, threads in zip(budget.pools, budget.saved):
                    pool.set(threads)
