"""OpenBLAS threads of the solving threads, set through ctypes, and the
threads each solving thread may give its LU.

numpy and scipy wheels each bundle an OpenBLAS of their own: numpy's runs
the dense kernels (the multifrontal LU's fronts, eigvalsh, products),
scipy's is the one SuperLU calls. Each starts with one thread per core, so
the two pools, the solving threads and any other process on the machine
oversubscribe the cores, and an idle pool spins on a core another thread
needs. `thread_budget` runs both pools on one thread for the span of a
sweep, or of one `steady_state` call outside a sweep. The cores are shared
out by Python threads instead: a sweep's SIM_THREADS workers, and within
each point the multifrontal LU's two halves when the sweep leaves the
point two cores (`cores // workers`), each calling OpenBLAS on its own
thread.
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


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity outside Linux
        return os.cpu_count() or 1


# the LU threads of the budget a thread entered first, while it holds it
_share = threading.local()


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
def thread_budget(workers: int = 1):
    """Run the block with numpy's and scipy's OpenBLAS on 1 thread each and
    yield the threads each of its `workers` solving threads may give one
    LU: cores // workers, at least 1, or 1 where the libraries are not
    found, which are then left alone. In a block nested in another on the
    same thread, the outer block's count holds. The pools' counts at entry
    are restored on the way out, on error too."""
    outer = getattr(_share, "threads", None)
    budget = _budget()
    threads = outer or (max(1, _cores() // workers) if budget else 1)
    _share.threads = threads
    try:
        if budget is None:
            yield threads
            return
        with budget.lock:
            if budget.active == 0:
                budget.saved = tuple(pool.get() for pool in budget.pools)
            budget.active += 1
            for pool in budget.pools:
                pool.set(1)
        try:
            yield threads
        finally:
            with budget.lock:
                budget.active -= 1
                if budget.active == 0:
                    for pool, count in zip(budget.pools, budget.saved):
                        pool.set(count)
    finally:
        _share.threads = outer
