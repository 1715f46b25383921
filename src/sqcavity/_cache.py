"""A cache that the worker threads of one sweep share.

`functools.lru_cache` lets two threads that miss on one key both compute
it: two workers starting a sweep would each plan its model and each fold
it. `shared_cache` computes each key once; a caller that asks for a key
being computed waits for that result. It keeps lru_cache's `cache_info`,
`cache_clear` and `__wrapped__`.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import NamedTuple


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


def shared_cache(maxsize: int):
    """Keep the results of a function of hashable positional arguments for
    its `maxsize` most recently used argument tuples, each computed by the
    first caller only. A call that raises caches nothing: its waiters get
    its error, and the next call computes the key afresh."""

    def decorate(fn):
        lock = threading.Lock()
        results: OrderedDict[tuple, Future] = OrderedDict()
        hits = misses = 0

        @functools.wraps(fn)
        def cached(*key):
            nonlocal hits, misses
            with lock:
                result = results.get(key)
                first = result is None
                if first:
                    misses += 1
                    result = results[key] = Future()
                    if len(results) > maxsize:
                        results.popitem(last=False)
                else:
                    hits += 1
                    results.move_to_end(key)
            if first:
                try:
                    result.set_result(fn(*key))
                except BaseException as exc:
                    with lock:
                        if results.get(key) is result:
                            del results[key]
                    result.set_exception(exc)
                    raise
            return result.result()

        def cache_info() -> CacheInfo:
            with lock:
                return CacheInfo(hits, misses, maxsize, len(results))

        def cache_clear():
            nonlocal hits, misses
            with lock:
                results.clear()
                hits = misses = 0

        cached.cache_info, cached.cache_clear = cache_info, cache_clear
        return cached

    return decorate
