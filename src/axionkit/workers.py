"""One thread pool for independent blocks of numpy work.

The year-scale kernels split their arrays into blocks fixed by the data
(a sample count, a row count), never by the number of workers, so the
bytes they produce are the same on any machine.  numpy releases the
interpreter lock inside its array loops, random draws and FFTs, so the
blocks of one call overlap on the usable cores.

The pool is sized to the usable cores and has no setting.  It starts on
the first call that needs it: ``concurrent.futures`` imports
``logging``, and a process that never maps a year-scale record should
not pay for either.
"""

import os
import threading

# the usable cores: the affinity mask where the platform has one
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1

_executor = None
_lock = threading.Lock()
_local = threading.local()


def _mark_pool_thread():
    _local.in_pool = True


def _forget_pool():
    # a forked child holds none of the parent's pool threads, and a lock
    # another thread held at the fork stays held: start both afresh
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def each(fn, items) -> list:
    """[fn(item) for item in items], the calls spread over the pool.

    Results come back in the order of items; if calls raise, the
    exception of the earliest such item is raised here.  The calls run inline, in order,
    when there are fewer than two items, when there is one usable core,
    or when each is called from a pool thread, so a nested call cannot
    wait on the workers that run it.
    """
    items = list(items)
    if len(items) < 2 or _WORKERS < 2 or getattr(_local, "in_pool", False):
        return [fn(item) for item in items]
    global _executor
    with _lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(
                _WORKERS, thread_name_prefix="axionkit", initializer=_mark_pool_thread
            )
    return list(_executor.map(fn, items))
