"""Independent items of one call spread over the usable cores.

Two maps share the cores. ``_map_partitioned`` runs items on threads:
numpy releases the interpreter lock inside BLAS, FFT and ufunc loops,
so threads overlap where an item spends its time in a few long numpy
calls. The network runs its channel-group pipes this way and the FT
surrogates their chunks of rows, which take about 2.5 ms each, less
than a fork; both ran faster than inline (README, "Threads and
memory"). While a call's workers run, numpy's OpenBLAS runs one
thread, so that BLAS threads do not compete with them for the same
cores. ``_map_processes`` runs items in forked worker processes, each
pinned to one core with one BLAS thread, so that items with serial
Python between many short numpy calls keep every core busy: the cells
of the alpha sweep, the IAAFT chunks of a surrogate block and the
positions of a saliency map. On threads such items hold each other up
on the interpreter lock (README, "Threads and memory"). It is a
generator that hands each result on as it arrives, in item order, so a
caller can store one result before the next comes. Inside a worker
the thread map sees one core and runs inline. No thread or process
starts at import, and a call with one partition or one worker runs
inline.
"""

import contextvars
import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from functools import cache

import numpy as np


def _usable_cores():
    """Cores this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _partitions(sizes, n_parts):
    """Item indices split into at most ``n_parts`` partitions, each in
    index order. Largest size first (lowest index on ties), each item goes
    to the partition with the least total size so far (lowest on ties), so
    partition 0 holds the largest item."""
    loads = [0] * n_parts
    parts = [[] for _ in range(n_parts)]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        p = loads.index(min(loads))
        parts[p].append(i)
        loads[p] += sizes[i]
    return [sorted(part) for part in parts if part]


@cache
def _openblas_threads():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or
    None where that library or either symbol is absent. The symbols are not
    in the process's global namespace, so the library numpy loaded is
    opened again by its path (``RTLD_NOLOAD``: nothing new is loaded)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


def _map_partitioned(fn, sizes):
    """``[fn(i) for i in range(len(sizes))]`` spread over the cores.

    The items are split by ``_partitions`` into at most
    ``_usable_cores()`` partitions; the calling thread runs the first and
    one worker thread each of the others. Each ``fn(i)`` must touch no
    state another item writes. Each worker runs in a copy of the caller's
    ``contextvars`` context (a new thread starts in an empty one), so it
    sees the caller's ``np.errstate``. A worker's exception is raised here
    when its result is read.

    With workers, an OpenBLAS count above one is set to one before they
    start and restored after they join, so none of them is inside BLAS
    while it changes. Maps run from several threads at once may overlap
    at the higher count; the count still ends as it began.
    """
    parts = _partitions(sizes, _usable_cores())
    if len(parts) < 2:
        return [fn(i) for i in range(len(sizes))]

    def run(part):
        return [(i, fn(i)) for i in part]

    blas = _openblas_threads()
    blas_count = blas[0]() if blas else 1
    if blas_count > 1:
        blas[1](1)
    try:
        with ThreadPoolExecutor(max_workers=len(parts) - 1) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, run, part) for part in parts[1:]
            ]
            done = run(parts[0])
            for future in futures:
                done += future.result()
    finally:
        if blas_count > 1:
            blas[1](blas_count)
    return [result for _, result in sorted(done, key=lambda item: item[0])]


# the item function of the worker process this module runs in, set by
# _start_worker; never set in the process that owns the pool
_worker_fn = None


def _start_worker(fn, cores):
    """Initializer of a ``_map_processes`` worker: keep ``fn``, pin the
    process to the next core of the queue and run OpenBLAS at one thread."""
    global _worker_fn
    _worker_fn = fn
    os.sched_setaffinity(0, {cores.get()})
    blas = _openblas_threads()
    if blas:
        blas[1](1)


def _run_in_worker(i):
    return _worker_fn(i)


def _map_processes(fn, n_items):
    """``fn(i)`` for ``i in range(n_items)``, in forked worker processes.

    A generator: each result is handed on as soon as it and every earlier
    one have come back, so the caller holds no list of results.
    ``min(n_items, _usable_cores())`` workers start at the first result,
    each pinned to its own core of this process's affinity mask (round
    robin when the count exceeds the mask) and running OpenBLAS at one
    thread. ``fn`` reaches them through the fork, unpickled, and may close
    over any state; only the index goes to a worker and only ``fn(i)``
    comes back, pickled, so the result must pickle. Results come in item
    order. A worker's exception is raised here with its type and message.
    Once the results end, the generator raises, or it is closed (as it is
    when a caller that stops early drops it), the items not yet handed to
    a worker are cancelled and every worker has exited.

    The items run inline, one per result, when there would be fewer than
    two workers, where the platform lacks ``fork`` or
    ``sched_setaffinity``, and when the process already runs more than one
    thread, because a thread holding a lock at the fork would leave that
    lock held forever in the child.
    """
    n_workers = min(n_items, _usable_cores())
    if (
        n_workers < 2
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_setaffinity")
        or threading.active_count() > 1
    ):
        for i in range(n_items):
            yield fn(i)
        return
    # imported here: they add about 10 ms to the start of every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    mask = sorted(os.sched_getaffinity(0))
    with closing(context.SimpleQueue()) as cores:
        for k in range(n_workers):
            cores.put(mask[k % len(mask)])
        with ProcessPoolExecutor(
            n_workers, mp_context=context, initializer=_start_worker, initargs=(fn, cores)
        ) as pool:
            yield from pool.map(_run_in_worker, range(n_items))
