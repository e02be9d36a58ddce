import multiprocessing
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# one profile for every run: the same cases each time, and no example
# database to replay a failure from an earlier run
settings.register_profile("surrokit", derandomize=True, database=None)
settings.load_profile("surrokit")

from surrokit import parallel


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process behind, such as a
    sweep worker that outlived ``alpha_sweep`` after a failing cell."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still alive after the test: {left}"


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that ends with a Python thread alive that it did not
    start with: while one runs, every later fork map runs inline."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still alive after the test: {left}"


@pytest.fixture
def forked_workers(monkeypatch):
    """The number of ``_map_processes`` workers started until the test
    ends, as ``forked_workers.value``; each worker counts itself in memory
    shared through the fork."""
    count = multiprocessing.Value("q", 0)
    start_worker = parallel._start_worker

    def counting_start(*args):
        with count.get_lock():
            count.value += 1
        start_worker(*args)

    monkeypatch.setattr(parallel, "_start_worker", counting_start)
    return count


@pytest.fixture
def set_usable_cores(monkeypatch):
    """``set_usable_cores(n)`` makes the maps of ``surrokit.parallel`` see n
    usable cores until the test ends. Forked sweep workers inherit the
    patch: inside one, ``_usable_cores()`` reads n, not its one core."""

    def set_count(n):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: n)

    return set_count


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS runs one thread until the test ends, where its
    thread-count symbols are present."""
    blas = parallel._openblas_threads()
    if blas is None:
        yield
        return
    before = blas[0]()
    blas[1](1)
    yield
    blas[1](before)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: ``fn(*args)`` and the peak bytes it
    allocated on top of what was held (``tracemalloc``)."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def ar2_signal(rng):
    """960-sample AR(2) path with a 10 Hz resonance at 32 Hz sampling."""
    from oracles import ar2_path

    a1 = 2 * 0.92 * np.cos(2 * np.pi * 10.0 / 32.0)
    a2 = -(0.92**2)
    return ar2_path(a1, a2, 10.0, 960, rng)
