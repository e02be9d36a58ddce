"""``parallel._map_processes`` hands each result on as it arrives, in item
order, and leaves no worker behind however its consumer ends."""

import inspect
import multiprocessing
import os
import time
from contextlib import nullcontext

import pytest

from surrokit import parallel

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity"
)

N_ITEMS = 6


def finish_time(i):
    """Item i, where it ran and when it finished; item 0 is fast and the
    others take 0.1 s, so the last item ends well after the first."""
    if i:
        time.sleep(0.1)
    return i, os.getpid(), time.monotonic()


class TestStreaming:
    def test_results_arrive_in_item_order_as_they_come(self, set_usable_cores, forked_workers):
        set_usable_cores(2)
        results = parallel._map_processes(finish_time, N_ITEMS)
        assert inspect.isgenerator(results)
        received = []
        for result in results:
            received.append((result, time.monotonic()))
        assert [i for (i, _, _), _ in received] == list(range(N_ITEMS))
        assert forked_workers.value == 2
        assert os.getpid() not in {pid for (_, pid, _), _ in received}
        # the first result was handed on before the last item had finished
        (_, _, last_finished), _ = received[-1]
        assert received[0][1] < last_finished

    @pytest.mark.parametrize("stop", ["raise", "break"])
    def test_a_consumer_that_stops_early_leaves_no_worker(self, stop, set_usable_cores):
        set_usable_cores(2)
        seen = []
        with pytest.raises(RuntimeError) if stop == "raise" else nullcontext():
            for i, _, _ in parallel._map_processes(finish_time, N_ITEMS):
                seen.append(i)
                if i == 1:
                    if stop == "raise":
                        raise RuntimeError("consumer failed")
                    break
        assert seen == [0, 1]
        assert multiprocessing.active_children() == []

    def test_a_worker_error_follows_the_earlier_results(self, set_usable_cores):
        set_usable_cores(2)

        def fail_at_three(i):
            if i == 3:
                raise ValueError("item 3")
            return i

        seen = []
        with pytest.raises(ValueError, match="item 3"):
            for i in parallel._map_processes(fail_at_three, N_ITEMS):
                seen.append(i)
        assert seen == [0, 1, 2]
        assert multiprocessing.active_children() == []

    def test_inline_fallback_yields_the_same_items(self, set_usable_cores, forked_workers):
        set_usable_cores(2)
        forked = [i for i, _, _ in parallel._map_processes(finish_time, N_ITEMS)]
        set_usable_cores(1)
        calls = []

        def recording(i):
            calls.append(i)
            return finish_time(i)

        results = parallel._map_processes(recording, N_ITEMS)
        assert inspect.isgenerator(results) and calls == []
        first = next(results)
        assert calls == [0] and first[1] == os.getpid()  # one item per result
        inline = [first[0]] + [i for i, _, _ in results]
        assert inline == forked == list(range(N_ITEMS))
        assert forked_workers.value == 2  # the forked run's workers only

