"""The asyncio actor inbox: batched drains, timeouts, cancellation.

:class:`~repro.exec.mailbox.Mailbox` replaces ``asyncio.Queue`` in both
asyncio engines; each actor wakeup drains the whole inbox.  These tests
pin its contract (FIFO, wakeups, timed drains, a cancelled consumer)
and that batching changes no counter: a plain and a supervised run of
a recorded window agree exactly, while reporting fewer
``processed`` counts than deliveries that processed anything.
"""

import asyncio

import pytest

from repro.exec import (MatchActorCore, RunResult, match_signature, run,
                        run_section_async, run_supervised_async)
from repro.exec.mailbox import Mailbox
from repro.mpc import RunConfig, SupervisePolicy
from repro.ops5 import parse_program
from repro.trace.recorder import record_program
from repro.workloads import tourney_match_program


class TestMailbox:
    def test_fifo_within_and_across_drains(self):
        async def main():
            box = Mailbox()
            for i in range(3):
                box.put_nowait(i)
            first = await box.drain()
            box.put_nowait(3)
            box.put_nowait(4)
            return first, await box.drain()

        assert asyncio.run(main()) == ([0, 1, 2], [3, 4])

    def test_put_wakes_blocked_drain(self):
        async def main():
            box = Mailbox()
            consumer = asyncio.create_task(box.drain())
            await asyncio.sleep(0)
            assert not consumer.done()
            box.put_nowait("a")
            box.put_nowait("b")  # same wakeup, same batch
            return await asyncio.wait_for(consumer, 1.0)

        assert asyncio.run(main()) == ["a", "b"]

    def test_timed_drain_returns_empty_and_leaves_no_waiter(self):
        async def main():
            box = Mailbox()
            assert await box.drain(timeout=0.01) == []
            assert box._waiter is None
            box.put_nowait("late")
            return await box.drain(timeout=1.0)

        assert asyncio.run(main()) == ["late"]

    def test_timed_drain_cancels_its_timer_on_wake(self):
        async def main():
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def spy(*args):
                timers.append(call_later(*args))
                return timers[-1]

            loop.call_later = spy
            box = Mailbox()
            loop.call_soon(box.put_nowait, "x")
            got = await box.drain(timeout=60.0)
            return got, timers

        got, timers = asyncio.run(main())
        assert got == ["x"]
        assert len(timers) == 1 and timers[0].cancelled()

    def test_cancelled_consumer_leaves_mailbox_usable(self):
        async def main():
            box = Mailbox()
            consumer = asyncio.create_task(box.drain())
            await asyncio.sleep(0)
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer
            assert box._waiter is None
            box.put_nowait(1)
            assert not box.empty()
            return await box.drain(timeout=1.0)

        assert asyncio.run(main()) == [1]

    def test_delayed_call_later_put_is_delivered(self):
        async def main():
            box = Mailbox()
            asyncio.get_running_loop().call_later(0.01, box.put_nowait,
                                                  "delayed")
            return await asyncio.wait_for(box.drain(), 1.0)

        assert asyncio.run(main()) == ["delayed"]

    def test_get_nowait_salvages_in_order(self):
        box = Mailbox()
        box.put_nowait("a")
        box.put_nowait("b")
        salvaged = []
        while not box.empty():
            salvaged.append(box.get_nowait())
        assert salvaged == ["a", "b"]
        with pytest.raises(IndexError):
            box.get_nowait()


@pytest.fixture(scope="module")
def tourney_window():
    section = record_program(
        parse_program(tourney_match_program(0)), "tourney")
    return section.slice(0, 5)


class TestBatchedRuns:
    def _counted(self, monkeypatch, coro_fn, window, config):
        """Run *coro_fn* and count ``processed`` reports and the
        deliveries that processed at least one activation."""
        counts = {"processed": 0, "deliveries": 0}
        put = Mailbox.put_nowait

        def counting_put(self, message):
            if message[0] == "processed":
                counts["processed"] += 1
            put(self, message)

        def counting(handler):
            def wrapped(self, arg):
                out, processed = handler(self, arg)
                if processed:
                    counts["deliveries"] += 1
                return out, processed
            return wrapped

        with monkeypatch.context() as patch:
            patch.setattr(Mailbox, "put_nowait", counting_put)
            patch.setattr(MatchActorCore, "on_cycle",
                          counting(MatchActorCore.on_cycle))
            patch.setattr(MatchActorCore, "on_token",
                          counting(MatchActorCore.on_token))
            result, fires, wall_s = asyncio.run(coro_fn(window, config))
        return RunResult("actors", result, fires, wall_s), counts

    def test_plain_and_supervised_agree_with_fewer_reports(
            self, monkeypatch, tourney_window):
        config = RunConfig(n_procs=4)
        plain, plain_counts = self._counted(
            monkeypatch, run_section_async, tourney_window, config)
        supervised, sup_counts = self._counted(
            monkeypatch, run_supervised_async, tourney_window,
            config.replace(supervise=SupervisePolicy()))

        assert match_signature(plain) == match_signature(supervised) \
            == match_signature(run(tourney_window, config))
        assert plain.fires == supervised.fires
        assert [c.proc_busy_us for c in plain.result.cycles] \
            == [c.proc_busy_us for c in supervised.result.cycles]
        for counts in (plain_counts, sup_counts):
            assert 0 < counts["processed"] < counts["deliveries"], counts
