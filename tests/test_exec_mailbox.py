"""The asyncio actor inbox: batched drains and cancellation.

:class:`~repro.exec.mailbox.Mailbox` replaces ``asyncio.Queue`` in the
asyncio engine; each actor wakeup drains the whole inbox.  These tests
pin its contract (FIFO, wakeups, a cancelled consumer)
and that batching changes no counter: a run of a recorded window
agrees exactly with the simulator, while reporting fewer ``processed``
counts than deliveries that processed anything.
"""

import asyncio

import pytest

from repro.exec import (MatchActorCore, RunResult, match_signature, run,
                        run_section_async)
from repro.exec.mailbox import Mailbox
from repro.mpc import RunConfig
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
            return await asyncio.wait_for(box.drain(), 1.0)

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

    def test_engine_agrees_with_sim_with_fewer_reports(
            self, monkeypatch, tourney_window):
        config = RunConfig(n_procs=4)
        live, counts = self._counted(
            monkeypatch, run_section_async, tourney_window, config)
        sim = run(tourney_window, config)

        assert match_signature(live) == match_signature(sim)
        assert live.fires == sim.fires
        assert [c.proc_busy_us for c in live.result.cycles] \
            == [c.proc_busy_us for c in sim.result.cycles]
        assert 0 < counts["processed"] < counts["deliveries"], counts
