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


class TestControlTraffic:
    """One control round trip per live cycle: the cycle broadcast out,
    ``processed`` reports (and fires) back, nothing else."""

    def test_one_round_trip_per_cycle(self, monkeypatch):
        """Counts every mailbox put over one burst of the 5-cycle
        windows of the seed-0 rubik/tourney/weaver recordings at P=4,
        run concurrently on one loop as the session server runs them."""
        from repro.exec.actors import _AsyncEngine
        from repro.workloads import MATCH_PROGRAMS
        windows = []
        for name, generator in MATCH_PROGRAMS.items():
            section = record_program(parse_program(generator(0)), name)
            windows += [section.slice(start, start + 5)
                        for start in range(0, len(section) - 4, 5)]
        config = RunConfig(n_procs=4)
        kinds = {}
        to_control = []
        controls = set()
        put, start = Mailbox.put_nowait, _AsyncEngine.start

        def counting_put(self, message):
            kinds[message[0]] = kinds.get(message[0], 0) + 1
            if id(self) in controls:
                to_control.append(message[0])
            put(self, message)

        def recording_start(self):
            start(self)
            controls.add(id(self.control))

        async def burst():
            return await asyncio.gather(
                *(run_section_async(w, config) for w in windows))

        with monkeypatch.context() as patch:
            patch.setattr(Mailbox, "put_nowait", counting_put)
            patch.setattr(_AsyncEngine, "start", recording_start)
            outcomes = asyncio.run(burst())
        assert [match_signature(RunResult("actors", *o))
                for o in outcomes] == [match_signature(run(w, config))
                                       for w in windows]

        cycles = sum(len(w.cycles) for w in windows)
        n_procs = config.n_procs
        assert not {"sync", "stats"} & set(kinds), kinds
        assert kinds["cycle"] == n_procs * cycles
        # Every actor reports on every cycle, at most once per batch.
        assert n_procs * cycles <= kinds["processed"] \
            <= kinds["cycle"] + kinds.get("token", 0)
        # Control's own traffic: the broadcast out, reports and fires in.
        assert kinds["cycle"] + len(to_control) \
            <= n_procs * cycles + kinds["processed"] + kinds.get("fire", 0)
