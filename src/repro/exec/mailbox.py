"""The inbox of an asyncio actor: one consumer, batched wakeups.

Every message of the Section 3.2 protocol used to be its own
:class:`asyncio.Queue` hop, and often its own task wakeup.  A
:class:`Mailbox` hands its consumer *everything* that arrived since the
last wakeup in one :meth:`~Mailbox.drain`, so a burst of tokens costs
one wakeup, not one per token.

A mailbox has exactly one consumer task and lives on one event loop.
It is **not thread-safe**: producers must run on the consumer's loop
(tasks, or callbacks such as ``loop.call_later(delay, box.put_nowait,
msg)``).  Served sessions all share the server's one loop, and the
``process`` transport keeps its :mod:`multiprocessing` queues.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional


class Mailbox:
    """A single-consumer, single-loop inbox: a list plus at most one
    waiter future.  Not thread-safe."""

    __slots__ = ("_items", "_waiter")

    def __init__(self) -> None:
        self._items: List[Any] = []
        self._waiter: Optional[asyncio.Future] = None

    def put_nowait(self, message: Any) -> None:
        """Append *message* and wake the consumer if it is waiting."""
        self._items.append(message)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    async def drain(self) -> List[Any]:
        """Every queued message, oldest first.

        Waits for at least one, untimed: deadlines belong to the caller
        (the asyncio engine's watchdog).  Cancelling the waiting task
        leaves the mailbox usable.
        """
        if not self._items:
            waiter = self._waiter = asyncio.get_running_loop().create_future()
            try:
                await waiter
            finally:
                if self._waiter is waiter:
                    self._waiter = None
        items = self._items
        self._items = []
        return items

    def empty(self) -> bool:
        return not self._items

    def get_nowait(self) -> Any:
        """The oldest queued message; :class:`IndexError` if none."""
        return self._items.pop(0)
