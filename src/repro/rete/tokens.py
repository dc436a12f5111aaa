"""Rete tokens: partial instantiations flowing through the network.

Paper Section 2.2: a token consists of a tag (+ for addition, - for
deletion), a list of wme IDs identifying the wmes matching a subsequence
of the production's CEs, and a list of variable bindings.  Here the tag
travels separately from the token, so that the same token can be added
and later deleted.  A token's identity is its wme-id list: bindings are
derived deterministically from the wmes by the network structure, which
is what lets a minus token find and delete its stored plus twin.

The flat kernel keeps tokens in a :class:`TokenPool`; the reference
engine's immutable token objects live in :mod:`repro.rete._reference`.
"""

from __future__ import annotations

from typing import Tuple

from ..ops5.values import Value
from ..ops5.wme import WME

#: Token tags, as in the paper: "+" add, "-" delete.
PLUS = "+"
MINUS = "-"


class TokenPool:
    """Array-of-struct token storage with free-list reuse.

    The flattened kernel (:mod:`repro.rete.kernel`) does not allocate a
    token object per partial instantiation.  Instead a token is
    an integer index into this pool's parallel arrays:

    * ``ids[i]`` — the wme-id tuple, the token's identity (paper
      Section 2.2; what minus tokens match against their plus twin);
    * ``wmes[i]`` — the wme sequence, needed only at terminal nodes to
      build conflict-set instantiations;
    * ``values[i]`` — the variable-binding *values* in the owning
      node's static binding layout (the variable *names* live in the
      compiled network, once, not in every token).

    Slots are reference counted: a join/negative node storing a token
    index in its memory bucket calls :meth:`retain`; removing it calls
    :meth:`release`.  When the count returns to zero the slot goes onto
    the free list and its tuples are dropped, so a long run of
    symmetric add/delete churn recycles a small working set of slots
    instead of allocating garbage at match rate.  Tokens allocated
    during a wave but never stored (minus waves; tokens whose only
    successor is a terminal) are reclaimed by the kernel at wave end
    via :meth:`release_if_unused`.
    """

    __slots__ = ("ids", "wmes", "values", "refs", "_free")

    def __init__(self) -> None:
        self.ids: list = []
        self.wmes: list = []
        self.values: list = []
        self.refs: list = []
        self._free: list = []

    def alloc(self, ids: Tuple[int, ...], wmes: Tuple[WME, ...],
              values: Tuple[Value, ...]) -> int:
        """Claim a slot (reusing a freed one when available); refs start
        at zero — storage sites retain explicitly."""
        free = self._free
        if free:
            idx = free.pop()
            self.ids[idx] = ids
            self.wmes[idx] = wmes
            self.values[idx] = values
            self.refs[idx] = 0
            return idx
        idx = len(self.ids)
        self.ids.append(ids)
        self.wmes.append(wmes)
        self.values.append(values)
        self.refs.append(0)
        return idx

    def retain(self, idx: int) -> None:
        self.refs[idx] += 1

    def release(self, idx: int) -> None:
        """Drop one reference; free the slot when none remain."""
        refs = self.refs[idx] - 1
        self.refs[idx] = refs
        if refs <= 0:
            self._recycle(idx)

    def release_if_unused(self, idx: int) -> None:
        """Free *idx* if no memory bucket retained it (wave cleanup)."""
        if self.refs[idx] == 0:
            self._recycle(idx)

    def _recycle(self, idx: int) -> None:
        self.ids[idx] = None
        self.wmes[idx] = None
        self.values[idx] = None
        # -1 marks a slot already on the free list: a wave-end sweep
        # must not double-free a slot that was recycled mid-wave (and
        # possibly reallocated) after its bucket reference went away.
        self.refs[idx] = -1
        self._free.append(idx)

    def live_count(self) -> int:
        """Number of slots currently holding a token (for tests)."""
        return len(self.ids) - len(self._free)

    def capacity(self) -> int:
        """Total slots ever allocated (high-water mark, for tests)."""
        return len(self.ids)
