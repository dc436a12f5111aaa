"""Unit tests for the flattened match kernel's building blocks:
token-pool lifecycle, alpha matching, flat memories and the network
front-end's compile behaviour."""

import pytest

from repro.ops5 import parse_production
from repro.ops5.wme import WME
from repro.rete import FlatMemories, ReteError, ReteNetwork, TokenPool


def _wme(wid, cls="a", **attrs):
    return WME(wid, cls, attrs, timestamp=wid)


# ---------------------------------------------------------------------------
# TokenPool
# ---------------------------------------------------------------------------

class TestTokenPool:
    def test_alloc_starts_unreferenced(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ("x",))
        assert pool.refs[idx] == 0
        assert pool.live_count() == 1

    def test_release_frees_and_reuses_slot(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ("x",))
        pool.retain(idx)
        pool.release(idx)
        assert pool.live_count() == 0
        assert pool.ids[idx] is None
        idx2 = pool.alloc((2,), (_wme(2),), ("y",))
        assert idx2 == idx  # free list reuses the slot
        assert pool.values[idx2] == ("y",)

    def test_refcount_keeps_slot_alive(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ())
        pool.retain(idx)
        pool.retain(idx)
        pool.release(idx)
        assert pool.live_count() == 1
        pool.release(idx)
        assert pool.live_count() == 0

    def test_release_if_unused_only_frees_unreferenced(self):
        pool = TokenPool()
        kept = pool.alloc((1,), (_wme(1),), ())
        pool.retain(kept)
        loose = pool.alloc((2,), (_wme(2),), ())
        pool.release_if_unused(kept)
        pool.release_if_unused(loose)
        assert pool.live_count() == 1
        assert pool.ids[kept] == (1,)

    def test_wave_end_sweep_cannot_double_free_reused_slot(self):
        """A slot recycled mid-wave and immediately reallocated must
        survive the wave-end ``release_if_unused`` sweep over the old
        index — the free marker (refs == -1) breaks the aliasing."""
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ())
        pool.retain(idx)
        pool.release(idx)            # mid-wave recycle: refs -> -1
        assert pool.refs[idx] == -1
        again = pool.alloc((2,), (_wme(2),), ())
        assert again == idx          # reallocated under the same index
        pool.retain(again)
        pool.release_if_unused(idx)  # wave-end sweep over the OLD alloc
        assert pool.live_count() == 1
        assert pool.ids[again] == (2,)
        assert idx not in pool._free

    def test_capacity_is_high_water_mark(self):
        pool = TokenPool()
        slots = [pool.alloc((i,), (_wme(i),), ()) for i in range(5)]
        for idx in slots:
            pool.release_if_unused(idx)
        assert pool.capacity() == 5
        assert pool.live_count() == 0
        pool.alloc((9,), (_wme(9),), ())
        assert pool.capacity() == 5  # reuse, not growth


# ---------------------------------------------------------------------------
# alpha match
# ---------------------------------------------------------------------------

def _const_battery_network(n_patterns):
    net = ReteNetwork()
    for v in range(n_patterns):
        net.add_production(parse_production(
            f"(p const{v} (a ^p {v}) --> (remove 1))"))
    return net


class TestAlphaMatch:
    def test_bool_values_never_match_numeric_constants(self):
        # values_equal(True, 1) is False even though True == 1 in
        # Python; the alpha tests must preserve that.
        net = _const_battery_network(12)
        net.add_wme(_wme(1, p=True))
        assert net.conflict_set() == []
        net.add_wme(_wme(2, p=1))
        assert [i.production.name for i in net.conflict_set()] \
            == ["const1"]


# ---------------------------------------------------------------------------
# FlatMemories
# ---------------------------------------------------------------------------

class TestFlatMemories:
    def test_counts_and_empty(self):
        mem = FlatMemories(3)
        assert mem.is_empty()
        assert mem.counts() == (0, 0)
        mem.left[1][("k",)] = [0, 1]
        mem.right[2][()] = [_wme(1)]
        assert not mem.is_empty()
        assert mem.counts() == (2, 1)
        mem.clear()
        assert mem.is_empty()

    def test_empty_bucket_must_be_deleted_not_kept(self):
        # The kernel deletes emptied buckets so is_empty stays O(nodes).
        mem = FlatMemories(1)
        mem.left[0][("k",)] = []
        assert not mem.is_empty()  # documents why deletion matters


# ---------------------------------------------------------------------------
# network front end
# ---------------------------------------------------------------------------

class TestNetworkFrontEnd:
    def test_late_production_add_raises(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p one (a ^p 1) --> (remove 1))"))
        net.add_wme(_wme(1, p=1))
        with pytest.raises(ReteError):
            net.add_production(parse_production(
                "(p two (a ^p 2) --> (remove 1))"))

    def test_kernel_recompiles_after_new_production(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p one (a ^p 1) --> (remove 1))"))
        first = net.kernel
        net.add_production(parse_production(
            "(p two (a ^p 2) --> (remove 1))"))
        assert net.kernel is not first
        net.add_wme(_wme(1, p=2))
        assert [i.production.name for i in net.conflict_set()] == ["two"]

    def test_memories_drain_after_symmetric_churn(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p join2 (a ^p <x>) (b ^p <x>) --> (remove 1))"))
        wmes = [_wme(1, p=1), WME(2, "b", {"p": 1}, timestamp=2)]
        for wme in wmes:
            net.add_wme(wme)
        assert len(net.conflict_set()) == 1
        assert not net.memories.is_empty()
        for wme in wmes:
            net.remove_wme(wme)
        assert net.conflict_set() == []
        assert net.memories.is_empty()
        assert net.kernel.pool.live_count() == 0
