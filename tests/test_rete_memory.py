"""Unit tests for the global hashed memories."""

from repro.ops5.wme import WME
from repro.rete import BucketKey
from repro.rete._reference import HashedMemories, make_unit_token


def tok(i):
    return make_unit_token(WME(i, "a", {}), {})


K1 = BucketKey(1, ("v",))
K2 = BucketKey(2, ("v",))


class TestLeftTable:
    def test_add_and_lookup(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        assert m.left_bucket(K1) == [tok(1)]

    def test_buckets_are_independent(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        assert m.left_bucket(K2) == []

    def test_remove_present(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        assert m.remove_left(K1, tok(1))
        assert m.left_bucket(K1) == []

    def test_remove_absent_returns_false(self):
        m = HashedMemories()
        assert not m.remove_left(K1, tok(1))

    def test_remove_only_one_copy(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        m.add_left(K1, tok(1))
        m.remove_left(K1, tok(1))
        assert len(m.left_bucket(K1)) == 1

    def test_empty_bucket_is_garbage_collected(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        m.remove_left(K1, tok(1))
        assert list(m.left_keys()) == []


class TestRightTable:
    def test_add_remove_roundtrip(self):
        m = HashedMemories()
        w = WME(1, "a", {})
        m.add_right(K1, w)
        assert m.right_bucket(K1) == [w]
        assert m.remove_right(K1, w)
        assert m.right_bucket(K1) == []

    def test_remove_absent_returns_false(self):
        m = HashedMemories()
        assert not m.remove_right(K1, WME(1, "a", {}))

    def test_left_and_right_tables_are_disjoint(self):
        m = HashedMemories()
        m.add_right(K1, WME(1, "a", {}))
        assert m.left_bucket(K1) == []


class TestAccounting:
    def test_counts(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        m.add_left(K2, tok(2))
        m.add_right(K1, WME(3, "a", {}))
        assert m.counts() == (2, 1)

    def test_is_empty(self):
        m = HashedMemories()
        assert m.is_empty()
        m.add_left(K1, tok(1))
        assert not m.is_empty()
        m.remove_left(K1, tok(1))
        assert m.is_empty()

    def test_clear(self):
        m = HashedMemories()
        m.add_left(K1, tok(1))
        m.add_right(K1, WME(1, "a", {}))
        m.clear()
        assert m.is_empty()
