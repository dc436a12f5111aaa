"""Unit tests for Rete tokens and the bucket-key hash."""

import pytest

from repro.ops5.wme import WME
from repro.rete import BucketKey, bucket_index, fnv1a, stable_hash
from repro.rete._reference import EMPTY_TOKEN, Token, make_unit_token


def w(i, **attrs):
    return WME(i, "thing", attrs)


class TestToken:
    def test_empty_token(self):
        assert len(EMPTY_TOKEN) == 0
        assert EMPTY_TOKEN.ids() == ()

    def test_unit_token(self):
        t = make_unit_token(w(3, v=1), {"x": 1})
        assert t.ids() == (3,)
        assert t.binding("x") == 1

    def test_extend_appends_wme_and_merges_bindings(self):
        t = make_unit_token(w(1, v="a"), {"x": "a"})
        t2 = t.extend(w(2, u="b"), {"y": "b"})
        assert t2.ids() == (1, 2)
        assert t2.binding("x") == "a"
        assert t2.binding("y") == "b"

    def test_extend_without_bindings_reuses_tuple(self):
        t = make_unit_token(w(1), {"x": 1})
        t2 = t.extend(w(2), {})
        assert t2.bindings is t.bindings

    def test_unbound_variable_raises(self):
        t = make_unit_token(w(1), {"x": 1})
        with pytest.raises(KeyError):
            t.binding("nope")

    def test_equality_by_wme_ids_only(self):
        # Bindings are derived data; identity is the wme-id list
        # (paper Section 2.2), which is what minus tokens match on.
        a = Token(wmes=(w(1, v=1),), bindings=(("x", 1),))
        b = Token(wmes=(w(1, v=1),), bindings=(("y", 2),))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_wmes(self):
        a = make_unit_token(w(1), {})
        b = make_unit_token(w(2), {})
        assert a != b

    def test_bindings_dict(self):
        t = make_unit_token(w(1), {"x": 1, "a": 2})
        assert t.bindings_dict() == {"x": 1, "a": 2}

    def test_extend_interns_symbols(self):
        # Binding names and string values are interned so repeated
        # symbols share one object across tokens.
        value = "".join(["sy", "mbol-", "runtime"])  # defeat literal pool
        a = make_unit_token(w(1), {"x": value})
        b = make_unit_token(w(2), {"x": "".join(["sy", "mbol-",
                                                 "runtime"])})
        assert a.bindings[0][1] is b.bindings[0][1]
        assert a.bindings[0][0] is b.bindings[0][0]

    def test_extend_interning_skips_non_strings(self):
        class Sym(str):
            pass
        t = make_unit_token(w(1), {"x": Sym("keep-type"), "y": 3})
        assert type(t.binding("x")) is Sym
        assert t.binding("y") == 3


class TestBucketKeyInterning:
    def test_values_interned_on_construction(self):
        value = "".join(["bu", "cket-", "symbol"])
        a = BucketKey(1, (value, 7))
        b = BucketKey(1, ("".join(["bu", "cket-", "symbol"]), 7))
        assert a == b
        assert a.values[0] is b.values[0]
        assert a.values[1] == 7


class TestStableHash:
    def test_deterministic(self):
        k = BucketKey(5, ("a", 1))
        assert stable_hash(k) == stable_hash(BucketKey(5, ("a", 1)))

    def test_node_id_matters(self):
        assert stable_hash(BucketKey(1, ("a",))) != \
            stable_hash(BucketKey(2, ("a",)))

    def test_values_matter(self):
        assert stable_hash(BucketKey(1, ("a",))) != \
            stable_hash(BucketKey(1, ("b",)))

    def test_symbol_vs_number_distinguished(self):
        assert stable_hash(BucketKey(1, ("1",))) != \
            stable_hash(BucketKey(1, (1,)))

    def test_int_and_integral_float_collide(self):
        # OPS5 treats 1 and 1.0 as equal, so they must share a bucket.
        assert stable_hash(BucketKey(1, (1,))) == \
            stable_hash(BucketKey(1, (1.0,)))

    def test_known_fnv_vector(self):
        # FNV-1a 64-bit test vector for empty input is the offset basis.
        assert fnv1a(b"") == 0xCBF29CE484222325

    def test_bucket_index_range(self):
        for node in range(20):
            idx = bucket_index(BucketKey(node, ("v",)), 7)
            assert 0 <= idx < 7

    def test_bucket_index_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_index(BucketKey(1, ()), 0)

    def test_spread_over_buckets(self):
        # 1000 distinct keys into 32 buckets: no bucket should be wildly
        # overloaded (sanity check on the hash quality).
        counts = [0] * 32
        for i in range(1000):
            counts[bucket_index(BucketKey(7, (i,)), 32)] += 1
        assert max(counts) < 4 * (1000 // 32)
