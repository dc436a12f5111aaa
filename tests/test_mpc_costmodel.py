"""Unit tests for the Section 4 cost model and Table 5-1 overheads."""

import pytest

from repro.mpc import (TABLE_5_1, ZERO_OVERHEADS, CostModel, OverheadModel,
                       table_5_1_rows)


class TestCostModel:
    def test_paper_defaults(self):
        c = CostModel()
        assert c.constant_tests_us == 30.0
        assert c.left_token_us == 32.0
        assert c.right_token_us == 16.0
        assert c.successor_us == 16.0

    def test_store_cost_left(self):
        assert CostModel().store_cost("left") == 32.0

    def test_store_cost_right(self):
        assert CostModel().store_cost("right") == 16.0

    def test_store_cost_rejects_unknown(self):
        with pytest.raises(ValueError):
            CostModel().store_cost("sideways")

    def test_scaled_ratio(self):
        c = CostModel().scaled(3.0)
        assert c.left_token_us == 48.0
        assert c.right_token_us == 16.0
        assert c.constant_tests_us == 30.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostModel().left_token_us = 1  # type: ignore[misc]


class TestOverheadModel:
    def test_table_5_1_totals(self):
        """The Table 5-1 rows: totals 0, 8, 16, 32 µs."""
        assert [m.total_us for m in TABLE_5_1] == [0.0, 8.0, 16.0, 32.0]

    def test_table_5_1_send_receive_split(self):
        assert [(m.send_us, m.recv_us) for m in TABLE_5_1] == \
            [(0, 0), (5, 3), (10, 6), (20, 12)]

    def test_table_5_1_all_use_nectar_latency(self):
        assert all(m.latency_us == 0.5 for m in TABLE_5_1)

    def test_zero_overheads_has_zero_latency(self):
        # Figure 5-1 runs with zero network latency AND zero overhead.
        assert ZERO_OVERHEADS.latency_us == 0.0
        assert ZERO_OVERHEADS.total_us == 0.0

    def test_rows_format(self):
        rows = table_5_1_rows()
        assert rows[0] == ("Run 1", 0.0, 0.0, 0.0)
        assert rows[3] == ("Run 4", 20.0, 12.0, 32.0)

    def test_label(self):
        assert OverheadModel(send_us=5, recv_us=3).label() == "8us"


class TestNonNegative:
    @pytest.mark.parametrize("field", ["constant_tests_us", "left_token_us",
                                       "right_token_us", "successor_us",
                                       "delete_search_us"])
    def test_cost_model_rejects_negative_times(self, field):
        with pytest.raises(ValueError, match=field):
            CostModel(**{field: -1.0})

    @pytest.mark.parametrize("field", ["send_us", "recv_us", "latency_us"])
    def test_overhead_model_rejects_negative_times(self, field):
        with pytest.raises(ValueError, match=field):
            OverheadModel(**{field: -0.5})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            OverheadModel(latency_us=float("nan"))

    def test_zero_is_allowed(self):
        assert CostModel(successor_us=0.0).successor_us == 0.0
        assert OverheadModel(latency_us=0.0) == ZERO_OVERHEADS
