"""Cost and overhead models (paper Section 4 and Table 5-1).

The node-activation costs come from profile data of the authors' earlier
shared-memory implementations; the communication parameters are the
Nectar group's figures.  All times are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple


def _check_non_negative(model) -> None:
    """Reject negative (or NaN) times: no work or message takes less
    than none, and the simulator's event queue relies on it."""
    for f in fields(model):
        if not getattr(model, f.name) >= 0.0:
            raise ValueError(f"{f.name} must be >= 0, got "
                             f"{getattr(model, f.name)!r}")


@dataclass(frozen=True)
class CostModel:
    """Per-activation processing costs (paper Section 4).

    Attributes
    ----------
    constant_tests_us:
        Time for one processor to evaluate *all* constant-test nodes for
        a cycle's wme packet (the tests are assumed hashed — a ×5 win
        over naive evaluation, per Gupta).
    left_token_us / right_token_us:
        Adding or deleting one left / right token in its hash bucket.
    successor_us:
        Comparing against the opposite bucket, per new token generated.
    """

    constant_tests_us: float = 30.0
    left_token_us: float = 32.0
    right_token_us: float = 16.0
    successor_us: float = 16.0
    #: Extra cost per entry already in the bucket when *deleting* a
    #: token.  The paper's simulator assumes constant-time bucket
    #: operations and footnote 6 flags the consequence: Tourney's
    #: speedups are "somewhat overestimated" because deletion from its
    #: overloaded buckets really requires a search.  Setting this to a
    #: nonzero per-entry scan cost (e.g. 1-2 us) prices that search;
    #: the default 0.0 reproduces the paper's assumption.
    delete_search_us: float = 0.0

    def __post_init__(self) -> None:
        _check_non_negative(self)

    def store_cost(self, side: str) -> float:
        """Cost of the add/delete for a token arriving on *side*."""
        if side == "left":
            return self.left_token_us
        if side == "right":
            return self.right_token_us
        raise ValueError(f"unknown side {side!r}")

    def scaled(self, left_right_ratio: float) -> "CostModel":
        """Variant with a different left:right cost ratio, same right cost.

        The paper reports experimenting with this ratio and seeing only a
        5-10% effect; :mod:`benchmarks` includes an ablation that checks
        the same insensitivity in our simulator.
        """
        return CostModel(
            constant_tests_us=self.constant_tests_us,
            left_token_us=self.right_token_us * left_right_ratio,
            right_token_us=self.right_token_us,
            successor_us=self.successor_us,
            delete_search_us=self.delete_search_us)


@dataclass(frozen=True)
class OverheadModel:
    """Message-passing overheads (Table 5-1) and network latency.

    ``send_us`` is paid by the sending processor per message, ``recv_us``
    by the receiver, and ``latency_us`` is pure network transit time —
    0.5 µs, the Nectar group's figure, in every run of the paper.
    """

    send_us: float = 0.0
    recv_us: float = 0.0
    latency_us: float = 0.5

    def __post_init__(self) -> None:
        _check_non_negative(self)

    @property
    def total_us(self) -> float:
        """The per-message processing overhead (the Table 5-1 'Total')."""
        return self.send_us + self.recv_us

    def label(self) -> str:
        return f"{self.total_us:g}us"


#: The zero-overhead, zero-latency setting used for Figure 5-1 and for
#: the base case of every speedup in the paper.
ZERO_OVERHEADS = OverheadModel(send_us=0.0, recv_us=0.0, latency_us=0.0)

#: The four Table 5-1 rows (Runs 1-4), all with the 0.5 µs Nectar latency.
TABLE_5_1: Tuple[OverheadModel, ...] = (
    OverheadModel(send_us=0.0, recv_us=0.0),
    OverheadModel(send_us=5.0, recv_us=3.0),
    OverheadModel(send_us=10.0, recv_us=6.0),
    OverheadModel(send_us=20.0, recv_us=12.0),
)


def table_5_1_rows() -> List[Tuple[str, float, float, float]]:
    """The printable Table 5-1: (run, send, receive, total)."""
    return [(f"Run {i + 1}", m.send_us, m.recv_us, m.total_us)
            for i, m in enumerate(TABLE_5_1)]


#: Default cost model instance (the paper's numbers).
DEFAULT_COSTS = CostModel()
