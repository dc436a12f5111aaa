"""Readers of a cycle count every row of its table, orphans included.

A cycle's compiled table holds every activation it was given.  An
orphan — an activation whose parent is outside the cycle — is never
delivered, so :class:`~repro.trace.events.CycleKeyIndex` leaves its
subtree out of ``len``, ``counted`` and ``terminals``.  The readers
that once iterated the activation view (the diagnostics, the check
harness, the text writer and the validator) still see those rows.  The
values below were taken from the view before the readers moved onto
the table.
"""

import dataclasses

from repro.analysis import diagnose
from repro.check.generate import TraceCase
from repro.check.invariants import _terminals_per_cycle
from repro.check.runner import _shrink_case
from repro.trace import CycleTrace, SectionTrace, dumps_trace, validate_cycle
from repro.workloads import SectionSpec, generate_section
from tests.trace_view import view

ORPHAN = 14

TEXT = """\
#repro-trace 1
section orphaned
cycle 1
a 1 - 8 join right + k n:151 :
a 2 - 18 join right + k n:33 :
a 3 - 12 join right + k n:154 :
a 4 - 16 join right + k n:160 :
a 5 - 19 join right + k n:16 :
a 6 - 20 join right + k n:3 :
a 7 - 16 join right + k n:66 :
a 8 - 18 join right + k n:59 :
a 9 - 7 join right + k n:183 :
a 10 - 16 join right + k n:138 :
a 11 - 103 join left + k n:8 : 13 15 16 28
a 12 - 102 join left + k n:1 : 17 18 19 20
a 13 11 101 join left + k n:6 : 21 22 23 24
a 14 -1 101 join left + k n:0 : 25 26
a 15 11 105 join left + k n:4 :
a 16 11 101 join left + k n:0 :
a 17 12 103 join left + k n:2 :
a 18 12 106 join left + k n:11 :
a 19 12 106 join left + k n:5 : 29
a 20 12 104 join left + k n:9 : 27
a 21 13 105 join left + k n:10 :
a 22 13 102 join left + k n:1 :
a 23 13 101 join left + k n:0 :
a 24 13 102 join left + k n:7 :
a 25 14 104 join left + k n:3 :
a 26 14 101 join left + k n:12 : 30
a 27 20 900 terminal left + k  :
a 28 11 901 terminal left + k  :
a 29 19 902 terminal left + k  :
a 30 26 903 terminal left + k  :
"""


def orphaned() -> SectionTrace:
    """A small generated cycle whose activation 14 is re-parented
    outside the cycle: 30 rows, of which 26 are delivered."""
    cycle = generate_section(SectionSpec(
        name="orphan", cycles=1, right_activations=10,
        left_activations=16, terminals_per_cycle=4,
        left_roots_fraction=0.1, seed=3)).cycles[0]
    rows = dict(view(cycle))
    orphan = rows[ORPHAN]
    parent = rows[orphan.parent_id]
    rows[parent.act_id] = dataclasses.replace(parent, successors=tuple(
        s for s in parent.successors if s != ORPHAN))
    rows[ORPHAN] = dataclasses.replace(orphan, parent_id=-1)
    return SectionTrace(name="orphaned",
                        cycles=[CycleTrace(cycle.index, rows)])


class TestOrphanRows:
    def test_the_table_holds_rows_it_does_not_deliver(self):
        [cycle] = orphaned().cycles
        index = cycle.key_index()
        assert index.orphans == {ORPHAN - index.base: -1}
        assert len(view(cycle)) == 30
        assert len(cycle) == 26
        assert len(index.terminals) == 3

    def test_check_report_counts_every_row(self):
        case = TraceCase(seed=0, index=0, family="orphaned",
                         trace=orphaned())
        # no check fails on any candidate, so the shrinker keeps the case
        repro = _shrink_case(case, [("none", "")], max_evals=10)
        assert repro["n_activations"] == 30
        assert repro["trace"] == TEXT.splitlines()

    def test_invariants_count_every_terminal(self):
        assert _terminals_per_cycle(orphaned()) == [4]

    def test_text_writes_every_row(self):
        assert dumps_trace(orphaned()) == TEXT

    def test_validator_reports_the_orphan(self):
        [cycle] = orphaned().cycles
        assert validate_cycle(cycle) == ["cycle 1 act 14: parent -1 missing"]

    def test_diagnose_counts_every_two_input_row(self):
        assert [str(f) for f in diagnose(orphaned())] == [
            "[small-cycle] cycle 1: 26 tokens -> process the affected "
            "productions on a single processor to avoid communication "
            "overheads (Section 5.2.1)"]
