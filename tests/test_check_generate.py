"""The conformance harness's case generator: determinism and coverage."""

import collections

import pytest

from repro.check import (PROGRAM_EVERY, TRACE_FAMILIES, ProgramCase,
                         TraceCase, build_case, generate_cases)
from repro.check.generate import PRODUCTION_CATALOGUE
from repro.trace import validate_trace
from repro.trace.events import KIND_NEGATIVE, KIND_TERMINAL
from repro.trace.format import dumps_trace
from repro.workloads import SectionSpec, generate_section
from tests.trace_view import acts, view


class TestDeterminism:
    def test_same_seed_same_stream(self):
        first = list(generate_cases(7, 30))
        second = list(generate_cases(7, 30))
        for a, b in zip(first, second):
            assert a.family == b.family
            if isinstance(a, TraceCase):
                assert dumps_trace(a.trace) == dumps_trace(b.trace)
            else:
                assert a == b

    def test_case_independent_of_budget(self):
        # A repro names (seed, index); rebuilding must not depend on
        # how many cases the original run generated.
        long_run = list(generate_cases(3, 40))
        for index in (0, 11, 25, 39):
            rebuilt = build_case(3, index)
            original = long_run[index]
            assert rebuilt.family == original.family
            if isinstance(original, TraceCase):
                assert dumps_trace(rebuilt.trace) \
                    == dumps_trace(original.trace)
            else:
                assert rebuilt == original

    def test_build_case_rejects_family_drift(self):
        case = build_case(0, 2)
        with pytest.raises(ValueError):
            build_case(0, 2, family="program")
        assert build_case(0, 2, family=case.family).family == case.family

    def test_different_seeds_differ(self):
        a = build_case(0, 0)
        b = build_case(1, 0)
        assert dumps_trace(a.trace) != dumps_trace(b.trace)


class TestCoverage:
    def test_every_family_appears(self):
        families = collections.Counter(
            case.family for case in generate_cases(0, 60))
        for family in TRACE_FAMILIES + ("program",):
            assert families[family] > 0, family

    def test_program_cases_interleaved(self):
        for index in range(3):
            position = PROGRAM_EVERY + index * (PROGRAM_EVERY + 1)
            assert isinstance(build_case(0, position), ProgramCase)

    def test_all_traces_valid(self):
        for case in generate_cases(5, 45):
            if isinstance(case, TraceCase):
                assert validate_trace(case.trace) == []

    def test_program_scripts_well_formed(self):
        for case in generate_cases(5, 60):
            if not isinstance(case, ProgramCase):
                continue
            assert case.rules
            assert set(case.rules) <= set(PRODUCTION_CATALOGUE)
            live = set()
            for op in case.script:
                if op[0] == "add":
                    assert op[1] not in live
                    live.add(op[1])
                else:
                    assert op[1] in live
                    live.remove(op[1])

    def test_hard_case_features_present(self):
        # The bias families must actually produce their pathology.
        seen_negative = seen_empty_cycle = seen_terminal = False
        for case in generate_cases(0, 80):
            if not isinstance(case, TraceCase):
                continue
            for cycle in case.trace:
                if not view(cycle):
                    seen_empty_cycle = True
                for act in acts(cycle):
                    if act.kind == KIND_NEGATIVE:
                        seen_negative = True
                    if act.kind == KIND_TERMINAL:
                        seen_terminal = True
        assert seen_negative and seen_empty_cycle and seen_terminal

    def test_cross_product_concentrates_one_bucket(self):
        case = build_case(0, 1)
        assert case.family == "cross_product"
        keys = {act.key for cycle in case.trace for act in acts(cycle)
                if act.side == "left" and act.parent_id is None}
        assert len(keys) == 1


class TestGeneratorKnobs:
    def test_neg_fraction_produces_negative_kinds(self):
        spec = SectionSpec(name="neg", left_activations=200,
                           right_activations=0, neg_fraction=0.5)
        trace = generate_section(spec)
        kinds = collections.Counter(
            act.kind for cycle in trace for act in acts(cycle))
        assert kinds[KIND_NEGATIVE] > 0

    def test_burst_pairs_alternate_tags_on_one_bucket(self):
        spec = SectionSpec(name="burst", left_activations=100,
                           right_activations=0, left_burst_pairs=3,
                           left_roots_fraction=1.0)
        trace = generate_section(spec)
        cycle = trace.cycles[0]
        burst = [act for act in acts(cycle) if act.node_id == 101][:6]
        assert [a.tag for a in burst] == ["+", "-", "+", "-", "+", "-"]
        assert len({a.key for a in burst}) == 1

    def test_default_knobs_change_nothing(self):
        # The new SectionSpec fields must not perturb existing traces
        # (canned sections, trace cache keys, Table 5-2 exactness).
        base = SectionSpec(name="same", seed=9)
        explicit = SectionSpec(name="same", seed=9, neg_fraction=0.0,
                               left_burst_pairs=0)
        assert dumps_trace(generate_section(base)) \
            == dumps_trace(generate_section(explicit))

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            SectionSpec(neg_fraction=1.5).validate()
        with pytest.raises(ValueError):
            SectionSpec(left_burst_pairs=-1).validate()
