"""End-to-end interpreter runs on the flattened kernel.

Full OPS5 programs — the classic demos and the rubik/tourney/weaver
match workloads — run token-for-token identically on the fast kernel
(observed and unobserved) and the preserved reference engine: same firing
sequence, same wme ids in every instantiation, same output, same halt
state.  The recorded match scripts also replay into every engine with
identical final conflict sets, which is the property the rete bench
relies on."""

import pytest

from repro.ops5 import Interpreter, parse_program
from repro.ops5.conflict import Strategy
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.workloads import (MATCH_PROGRAMS, adversarial_cross_product,
                             record_match_deltas, replay_deltas)
from repro.workloads.programs import (BLOCKS_WORLD, GRID_ROUTER,
                                      MONKEY_AND_BANANAS)
from tests.rete_memory_image import left_buckets, left_state


def _observed_network():
    """A kernel with an observer: every wave emits its events."""
    net = ReteNetwork()
    net.observers.append(lambda event: None)
    return net


ENGINES = {
    "reference": ReferenceReteNetwork,
    "fast": _observed_network,
    "fast-unobserved": ReteNetwork,
}

PROGRAMS = {
    "blocks": BLOCKS_WORLD,
    "monkey": MONKEY_AND_BANANAS,
    "router": GRID_ROUTER,
    "rubik": MATCH_PROGRAMS["rubik"](seed=0),
    "tourney": MATCH_PROGRAMS["tourney"](seed=0),
    "weaver": MATCH_PROGRAMS["weaver"](seed=0),
}

#: Golden MRA cycle counts for the seed-0 match workloads.  These pin
#: the workloads themselves: a parser, conflict-resolution or matcher
#: change that alters any firing sequence shows up here first.
GOLDEN_CYCLES = {"rubik": 41, "tourney": 56, "weaver": 107}


def _run(source, matcher):
    interp = Interpreter(matcher=matcher, strategy=Strategy.LEX)
    interp.load_program(parse_program(source))
    result = interp.run(max_cycles=5000)
    firings = [(rec.cycle, rec.instantiation.production.name,
                tuple(w.wme_id for w in rec.instantiation.wmes),
                tuple(rec.output))
               for rec in result.firings]
    return firings, result.halted, result.quiesced


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_fast_kernel_runs_token_for_token(name):
    source = PROGRAMS[name]
    runs = {ename: _run(source, factory())
            for ename, factory in ENGINES.items()}
    reference = runs["reference"]
    assert reference[0], f"{name}: reference run fired nothing"
    for ename in ("fast", "fast-unobserved"):
        assert runs[ename] == reference, f"{name}: {ename} diverged"


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
def test_match_workloads_hit_golden_cycle_counts(name):
    script = record_match_deltas(PROGRAMS[name])
    assert script.halted
    assert script.cycles == GOLDEN_CYCLES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
def test_recorded_scripts_replay_identically(name):
    script = record_match_deltas(PROGRAMS[name])
    sigs = []
    for factory in ENGINES.values():
        conflict_set = replay_deltas(factory(), script.program,
                                     script.deltas)
        sigs.append(sorted((inst.production.name,
                            tuple(w.wme_id for w in inst.wmes))
                           for inst in conflict_set))
    assert sigs[0] == sigs[1] == sigs[2]


def test_adversarial_cross_product_forms_n_squared_then_drains():
    n = 12
    program, deltas = adversarial_cross_product(n)
    net = ReteNetwork()
    for production in program.productions:
        net.add_production(production)
    adds = [d for d in deltas if d[0] == "+"]
    removes = [d for d in deltas if d[0] == "-"]
    reference = ReferenceReteNetwork()
    for production in program.productions:
        reference.add_production(production)
    for _, wme in adds:
        net.add_wme(wme)
        reference.add_wme(wme)
    assert len(net.conflict_set()) == n * n
    assert left_buckets(net) == left_buckets(reference)
    for _, wme in removes:
        net.remove_wme(wme)
    assert net.conflict_set() == []
    assert net.memories.is_empty()
    assert left_state(net) == ({}, {})
