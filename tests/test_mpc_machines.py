"""The five machine models the paper compares its mapping against.

Processor pairs (Section 3.1), dedicated constant-test processors
(Section 3.2), the Encore shared-bus baseline (Section 5.2) and the two
Section 6 continuum extremes are pinned here by fingerprints: the
sha256 of ``repr`` of every :class:`~repro.mpc.CycleResult` each model
produced over a matrix of traces, processor counts, overheads, cost
models, mappings and model options, as computed by the per-model event
loops that preceded the shared event core.  The traces are the
generated trace cases of the conformance harness plus a recorded
program with section-global act_ids and its sparse-id copy.  The
continuum models are fingerprinted without deletion-search surcharges,
which the earlier loops did not charge.  Every model also accepts
streaming trace sources and charges those surcharges.
"""

import hashlib

import pytest

from repro.check import TraceCase, generate_cases
from repro.mpc import (TABLE_5_1, ZERO_OVERHEADS, CostModel, OverheadModel,
                       RandomMapping, RoundRobinMapping,
                       simulate_dedicated_alpha, simulate_master_copy,
                       simulate_pairs, simulate_replicated,
                       simulate_shared_bus)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation
from repro.trace.events import materialize
from repro.workloads.synthetic import StreamSpec, SyntheticStream

from tests.test_mpc_cycle_index import _traces

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)
PROCS = (1, 3, 8)
OVERHEADS = (ZERO_OVERHEADS, OV8,
             OverheadModel(send_us=0.1, recv_us=0.7, latency_us=0.3))
COSTS = (CostModel(), CostModel(delete_search_us=1.5),
         CostModel(constant_tests_us=29.3, left_token_us=31.1,
                   right_token_us=15.7, successor_us=16.3))

#: sha256 per model over :func:`_runs` of every matrix trace.
VARIANT_FINGERPRINTS = {
    "pairs":
        "112021145606b1dd8eae372642406091d078ba35f5394e319a635600cefa2746",
    "dedicated":
        "eb66740ef926bd98a1577a674dd5b614ac4663a7749d98e1a1e92bbc33fae201",
    "shared_bus":
        "b33bd12fc83a2b327f935bfb42b6477a546b6de827966217246986ad7bb7d631",
    "replicated":
        "19f2755632cee005fa68360ef878eceddb6ecbde7c66fba306d1effe6557dfe2",
    "master_copy":
        "c1e9e7762407b3de8f78f201c599a86cbac5e12f0cee6e191dd4fb5ee8375d17",
}


def matrix_traces():
    """Every fourth generated trace case (all seven families), plus the
    recorded tourney program and its sparse-id copy."""
    cases = [case.trace for case in generate_cases(0, 120)
             if isinstance(case, TraceCase)]
    return cases[::4] + _traces()[1:]


def _runs(trace):
    """``(model, SimResult)`` of every model configuration on *trace*."""
    for n in PROCS:
        for costs in COSTS:
            yield "shared_bus", simulate_shared_bus(trace, n, costs)
            yield "shared_bus", simulate_shared_bus(
                trace, n, costs, queue_access_us=0.7, n_queues=1)
            for overheads in OVERHEADS:
                for mapping in (RoundRobinMapping(n),
                                RandomMapping(n, seed=3)):
                    yield "pairs", simulate_pairs(
                        trace, n, costs, overheads, mapping)
                    for n_const in (2, 3):
                        yield "dedicated", simulate_dedicated_alpha(
                            trace, n, n_const, costs, overheads, mapping)
                if costs.delete_search_us == 0.0:
                    yield "replicated", simulate_replicated(
                        trace, n, costs, overheads)
                    yield "master_copy", simulate_master_copy(
                        trace, n, costs, overheads)


def variant_fingerprints(traces) -> dict:
    hashers = {name: hashlib.sha256() for name in VARIANT_FINGERPRINTS}
    for trace in traces:
        for model, result in _runs(trace):
            for cycle in result.cycles:
                hashers[model].update(repr(cycle).encode())
    return {name: h.hexdigest() for name, h in hashers.items()}


class TestFingerprints:
    def test_models_match_their_per_model_loops(self):
        assert variant_fingerprints(matrix_traces()) == VARIANT_FINGERPRINTS


#: Every model at four processors (pairs: four pairs) with 8 us
#: overheads where the model takes overheads.
MODELS = {
    "pairs": lambda trace, costs: simulate_pairs(
        trace, 4, costs, OV8),
    "dedicated": lambda trace, costs: simulate_dedicated_alpha(
        trace, 4, 2, costs, OV8),
    "shared_bus": lambda trace, costs: simulate_shared_bus(
        trace, 4, costs),
    "replicated": lambda trace, costs: simulate_replicated(
        trace, 4, costs, OV8),
    "master_copy": lambda trace, costs: simulate_master_copy(
        trace, 4, costs, OV8),
}


def _deletion_trace() -> SectionTrace:
    """Three ``+`` tokens into one bucket, then a ``-`` that must scan
    past them: one root per cycle."""
    key = BucketKey(7, (1,))
    cycles = []
    for index, tag in enumerate("+++-", start=1):
        cycles.append(CycleTrace(index, {1: TraceActivation(
            act_id=1, parent_id=None, node_id=7, kind="join",
            side="right", tag=tag, key=key)}))
    return SectionTrace(name="deletions", cycles=cycles)


@pytest.mark.parametrize("model", sorted(MODELS))
class TestEveryModel:
    def test_stream_with_idle_runs_equals_materialized(self, model):
        stream = SyntheticStream(StreamSpec(
            active_cycles=3, activations_per_cycle=20, idle_between=3,
            seed=5))
        run = MODELS[model]
        assert repr(run(stream, CostModel()).cycles) \
            == repr(run(materialize(stream), CostModel()).cycles)

    def test_deletion_search_is_charged(self, model):
        trace = _deletion_trace()
        run = MODELS[model]
        plain = run(trace, CostModel())
        searched = run(trace, CostModel(delete_search_us=1.5))
        assert plain.cycles[:3] == searched.cycles[:3]
        assert searched.total_us > plain.total_us
