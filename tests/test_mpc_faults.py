"""Tests of the fault-injection and reliable-delivery subsystem.

The two load-bearing contracts, both pinned here:

* **Determinism** — the fault model is counter-based, so the same seed
  always yields a bit-identical :class:`~repro.mpc.metrics.SimResult`,
  on canonical sections and on arbitrary hypothesis-generated traces.
* **Zero-fault transparency** — a null :class:`FaultModel` takes the
  exact fault-free code path: results equal the fault-free simulator
  (and the preserved reference implementation) on every section trace
  and Table 5-1 overhead setting, field for field.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (DEFAULT_PROTOCOL, TABLE_5_1, ZERO_OVERHEADS,
                       CostModel, FailStop, FaultModel, GridPoint,
                       ProtocolModel, RandomMapping, RoundRobinMapping,
                       RunConfig, StallWindow, compute_search_costs,
                       fault_sweep, plan_delivery, run_grid, simulate,
                       simulate_base, simulate_config, speedup)
from repro.mpc._reference import (simulate_reference,
                                  simulate_with_faults_reference)
from repro.mpc.faults import (_STREAM_DUP, _STREAM_JITTER, _STREAM_LOSS,
                              _message_u01, counter_prefix, counter_u01,
                              simulate_cycle_with_faults)
from repro.workloads import rubik_section, tourney_section, weaver_section

from tests.test_simulator_properties import random_traces

OVERHEADS = TABLE_5_1[1]


@pytest.fixture(scope="module")
def sections():
    return [rubik_section(), tourney_section(), weaver_section()]


def assert_results_identical(a, b):
    """Field-for-field equality of every cycle, counters included."""
    assert a.trace_name == b.trace_name
    assert len(a.cycles) == len(b.cycles)
    for ca, cb in zip(a.cycles, b.cycles):
        assert dataclasses.asdict(ca) == dataclasses.asdict(cb)


class TestModelValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultModel(loss_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(dup_prob=-0.1)
        with pytest.raises(ValueError):
            FaultModel(jitter_us=-1.0)

    def test_protocol_validated(self):
        with pytest.raises(ValueError):
            ProtocolModel(timeout_us=0.0)
        with pytest.raises(ValueError):
            ProtocolModel(backoff=0.5)
        with pytest.raises(ValueError):
            ProtocolModel(max_retries=-1)

    def test_null_detection(self):
        assert FaultModel().is_null
        assert not FaultModel(loss_prob=0.1).is_null
        assert not FaultModel(stalls=(StallWindow(0, 0.0, 1.0),)).is_null
        assert not FaultModel(failures=(FailStop(0, 1),)).is_null

    def test_counter_u01_is_a_pure_function(self):
        a = counter_u01(7, 1, 2, 3)
        assert a == counter_u01(7, 1, 2, 3)
        assert 0.0 <= a < 1.0
        assert counter_u01(7, 1, 2, 3) != counter_u01(8, 1, 2, 3)
        assert counter_u01(7, 1, 2, 3) != counter_u01(7, 1, 2, 4)


class TestDeliveryPlan:
    def test_certain_loss_exhausts_retries_then_fallback(self):
        faults = FaultModel(loss_prob=1.0)
        proto = ProtocolModel(timeout_us=100.0, backoff=2.0, max_retries=3)
        plan = plan_delivery(faults, proto, cycle=1, msg_id=42)
        assert plan.attempts == 4  # 3 lost + 1 reliable fallback
        assert plan.retransmits == 3
        assert plan.timeout_wait_us == 100.0 + 200.0 + 400.0

    def test_zero_loss_single_attempt(self):
        plan = plan_delivery(FaultModel(), DEFAULT_PROTOCOL, 1, 42)
        assert plan.attempts == 1
        assert plan.timeout_wait_us == 0.0
        assert plan.duplicates == 0
        assert plan.jitter_us == 0.0

    def test_plans_depend_only_on_identity(self):
        faults = FaultModel(seed=3, loss_prob=0.5, dup_prob=0.5,
                            jitter_us=10.0)
        a = plan_delivery(faults, DEFAULT_PROTOCOL, 2, 7)
        b = plan_delivery(faults, DEFAULT_PROTOCOL, 2, 7)
        assert a == b


_MASK64 = (1 << 64) - 1


def _oracle_u01(seed, *counters):
    """The counter-based draw as first written: one splitmix64 round for
    the seed and one per counter, nothing hoisted."""
    def mix(x):
        x &= _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)

    x = mix(seed ^ 0x9E3779B97F4A7C15)
    for c in counters:
        x = mix(x ^ ((c * 0x9E3779B97F4A7C15) & _MASK64))
    return x / float(1 << 64)


_ids = st.integers(min_value=-2**40, max_value=2**63)


class TestHoistedDraws:
    """Each cycle hashes its ``(seed, cycle)`` prefix once; every draw
    continued from it must equal the full counter-based draw."""

    @given(seed=_ids, cycle=_ids, msg_id=_ids,
           attempt=st.integers(min_value=0, max_value=64),
           stream=st.sampled_from((_STREAM_LOSS, _STREAM_DUP,
                                   _STREAM_JITTER)))
    def test_prefixed_draw_equals_counter_u01(self, seed, cycle, msg_id,
                                              attempt, stream):
        want = _oracle_u01(seed, cycle, msg_id, attempt, stream)
        assert counter_u01(seed, cycle, msg_id, attempt, stream) == want
        prefix = counter_prefix(seed, cycle)
        assert FaultModel(seed=seed).cycle_prefix(cycle) == prefix
        assert _message_u01(prefix, msg_id, attempt, stream) == want

    @given(seed=_ids, cycle=_ids, msg_id=_ids,
           loss=st.sampled_from((0.0, 0.3, 1.0)),
           dup=st.sampled_from((0.0, 0.5, 1.0)),
           jitter=st.sampled_from((0.0, 12.5)))
    def test_plan_equals_per_draw_model(self, seed, cycle, msg_id, loss,
                                        dup, jitter):
        faults = FaultModel(seed=seed, loss_prob=loss, dup_prob=dup,
                            jitter_us=jitter)
        proto = ProtocolModel(max_retries=4)
        attempt = 0
        while attempt < proto.max_retries and _oracle_u01(
                seed, cycle, msg_id, attempt, _STREAM_LOSS) < loss:
            assert faults.lost(cycle, msg_id, attempt)
            attempt += 1
        assert attempt == proto.max_retries \
            or not faults.lost(cycle, msg_id, attempt)
        duplicated = _oracle_u01(seed, cycle, msg_id, 0, _STREAM_DUP) < dup
        assert faults.duplicated(cycle, msg_id) == duplicated
        jitter_us = 0.0 if jitter == 0.0 else jitter * _oracle_u01(
            seed, cycle, msg_id, attempt, _STREAM_JITTER)
        assert faults.jitter(cycle, msg_id, attempt) == jitter_us
        plan = plan_delivery(faults, proto, cycle, msg_id)
        assert plan == plan_delivery(faults, proto, cycle, msg_id,
                                     faults.cycle_prefix(cycle))
        assert (plan.attempts, plan.duplicates, plan.jitter_us) \
            == (attempt + 1, int(duplicated), jitter_us)

    def test_zero_probabilities_skip_hashing(self, monkeypatch):
        import repro.mpc.faults as faults_module

        def boom(*args):
            raise AssertionError("hashed a draw that cannot fire")

        monkeypatch.setattr(faults_module, "_message_u01", boom)
        faults = FaultModel(seed=9)
        assert not faults.lost(3, 4, 0)
        assert not faults.duplicated(3, 4)
        assert faults.jitter(3, 4, 0) == 0.0
        plan = plan_delivery(faults, DEFAULT_PROTOCOL, 3, 4)
        assert (plan.attempts, plan.duplicates, plan.jitter_us) \
            == (1, 0, 0.0)


class TestZeroFaultTransparency:
    """The issue's acceptance pin: zero-fault == today's simulator on
    all section traces and Table 5-1 overhead settings."""

    @pytest.mark.parametrize("overheads", TABLE_5_1,
                             ids=lambda m: m.label())
    def test_sections_bit_identical(self, sections, overheads):
        for trace in sections:
            plain = simulate(trace, n_procs=16, overheads=overheads)
            with_null = simulate_config(trace, RunConfig(
                n_procs=16, overheads=overheads, faults=FaultModel()))
            with_none = simulate_config(trace, RunConfig(
                n_procs=16, overheads=overheads, faults=None))
            assert_results_identical(plain, with_null)
            assert_results_identical(plain, with_none)
            assert_results_identical(
                plain, simulate_reference(trace, 16, overheads=overheads))

    def test_fault_free_counters_are_zero(self, sections):
        run = simulate(sections[0], n_procs=8, overheads=OVERHEADS)
        assert run.retransmits == 0
        assert run.duplicate_drops == 0
        assert run.acks == 0
        assert run.timeout_wait_us == 0.0
        assert run.stall_us == 0.0
        assert run.recovery_us == 0.0


#: The fault models of the table-loop-vs-reference grid: every fault
#: feature alone and mixed, a stall on a processor outside the machine,
#: and a fail-stop.
GRID_MODELS = (
    FaultModel(seed=3, loss_prob=0.05),
    FaultModel(seed=4, dup_prob=0.2),
    FaultModel(seed=5, jitter_us=7.5),
    FaultModel(seed=6, loss_prob=0.3, dup_prob=0.1, jitter_us=2.0),
    FaultModel(seed=7, stalls=(StallWindow(0, 10.0, 400.0),
                               StallWindow(2, 0.0, 90.0, cycle=1),
                               StallWindow(99, 0.0, 50.0))),
    FaultModel(seed=8, loss_prob=0.01,
               failures=(FailStop(1, 2, recovery_us=500.0),)),
    FaultModel(seed=9),
)
GRID_PROTOCOLS = (DEFAULT_PROTOCOL,
                  ProtocolModel(timeout_us=120.0, backoff=1.5,
                                max_retries=2))
GRID_COSTS = (CostModel(), CostModel(delete_search_us=1.5))


class TestTableLoopMatchesReference:
    """The fault/protocol loop on the compiled cycle table equals the
    preserved object-based loop (:mod:`repro.mpc._reference`), every
    field of every cycle, on the canonical sections: each (section,
    P, overheads) point runs one rotation of fault model, protocol,
    deletion-search cost and mapping."""

    @pytest.mark.parametrize("n_procs", [1, 3, 16, 64])
    def test_sections_bit_identical(self, sections, n_procs):
        rows = (ZERO_OVERHEADS,) + TABLE_5_1
        for s, trace in enumerate(sections):
            for o, overheads in enumerate(rows):
                i = s * len(rows) + o + n_procs
                faults = GRID_MODELS[i % len(GRID_MODELS)]
                protocol = GRID_PROTOCOLS[i % 2]
                costs = GRID_COSTS[i // 2 % 2]
                mapping = (RoundRobinMapping(n_procs) if i % 3
                           else RandomMapping(n_procs, seed=i))
                search = compute_search_costs(trace, costs)
                want = simulate_with_faults_reference(
                    trace, n_procs, faults, costs=costs,
                    overheads=overheads, mapping=mapping,
                    protocol=protocol)
                for cycle, expect in zip(trace, want.cycles):
                    got = simulate_cycle_with_faults(
                        cycle, n_procs, costs, overheads, mapping, faults,
                        protocol, search.get(cycle.index, {}))
                    assert dataclasses.asdict(got) == \
                        dataclasses.asdict(expect), (trace.name, faults)


class TestSectionDeterminism:
    def test_same_seed_bit_identical(self, sections):
        faults = FaultModel(seed=11, loss_prob=0.01, dup_prob=0.005,
                            jitter_us=3.0)
        for trace in sections:
            a = simulate_config(trace, RunConfig(
                n_procs=16, overheads=OVERHEADS, faults=faults))
            b = simulate_config(trace, RunConfig(
                n_procs=16, overheads=OVERHEADS,
                faults=FaultModel(seed=11, loss_prob=0.01,
                                  dup_prob=0.005, jitter_us=3.0)))
            assert_results_identical(a, b)

    def test_different_seed_differs(self, sections):
        trace = sections[1]  # tourney: enough messages to hit faults
        a = simulate_config(trace, RunConfig(
            n_procs=16, overheads=OVERHEADS,
            faults=FaultModel(seed=0, loss_prob=0.05)))
        b = simulate_config(trace, RunConfig(
            n_procs=16, overheads=OVERHEADS,
            faults=FaultModel(seed=1, loss_prob=0.05)))
        assert a.retransmits != b.retransmits or a.total_us != b.total_us

    def test_parallel_equals_serial_with_faults(self, sections):
        trace = sections[0]
        faults = FaultModel(seed=5, loss_prob=0.01, jitter_us=2.0)
        points = [GridPoint(n_procs=n, overheads=OVERHEADS, faults=faults)
                  for n in (4, 16)]
        serial = run_grid(trace, points, workers=1)
        fanned = run_grid(trace, points, workers=2)
        for a, b in zip(serial, fanned):
            assert_results_identical(a, b)


class TestProtocolAccounting:
    def test_certain_loss_retransmit_budget(self, sections):
        """At loss 1 every data message burns its whole retry budget."""
        trace = sections[0]
        proto = ProtocolModel(timeout_us=50.0, max_retries=2)
        run = simulate_config(trace, RunConfig(
            n_procs=16, overheads=OVERHEADS,
            faults=FaultModel(loss_prob=1.0), protocol=proto))
        n_data_messages = run.acks  # one ack per delivered message here
        assert run.retransmits == proto.max_retries * n_data_messages
        assert run.timeout_wait_us == pytest.approx(
            (50.0 + 100.0) * n_data_messages)

    def test_reliability_is_not_free(self, sections):
        """An active protocol layer costs time even when no fault fires:
        acks are priced per message (the paper's perfect network is an
        upper bound)."""
        for trace in sections:
            plain = simulate(trace, n_procs=16, overheads=OVERHEADS)
            # dup_prob tiny but nonzero -> protocol active; seed chosen
            # freely, losses may or may not fire.
            guarded = simulate_config(trace, RunConfig(
                n_procs=16, overheads=OVERHEADS,
                faults=FaultModel(seed=0, dup_prob=1e-9)))
            assert guarded.total_us > plain.total_us
            assert guarded.acks > 0

    def test_duplicates_all_dropped(self, sections):
        trace = sections[0]
        run = simulate_config(trace, RunConfig(
            n_procs=16, overheads=OVERHEADS,
            faults=FaultModel(dup_prob=1.0)))
        assert run.duplicate_drops == run.acks // 2
        assert run.duplicate_drops > 0

    def test_degradation_monotone_on_rubik(self, sections):
        curve = fault_sweep(sections[0], n_procs=16,
                            overheads=OVERHEADS, workers=1)
        assert curve.is_monotone()
        assert curve.speedups[-1] < curve.speedups[0]


class TestStallsAndFailStop:
    def test_stall_never_speeds_up(self, sections):
        trace = sections[0]
        plain = simulate(trace, n_procs=8)
        stalled = simulate_config(trace, RunConfig(
            n_procs=8,
            faults=FaultModel(stalls=(StallWindow(0, 0.0, 5000.0),))))
        assert stalled.total_us >= plain.total_us
        assert stalled.stall_us > 0

    def test_fail_stop_accrues_recovery_and_delays(self, sections):
        trace = sections[0]
        plain = simulate(trace, n_procs=8)
        crashed = simulate_config(trace, RunConfig(
            n_procs=8,
            faults=FaultModel(failures=(
                FailStop(proc=2, cycle=trace.cycles[0].index,
                         recovery_us=50_000.0),))))
        assert crashed.recovery_us == 50_000.0
        assert crashed.total_us > plain.total_us

    def test_stall_on_out_of_range_proc_is_ignored(self, sections):
        trace = sections[0]
        plain = simulate(trace, n_procs=4)
        ghost = simulate_config(trace, RunConfig(
            n_procs=4,
            faults=FaultModel(stalls=(StallWindow(99, 0.0, 1e6),))))
        assert ghost.total_us == plain.total_us


# --- property tests over hypothesis-generated traces -----------------------


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=10),
       loss=st.floats(min_value=0.0, max_value=0.5),
       dup=st.floats(min_value=0.0, max_value=0.3),
       jitter=st.floats(min_value=0.0, max_value=20.0))
def test_same_seed_bit_identical_on_random_traces(trace, n_procs, seed,
                                                  loss, dup, jitter):
    faults = FaultModel(seed=seed, loss_prob=loss, dup_prob=dup,
                        jitter_us=jitter)
    a = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OVERHEADS, faults=faults))
    b = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OVERHEADS,
        faults=FaultModel(seed=seed, loss_prob=loss,
                          dup_prob=dup, jitter_us=jitter)))
    assert_results_identical(a, b)


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16))
def test_zero_fault_equals_fault_free_on_random_traces(trace, n_procs):
    plain = simulate(trace, n_procs=n_procs, overheads=OVERHEADS)
    nulled = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OVERHEADS, faults=FaultModel()))
    assert_results_identical(plain, nulled)


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=5))
def test_faults_never_beat_the_perfect_network(trace, n_procs, seed):
    """Total busy time under faults is at least the fault-free total:
    the protocol layer only ever adds work."""
    plain = simulate(trace, n_procs=n_procs, overheads=OVERHEADS)
    faulty = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OVERHEADS,
        faults=FaultModel(seed=seed, loss_prob=0.2,
                          dup_prob=0.1, jitter_us=5.0)))
    busy_plain = sum(sum(c.proc_busy_us) for c in plain.cycles)
    busy_faulty = sum(sum(c.proc_busy_us) for c in faulty.cycles)
    assert busy_faulty >= busy_plain - 1e-9
    assert faulty.n_messages >= plain.n_messages


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=5))
def test_speedup_still_physical_under_faults(trace, n_procs, seed):
    base = simulate_base(trace)
    run = simulate_config(trace, RunConfig(
        n_procs=n_procs,
        faults=FaultModel(seed=seed, loss_prob=0.1, jitter_us=2.0)))
    s = speedup(base, run)
    assert 0 < s <= n_procs + 1e-9
