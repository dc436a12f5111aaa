"""Every simulation path gives each :class:`CycleResult` field one type.

The dense loop, round compression, the one-processor FIFO pass, fault
injection, timeline recording and the five machine models all build
``CycleResult``s on their own.  A field that comes out as an ``int`` on
one path and a ``float`` on another compares equal but serialises
differently.  Per-processor fields may be a plain list or a
:class:`~repro.mpc.SparseProcArray` (round compression); their
elements are checked.
"""

import dataclasses

import pytest

from repro.mpc import (TABLE_5_1, FaultModel, RunConfig, TimelineRecorder,
                       simulate_config, simulate_dedicated_alpha,
                       simulate_master_copy, simulate_pairs,
                       simulate_replicated, simulate_shared_bus)
from repro.mpc.metrics import CycleResult
from repro.workloads import weaver_section

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)

#: Each field's type; a per-processor field's element type in a list.
TYPES = {
    "index": int, "makespan_us": float, "proc_busy_us": [float],
    "proc_activations": [int], "proc_left_activations": [int],
    "n_messages": int, "network_busy_us": float, "control_busy_us": float,
    "retransmits": int, "duplicate_drops": int, "acks": int,
    "timeout_wait_us": float, "stall_us": float, "recovery_us": float,
}


def _config(**changes):
    return RunConfig(**{"n_procs": 4, "overheads": OV8, **changes})


PATHS = {
    "dense": lambda trace: simulate_config(trace, _config()),
    "compressed": lambda trace: simulate_config(
        trace, _config(compress_rounds=True)),
    "fifo": lambda trace: simulate_config(trace, _config(n_procs=1)),
    "faulty": lambda trace: simulate_config(trace, _config(
        faults=FaultModel(seed=1, loss_prob=0.1))),
    "recorded": lambda trace: simulate_config(
        trace, _config(recorder=TimelineRecorder())),
    **{model.__name__: (lambda trace, model=model: model(trace, 4))
       for model in (simulate_pairs, simulate_dedicated_alpha,
                     simulate_shared_bus, simulate_replicated,
                     simulate_master_copy)},
}


def _types(cycle: CycleResult) -> dict:
    out = {}
    for field in dataclasses.fields(CycleResult):
        value = getattr(cycle, field.name)
        if field.name.startswith("proc_"):
            out[field.name] = sorted({type(v) for v in value},
                                     key=lambda t: t.__name__)
        else:
            out[field.name] = type(value)
    return out


def test_every_field_is_listed():
    assert set(TYPES) == {f.name for f in dataclasses.fields(CycleResult)}


@pytest.mark.parametrize("path", PATHS)
def test_one_type_per_field(path):
    result = PATHS[path](weaver_section(0))
    assert result.cycles
    for cycle in result.cycles:
        assert _types(cycle) == TYPES
