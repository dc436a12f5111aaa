"""Fault sweep: speedup degradation vs message-loss rate.

An analysis axis the paper could not explore: its simulation assumes a
perfect Nectar-class network.  With the ack/retransmit protocol layer
(`repro.mpc.faults`) priced into the Table 5-1 overhead settings, we
sweep the per-message loss rate over the Fig 5-1 workloads and record
how much of the paper's speedup survives.

Expected shape:

* The loss-0 anchor is bit-identical to the fault-free simulator (the
  zero-fault configuration takes the exact fault-free code path).
* The first nonzero loss rate pays the protocol's fixed price — one
  ack per message — visible as a step down from the anchor.
* Speedup degrades monotonically as the loss rate grows (retransmit
  sends plus timeout waits), and the whole curve is reproducible
  bit-for-bit under the same seed.
"""

from conftest import once
from repro.mpc import (TABLE_5_1, fault_sweep, format_degradation,
                       simulate, speedup)

LOSS_RATES = [0.0, 1e-4, 1e-3, 1e-2]
N_PROCS = 16
OVERHEADS = TABLE_5_1[1]  # Run 2: 5+3 us, the moderate Nectar setting
SEED = 0


def compute_curves(sections):
    return [fault_sweep(trace, n_procs=N_PROCS, loss_rates=LOSS_RATES,
                        overheads=OVERHEADS, seed=SEED)
            for trace in sections]


def test_fault_sweep(benchmark, sections, bases, report):
    curves = once(benchmark, lambda: compute_curves(sections))

    text = "\n\n".join(
        format_degradation(
            curve,
            title=f"{curve.label}, overheads {OVERHEADS.label()}, "
                  f"seed {SEED}")
        for curve in curves)
    report("fault_sweep", text)

    by_name = {c.label.split("@")[0]: c for c in curves}
    rubik = by_name["rubik"]

    # The degradation curve is monotone: more loss never helps.
    for curve in curves:
        assert curve.is_monotone(), f"{curve.label} not monotone"

    # The loss-0 anchor is the fault-free simulator, bit for bit.
    base = bases["rubik"]
    fault_free = simulate(sections[0], n_procs=N_PROCS,
                          overheads=OVERHEADS)
    assert rubik.speedups[0] == speedup(base, fault_free)
    assert rubik.results[0].cycles == fault_free.cycles
    assert rubik.results[0].retransmits == 0

    # Reliability is not free: the protocol's ack machinery costs
    # measurable speedup even at the lowest loss rate...
    assert rubik.speedups[1] < rubik.speedups[0]
    # ...and at 1% loss the retransmit counters are visibly nonzero.
    assert rubik.results[-1].retransmits > 0
    assert rubik.results[-1].timeout_wait_us > 0

    # Same seed => bit-identical rerun (counter-based determinism).
    rerun = fault_sweep(sections[0], n_procs=N_PROCS,
                        loss_rates=LOSS_RATES, overheads=OVERHEADS,
                        seed=SEED)
    assert rerun.speedups == rubik.speedups
    for a, b in zip(rerun.results, rubik.results):
        assert a.cycles == b.cycles


def test_fault_sweep_seed_sensitivity(rubik, report):
    """Different seeds lose *different* messages but the same order of
    magnitude of them — the curve's shape is a property of the loss
    rate, not of one lucky seed."""
    curves = [fault_sweep(rubik, n_procs=N_PROCS, loss_rates=[1e-2],
                          overheads=OVERHEADS, seed=seed)
              for seed in range(3)]
    retx = [c.results[0].retransmits for c in curves]
    assert len(set(retx)) > 1 or retx[0] > 0
    for c in curves:
        assert c.speedups[0] < 8.5  # all degraded below the anchor
