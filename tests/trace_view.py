"""The activation view of compiled cycles, for tests.

Production code reads a cycle's table (its columns, or
:meth:`~repro.trace.events.CycleKeyIndex.rows`); tests that look at
single activations read the frozen
:class:`~repro.trace.events.TraceActivation` objects of
:meth:`~repro.trace.events.CycleKeyIndex.view` through these helpers.
"""


def view(cycle):
    """*cycle*'s activations by act_id, in ascending act_id order."""
    return cycle.key_index().view()


def acts(cycle):
    """*cycle*'s activations in ascending act_id order."""
    return list(view(cycle).values())


def roots(cycle):
    """*cycle*'s root activations in act_id order."""
    return [act for act in acts(cycle) if act.parent_id is None]
