"""Seeded adversarial input generation for the conformance harness.

The oracle matrix (:mod:`repro.check.oracles`) and the invariant
registry (:mod:`repro.check.invariants`) are only as strong as the
inputs they see, so this module generates random-but-deterministic
inputs biased toward the paper's hard cases:

* **cross products with non-discriminating hashes** — every left token
  of a cycle lands in one bucket (the Tourney pathology of Section
  5.2.2 / footnote 9);
* **small cycles** — many cycles of one to three activations, where the
  broadcast + constant-test floor dominates (Section 5.2.1);
* **multiple-modify bursts** — alternating +/- activations on one
  bucket within a cycle (Section 5.2.3), which also exercises the
  footnote-6 deletion-search pricing;
* **negated condition elements** — :data:`~repro.trace.events
  .KIND_NEGATIVE` activations mixed into the stream;
* **empty cycles** — cycles with no activations at all (a quiescent
  recognize-act iteration), plus terminal-only cycles;
* **deep chains** — fanout-1 generation chains that serialize a cycle;
* **random sections** — unconstrained :class:`~repro.workloads
  .SectionSpec` samples covering the generator's whole parameter box.

Everything is derived from ``random.Random(seed)`` streams keyed by the
case index, so ``generate_cases(seed, budget)`` is reproducible — the
repro JSON written by the shrinker records ``(seed, index, family)`` and
:func:`build_case` rebuilds the exact failing input from them.

OPS5 **program cases** drive the Rete-vs-naive-matcher oracle: a random
subset of a catalogue of structurally diverse productions (joins,
constants, negation, relational tests, cross products) plus a random
add/remove churn script over a small value alphabet, the regime where
join hits and negation interplay are likely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..trace.events import SectionTrace
from ..trace.validate import validate_trace
from ..workloads.generator import SectionSpec, generate_section
from ..workloads.synthetic import TraceBuilder

#: Structurally diverse production shapes for the matcher oracle.
PRODUCTION_CATALOGUE: Tuple[str, ...] = (
    "(p join2 (a ^p <x>) (b ^p <x>) --> (remove 1))",
    "(p join2q (a ^q <x>) (b ^q <x>) --> (remove 1))",
    "(p const (a ^p 1) --> (remove 1))",
    "(p cross (a) (b) --> (remove 1))",
    "(p chain3 (a ^p <x>) (b ^p <x> ^q <y>) (c ^q <y>) --> (remove 1))",
    "(p neg (a) -(c) --> (remove 1))",
    "(p negjoin (a ^p <x>) -(b ^p <x>) --> (remove 1))",
    "(p negmid (a ^p <x>) -(c ^p <x>) (b) --> (remove 1))",
    "(p negrel (a ^p <x>) -(b ^q > <x>) --> (remove 1))",
    "(p negrelkey (a ^p <k> ^q <x>) -(b ^p <k> ^q <= <x>)"
    " --> (remove 1))",
    "(p rel (a ^p <x>) (b ^p > <x>) --> (remove 1))",
    "(p intra (a ^p <x> ^q <x>) --> (remove 1))",
    "(p selfjoin (a ^p <x>) (a ^q <x>) --> (remove 1))",
    "(p disj (a ^p << 1 x >>) --> (remove 1))",
)

_CLASSES = ("a", "b", "c")
_VALUES = (1, 2, "x")

#: The trace-case families, in generation rotation order.
TRACE_FAMILIES: Tuple[str, ...] = (
    "spec", "cross_product", "small_cycles", "modify_burst",
    "negated", "empty_cycles", "deep_chain",
)

#: One program case is dealt after this many trace cases.
PROGRAM_EVERY = 4


@dataclass(frozen=True)
class TraceCase:
    """One generated section trace plus the recipe that rebuilds it."""

    seed: int
    index: int
    family: str
    trace: SectionTrace = field(compare=False)

    def descriptor(self) -> Dict[str, object]:
        return {"kind": "trace", "seed": self.seed, "index": self.index,
                "family": self.family}


@dataclass(frozen=True)
class ProgramCase:
    """A rule subset plus an add/remove churn script for the matchers."""

    seed: int
    index: int
    rules: Tuple[str, ...]
    script: Tuple[Tuple, ...]

    @property
    def family(self) -> str:
        return "program"

    def descriptor(self) -> Dict[str, object]:
        return {"kind": "program", "seed": self.seed, "index": self.index,
                "rules": list(self.rules),
                "script": [list(op) for op in self.script]}


CheckCase = Union[TraceCase, ProgramCase]


def _case_rng(seed: int, index: int) -> random.Random:
    # One independent stream per case: a shrunk repro needs only
    # (seed, index) to regenerate its input, whatever the budget was.
    return random.Random((seed << 20) ^ index)


# ---------------------------------------------------------------------------
# Trace families
# ---------------------------------------------------------------------------

def _random_spec(rng: random.Random) -> SectionSpec:
    right = rng.randrange(0, 120)
    left = rng.randrange(0, 120)
    if right + left == 0:
        left = 1 + rng.randrange(40)
    return SectionSpec(
        name="fuzz-spec",
        cycles=1 + rng.randrange(5),
        right_activations=right,
        left_activations=left,
        left_roots_fraction=0.05 + 0.95 * rng.random(),
        fanout=1 + rng.randrange(6),
        active_left_buckets=1 + rng.randrange(16),
        left_skew=2.0 * rng.random(),
        left_nodes=1 + rng.randrange(4),
        right_value_space=1 + rng.randrange(50),
        right_nodes=1 + rng.randrange(8),
        terminals_per_cycle=rng.randrange(5),
        neg_fraction=rng.choice((0.0, 0.0, 0.3)),
        left_burst_pairs=rng.choice((0, 0, 2)),
        seed=rng.randrange(1 << 30),
    )


def _spec_trace(rng: random.Random) -> SectionTrace:
    return generate_section(_random_spec(rng))


def _cross_product_trace(rng: random.Random) -> SectionTrace:
    """All left tokens share one bucket; each generates a token burst."""
    builder = TraceBuilder("fuzz-cross")
    for _ in range(1 + rng.randrange(3)):
        builder.new_cycle()
        for _ in range(rng.randrange(8)):
            builder.root(1 + rng.randrange(3), side="right",
                         values=(rng.randrange(4),))
        n_hot = 2 + rng.randrange(10)
        fanout = 1 + rng.randrange(6)
        for _ in range(n_hot):
            # The non-discriminating hash: node 50, no key values, so
            # every token collides on one bucket.
            parent = builder.root(50, side="left", values=())
            for _ in range(fanout):
                child = builder.child(parent, 51,
                                      values=(rng.randrange(3),))
                if rng.random() < 0.3:
                    builder.terminal(child, node=900)
    return builder.build()


def _small_cycles_trace(rng: random.Random) -> SectionTrace:
    builder = TraceBuilder("fuzz-small")
    for _ in range(4 + rng.randrange(10)):
        builder.new_cycle()
        for _ in range(1 + rng.randrange(3)):
            side = rng.choice(("left", "right"))
            root = builder.root(1 + rng.randrange(5), side=side,
                                values=(rng.randrange(6),))
            if rng.random() < 0.4:
                builder.terminal(root, node=901)
    return builder.build()


def _modify_burst_trace(rng: random.Random) -> SectionTrace:
    """Alternating +/- on the same keys (delete-search worst case)."""
    builder = TraceBuilder("fuzz-burst")
    for _ in range(1 + rng.randrange(3)):
        builder.new_cycle()
        n_keys = 1 + rng.randrange(3)
        for _ in range(2 + rng.randrange(8)):
            key = rng.randrange(n_keys)
            tag = rng.choice(("+", "-"))
            builder.root(10 + key, side="left", tag=tag, values=(key,))
        for _ in range(rng.randrange(6)):
            builder.root(30, side="right",
                         tag=rng.choice(("+", "-")),
                         values=(rng.randrange(4),))
    return builder.build()


def _negated_trace(rng: random.Random) -> SectionTrace:
    spec = _random_spec(rng)
    spec = SectionSpec(**{**spec.__dict__, "name": "fuzz-neg",
                          "neg_fraction": 0.25 + 0.5 * rng.random(),
                          "left_activations":
                              max(10, spec.left_activations)})
    return generate_section(spec)


def _empty_cycles_trace(rng: random.Random) -> SectionTrace:
    """Empty and terminal-only cycles interleaved with tiny real ones."""
    builder = TraceBuilder("fuzz-empty")
    for _ in range(2 + rng.randrange(5)):
        builder.new_cycle()  # a completely empty cycle
        builder.new_cycle()
        root = builder.root(1, side="right", values=(rng.randrange(3),))
        if rng.random() < 0.5:
            builder.terminal(root, node=902)
    return builder.build()


def _deep_chain_trace(rng: random.Random) -> SectionTrace:
    builder = TraceBuilder("fuzz-chain")
    for _ in range(1 + rng.randrange(2)):
        builder.new_cycle()
        node = builder.root(1 + rng.randrange(2), side="left",
                            values=(rng.randrange(3),))
        for depth in range(5 + rng.randrange(25)):
            node = builder.child(node, 10 + depth % 7,
                                 values=(rng.randrange(4),))
        builder.terminal(node, node=903)
    return builder.build()


_TRACE_BUILDERS = {
    "spec": _spec_trace,
    "cross_product": _cross_product_trace,
    "small_cycles": _small_cycles_trace,
    "modify_burst": _modify_burst_trace,
    "negated": _negated_trace,
    "empty_cycles": _empty_cycles_trace,
    "deep_chain": _deep_chain_trace,
}


# ---------------------------------------------------------------------------
# Program cases
# ---------------------------------------------------------------------------

def _random_script(rng: random.Random) -> Tuple[Tuple, ...]:
    """An add/remove churn script over a shared wme pool."""
    script: List[Tuple] = []
    live: List[int] = []
    next_wid = 1
    for _ in range(4 + rng.randrange(24)):
        if live and rng.random() < 0.35:
            wid = live.pop(rng.randrange(len(live)))
            script.append(("remove", wid))
        else:
            payload = {"p": rng.choice(_VALUES), "q": rng.choice(_VALUES)}
            script.append(("add", next_wid, rng.choice(_CLASSES),
                           payload))
            live.append(next_wid)
            next_wid += 1
    return tuple(script)


def _program_case(seed: int, index: int) -> ProgramCase:
    rng = _case_rng(seed, index)
    n_rules = 1 + rng.randrange(5)
    rules = tuple(sorted(rng.sample(PRODUCTION_CATALOGUE, n_rules)))
    return ProgramCase(seed=seed, index=index, rules=rules,
                       script=_random_script(rng))


# ---------------------------------------------------------------------------
# The case stream
# ---------------------------------------------------------------------------

def build_case(seed: int, index: int,
               family: Optional[str] = None) -> CheckCase:
    """Rebuild the case at (*seed*, *index*) — what a repro JSON names.

    *family* defaults to the rotation position, so a descriptor without
    it still reproduces; passing it asserts the rotation did not drift.
    """
    expected = _family_for_index(index)
    if family is not None and family != expected:
        raise ValueError(
            f"case {index} of seed {seed} is family {expected!r}, "
            f"not {family!r} — was the repro made by another version?")
    if expected == "program":
        return _program_case(seed, index)
    rng = _case_rng(seed, index)
    trace = _TRACE_BUILDERS[expected](rng)
    assert validate_trace(trace) == []
    return TraceCase(seed=seed, index=index, family=expected, trace=trace)


def _family_for_index(index: int) -> str:
    if index % (PROGRAM_EVERY + 1) == PROGRAM_EVERY:
        return "program"
    slot = index - index // (PROGRAM_EVERY + 1)
    return TRACE_FAMILIES[slot % len(TRACE_FAMILIES)]


def generate_cases(seed: int, budget: int) -> Iterator[CheckCase]:
    """Yield *budget* deterministic cases, rotating over every family."""
    if budget < 0:
        raise ValueError("budget cannot be negative")
    for index in range(budget):
        yield build_case(seed, index)
