"""Match-kernel workloads: rubik / tourney / weaver shaped OPS5 programs.

The paper benchmarks its simulator on three production systems — Rubik
(a cube solver), Tourney (a tournament scheduler) and Weaver (a VLSI
channel router).  The originals were never released; the synthetic
section traces in :mod:`repro.workloads.generator` match their published
*statistics*.  This module instead supplies *executable* stand-ins of
the same shape, used to benchmark the flattened match kernel
(:mod:`repro.rete.kernel`) against the reference engine:

* :func:`rubik_match_program` — face rotations over 24 sticker wmes.
  Wide constant-test fan-out (24 ``^pos`` patterns on one class, enough
  to engage the kernel's vectorized alpha path), modify bursts of five
  wmes per firing, and adjacency observer rules sharing the rotation
  rules' alpha patterns.
* :func:`tourney_match_program` — round-robin score updates plus
  within-club rivalry rules that maintain cross-products over the
  player memory, and a negated leader rule probed by every score
  change.
* :func:`weaver_match_program` — tasks claiming contended resources
  through negated lock CEs; lock churn drives negative-node count
  transitions in both directions.

All three are deterministic (seeded), self-driving (a ``ctl`` counter
advances until a halt rule fires) and terminate within a few hundred
MRA cycles.

:func:`record_match_deltas` runs a program through the real interpreter
once and captures the exact (tag, wme) stream the matcher saw.  Because
conflict resolution is deterministic, the stream is engine-independent;
:func:`replay_deltas` feeds it to any matcher, which is how
``benchmarks/bench_rete_perf.py`` times match throughput without
re-running RHS execution.

:func:`adversarial_cross_product` builds the CORGI-style worst case —
one rule whose two CEs join on a single shared key, so *n* row wmes and
*n* column wmes produce n² instantiations.  Cost must stay quadratic in
the token count (each wme arrival scans one opposite bucket); the bench
asserts the 2n/n time ratio to catch accidentally super-quadratic
kernels.

:func:`negated_range` isolates the tourney ``leader`` shape: a negated
CE with an empty equality key and one relational test, probed by every
token a ``ctl`` toggle sends through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ops5 import Program, parse_program
from ..ops5.conflict import Instantiation, Strategy
from ..ops5.interpreter import Interpreter
from ..ops5.matcher import Matcher
from ..ops5.wme import WME
from ..rete import MINUS, PLUS, ReteNetwork

#: A recorded matcher-level delta: ("+" | "-", wme).
Delta = Tuple[str, WME]


# ---------------------------------------------------------------------------
# rubik: face rotations over a sticker array
# ---------------------------------------------------------------------------

_N_POSITIONS = 24
_N_FACES = 6


def _face_positions(face: int) -> List[int]:
    """The four sticker positions cycled by *face* (faces overlap, as on
    a real cube, so one sticker modify wakes several rotation rules)."""
    return [(4 * face + 3 * k) % _N_POSITIONS for k in range(4)]


def rubik_match_program(seed: int = 0, n_moves: int = 40) -> str:
    """A rubik-shaped OPS5 source: *n_moves* seeded face rotations."""
    rng = random.Random(seed)
    lines = [
        "(literalize sticker pos color)",
        "(literalize move step face)",
        "(literalize ctl step)",
        "",
        "(startup",
        "  (make ctl ^step 0)",
    ]
    for pos in range(_N_POSITIONS):
        lines.append(f"  (make sticker ^pos {pos} ^color c{pos // 4})")
    for step in range(n_moves):
        face = rng.randrange(_N_FACES)
        lines.append(f"  (make move ^step {step} ^face f{face})")
    lines.append(")")
    for face in range(_N_FACES):
        p = _face_positions(face)
        lines += [
            "",
            f"(p rot-f{face}",
            "  (ctl ^step <s>)",
            f"  (move ^step <s> ^face f{face})",
            f"  (sticker ^pos {p[0]} ^color <c0>)",
            f"  (sticker ^pos {p[1]} ^color <c1>)",
            f"  (sticker ^pos {p[2]} ^color <c2>)",
            f"  (sticker ^pos {p[3]} ^color <c3>)",
            "  -->",
            "  (modify 3 ^color <c3>)",
            "  (modify 4 ^color <c0>)",
            "  (modify 5 ^color <c1>)",
            "  (modify 6 ^color <c2>)",
            "  (modify 1 ^step (compute <s> + 1)))",
        ]
    # Observer rules: adjacent same-colour stickers.  They share the
    # rotation rules' alpha patterns and add join load on every sticker
    # modify; recency keeps the rotation chain firing ahead of them.
    for pos in range(0, _N_POSITIONS, 2):
        lines += [
            "",
            f"(p adj-{pos}",
            f"  (sticker ^pos {pos} ^color <c>)",
            f"  (sticker ^pos {pos + 1} ^color <c>)",
            "  -->",
            f"  (write adj {pos} (crlf)))",
        ]
    lines += [
        "",
        "(p rubik-done",
        f"  (ctl ^step {n_moves})",
        "  -->",
        "  (halt))",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tourney: score updates over cross-product standings rules
# ---------------------------------------------------------------------------

def tourney_match_program(seed: int = 0, n_players: int = 12,
                          n_rounds: int = 30) -> str:
    """A tourney-shaped OPS5 source: one seeded pairing per round."""
    rng = random.Random(seed)
    clubs = ["north", "south", "east"]
    lines = [
        "(literalize player name club score)",
        "(literalize pair round a b)",
        "(literalize ctl round)",
        "",
        "(startup",
        "  (make ctl ^round 0)",
    ]
    for i in range(n_players):
        club = clubs[i % len(clubs)]
        lines.append(
            f"  (make player ^name p{i} ^club {club} ^score {i})")
    for rnd in range(n_rounds):
        a, b = rng.sample(range(n_players), 2)
        lines.append(f"  (make pair ^round {rnd} ^a p{a} ^b p{b})")
    lines += [
        ")",
        "",
        "(p play",
        "  (ctl ^round <r>)",
        "  (pair ^round <r> ^a <pa> ^b <pb>)",
        "  (player ^name <pa> ^score <sa>)",
        "  (player ^name <pb> ^score <sb>)",
        "  -->",
        "  (modify 3 ^score (compute <sa> + 3))",
        "  (modify 4 ^score (compute <sb> + 1))",
        "  (modify 1 ^round (compute <r> + 1)))",
        "",
        # Within-club cross-product: every score modify probes the
        # club's whole membership on both sides of the join.
        "(p rivals",
        "  (player ^club <k> ^name <n1> ^score <s1>)",
        "  (player ^club <k> ^name { <n2> <> <n1> } ^score > <s1>)",
        "  -->",
        "  (write rival <n1> <n2> (crlf)))",
        "",
        # Negated CE with an empty equality key: every player delta
        # right-activates the negative node against all stored tokens.
        "(p leader",
        "  (ctl ^round <r>)",
        "  (player ^name <n> ^score <s>)",
        "  -(player ^score > <s>)",
        "  -->",
        "  (write leader <n> (crlf)))",
        "",
        "(p tourney-done",
        f"  (ctl ^round {n_rounds})",
        "  -->",
        "  (halt))",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# weaver: resource allocation through negated lock CEs
# ---------------------------------------------------------------------------

def weaver_match_program(seed: int = 0, n_tasks: int = 24,
                         n_resources: int = 5,
                         horizon: Optional[int] = None) -> str:
    """A weaver-shaped OPS5 source: contended resource claims."""
    rng = random.Random(seed)
    if horizon is None:
        horizon = n_tasks + 10
    lines = [
        "(literalize task id res state due)",
        "(literalize lock res owner)",
        "(literalize gen at id res due)",
        "(literalize ctl tick)",
        "",
        "(startup",
        "  (make ctl ^tick 0)",
    ]
    for i in range(n_tasks):
        at = rng.randrange(max(1, horizon - 4))
        res = rng.randrange(n_resources)
        due = at + rng.randint(1, 4)
        lines.append(
            f"  (make gen ^at {at} ^id t{i} ^res r{res} ^due {due})")
    lines += [
        ")",
        "",
        "(p spawn",
        "  (ctl ^tick <t>)",
        "  (gen ^at <t> ^id <i> ^res <r> ^due <d>)",
        "  -->",
        "  (make task ^id <i> ^res <r> ^due <d> ^state pending)",
        "  (remove 2))",
        "",
        "(p alloc",
        "  (ctl ^tick <t>)",
        "  (task ^id <i> ^res <r> ^state pending)",
        "  -(lock ^res <r>)",
        "  -->",
        "  (make lock ^res <r> ^owner <i>)",
        "  (modify 2 ^state running))",
        "",
        "(p finish",
        "  (ctl ^tick <t>)",
        "  (task ^id <i> ^res <r> ^state running ^due <= <t>)",
        "  (lock ^res <r> ^owner <i>)",
        "  -->",
        "  (remove 3)",
        "  (modify 2 ^state done))",
        "",
        "(p tick",
        "  (ctl ^tick <t>)",
        "  -->",
        "  (modify 1 ^tick (compute <t> + 1)))",
        "",
        "(p weaver-done",
        f"  (ctl ^tick {{ <t> {horizon} }})",
        "  -->",
        "  (halt))",
    ]
    return "\n".join(lines)


#: name -> source generator, for iteration in tests and the bench.
MATCH_PROGRAMS: dict = {
    "rubik": rubik_match_program,
    "tourney": tourney_match_program,
    "weaver": weaver_match_program,
}


# ---------------------------------------------------------------------------
# delta recording and replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchScript:
    """A program plus the matcher-level delta stream one run produced."""

    program: Program
    deltas: Tuple[Delta, ...]
    cycles: int
    halted: bool

    def wave_count(self) -> int:
        """Number of wme waves (one wave per delta)."""
        return len(self.deltas)


class _RecordingMatcher:
    """Matcher wrapper capturing the (tag, wme) stream it is fed."""

    def __init__(self, inner: Matcher) -> None:
        self.inner = inner
        self.deltas: List[Delta] = []

    def add_production(self, production) -> None:
        self.inner.add_production(production)

    def add_wme(self, wme: WME) -> None:
        self.deltas.append((PLUS, wme))
        self.inner.add_wme(wme)

    def remove_wme(self, wme: WME) -> None:
        self.deltas.append((MINUS, wme))
        self.inner.remove_wme(wme)

    def conflict_set(self) -> List[Instantiation]:
        return self.inner.conflict_set()


def record_match_deltas(source: str,
                        max_cycles: int = 5000) -> MatchScript:
    """Run *source* once; return the matcher-level delta stream.

    Conflict resolution (LEX with deterministic tie-breaks) makes the
    firing sequence — hence the stream — a pure function of the source,
    so a script recorded with one conformant engine replays identically
    into any other.
    """
    recorder = _RecordingMatcher(ReteNetwork())
    interp = Interpreter(matcher=recorder, strategy=Strategy.LEX)
    interp.load_program(parse_program(source))
    result = interp.run(max_cycles=max_cycles)
    return MatchScript(program=parse_program(source),
                       deltas=tuple(recorder.deltas),
                       cycles=result.cycles, halted=result.halted)


def replay_deltas(matcher: Matcher, program: Program,
                  deltas: Sequence[Delta]) -> List[Instantiation]:
    """Load *program* into *matcher*, replay *deltas*, return the final
    conflict set.  This is the timed inner loop of the rete bench."""
    for production in program.productions:
        matcher.add_production(production)
    add, remove = matcher.add_wme, matcher.remove_wme
    for tag, wme in deltas:
        if tag == PLUS:
            add(wme)
        else:
            remove(wme)
    return matcher.conflict_set()


# ---------------------------------------------------------------------------
# adversarial cross-product
# ---------------------------------------------------------------------------

_CROSS_SOURCE = """
(literalize row v)
(literalize col w)

(p cross
  (row ^v <x>)
  (col ^w <x>)
  -->
  (halt))
"""


def adversarial_cross_product(n: int) -> Tuple[Program, List[Delta]]:
    """The CORGI-style worst case: one join key shared by everything.

    Returns a one-rule program and a delta script that adds *n* row wmes
    and *n* col wmes (all carrying the same key, so they land in a
    single hash bucket and form n² instantiations), then removes them
    all.  Total match work is Θ(n²); a kernel that rescans buckets
    superlinearly per wave shows up as a worse-than-quadratic time
    ratio between n and 2n.
    """
    program = parse_program(_CROSS_SOURCE)
    deltas: List[Delta] = []
    wmes = []
    for i in range(n):
        wmes.append(WME(wme_id=2 * i + 1, cls="row", attrs={"v": "k"},
                        timestamp=i))
        wmes.append(WME(wme_id=2 * i + 2, cls="col", attrs={"w": "k"},
                        timestamp=i))
    for wme in wmes:
        deltas.append((PLUS, wme))
    for wme in reversed(wmes):
        deltas.append((MINUS, wme))
    return program, deltas


# ---------------------------------------------------------------------------
# negated range test
# ---------------------------------------------------------------------------

_RANGE_SOURCE = """
(literalize ctl r)
(literalize item v)

(p top
  (ctl ^r <r>)
  (item ^v <v>)
  -(item ^v > <v>)
  -->
  (halt))
"""


def negated_range(n_items: int = 192, n_toggles: int = 20,
                  seed: int = 0) -> Tuple[Program, List[Delta]]:
    """A negated CE with no equality key and one relational test.

    Returns a one-rule program and a delta script that adds *n_items*
    item wmes (seeded integer values, repeats included), then adds a
    ctl wme and replaces it *n_toggles* - 1 times (add the new one,
    remove the old).  Each ctl sends one token per item into the
    negative node, and each token asks how many items carry a larger
    value: a full scan of the one right bucket costs n_items²
    predicate calls per ctl, a sorted index n_items bisections.  The
    last ctl stays, so the final conflict set names the top items.
    """
    program = parse_program(_RANGE_SOURCE)
    rng = random.Random(seed)
    deltas: List[Delta] = [
        (PLUS, WME(wme_id=i + 1, cls="item",
                   attrs={"v": rng.randrange(n_items // 2)},
                   timestamp=i + 1))
        for i in range(n_items)]
    previous = None
    for k in range(n_toggles):
        stamp = n_items + k + 1
        ctl = WME(wme_id=stamp, cls="ctl", attrs={"r": k}, timestamp=stamp)
        deltas.append((PLUS, ctl))
        if previous is not None:
            deltas.append((MINUS, previous))
        previous = ctl
    return program, deltas
