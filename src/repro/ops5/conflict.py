"""Instantiations and conflict resolution (the "resolve" in match-resolve-act).

OPS5 defines two strategies:

* **LEX** — refraction, then recency of the time tags of *all* matched
  wmes (compared as descending-sorted sequences), then production
  specificity, then an arbitrary choice.
* **MEA** — like LEX but the time tag of the wme matching the *first* CE
  dominates, which is what gives means-ends-analysis programs their goal
  discipline.

Refraction itself (never fire the same instantiation twice) is enforced
by the interpreter, which remembers fired instantiation keys; this module
only orders candidates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Tuple

from .ast import Production
from .values import Value
from .wme import WME


@dataclass(frozen=True)
class Instantiation:
    """A production together with the wmes satisfying its positive CEs.

    Parameters
    ----------
    production:
        The satisfied production.
    wmes:
        One wme per *positive* CE, in LHS order.  Negated CEs contribute
        no wme (they are satisfied by absence).
    bindings:
        The variable bindings established by the match; used to evaluate
        the RHS.
    """

    production: Production
    wmes: Tuple[WME, ...]
    bindings: Mapping[str, Value]

    # An instantiation is immutable and stays in the conflict set for
    # many cycles, so its refraction and LEX keys are computed once and
    # cached in the instance dict (outside the dataclass fields).

    @cached_property
    def refraction_key(self) -> Tuple[str, Tuple[int, ...]]:
        """Identity for refraction: production name + matched wme ids."""
        return (self.production.name, tuple(w.wme_id for w in self.wmes))

    @cached_property
    def lex_key(self) -> Tuple:
        """Sort key such that max() picks the LEX winner deterministically.

        Later elements break ties: recency sequence, then (sequence
        length — OPS5 prefers the instantiation with *more* time tags when
        one sequence is a prefix of the other), then specificity, then a
        stable arbitrary order (production name / wme ids, inverted so
        that max() still yields a deterministic result).
        """
        stamps = self.timestamps_desc()
        return (
            stamps,
            len(stamps),
            self.production.specificity(),
            self.production.name,
            tuple(-w.wme_id for w in self.wmes),
        )

    @cached_property
    def mea_key(self) -> Tuple:
        """MEA ordering: recency of the first-CE wme dominates, then
        :attr:`lex_key`."""
        first = self.wmes[0].timestamp if self.wmes else -1
        return (first,) + self.lex_key

    def key(self) -> Tuple[str, Tuple[int, ...]]:
        """Identity for refraction: production name + matched wme ids."""
        return self.refraction_key

    def timestamps_desc(self) -> Tuple[int, ...]:
        """Matched wme time tags, most recent first (the LEX sort key)."""
        return tuple(sorted((w.timestamp for w in self.wmes), reverse=True))

    def wme_for_ce(self, ce_index: int) -> Optional[WME]:
        """The wme matching 1-based positive-CE index *ce_index*.

        Returns None when the index names a negated CE.
        """
        positive_positions = [i for i, (pos, _) in
                              enumerate(self.production.positive_ces())
                              if pos == ce_index]
        if not positive_positions:
            return None
        return self.wmes[positive_positions[0]]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ids = " ".join(str(w.wme_id) for w in self.wmes)
        return f"[{self.production.name}: {ids}]"


class Strategy(enum.Enum):
    """Conflict-resolution strategy selector."""

    LEX = "lex"
    MEA = "mea"


def select(conflict_set, strategy: Strategy = Strategy.LEX,
           fired: Optional[set] = None) -> Optional[Instantiation]:
    """Pick the winning instantiation, honouring refraction.

    Parameters
    ----------
    conflict_set:
        Iterable of :class:`Instantiation`.
    strategy:
        LEX or MEA.
    fired:
        Set of instantiation keys that already fired; these are skipped.

    Returns
    -------
    The chosen instantiation — the first maximal unfired candidate — or
    None when every candidate has fired (i.e. the program has quiesced).
    Only a candidate whose key beats the best so far is looked up in
    *fired*: a loser cannot win whether it fired or not.
    """
    fired = fired or ()
    mea = strategy is Strategy.MEA
    best = best_key = None
    for inst in conflict_set:
        key = inst.mea_key if mea else inst.lex_key
        if (best is None or key > best_key) \
                and inst.refraction_key not in fired:
            best, best_key = inst, key
    return best
