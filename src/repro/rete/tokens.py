"""Rete token tags.

Paper Section 2.2: a token consists of a tag (+ for addition, - for
deletion), a list of wme IDs identifying the wmes matching a subsequence
of the production's CEs, and a list of variable bindings.  Here the tag
travels separately from the token, so that the same token can be added
and later deleted.  A token's identity is its wme-id list: bindings are
derived deterministically from the wmes by the network structure, which
is what lets a minus token find and delete its stored plus twin.

The flat kernel's token is the plain tuple ``(ids, wmes, values)`` (see
:mod:`repro.rete.kernel`); the reference engine's immutable token
objects live in :mod:`repro.rete._reference`.
"""

from __future__ import annotations

#: Token tags, as in the paper: "+" add, "-" delete.
PLUS = "+"
MINUS = "-"
