"""Workloads: the paper's three characteristic sections (synthetic,
matched to every published statistic) plus real OPS5 demo programs that
exercise the full OPS5 → Rete → trace → simulator pipeline.
"""

from .generator import SectionSpec, generate_section
from .match import (MATCH_PROGRAMS, MatchScript, adversarial_cross_product,
                    negated_range, record_match_deltas, replay_deltas,
                    rubik_match_program, tourney_match_program,
                    weaver_match_program)
from .rubik import rubik_section
from .synthetic import StreamSpec, SyntheticStream
from .tourney import tourney_section
from .weaver import weaver_section

__all__ = ["SectionSpec", "StreamSpec", "SyntheticStream",
           "generate_section",
           "rubik_section", "tourney_section", "weaver_section",
           "all_sections",
           "MATCH_PROGRAMS", "MatchScript", "adversarial_cross_product",
           "negated_range", "record_match_deltas", "replay_deltas",
           "rubik_match_program", "tourney_match_program",
           "weaver_match_program"]


def all_sections(seed: int = 0):
    """The three Section 5 traces, in the paper's presentation order."""
    return [rubik_section(seed), tourney_section(seed),
            weaver_section(seed)]
