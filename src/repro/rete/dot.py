"""Graphviz DOT export of Rete networks (Figure 2-2 style diagrams).

Renders the compiled network — alpha patterns, two-input nodes,
negative nodes, terminals and their wiring — as a ``digraph`` for
inspection with any DOT viewer.  Handy when debugging sharing or the
transformations of Section 5.2::

    from repro.rete import build_network, to_dot
    print(to_dot(build_network(productions)))
"""

from __future__ import annotations

from typing import List

from .network import ReteNetwork
from .nodes import NegativeNode, ProductionNode


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _alpha_label(pattern) -> str:
    parts = [pattern.cls]
    parts += [str(t) for t in pattern.const_tests]
    if pattern.always_false:
        parts.append("(never matches)")
    return "\\n".join(parts)


def _join_label(node) -> str:
    parts = [f"#{node.node_id} {node.label}"]
    if node.eq_tests:
        parts.append("hash: " + ", ".join(
            f"<{var}>=^{attr}" for var, attr in node.eq_tests))
    else:
        parts.append("hash: (none - one bucket)")
    if node.residual_tests:
        parts.append("tests: " + ", ".join(
            f"^{attr} {pred.value} <{var}>"
            for var, pred, attr in node.residual_tests))
    return "\\n".join(parts)


def to_dot(network: ReteNetwork, title: str = "rete") -> str:
    """Serialize *network* as a Graphviz digraph string."""
    ir = network.builder
    lines: List[str] = [f"digraph {_quote(title)} {{",
                        "  rankdir=TB;",
                        "  node [fontsize=10];"]

    # Alpha patterns.
    for pattern in ir.alpha_patterns:
        lines.append(
            f"  a{pattern.pattern_id} [shape=ellipse, "
            f"label={_quote(_alpha_label(pattern))}];")

    # Beta nodes.
    for node in ir.beta_nodes.values():
        if isinstance(node, ProductionNode):
            lines.append(
                f"  n{node.node_id} [shape=doubleoctagon, "
                f"label={_quote(node.production.name)}];")
        elif isinstance(node, NegativeNode):
            lines.append(
                f"  n{node.node_id} [shape=box, style=dashed, "
                f"label={_quote('NOT ' + _join_label(node))}];")
        else:
            lines.append(
                f"  n{node.node_id} [shape=box, "
                f"label={_quote(_join_label(node))}];")

    # Alpha -> beta subscriptions.
    for pattern in ir.alpha_patterns:
        for sub in ir.subscriptions[pattern.pattern_id]:
            style = ("[label=left, style=bold]" if sub.side == "left"
                     else "[label=right]")
            lines.append(
                f"  a{pattern.pattern_id} -> n{sub.node.node_id} "
                f"{style};")

    # Beta -> beta children.
    for node in ir.beta_nodes.values():
        if isinstance(node, ProductionNode):
            continue
        for child in node.children:
            lines.append(f"  n{node.node_id} -> n{child.node_id} "
                         f"[label=left, style=bold];")

    lines.append("}")
    return "\n".join(lines)


def save_dot(network: ReteNetwork, path, title: str = "rete") -> None:
    """Write the DOT rendering of *network* to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(network, title=title) + "\n")
