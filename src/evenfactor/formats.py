"""Edge-list text for graphs, DOT output for Graphviz, and the JSON
encoding of results.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based,
whitespace-separated vertex ids; it is read back by
:func:`from_edge_list_text`.  DOT is written, not read: :func:`to_dot`
declares every vertex so that isolated vertices are drawn.  :func:`to_json`
is the one JSON encoder for every result type.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from fractions import Fraction

from .graph import INFINITY, Graph, build_graph


def to_json(x):
    """The JSON value of a result, by value type: a dataclass becomes the
    object of its fields, a set its sorted list, a tuple or list a list, a
    dict a dict, a Fraction ``{"num", "den"}`` and INFINITY ``"INFINITY"``;
    anything else, None included, is returned as it is."""
    if is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (set, frozenset)):
        return [to_json(v) for v in sorted(x)]
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, float) and x == INFINITY:
        return "INFINITY"
    return x


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header must be two integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln_no}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {ln_no}: expected integers, got {ln!r}") from None
    return build_graph(n, edges)


def to_dot(g: Graph, header: str | None = None) -> str:
    lines = []
    if header is not None:
        lines.append(f"// {header}")
    lines.append("graph G {")
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
