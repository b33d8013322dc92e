import random

import pytest

import evenfactor as ef
from helpers import random_graph


def test_edge_list_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert ef.from_edge_list_text(ef.to_edge_list_text(g)) == g


def test_edge_list_keeps_isolated_vertices():
    g = ef.build_graph(5, [(0, 1)])
    text = ef.to_edge_list_text(g)
    assert text.splitlines()[0] == "5 1"
    assert ef.from_edge_list_text(text).n == 5


def test_edge_list_parse_errors():
    with pytest.raises(ValueError, match="header"):
        ef.from_edge_list_text("3\n0 1\n")
    with pytest.raises(ValueError, match="declares 2 edges"):
        ef.from_edge_list_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        ef.from_edge_list_text("3 1\n0 x\n")
    with pytest.raises(ValueError):
        ef.from_edge_list_text("")


def _naive_dot(g):
    """The DOT text of g: the header, one line per vertex, one per sorted
    edge, and the closing brace."""
    vertex_lines = [f"  {v};" for v in range(g.n)]
    edge_lines = [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    return "\n".join(["graph G {", *vertex_lines, *edge_lines, "}"]) + "\n"


def test_dot_round_trip():
    rng = random.Random(22)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        assert ef.to_dot(g) == _naive_dot(g)


def test_dot_header_comment_ignored():
    g = ef.complete_graph(3)
    text = ef.to_dot(g, header='{"family": "demo"}')
    assert text == '// {"family": "demo"}\n' + _naive_dot(g)
