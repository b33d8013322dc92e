import itertools
import json
import random
import signal

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evenfactor as ef
from evenfactor.graph import _flow, _network
from helpers import random_graph


K4 = ef.complete_graph(4)
STAR = ef.complete_bipartite(1, 3)


def test_build_graph_dedup_and_canonical():
    g = ef.build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.edges == frozenset({(0, 1)})


def test_build_graph_k4():
    g = ef.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.edges == ef.complete_graph(4).edges


def test_build_graph_single_vertex():
    g = ef.build_graph(1, [])
    assert (g.n, g.m) == (1, 0)


def test_build_graph_rejects_out_of_range_with_position():
    with pytest.raises(ValueError, match=r"edge 1"):
        ef.build_graph(3, [(0, 1), (0, 5)])


def test_build_graph_rejects_self_loop_with_position():
    with pytest.raises(ValueError, match=r"edge 2.*self-loop"):
        ef.build_graph(3, [(0, 1), (1, 2), (2, 2)])


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1), (-1, 2)], "edge 1: (-1,2) out of range for n=3"),
    (3, [(1, 2), (0, 1), (3, 0)], "edge 2: (3,0) out of range for n=3"),
    (3, [(0, 3)], "edge 0: (0,3) out of range for n=3"),
    (3, [(0, 1), (3, 3)], "edge 1: (3,3) out of range for n=3"),
    (3, [(2, 2)], "edge 0: self-loop (2,2) not allowed"),
    (0, [(0, 0)], "edge 0: (0,0) out of range for n=0"),
    (3.0, [(0, 1)], "vertex count must be an integer, got 3.0"),
    (3, [(0, 1.0), (1, 2), (0, 2)], "edge 0: (0,1.0) has a non-integer endpoint"),
    (3, [(0, 1), ("1", 2)], "edge 1: ('1',2) has a non-integer endpoint"),
    (3, [(0, 1), (1, 2), (0, np.float64(2.0))],
     "edge 2: (0,np.float64(2.0)) has a non-integer endpoint"),
])
def test_build_graph_error_messages(n, edges, message):
    # a range error wins over a self-loop when u == v >= n
    with pytest.raises(ValueError) as err:
        ef.build_graph(n, edges)
    assert str(err.value) == message


def test_build_graph_stores_numpy_and_bool_endpoints_as_ints():
    g = ef.build_graph(3, [(np.int64(0), np.int64(1)), (True, 2), (np.int32(2), 0)])
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert all(type(x) is int for e in g.edges for x in e)
    factor = ef.find_even_factor(g, 2, 2)
    assert json.loads(json.dumps(ef.to_json(factor))) == {
        "edges": [[0, 1], [0, 2], [1, 2]], "degrees": [2, 2, 2]}


def test_build_graph_reversed_duplicates_are_one_edge():
    g = ef.build_graph(3, [(1, 0), (0, 1), (2, 1), (1, 2), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.adjacency == (frozenset({1}), frozenset({0, 2}), frozenset({1}))


def _naive_build(n, edge_list):
    edges = set()
    for i, (u, v) in enumerate(edge_list):
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge {i}: ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"edge {i}: self-loop ({u},{v}) not allowed")
        edges.add((min(u, v), max(u, v)))
    return edges


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 8),
       st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=12))
def test_build_graph_equals_a_naive_build(n, edge_list):
    try:
        expected = _naive_build(n, edge_list)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            ef.build_graph(n, edge_list)
        assert str(got.value) == str(err)
        return
    assert ef.build_graph(n, edge_list).edges == expected


def test_degree_sum_formula():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert sum(g.degrees) == 2 * g.m


def test_degree_profile():
    assert ef.degree_profile(K4) == ((3, 3, 3, 3), 3, 3)
    _, lo, hi = ef.degree_profile(STAR)
    assert (lo, hi) == (1, 3)
    _, lo, _ = ef.degree_profile(ef.example1(4, 12, 9))
    assert lo == 4


def test_degree_profile_empty_graph_errors():
    with pytest.raises(ValueError):
        ef.degree_profile(ef.build_graph(0, []))


def test_sigma2():
    assert ef.sigma2(ef.complete_graph(5)) == ef.INFINITY
    assert ef.sigma2(ef.example1(4, 12, 9)) == 12
    assert ef.sigma2(ef.example2(4, 24, 6)) == 10
    assert ef.sigma2(STAR) == 2  # two leaves


def _naive_sigma2(g):
    adj = g.adjacency
    return min((g.degrees[u] + g.degrees[v] for u, v in itertools.combinations(range(g.n), 2)
                if v not in adj[u]), default=ef.INFINITY)


def test_sigma2_equals_the_all_pairs_minimum():
    rng = random.Random(29)
    graphs = [ef.complete_graph(n) for n in range(6)]
    graphs += [ef.build_graph(n, []) for n in range(6)]
    for n in range(2, 9):
        u, v = sorted(rng.sample(range(n), 2))
        graphs.append(ef.build_graph(n, ef.complete_graph(n).edges - {(u, v)}))
    while len(graphs) < 240:
        n = rng.randint(1, 16)
        graphs.append(random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8, 0.95])))
    infinite = 0
    for g in graphs:
        assert ef.sigma2(g) == _naive_sigma2(g), sorted(g.edges)
        infinite += ef.sigma2(g) == ef.INFINITY
    assert infinite >= 6


def test_sigma2_of_an_edgeless_graph_is_fast():
    # All n(n-1)/2 pairs took 2.6 s of CPU at n = 10^4; the sorted scan
    # stops after one pair.
    g = ef.build_graph(10**6, [])

    def out_of_time(*_):
        raise TimeoutError("sigma2 took more than 2 s of CPU")

    previous = signal.signal(signal.SIGVTALRM, out_of_time)
    signal.setitimer(signal.ITIMER_VIRTUAL, 2.0)
    try:
        assert ef.sigma2(g) == 0
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def test_degrees_are_counted_without_the_neighbour_sets():
    rng = random.Random(30)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 20), rng.choice([0.1, 0.4, 0.8]))
        degrees = g.degrees
        assert "adjacency" not in vars(g)
        assert degrees == tuple(len(g.adjacency[v]) for v in range(g.n))


def test_components_after_deletion():
    assert ef.components_after_deletion(K4, {0}) == [(1, 2, 3)]
    assert ef.components_after_deletion(STAR, {0}) == [(1,), (2,), (3,)]
    h = ef.example1(4, 12, 9)
    comps = ef.components_after_deletion(h, {18, 19})  # y, z
    assert sorted(len(c) for c in comps) == [9, 9]
    assert ef.components_after_deletion(K4, range(4)) == []
    # numpy ids are ints; any other id is refused by name, not skipped
    assert ef.components_after_deletion(STAR, [np.int64(0)]) == [(1,), (2,), (3,)]
    with pytest.raises(ValueError) as err:
        ef.components_after_deletion(ef.cycle_graph(5), (2.5,))
    assert str(err.value) == "deleted set contains non-integer vertex ids [2.5]"


def _cut_size(g, s, t):
    """Edges of g with one end in S and the other in T."""
    s, t = set(s), set(t)
    return sum(1 for u, v in g.edges if (u in s and v in t) or (v in s and u in t))


def test_components_partition_properties():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        x = {v for v in range(g.n) if rng.random() < 0.3}
        comps = ef.components_after_deletion(g, x)
        everything = [v for c in comps for v in c]
        assert sorted(everything) == sorted(set(range(g.n)) - x)
        for c in comps:
            cs = set(c)
            # internally connected
            assert ef.components_after_deletion(
                g, set(range(g.n)) - cs) == [tuple(sorted(cs))]
        for i, c1 in enumerate(comps):
            for c2 in comps[i + 1:]:
                assert _cut_size(g, c1, c2) == 0


def test_edge_connectivity():
    assert ef.edge_connectivity(K4) == 3
    assert ef.edge_connectivity(ef.path_graph(3)) == 1
    assert ef.edge_connectivity(ef.example1(4, 12, 9)) == 3
    assert ef.edge_connectivity(ef.build_graph(2, [])) == 0
    with pytest.raises(ValueError):
        ef.edge_connectivity(ef.build_graph(1, []))


def test_vertex_connectivity():
    assert ef.vertex_connectivity(ef.complete_graph(5)) == 4
    assert ef.vertex_connectivity(STAR) == 1
    assert ef.vertex_connectivity(ef.example2(4, 24, 6)) == 3
    assert ef.vertex_connectivity(ef.cycle_graph(6)) == 2
    with pytest.raises(ValueError):
        ef.vertex_connectivity(ef.build_graph(0, []))


def test_connectivity_of_a_disconnected_graph_builds_no_network(monkeypatch):
    # A disconnected graph answers 0 before any flow network is built; on
    # an edgeless graph the 2n-node network cost more than the answer.
    def no_network(*args):
        raise AssertionError("built a flow network for a disconnected graph")

    monkeypatch.setattr(ef.graph, "_network", no_network)
    for g in (ef.build_graph(2, []), ef.build_graph(5000, []),
              ef.build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])):
        assert ef.edge_connectivity(g) == 0
        assert ef.vertex_connectivity(g) == 0


def test_is_connected_answers_from_edge_count_and_degrees_first():
    # Fewer than n - 1 edges, or an isolated vertex, is disconnected: the
    # answer, and both connectivities, come before any neighbour set.
    edgeless = ef.build_graph(200000, [])
    assert not ef.is_connected(edgeless)
    assert ef.edge_connectivity(edgeless) == 0
    assert ef.vertex_connectivity(edgeless) == 0
    assert "adjacency" not in edgeless.__dict__
    k5_and_a_point = ef.build_graph(6, itertools.combinations(range(5), 2))
    assert not ef.is_connected(k5_and_a_point)
    assert "adjacency" not in k5_and_a_point.__dict__
    assert ef.is_connected(ef.build_graph(0, []))
    assert ef.is_connected(ef.build_graph(1, []))
    rng = random.Random(31)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.6]))
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges)
        assert ef.is_connected(g) == nx.is_connected(h), sorted(g.edges)


def test_edge_connectivity_matches_bipartition_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        best = min(
            _cut_size(g, [v for v in range(n) if (mask >> v) & 1],
                      [v for v in range(n) if not (mask >> v) & 1])
            for mask in range(1, 1 << (n - 1)))
        assert ef.edge_connectivity(g) == best


def test_edge_connectivity_on_a_long_path_does_not_recurse():
    assert ef.edge_connectivity(ef.path_graph(3000)) == 1


def _edge_flow(g, s, t):
    """Max s-t flow on g's network of one unit arc pair per edge."""
    head, to, cap = _network(g.n, ((u, v, 1) for u, v in g.edges))
    return _flow(head, to, cap, s, t, g.n)


def test_max_flow_along_a_long_path_does_not_recurse():
    # edge_connectivity stops at its first unit flow, so the long path test
    # above no longer sends flow along 3000 vertices; this one does.
    assert _edge_flow(ef.path_graph(3000), 0, 2999) == 1
    assert _edge_flow(ef.cycle_graph(3000), 0, 1500) == 2


def test_connectivity_agrees_with_networkx():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.sorted_edges())
        assert ef.edge_connectivity(g) == nx.edge_connectivity(h)
        assert ef.vertex_connectivity(g) == nx.node_connectivity(h)


def test_edge_connectivity_agrees_with_networkx_on_larger_graphs():
    # many targets per call, so every flow runs on capacities reset from the
    # previous one; an appended two-vertex path puts a cut of 2 at the last
    # targets, below the cuts found before them
    rng = random.Random(42)
    values = set()
    for _ in range(30):
        n = rng.randint(15, 45)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        if rng.random() < 0.5:
            x, y = rng.sample(range(n), 2)
            g = ef.build_graph(n + 2, sorted(g.edges) + [(x, n), (n, n + 1), (n + 1, y)])
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.sorted_edges())
        value = ef.edge_connectivity(g)
        assert value == nx.edge_connectivity(h)
        values.add(value)
    assert {0, 1, 2} <= values and max(values) >= 5


def _two_cut_graph(rng: random.Random, n: int, cut: tuple[int, int]) -> ef.Graph:
    """Two dense random sides that meet only through the vertices of ``cut``."""
    rest = [v for v in range(n) if v not in cut]
    rng.shuffle(rest)
    k = rng.randint(3, len(rest) - 3)
    side = {v: i < k for i, v in enumerate(rest)}
    edges = [(u, v) for u, v in itertools.combinations(rest, 2)
             if side[u] == side[v] and rng.random() < 0.7]
    edges += [(c, v) for c in cut for v in rest if rng.random() < 0.7]
    return ef.build_graph(n, edges)


def test_vertex_connectivity_agrees_with_networkx_on_larger_graphs():
    # a two-vertex cut at the highest indices is found by a late target, and
    # one at vertices 0 and 1 needs a source from vertex 2 on, so both Even's
    # source bound and the capacity reset between flows are exercised
    rng = random.Random(43)
    graphs = []
    for _ in range(16):
        graphs.append(random_graph(rng, rng.randint(15, 45),
                                   rng.choice([0.1, 0.2, 0.4, 0.8])))
    for _ in range(4):
        n = rng.randint(15, 45)
        graphs.append(_two_cut_graph(rng, n, (n - 2, n - 1)))
        graphs.append(_two_cut_graph(rng, rng.randint(15, 45), (0, 1)))
    for n in (15, 31):
        # two random halves with no edge between them
        k = n // 2
        right = random_graph(rng, n - k, 0.6).edges
        graphs.append(ef.build_graph(n, sorted(random_graph(rng, k, 0.6).edges)
                                     + [(u + k, v + k) for u, v in right]))
    graphs += [ef.complete_graph(15), ef.complete_graph(24),
               ef.complete_bipartite(7, 12), ef.complete_bipartite(20, 25)]
    # the common neighbours of a non-adjacent pair alone reach the minimum
    # cut in K_{30,30}, K_{5,5,5} and K_20 minus a perfect matching, and fall
    # short of it in dense G(n, p), where the flow must find the rest
    graphs += [ef.complete_bipartite(30, 30),
               ef.build_graph(15, [(u, v) for u, v in itertools.combinations(range(15), 2)
                                   if u // 5 != v // 5]),
               ef.build_graph(20, [(u, v) for u, v in itertools.combinations(range(20), 2)
                                   if v != u ^ 1]),
               random_graph(rng, 40, 0.8), random_graph(rng, 30, 0.9)]
    values = set()
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.sorted_edges())
        value = ef.vertex_connectivity(g)
        assert value == nx.node_connectivity(h)
        values.add(value)
    assert ef.vertex_connectivity(ef.complete_bipartite(7, 12)) == 7
    assert ef.vertex_connectivity(ef.complete_graph(24)) == 23
    assert {0, 1, 2} <= values and max(values) >= 5


def test_whitney_chain_on_connected_noncomplete():
    rng = random.Random(3)
    done = 0
    while done < 40:
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.4, 0.6, 0.8]))
        if not ef.is_connected(g) or g.m == g.n * (g.n - 1) // 2:
            continue
        done += 1
        _, delta, _ = ef.degree_profile(g)
        assert ef.vertex_connectivity(g) <= ef.edge_connectivity(g) <= delta
