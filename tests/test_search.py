import ast
import itertools
import random
import time
import tracemalloc
from collections import deque
from pathlib import Path

import networkx as nx
import pytest

import evenfactor as ef
from evenfactor import search
from helpers import (
    blossom_matching,
    brute_force_even_factor,
    degree_interval_search,
    encode_factor_as_perfect_matching,
    exhaustive_matching_size,
    explicit_gadget,
    gadget_adjacency,
    lovasz_deficiency,
    random_graph,
    random_graph_edge_capped,
)

C4 = ef.cycle_graph(4)
C5 = ef.cycle_graph(5)
K4 = ef.complete_graph(4)
K5 = ef.complete_graph(5)
STAR = ef.complete_bipartite(1, 3)

PETERSEN = ef.build_graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
])


# ------------------------------------------------- brute_force_even_factor

def test_brute_force_cycle_is_its_own_two_factor():
    factor = brute_force_even_factor(C5, 2, 2)
    assert factor.edges == C5.edges


def test_brute_force_k4_two_factor_is_a_four_cycle():
    factor = brute_force_even_factor(K4, 2, 2)
    assert factor.degrees == (2, 2, 2, 2)
    assert len(factor.edges) == 4


def test_brute_force_star_has_no_even_factor():
    assert brute_force_even_factor(STAR, 2, 2) is None


def test_brute_force_scale_cap():
    with pytest.raises(ef.ScaleError):
        brute_force_even_factor(ef.complete_graph(8), 2, 2)  # 28 edges


def test_oracles_stay_outside_the_library():
    # The oracles live in tests/helpers.py and tests/criterion_oracle.py and
    # import no private name from the library, so they share no code path
    # with what they check.
    for name in ("brute_force_even_factor", "lovasz_deficiency",
                 "maximum_cardinality_matching", "EXHAUSTIVE_EDGE_CAP",
                 "enumerate_criterion", "EXHAUSTIVE_VERTEX_CAP"):
        assert not hasattr(ef, name), name
    for module in ("helpers.py", "criterion_oracle.py"):
        tree = ast.parse(Path(__file__).with_name(module).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("evenfactor"):
                imported += node.module.split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [part for a in node.names if a.name.startswith("evenfactor")
                             for part in a.name.split(".")]
        assert "evenfactor" in imported, module
        assert not [name for name in imported if name.startswith("_")], module


# ------------------------------------------------------------- loop_augment

def test_loop_augment_identity_when_equal_bounds():
    assert ef.loop_augment(C4, 2, 2) == (C4, 0)


def test_loop_augment_lifts_degrees():
    g, k = ef.loop_augment(C4, 2, 4)
    assert (g, k) == (C4, 1)
    assert [d + 2 * k for d in g.degrees] == [4, 4, 4, 4]
    assert ef.loop_augment(ef.example1(4, 12, 9), 4, 12)[1] == 4


def test_loop_augment_rejects_odd_bounds():
    with pytest.raises(ValueError, match="even"):
        ef.loop_augment(C4, 2, 3)


# ------------------------------------------------------------- tutte_gadget

def test_gadget_cycle_without_slack_forces_the_cycle():
    inst = ef.tutte_gadget((C4, 0), 2)
    assert inst.n_nodes == 8
    assert all(len(c) == 0 for c in inst.cores)
    matching = ef.max_matching(inst)
    assert ef.is_perfect(inst, matching)
    decoded = {inst.decode[e][1] for e in matching}
    assert decoded == set(C4.sorted_edges())


def test_gadget_single_loop_vertex():
    # d = 0 < b = 2: every 2-factor uses the loop, so it gets no nodes and
    # the empty gadget is trivially perfect
    inst = ef.tutte_gadget((ef.build_graph(1, []), 1), 2)
    assert inst.n_nodes == 0
    assert inst.edges == () and inst.decode == {}
    matching = ef.max_matching(inst)
    assert matching == set()
    assert ef.is_perfect(inst, matching)


def test_gadget_k4_size_for_slack_two():
    # d = 3 < b = 4: top = 2, one hard core, and the loop is always used
    inst = ef.tutte_gadget(ef.loop_augment(K4, 2, 4), 4)
    assert inst.n_nodes == 16
    assert len(inst.edges) == 18
    assert all(len(c) == 1 for c in inst.cores)
    assert all(info[0] == "edge" for info in inst.decode.values())


def _expected_gadget_size(g, a, b):
    """Per-vertex port, hard-core and soft-pair counts of g's gadget with
    (b-a)/2 loops per vertex, and the gadget's node and edge totals."""
    k = (b - a) // 2
    per_vertex = []
    nodes, edges = 0, g.m
    for d in g.degrees:
        top = max(x for x in range(min(b, d) + 1) if x % 2 == b % 2)
        cores, pairs = d - top, k - (b - top) // 2
        per_vertex.append((d, cores, pairs))
        nodes += d + cores + 2 * pairs
        edges += cores * d + pairs * (1 + 2 * d)
    return per_vertex, nodes, edges


def test_gadget_size_follows_the_formula_on_random_graphs():
    rng = random.Random(40)
    checked = below_b = 0
    while checked < 200:
        a, b = rng.choice([(2, 4), (2, 6), (4, 8), (2, 8), (4, 10), (2, 10)])
        g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.3, 1.0))
        if min(g.degrees) < a:
            continue
        checked += 1
        below_b += sum(d < b for d in g.degrees)
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        per_vertex, nodes, edges = _expected_gadget_size(g, a, b)
        assert (inst.n_nodes, len(inst.edges)) == (nodes, edges)
        for v, (d, cores, pairs) in enumerate(per_vertex):
            assert len(inst.ports[v]) == d
            assert len(inst.cores[v]) == cores
            assert inst.singles[v] == ()
            assert list(inst.decode.values()).count(("unused_loop", v)) == pairs
        assert len(set(inst.edges)) == len(inst.edges)
        assert all(0 <= u < v < inst.n_nodes for u, v in inst.edges)
    assert below_b >= 200


def test_parity_free_gadget_size_follows_the_formula():
    # find_ab_factor's gadget of G itself: d ports, d - min(b, d) hard cores
    # and min(b, d) - a soft singles per vertex
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        a, b = rng.choice([(0, 1), (1, 3), (2, 2), (2, 5), (3, 4), (1, 4), (2, 6)])
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.3, 1.0))
        if min(g.degrees) < a:
            continue
        checked += 1
        inst = ef.tutte_gadget((g, 0), b, a)
        tops = [min(b, d) for d in g.degrees]
        assert [len(p) for p in inst.ports] == list(g.degrees)
        assert [len(c) for c in inst.cores] == [d - t for d, t in zip(g.degrees, tops)]
        assert [len(s) for s in inst.singles] == [t - a for t in tops]
        assert inst.n_nodes == sum(d + (d - t) + (t - a)
                                   for d, t in zip(g.degrees, tops))
        assert len(inst.edges) == g.m + sum(d * (d - t) + d * (t - a)
                                            for d, t in zip(g.degrees, tops))
        assert sorted(inst.decode.values()) == [("edge", e) for e in g.sorted_edges()]
        assert len(set(inst.edges)) == len(inst.edges)
        assert all(0 <= u < v < inst.n_nodes for u, v in inst.edges)


def test_parity_free_gadget_rejects_loops():
    with pytest.raises(ValueError, match="loop-free"):
        ef.tutte_gadget(ef.loop_augment(C4, 2, 4), 4, 2)


def test_gadget_names_deficient_vertex():
    # The leaves of the star have degree 1 < 2: each keeps its port for its
    # edge and gets one deficit node, listed in no block, which no matching
    # covers.  The centre gets one hard core at [2,2] and one soft single
    # at [2,3].
    for inst in (ef.tutte_gadget((STAR, 0), 2), ef.tutte_gadget((STAR, 0), 3, 2)):
        blocks = set(itertools.chain.from_iterable(
            (*inst.ports[v], *inst.cores[v], *inst.singles[v],
             *itertools.chain.from_iterable(inst.pairs[v])) for v in range(STAR.n)))
        deficit = set(range(inst.n_nodes)) - blocks
        assert len(deficit) == 3
        assert [len(c) for c in inst.cores[1:]] == [0, 0, 0]
        assert not any(inst.singles[1:]) and not any(inst.pairs)
        assert not deficit & {x for e in inst.edges for x in e}
        matching = ef.max_matching(inst)
        assert not deficit & {x for e in matching for x in e}
        assert not ef.is_perfect(inst, matching)


def test_gadget_node_count_even_for_even_targets():
    rng = random.Random(31)
    for _ in range(30):
        a, b = rng.choice([(2, 2), (2, 4), (4, 6)])
        g = random_graph(rng, rng.randint(2, 8), 0.9)
        if min(g.degrees) < a:
            continue
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        assert inst.n_nodes % 2 == 0


def _assert_gadget_equals_reference(looped, b, a=None):
    inst = ef.tutte_gadget(looped, b, a)
    ref = explicit_gadget(looped, b, a)
    assert inst.n_nodes == ref.n_nodes
    assert (inst.ports, inst.cores, inst.singles) == (ref.ports, ref.cores, ref.singles)
    assert inst.edges == ref.edges
    assert list(inst.decode.items()) == list(ref.decode.items())
    assert inst.real == tuple(looped[0].sorted_edges())
    assert [list(p) for p in inst.pairs] == [
        [e for e, info in ref.decode.items() if info == ("unused_loop", v)]
        for v in range(looped[0].n)]


def test_gadget_blocks_equal_the_explicit_gadget_on_random_graphs():
    # The blocks and their lazy edges/decode views against the gadget built
    # edge by edge, on both gadget kinds.
    rng = random.Random(44)
    even = parity_free = deficient = 0
    while even < 300 or parity_free < 300:
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 1.0))
        if rng.random() < 0.5:
            a, b = rng.choice([(2, 2), (2, 4), (4, 4), (2, 6), (4, 8), (2, 10)])
            even += 1
            _assert_gadget_equals_reference(ef.loop_augment(g, a, b), b)
        else:
            a, b = rng.choice([(0, 0), (0, 1), (1, 3), (2, 2), (2, 5), (3, 4), (2, 6)])
            parity_free += 1
            _assert_gadget_equals_reference((g, 0), b, a)
        deficient += min(g.degrees) < a
    assert deficient >= 100


@pytest.mark.parametrize("g, a, b", [
    (ef.example1(4, 12, 9), 4, 12),
    (ef.example2(4, 24, 6), 4, 24),
    (ef.complete_graph(8), 2, 6),
], ids=["example1_4_12_9", "example2_4_24_6", "K8_2_6"])
def test_gadget_blocks_equal_the_explicit_gadget_on_families(g, a, b):
    _assert_gadget_equals_reference(ef.loop_augment(g, a, b), b)
    _assert_gadget_equals_reference((g, 0), b, a)


def test_gadget_rejects_non_integer_bounds_and_negative_loops():
    k3 = ef.complete_graph(3)
    cases = [
        (lambda: ef.tutte_gadget((k3, -1), 2),
         "loop count k of looped = (g, k) must be >= 0, got -1"),
        (lambda: ef.tutte_gadget((k3, 0.5), 2),
         "loop count k of looped = (g, k) must be an integer, got 0.5"),
        (lambda: ef.tutte_gadget((k3, 0), 2.0), "b must be an integer, got 2.0"),
        (lambda: ef.tutte_gadget((k3, 0), 2, 1.0), "a must be an integer, got 1.0"),
        (lambda: ef.tutte_gadget((K4, 0), 2, 3), "need 0 <= a <= b, got a=3, b=2"),
        (lambda: ef.tutte_gadget((K4, 0), 2, -1), "need 0 <= a <= b, got a=-1, b=2"),
        (lambda: ef.tutte_gadget((K4, 0), -2), "need 0 <= b, got b=-2"),
        (lambda: ef.loop_augment(C4, 2, 4.0), "b must be an integer, got 4.0"),
        (lambda: ef.find_even_factor(K5, 2.0, 4), "a must be an integer, got 2.0"),
        (lambda: ef.find_even_factor(K5, 2, 4.0), "b must be an integer, got 4.0"),
        (lambda: ef.find_ab_factor(K4, 1.5, 3), "a must be an integer, got 1.5"),
        (lambda: ef.find_ab_factor(K4, 1, "3"), "b must be an integer, got '3'"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


# ------------------------------------------------------------- max_matching

def test_matching_small_cliques():
    k3 = ef.tutte_gadget((ef.complete_graph(3), 0), 2)
    assert len(ef.max_matching(k3)) * 2 == k3.n_nodes  # triangle is a 2-factor
    adj = [list(K4.adjacency[v]) for v in range(4)]
    mate = blossom_matching(4, adj)
    assert sum(1 for v in range(4) if mate[v] >= 0) == 4


def test_matching_petersen_is_perfect():
    adj = [list(PETERSEN.adjacency[v]) for v in range(10)]
    mate = blossom_matching(10, adj)
    assert sum(1 for v in range(10) if mate[v] >= 0) // 2 == 5


def test_matching_against_exhaustive_oracle():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7, 1.0]))
        edges = g.sorted_edges()
        adj = [list(g.adjacency[v]) for v in range(n)]
        mate = blossom_matching(n, adj)
        for v in range(n):
            if mate[v] >= 0:
                assert mate[mate[v]] == v
                assert (min(v, mate[v]), max(v, mate[v])) in g.edges
        size = sum(1 for v in range(n) if mate[v] >= 0) // 2
        assert size == exhaustive_matching_size(n, edges)


def test_matching_on_gadget_instances_matches_oracle():
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randint(2, 4), 1.0 if rng.random() < 0.5 else 0.7)
        a, b = rng.choice([(2, 2), (2, 4)])
        if g.n == 0 or min(g.degrees) < a:
            continue
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        if inst.n_nodes > 16:
            continue
        checked += 1
        matching = ef.max_matching(inst)
        ref = explicit_gadget(ef.loop_augment(g, a, b), b)
        assert len(matching) == exhaustive_matching_size(
            ref.n_nodes, sorted(ref.edges))


def _networkx_matching_size(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


def _assert_valid_mate(mate, adj):
    for v, u in enumerate(mate):
        if u >= 0:
            assert mate[u] == v
            assert u in adj[v]


def _assert_valid_gadget_matching(ref, matching):
    edges = set(ref.edges)
    assert matching <= edges
    covered = [v for e in matching for v in e]
    assert len(covered) == len(set(covered))


def test_matching_agrees_with_networkx_on_random_graphs():
    # Sparse to mid-density G(n,p) up to n = 40 is full of odd cycles, so
    # most searches contract blossoms, often nested ones.
    rng = random.Random(38)
    for _ in range(300):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice([1.5 / n, 3.0 / n, 0.15, 0.3, 0.6]))
        adj = [list(g.adjacency[v]) for v in range(n)]
        mate = blossom_matching(n, adj)
        _assert_valid_mate(mate, adj)
        size = sum(1 for v in range(n) if mate[v] >= 0) // 2
        assert size == _networkx_matching_size(n, g.sorted_edges())


@pytest.mark.parametrize("g, a, b", [
    (ef.example1(4, 12, 9), 4, 12),
    (ef.example2(4, 24, 6), 4, 24),
    (ef.complete_graph(8), 2, 6),
    (ef.complete_graph(9), 2, 2),
], ids=["example1_4_12_9", "example2_4_24_6", "K8_2_6", "K9_2_2"])
def test_matching_on_family_gadgets_agrees_with_networkx(g, a, b):
    inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
    ref = explicit_gadget(ef.loop_augment(g, a, b), b)
    expected = _networkx_matching_size(ref.n_nodes, ref.edges)
    adj = gadget_adjacency(ref.n_nodes, ref.edges)
    mate = blossom_matching(ref.n_nodes, adj)
    _assert_valid_mate(mate, adj)
    assert sum(1 for v in mate if v >= 0) // 2 == expected
    matching = ef.max_matching(inst)
    _assert_valid_gadget_matching(ref, matching)
    assert len(matching) == expected


def test_warm_started_gadget_matching_agrees_with_networkx():
    # max_matching starts from a greedy factor with every core matched to a
    # free port; augmentations never expose a matched node, so every core
    # stays covered.
    rng = random.Random(39)
    checked = deficient = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6, 0.9]))
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (2, 6)])
        checked += 1
        deficient += min(g.degrees) < a
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        ref = explicit_gadget(ef.loop_augment(g, a, b), b)
        matching = ef.max_matching(inst)
        _assert_valid_gadget_matching(ref, matching)
        assert len(matching) == _networkx_matching_size(ref.n_nodes, ref.edges)
        covered = {v for e in matching for v in e}
        assert all(c in covered for cores in inst.cores for c in cores)
    assert deficient >= 10


def _networkx_required_cover(n, edges, optional):
    """Most required nodes any matching covers: a maximum-weight matching
    where each edge weighs its number of required endpoints."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(
        (u, v, (u not in optional) + (v not in optional)) for u, v in edges)
    matching = nx.max_weight_matching(g)
    return sum(v not in optional for e in matching for v in e)


def test_matching_with_optional_nodes_covers_the_most_required_nodes():
    rng = random.Random(42)
    for _ in range(3000):
        n = rng.randint(2, 24)
        g = random_graph(rng, n, rng.choice([1.5 / n, 3.0 / n, 0.2, 0.4, 0.8]))
        optional = {v for v in range(n) if rng.random() < rng.choice([0.2, 0.5, 0.8])}
        adj = [list(g.adjacency[v]) for v in range(n)]
        mate = blossom_matching(n, adj, optional=optional)
        _assert_valid_mate(mate, adj)
        covered = sum(1 for v in range(n) if mate[v] >= 0 and v not in optional)
        assert covered == _networkx_required_cover(n, g.sorted_edges(), optional)
        mate = blossom_matching(n, adj, optional=())
        _assert_valid_mate(mate, adj)
        size = sum(1 for v in range(n) if mate[v] >= 0) // 2
        assert size == _networkx_matching_size(n, g.sorted_edges())


def _some_optional(rng, n):
    return {v for v in range(n) if rng.random() < 0.2} if rng.random() < 0.3 else set()


def _unbalanced_bipartite(rng, most=8):
    x = rng.randint(3, most)
    y = rng.randint(x + 2, 2 * x + 4)
    p = rng.choice([0.3, 0.6, 1.0])
    edges = [(u, v) for u in range(x) for v in range(x, x + y) if rng.random() < p]
    return x + y, edges, _some_optional(rng, x + y)


def _pendant_paths_on_odd_cycles(rng):
    """Odd cycles, each with pendant paths hung on it, and a few edges
    joining random nodes: blossoms whose stems run out into dead ends."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 4)):
        length = rng.choice([3, 5, 7])
        cycle = list(range(n, n + length))
        edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        n += length
        for _ in range(rng.randint(1, 3)):
            tail = rng.choice(cycle)
            for _ in range(rng.randint(1, 4)):
                edges.append((tail, n))
                tail, n = n, n + 1
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    return n, edges, _some_optional(rng, n)


def _gadget(rng):
    """The explicit gadget of an unbalanced bipartite host joined by a few
    edges to a random graph, so the gadget has a region with no perfect
    matching beside one that has: an even gadget, with no optional nodes,
    or a parity-free one, whose soft singles are optional."""
    while True:
        n, edges, _ = _unbalanced_bipartite(rng, most=4)
        rest = random_graph(rng, rng.randint(3, 6), rng.choice([0.5, 0.8]))
        edges += [(n + u, n + v) for u, v in rest.edges]
        edges += [(rng.randrange(n), n + rng.randrange(rest.n))
                  for _ in range(rng.randint(1, 3))]
        g = ef.build_graph(n + rest.n, edges)
        even = rng.random() < 0.5
        a, b = rng.choice([(2, 2), (2, 4)] if even else [(1, 2), (1, 3), (2, 3)])
        if min(g.degrees) >= a:
            break
    ref = (explicit_gadget(ef.loop_augment(g, a, b), b) if even
           else explicit_gadget((g, 0), b, a))
    return ref.n_nodes, list(ref.edges), {s for per in ref.singles for s in per}


def test_pruned_search_trees_never_block_a_later_search(monkeypatch):
    # A failed search freezes its tree for every later search, so these
    # inputs need failed searches followed by successful ones: roots in a
    # random order, on graphs with no perfect matching.  Each search starts
    # from deque([root]), so a spy on deque lists the roots in order, and a
    # root left exposed is one whose search failed.
    roots = []

    def spy(items):
        roots.append(items[0])
        return deque(items)

    monkeypatch.setattr(search, "deque", spy)
    rng = random.Random(44)
    families = [_unbalanced_bipartite, _pendant_paths_on_odd_cycles, _gadget]
    fail_then_succeed = dict.fromkeys((f.__name__ for f in families), 0)
    for _ in range(200):
        for family in families:
            n, edges, optional = family(rng)
            perm = rng.sample(range(n), n)
            edges = [(perm[u], perm[v]) for u, v in edges]
            optional = {perm[v] for v in optional}
            adj = gadget_adjacency(n, edges)
            roots.clear()
            mate = blossom_matching(n, adj, optional=optional)
            _assert_valid_mate(mate, adj)
            failed = [mate[r] < 0 for r in roots]
            first_fail = failed.index(True) if True in failed else len(failed)
            fail_then_succeed[family.__name__] += False in failed[first_fail:]
            if optional:
                covered = sum(mate[v] >= 0 for v in range(n) if v not in optional)
                assert covered == _networkx_required_cover(n, edges, optional)
            else:
                size = sum(v >= 0 for v in mate) // 2
                assert size == _networkx_matching_size(n, edges)
    assert min(fail_then_succeed.values()) >= 25, fail_then_succeed


def _assert_warm_matches_cold(looped, b, a=None):
    """max_matching's greedy warm start against matching from scratch and
    networkx on the explicit reference gadget: the same count of covered
    required nodes (on an even gadget, the same size), the same perfect
    verdict, and every hard core covered."""
    inst = ef.tutte_gadget(looped, b, a)
    ref = explicit_gadget(looped, b, a)
    adj = gadget_adjacency(ref.n_nodes, ref.edges)
    singles = {s for per_vertex in ref.singles for s in per_vertex}
    warm = ef.max_matching(inst)
    _assert_valid_gadget_matching(ref, warm)
    mate = blossom_matching(inst.n_nodes, adj, optional=singles)
    _assert_valid_mate(mate, adj)
    cold = {(v, u) for v, u in enumerate(mate) if v < u}
    if singles:
        def cover(matching):
            return sum(v not in singles for e in matching for v in e)
        expected = _networkx_required_cover(ref.n_nodes, ref.edges, singles)
        assert cover(warm) == cover(cold) == expected
    else:
        expected = _networkx_matching_size(ref.n_nodes, ref.edges)
        assert len(warm) == len(cold) == expected
    assert ef.is_perfect(inst, warm) == ef.is_perfect(inst, cold)
    covered = {v for e in warm for v in e}
    assert all(c in covered for cores in inst.cores for c in cores)
    return ef.is_perfect(inst, warm)


def test_warm_start_agrees_with_cold_start_on_random_gadgets():
    # Unbalanced bipartite graphs give the gadgets without a perfect
    # matching, where some search must fail to cover its root.
    rng = random.Random(43)
    perfect = {True: 0, False: 0}
    even = parity_free = deficient = 0
    while even < 100 or parity_free < 100:
        if rng.random() < 0.5:
            x = rng.randint(2, 5)
            y, p = rng.randint(x + 1, 12 - x), rng.choice([0.6, 0.9])
            g = ef.build_graph(x + y, [(u, x + v) for u in range(x) for v in range(y)
                                       if rng.random() < p])
        else:
            g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6, 0.9]))
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (2, 6)])
        deficient += min(g.degrees) < a
        if even < 100:
            even += 1
            perfect[_assert_warm_matches_cold(ef.loop_augment(g, a, b), b)] += 1
        if parity_free < 100:
            parity_free += 1
            perfect[_assert_warm_matches_cold((g, 0), b, a)] += 1
    assert min(perfect.values()) >= 40 and deficient >= 10


@pytest.mark.parametrize("g, a, b", [
    (ef.example1(4, 12, 9), 4, 12),
    (ef.example2(4, 24, 6), 4, 24),
    (ef.complete_graph(8), 2, 6),
    (ef.complete_graph(9), 2, 2),
], ids=["example1_4_12_9", "example2_4_24_6", "K8_2_6", "K9_2_2"])
def test_warm_start_agrees_with_cold_start_on_family_gadgets(g, a, b):
    _assert_warm_matches_cold(ef.loop_augment(g, a, b), b)
    _assert_warm_matches_cold((g, 0), b, a)


def test_matching_init_is_extended_to_a_maximum_matching():
    adj = [list(PETERSEN.adjacency[v]) for v in range(10)]
    init = [-1] * 10
    init[0], init[4] = 4, 0
    mate = blossom_matching(10, adj, init)
    _assert_valid_mate(mate, adj)
    assert sum(1 for v in mate if v >= 0) == 10


def test_matching_init_must_be_a_matching():
    adj = [list(C4.adjacency[v]) for v in range(4)]
    with pytest.raises(ValueError, match="not a matching edge"):
        blossom_matching(4, adj, [1, -1, -1, -1])
    with pytest.raises(ValueError, match="not a matching edge"):
        blossom_matching(4, adj, [2, -1, 0, -1])
    with pytest.raises(ValueError, match="entries"):
        blossom_matching(4, adj, [-1, -1])


def test_decision_path_never_expands_the_edge_views(monkeypatch):
    inst = ef.tutte_gadget(ef.loop_augment(ef.complete_graph(8), 2, 6), 6)
    ef.is_perfect(inst, ef.max_matching(inst))
    assert "edges" not in vars(inst) and "decode" not in vars(inst)
    built = []
    build = search.tutte_gadget

    def recording_gadget(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(search, "tutte_gadget", recording_gadget)
    assert ef.find_even_factor(ef.complete_graph(8), 2, 6) is not None
    assert ef.find_ab_factor(ef.complete_graph(8), 2, 5) is not None
    assert ef.find_even_factor(ef.example1(4, 12, 9), 4, 12) is None
    assert len(built) == 3
    for inst in built:
        assert "edges" not in vars(inst) and "decode" not in vars(inst)


def test_find_even_factor_on_k60_stays_small():
    # K_60 [2,58] has 6960 gadget nodes and 205k gadget edges.  Measured
    # with tracemalloc: the edge-by-edge gadget peaked at 19.0 MB; the
    # implicit blocks peak at 1.8 MB.
    tracemalloc.start()
    try:
        factor = ef.find_even_factor(ef.complete_graph(60), 2, 58)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor is not None
    assert peak < 6_000_000


def _blossom_on_gadget(inst, mate):
    return search._blossom_matching(inst.n_nodes, *search._gadget_lists(inst),
                                    mate, ())[0]


def test_matching_init_on_an_implicit_gadget_must_use_gadget_edges():
    # K_10 at [2,6]: 9 ports, 3 hard cores and 2 soft pairs per vertex.
    inst = ef.tutte_gadget(ef.loop_augment(ef.complete_graph(10), 2, 6), 6)
    ports, cores, pairs = inst.ports, inst.cores, inst.pairs
    assert len(cores[0]) == 3 and len(pairs[0]) == 2
    partner = next(p for p in ports[1] if p == ports[0][0] ^ 1)
    not_partner = next(p for p in ports[1] if p != ports[0][0] ^ 1)
    bad = {
        "core with another vertex's port": (cores[0][0], ports[1][0]),
        "two cores of one vertex": (cores[0][0], cores[0][1]),
        "port with a port of its own vertex": (ports[0][0], ports[0][1]),
        "port with a port that is not its partner": (ports[0][0], not_partner),
        "soft-pair node with another pair's node": (pairs[0][0][0], pairs[0][1][1]),
        "soft-pair node with another vertex's pair": (pairs[0][0][0], pairs[1][0][0]),
        "soft-pair node with another vertex's port": (pairs[0][0][1], ports[1][0]),
    }
    for case, (x, y) in bad.items():
        mate = [-1] * inst.n_nodes
        mate[x], mate[y] = y, x
        with pytest.raises(ValueError, match="not a matching edge"):
            _blossom_on_gadget(inst, mate)
    good = [(ports[0][0], partner), (cores[0][0], ports[0][1]),
            (pairs[0][0][0], pairs[0][0][1]), (pairs[0][1][0], ports[0][2]),
            (ports[1][1], cores[1][2])]
    mate = [-1] * inst.n_nodes
    for x, y in good:
        mate[x], mate[y] = y, x
    mate = _blossom_on_gadget(inst, mate)
    matching = {(v, u) for v, u in enumerate(mate) if v < u}
    ref = explicit_gadget(ef.loop_augment(ef.complete_graph(10), 2, 6), 6)
    _assert_valid_gadget_matching(ref, matching)
    assert 2 * len(matching) == inst.n_nodes


# --------------------------------------------------------- find_even_factor

def test_find_even_factor_k5_is_whole_graph():
    factor = ef.find_even_factor(K5, 4, 4)
    assert factor.edges == K5.edges


@pytest.mark.parametrize("n, a", [(8, 4), (12, 6), (16, 8), (20, 10), (40, 20),
                                  (100, 50), (9, 4), (11, 4)])
def test_find_even_factor_regular_factors_of_cliques(n, a):
    # beyond the brute-force cap: the oracle is verification plus degrees
    g = ef.complete_graph(n)
    factor = ef.find_even_factor(g, a, a)
    assert factor is not None
    assert ef.verify_factor(g, factor, a, a, require_even=True)
    assert factor.degrees == (a,) * n


def test_find_even_factor_on_k100_at_a_equals_b_is_fast():
    # a = b leaves the gadget no slack, so every search walks a dense
    # gadget and contracts many blossoms; each contraction must cost only
    # its blossom's path
    g = ef.complete_graph(100)
    start = time.process_time()
    factor = ef.find_even_factor(g, 50, 50)
    assert time.process_time() - start < 5.0
    assert factor.degrees == (50,) * 100


def test_find_ab_factor_on_the_slowest_absent_flow_draw_is_fast():
    # The first draw of the seed-1 bipartite flow stream below, K(53,84)
    # thinned at [4,4], has no factor: many ports of the larger side can
    # never be covered.  Each failed search freezes its tree, so the next
    # search skips it instead of walking the same region again; without
    # that, this one decision took 0.16-0.24 s of CPU.
    g, x, a, b = next(_bipartite_flow_draws(random.Random(1), _any_parity_draw))
    assert (x, g.n - x, a, b) == (53, 84, 4, 4)
    start = time.process_time()
    factor = ef.find_ab_factor(g, a, b)
    assert time.process_time() - start < 0.1
    assert factor is None
    assert not _bipartite_factor_flow_exists(g, x, a, b)


def test_find_even_factor_finds_the_factor_behind_a_nested_blossom():
    # A blossom contraction must walk a nested blossom down to its base
    # before joining it: joining on entry stops the walk early, leaves
    # parent pointers unset and misses the augmenting path here.
    g = ef.build_graph(8, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4),
                           (1, 5), (1, 7), (2, 7), (3, 4), (3, 6), (4, 5), (4, 6)])
    factor = ef.find_even_factor(g, 2, 4)
    assert factor is not None
    assert ef.verify_factor(g, factor, 2, 4, require_even=True)
    assert brute_force_even_factor(g, 2, 4) is not None


def test_find_even_factor_counterexample_families_absent():
    assert ef.find_even_factor(ef.example1(4, 12, 9), 4, 12) is None
    assert ef.find_even_factor(ef.example2(4, 24, 6), 4, 24) is None


def test_find_even_factor_low_degree_fast_path():
    assert ef.find_even_factor(STAR, 2, 4) is None


def test_find_even_factor_agrees_with_brute_force():
    rng = random.Random(34)
    for _ in range(10_000):
        g = random_graph_edge_capped(rng, rng.choice([7, 8, 9]), rng.random(), 24)
        for a, b in [(2, 2), (2, 4), (4, 4), (2, 6), (2, 8), (4, 10), (2, 10)]:
            got = ef.find_even_factor(g, a, b)
            expected = brute_force_even_factor(g, a, b)
            assert (got is None) == (expected is None)
            if got is not None:
                assert ef.verify_factor(g, got, a, b, require_even=True)
                assert ef.verify_factor(g, expected, a, b, require_even=True)


def test_every_brute_force_factor_encodes_to_a_perfect_matching():
    rng = random.Random(35)
    found = 0
    while found < 60:
        g = random_graph_edge_capped(rng, rng.randint(3, 7), 0.8, 24)
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (2, 6)])
        if g.n == 0 or min(g.degrees) < a:
            continue
        factor = brute_force_even_factor(g, a, b)
        if factor is None:
            continue
        found += 1
        encode_factor_as_perfect_matching(g, a, b, factor)


# ----------------------------------------------------------- find_ab_factor

def test_find_ab_factor_complete_bipartite_present():
    factor = ef.find_ab_factor(ef.complete_bipartite(3, 3), 2, 4)
    assert factor is not None
    assert ef.verify_factor(ef.complete_bipartite(3, 3), factor, 2, 4,
                            require_even=False)


def test_find_ab_factor_pendant_vertex_absent():
    assert ef.find_ab_factor(ef.h_na(5, 2), 2, 4) is None


def test_find_ab_factor_unbalanced_bipartite_absent():
    assert ef.find_ab_factor(ef.complete_bipartite(2, 6), 2, 2) is None


def test_find_ab_factor_closed_form_regime():
    # 49 edges: beyond the brute-force oracle's cap, so the closed form of
    # observation_decide is what these answers follow
    g = ef.complete_bipartite(7, 7)
    factor = ef.find_ab_factor(g, 2, 4)
    assert factor is not None
    assert ef.verify_factor(g, factor, 2, 4, require_even=False)
    assert ef.find_ab_factor(ef.complete_bipartite(3, 11), 4, 4) is None


def test_find_ab_factor_on_a_dense_graph_does_not_recurse():
    # m = 1060: far beyond any edge-by-edge recursion
    g = random_graph(random.Random(1), 60, 0.6)
    assert g.m == 1060
    factor = ef.find_ab_factor(g, 2, 3)
    assert factor is not None
    assert ef.verify_factor(g, factor, 2, 3, require_even=False)


def test_find_ab_factor_needs_an_even_soft_single_to_end_a_search():
    # No augmenting path covers every port here; a search must end at a
    # matched soft single that becomes even and leave that single exposed.
    g = ef.build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)])
    factor = ef.find_ab_factor(g, 2, 3)
    assert factor is not None
    assert ef.verify_factor(g, factor, 2, 3, require_even=False)


def test_find_ab_factor_agrees_with_backtracking_search():
    rng = random.Random(38)
    pairs = [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
             (2, 5), (3, 3), (3, 4), (1, 4), (2, 6)]
    present = 0
    for _ in range(3000):
        g = random_graph_edge_capped(rng, rng.randint(1, 9), rng.random(), 24)
        a, b = rng.choice(pairs)
        got = ef.find_ab_factor(g, a, b)
        expected = degree_interval_search(g, a, b, require_even=False)
        assert (got is None) == (expected is None), (sorted(g.edges), a, b)
        if got is not None:
            present += 1
            assert ef.verify_factor(g, got, a, b, require_even=False)
    assert 300 < present < 2700


def _lovasz_factor_exists(g, a, b):
    """Lovasz's (g,f)-factor criterion with lower = a, upper = min(b, d(v)):
    a factor exists iff no disjoint (S, T) has negative deficiency."""
    if any(d < a for d in g.degrees):
        return False
    lower = [a] * g.n
    upper = [min(b, d) for d in g.degrees]
    for assign in itertools.product(range(3), repeat=g.n):
        s = [v for v in range(g.n) if assign[v] == 1]
        t = [v for v in range(g.n) if assign[v] == 2]
        if lovasz_deficiency(g, lower, upper, s, t) < 0:
            return False
    return True


def test_find_ab_factor_agrees_with_lovasz_criterion():
    rng = random.Random(39)
    cases = []
    # dense 8-vertex graphs, beyond the brute-force oracle's 24 edges
    while len(cases) < 30:
        g = random_graph(rng, 8, 0.95)
        if g.m > 24:
            cases.append((g, *rng.choice([(1, 2), (2, 3), (3, 3), (4, 5), (5, 5),
                                          (3, 6)])))
    # odd order with a = b odd: no factor can exist, by the handshake lemma
    for _ in range(20):
        g = random_graph(rng, 7, rng.uniform(0.6, 1.0))
        cases.append((g, *rng.choice([(1, 1), (3, 3), (5, 5)])))
    # sparser graphs where the odd components of the criterion matter
    for _ in range(40):
        g = random_graph(rng, rng.choice([7, 8]), rng.uniform(0.3, 0.7))
        cases.append((g, *rng.choice([(1, 1), (1, 2), (2, 2), (2, 3), (0, 1)])))
    # unbalanced complete bipartite graphs with more than 24 edges
    cases += [(ef.complete_bipartite(3, 9), 2, 3), (ef.complete_bipartite(4, 7), 3, 3),
              (ef.complete_bipartite(4, 7), 2, 3)]
    absent = above_cap = 0
    for g, a, b in cases:
        got = ef.find_ab_factor(g, a, b)
        expected = _lovasz_factor_exists(g, a, b)
        assert (got is not None) == expected, (sorted(g.edges), a, b)
        if got is not None:
            assert ef.verify_factor(g, got, a, b, require_even=False)
        absent += not expected
        above_cap += g.m > 24
    assert absent >= 20 and above_cap >= 33


def test_find_ab_factor_matches_even_search_on_even_targets():
    # any-parity search is a relaxation: wherever an even factor exists, an
    # [a,b]-factor must exist too
    rng = random.Random(37)
    for _ in range(100):
        g = random_graph_edge_capped(rng, rng.randint(1, 7), rng.random(), 24)
        if ef.find_even_factor(g, 2, 4) is not None:
            assert ef.find_ab_factor(g, 2, 4) is not None


def _bipartite_factor_flow_exists(g, x, a, b):
    """networkx oracle for a bipartite g with sides range(x) and range(x, n):
    an [a,b]-factor is a feasible flow s -> X -> Y -> t with s->x and y->t
    in [a, b] and x->y in [0, 1] per edge (Ore 1957; Hoffman 1960).  Each
    lower bound l on u -> v becomes capacity b - a plus l units of demand
    moved from v to u, and t -> s closes the circulation."""
    net = nx.DiGraph()
    net.add_node("s", demand=a * x)
    net.add_node("t", demand=-a * (g.n - x))
    for v in range(g.n):
        net.add_node(v, demand=-a if v < x else a)
        if v < x:
            net.add_edge("s", v, capacity=b - a)
        else:
            net.add_edge(v, "t", capacity=b - a)
    net.add_edges_from(g.edges, capacity=1)
    net.add_edge("t", "s")
    try:
        nx.network_simplex(net)
    except nx.NetworkXUnfeasible:
        return False
    return True


def _random_bipartite(rng, x, y, p):
    return ef.build_graph(x + y, [(u, v) for u in range(x) for v in range(x, x + y)
                                  if rng.random() < p])


def _bipartite_flow_draws(rng, draw):
    """Bipartite graphs with sides of ``draw(rng)`` and at least 100
    vertices, each with minimum degree at least a, so no answer is the
    low-degree shortcut: an endless stream of ``(g, x, a, b)``."""
    while True:
        x, y, a, b = draw(rng)
        g = _random_bipartite(rng, x, y, rng.uniform(0.9 * a, 2.5 * a) / min(x, y))
        if min(g.degrees) >= a:
            yield g, x, a, b


def _check_against_bipartite_flow(rng, count, draw, find, require_even):
    """Compare ``find`` with the flow oracle on the first ``count`` graphs
    of the stream; return the number of absent answers."""
    absent = 0
    for g, x, a, b in itertools.islice(_bipartite_flow_draws(rng, draw), count):
        got = find(g, a, b)
        expected = _bipartite_factor_flow_exists(g, x, a, b)
        assert (got is not None) == expected, (x, g.n - x, a, b, sorted(g.edges))
        if got is not None:
            assert ef.verify_factor(g, got, a, b, require_even)
        absent += not expected
    return absent


def _any_parity_draw(rng):
    # sides 50..60 and 40..80, so n >= 100; the bigger side needs more than
    # the smaller can give when b|X| < a|Y|, and sparse graphs fail locally
    x = rng.randint(50, 60)
    a = rng.randint(1, 4)
    return x, rng.randint(100 - x, 140 - x), a, a + rng.randint(0, 3)


def test_find_ab_factor_agrees_with_a_bipartite_flow_above_the_caps():
    absent = _check_against_bipartite_flow(random.Random(1), 100, _any_parity_draw,
                                           ef.find_ab_factor, False)
    assert 30 <= absent <= 70


def test_find_even_factor_agrees_with_a_bipartite_flow_above_the_caps():
    # at [a,a] with a even every a-factor is even; most graphs are balanced,
    # and the rest, one to three vertices apart, cannot have a factor
    def draw(rng):
        x = rng.randint(50, 60)
        a = rng.choice([2, 4])
        return x, x if rng.random() < 0.7 else x + rng.randint(1, 3), a, a

    absent = _check_against_bipartite_flow(random.Random(2), 100, draw,
                                           ef.find_even_factor, True)
    assert 30 <= absent <= 70


# ------------------------------------------------------------ verify_factor

def test_verify_factor_examples():
    cycle = ef.Factor.from_edges(C5, C5.edges)
    assert ef.verify_factor(C5, cycle, 2, 2, require_even=True)
    triangle = ef.Factor.from_edges(K4, [(0, 1), (1, 2), (0, 2)])
    assert not ef.verify_factor(K4, triangle, 2, 2, require_even=True)
    whole = ef.Factor.from_edges(K5, K5.edges)
    assert ef.verify_factor(K5, whole, 4, 4, require_even=True)


def test_verify_factor_rejects_foreign_edges():
    foreign = ef.Factor.from_edges(C4, [(0, 2)])
    with pytest.raises(ValueError, match="non-host"):
        ef.verify_factor(C4, foreign, 2, 2, require_even=False)


def test_factor_json_sorted_edges():
    factor = ef.Factor.from_edges(C4, [(3, 0), (1, 0)])
    assert ef.to_json(factor)["edges"] == [[0, 1], [0, 3]]
