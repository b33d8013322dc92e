import random

import networkx as nx
import pytest

import evenfactor as ef
from helpers import (
    encode_factor_as_perfect_matching,
    exhaustive_matching_size,
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
    factor = ef.brute_force_even_factor(C5, 2, 2)
    assert factor.edges == C5.edges


def test_brute_force_k4_two_factor_is_a_four_cycle():
    factor = ef.brute_force_even_factor(K4, 2, 2)
    assert factor.degrees == (2, 2, 2, 2)
    assert len(factor.edges) == 4


def test_brute_force_star_has_no_even_factor():
    assert ef.brute_force_even_factor(STAR, 2, 2) is None


def test_brute_force_scale_cap():
    with pytest.raises(ef.ScaleError):
        ef.brute_force_even_factor(ef.complete_graph(8), 2, 2)  # 28 edges


# ------------------------------------------------------------- loop_augment

def test_loop_augment_identity_when_equal_bounds():
    mg = ef.loop_augment(C4, 2, 2)
    assert mg.loops == {}
    assert mg.to_graph() == C4


def test_loop_augment_lifts_degrees():
    mg = ef.loop_augment(C4, 2, 4)
    assert mg.loops == {v: 1 for v in range(4)}
    assert mg.degrees == (4, 4, 4, 4)
    mg = ef.loop_augment(ef.example1(4, 12, 9), 4, 12)
    assert set(mg.loops.values()) == {4}


def test_loop_augment_rejects_odd_bounds():
    with pytest.raises(ValueError, match="even"):
        ef.loop_augment(C4, 2, 3)


# ------------------------------------------------------------- tutte_gadget

def test_gadget_cycle_without_slack_forces_the_cycle():
    inst = ef.tutte_gadget(ef.MultiGraph.from_graph(C4), 2)
    assert inst.n_nodes == 8
    assert all(len(c) == 0 for c in inst.cores)
    matching = ef.max_matching(inst)
    assert ef.is_perfect(inst, matching)
    decoded = {inst.decode[e][1] for e in matching}
    assert decoded == set(C4.sorted_edges())


def test_gadget_single_loop_vertex():
    inst = ef.tutte_gadget(ef.MultiGraph(1, {}, {0: 1}), 2)
    assert inst.n_nodes == 2
    assert len(inst.edges) == 1
    matching = ef.max_matching(inst)
    assert ef.is_perfect(inst, matching)
    assert inst.decode[next(iter(matching))] == ("loop", 0)


def test_gadget_k4_size_for_slack_two():
    inst = ef.tutte_gadget(ef.loop_augment(K4, 2, 4), 4)
    assert inst.n_nodes == 24
    assert inst.n_nodes % 2 == 0


def test_gadget_names_deficient_vertex():
    with pytest.raises(ValueError, match="vertex 1"):
        ef.tutte_gadget(ef.MultiGraph.from_graph(STAR), 2)


def test_gadget_node_count_even_for_even_targets():
    rng = random.Random(31)
    for _ in range(30):
        a, b = rng.choice([(2, 2), (2, 4), (4, 6)])
        g = random_graph(rng, rng.randint(2, 8), 0.9)
        if min(g.degrees) < a:
            continue
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        assert inst.n_nodes % 2 == 0


# ------------------------------------------------------------- max_matching

def test_matching_small_cliques():
    k3 = ef.tutte_gadget(ef.MultiGraph.from_graph(ef.complete_graph(3)), 2)
    assert len(ef.max_matching(k3)) * 2 == k3.n_nodes  # triangle is a 2-factor
    adj = [list(K4.neighbors(v)) for v in range(4)]
    mate = ef.maximum_cardinality_matching(4, adj)
    assert sum(1 for v in range(4) if mate[v] >= 0) == 4


def test_matching_petersen_is_perfect():
    adj = [list(PETERSEN.neighbors(v)) for v in range(10)]
    mate = ef.maximum_cardinality_matching(10, adj)
    assert sum(1 for v in range(10) if mate[v] >= 0) // 2 == 5


def test_matching_against_exhaustive_oracle():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7, 1.0]))
        edges = g.sorted_edges()
        adj = [list(g.neighbors(v)) for v in range(n)]
        mate = ef.maximum_cardinality_matching(n, adj)
        for v in range(n):
            if mate[v] >= 0:
                assert mate[mate[v]] == v
                assert g.has_edge(v, mate[v])
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
        assert len(matching) == exhaustive_matching_size(
            inst.n_nodes, sorted(inst.edges))


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


def _assert_valid_gadget_matching(inst, matching):
    edges = set(inst.edges)
    assert matching <= edges
    covered = [v for e in matching for v in e]
    assert len(covered) == len(set(covered))


def _gadget_adjacency(inst):
    adj = [[] for _ in range(inst.n_nodes)]
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def test_matching_agrees_with_networkx_on_random_graphs():
    # Sparse to mid-density G(n,p) up to n = 40 is full of odd cycles, so
    # most searches contract blossoms, often nested ones.
    rng = random.Random(38)
    for _ in range(300):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice([1.5 / n, 3.0 / n, 0.15, 0.3, 0.6]))
        adj = [list(g.neighbors(v)) for v in range(n)]
        mate = ef.maximum_cardinality_matching(n, adj)
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
    expected = _networkx_matching_size(inst.n_nodes, inst.edges)
    adj = _gadget_adjacency(inst)
    mate = ef.maximum_cardinality_matching(inst.n_nodes, adj)
    _assert_valid_mate(mate, adj)
    assert sum(1 for v in mate if v >= 0) // 2 == expected
    matching = ef.max_matching(inst)
    _assert_valid_gadget_matching(inst, matching)
    assert len(matching) == expected


def test_warm_started_gadget_matching_agrees_with_networkx():
    # max_matching starts from cores matched to ports; augmentations never
    # expose a matched node, so every core stays covered.
    rng = random.Random(39)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6, 0.9]))
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (2, 6)])
        if min(g.degrees) < a:
            continue
        checked += 1
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        matching = ef.max_matching(inst)
        _assert_valid_gadget_matching(inst, matching)
        assert len(matching) == _networkx_matching_size(inst.n_nodes, inst.edges)
        covered = {v for e in matching for v in e}
        assert all(c in covered for cores in inst.cores for c in cores)


def test_matching_init_is_extended_to_a_maximum_matching():
    adj = [list(PETERSEN.neighbors(v)) for v in range(10)]
    init = [-1] * 10
    init[0], init[4] = 4, 0  # not the pair the vertex-order greedy picks
    mate = ef.maximum_cardinality_matching(10, adj, init)
    _assert_valid_mate(mate, adj)
    assert sum(1 for v in mate if v >= 0) == 10


def test_matching_init_must_be_a_matching():
    adj = [list(C4.neighbors(v)) for v in range(4)]
    with pytest.raises(ValueError, match="not a matching edge"):
        ef.maximum_cardinality_matching(4, adj, [1, -1, -1, -1])
    with pytest.raises(ValueError, match="not a matching edge"):
        ef.maximum_cardinality_matching(4, adj, [2, -1, 0, -1])
    with pytest.raises(ValueError, match="entries"):
        ef.maximum_cardinality_matching(4, adj, [-1, -1])


# --------------------------------------------------------- find_even_factor

def test_find_even_factor_k5_is_whole_graph():
    factor = ef.find_even_factor(K5, 4, 4)
    assert factor.edges == K5.edges


def test_find_even_factor_counterexample_families_absent():
    assert ef.find_even_factor(ef.example1(4, 12, 9), 4, 12) is None
    assert ef.find_even_factor(ef.example2(4, 24, 6), 4, 24) is None


def test_find_even_factor_low_degree_fast_path():
    assert ef.find_even_factor(STAR, 2, 4) is None


def test_find_even_factor_agrees_with_brute_force():
    rng = random.Random(34)
    for _ in range(10_000):
        g = random_graph_edge_capped(rng, rng.choice([7, 8, 9]), rng.random(), 24)
        for a, b in [(2, 2), (2, 4), (4, 4), (2, 6)]:
            got = ef.find_even_factor(g, a, b)
            expected = ef.brute_force_even_factor(g, a, b)
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
        factor = ef.brute_force_even_factor(g, a, b)
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
    g = ef.complete_bipartite(7, 7)  # 49 edges: beyond the exhaustive cap
    factor = ef.find_ab_factor(g, 2, 4)
    assert factor is not None
    assert ef.verify_factor(g, factor, 2, 4, require_even=False)
    assert ef.find_ab_factor(ef.complete_bipartite(3, 11), 4, 4) is None


def test_find_ab_factor_budget_exhaustion_is_distinct():
    rng = random.Random(36)
    while True:
        g = random_graph(rng, 10, 0.65)
        if g.m > 24 and min(g.degrees) >= 2:
            break
    with pytest.raises(ef.SearchBudgetExceeded):
        ef.find_ab_factor(g, 2, 2, budget=3)


def test_find_ab_factor_matches_even_search_on_even_targets():
    # any-parity search is a relaxation: wherever an even factor exists, an
    # [a,b]-factor must exist too
    rng = random.Random(37)
    for _ in range(100):
        g = random_graph_edge_capped(rng, rng.randint(1, 7), rng.random(), 24)
        if ef.find_even_factor(g, 2, 4) is not None:
            assert ef.find_ab_factor(g, 2, 4) is not None


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
    assert factor.to_json()["edges"] == [[0, 1], [0, 3]]
