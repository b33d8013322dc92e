import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evenfactor as ef
import criterion_oracle as oracle
from evenfactor import criteria, search
from evenfactor.criteria import DEFICIENCY_VERTEX_CAP
from criterion_oracle import EXHAUSTIVE_VERTEX_CAP, enumerate_criterion
from helpers import brute_max_deficiency, lovasz_deficiency, random_graph

STAR = ef.complete_bipartite(1, 3)
C4 = ef.cycle_graph(4)
C6 = ef.cycle_graph(6)
K4 = ef.complete_graph(4)
K5 = ef.complete_graph(5)


# -------------------------------------------------------- _deficiency_terms

def _terms(g, s, t):
    """(q(S,T), sum_{v in T} d_{G-S}(v)) from the bitmask kernel."""
    return criteria._deficiency_terms(g.n, g.adjacency_masks,
                                      sum(1 << v for v in s), sum(1 << v for v in t))


def test_deficiency_terms_star_center():
    # three singleton components, each joined to the center by one edge
    assert _terms(STAR, (), (0,)) == (3, 3)


def test_deficiency_terms_empty_t_is_zero():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        s = tuple(v for v in range(g.n) if rng.random() < 0.3)
        assert _terms(g, s, ()) == (0, 0)


def test_deficiency_terms_c4_single_vertex():
    # the remaining path meets T in two edges: even, so no component counts
    assert _terms(C4, (), (0,)) == (0, 2)


# ------------------------------------------------- even_factor_deficiency

def test_deficiency_empty_sets_is_zero():
    rng = random.Random(2)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert ef.even_factor_deficiency(g, 2, 4, (), ()) == 0


def test_deficiency_star_center():
    # 3 - 0 + 2 - 3 = 2 > 0: the two-regular criterion is violated
    assert ef.even_factor_deficiency(STAR, 2, 2, (), (0,)) == 2


def test_deficiency_k5_single_vertex():
    assert ef.even_factor_deficiency(K5, 4, 4, (), (0,)) == 0


def test_deficiency_rejects_overlap():
    with pytest.raises(ValueError) as err:
        ef.even_factor_deficiency(C4, 2, 2, (0,), (0, 1))
    assert str(err.value) == "S and T overlap on [0]"


def test_deficiency_rejects_bad_bounds():
    with pytest.raises(ValueError, match="even"):
        ef.even_factor_deficiency(STAR, 2, 3, (), ())
    with pytest.raises(ValueError, match="a <= b"):
        ef.even_factor_deficiency(STAR, 4, 2, (), ())


def test_criteria_refuse_non_integer_bounds_and_vertex_ids_by_name():
    c5 = ef.cycle_graph(5)
    cases = [
        (lambda: ef.criterion_decide(C6, 2.0, 4), "a must be an integer, got 2.0"),
        (lambda: ef.even_factor_deficiency(C6, 2.0, 2, (), (0,)),
         "a must be an integer, got 2.0"),
        (lambda: ef.main_theorem_conditions(C6, 2.0, 4), "a must be an integer, got 2.0"),
        (lambda: ef.conjecture_conditions(C6, 2, 4.0), "b must be an integer, got 4.0"),
        (lambda: ef.even_factor_deficiency(C6, 2, 2.0, (), ()),
         "b must be an integer, got 2.0"),
        (lambda: ef.even_factor_deficiency(c5, 2, 2, (1.0,), ()),
         "S contains non-integer vertex ids [1.0]"),
        (lambda: ef.even_factor_deficiency(c5, 2, 2, (), (0, "1")),
         "T contains non-integer vertex ids ['1']"),
        (lambda: ef.even_factor_deficiency(c5, 2, 2, (), (np.float64(2.0),)),
         "T contains non-integer vertex ids [np.float64(2.0)]"),
        (lambda: ef.even_factor_deficiency(c5, 2, 2, (), (2, 7, -1)),
         "T contains out-of-range vertices [-1, 7]"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_deficiency_accepts_numpy_vertex_ids():
    path = ef.path_graph(100)
    five = np.int64(5)
    assert ef.even_factor_deficiency(path, 2, 2, [], [five]) == \
        ef.even_factor_deficiency(path, 2, 2, [], [5]) == 2
    # q = 1 (the tail past 5), d_{G-S}(5) = 1: 1 - 2 + 2 - 1
    assert _terms(path, [4], [5]) == (1, 1)
    assert ef.even_factor_deficiency(path, 2, 2, [np.int32(4)], [five]) == \
        ef.even_factor_deficiency(path, 2, 2, [4], [5]) == 0
    assert ef.even_factor_deficiency(path, 2, 4, [np.uint8(9)], [five]) % 2 == 0


def _nx_deficiency_terms(g, s, t):
    """(q(S,T), sum_{v in T} d_{G-S}(v)) from networkx: the components of
    G-(S+T), each with its edges into T counted, and the degrees of T in
    G-S."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    ss, tt = set(s), set(t)
    rest = h.subgraph(set(h) - ss - tt)
    q = sum(nx.cut_size(h, comp, tt) % 2 for comp in nx.connected_components(rest))
    e = sum(d for _, d in h.subgraph(set(h) - ss).degree(tt))
    return q, e


def _check_against_networkx(g, s, t):
    q, e = _nx_deficiency_terms(g, s, t)
    assert _terms(g, s, t) == (q, e), (g, s, t)
    for a, b in ((2, 2), (2, 4), (4, 6)):
        assert (ef.even_factor_deficiency(g, a, b, s, t)
                == q - b * len(s) + a * len(t) - e), (g, s, t, a, b)


def test_deficiency_terms_agree_with_networkx():
    # sides drawn from: all three, S+T = V, T empty, T = V, S empty
    rng = random.Random(18)
    for n in range(13):
        dense = random_graph(rng, n, 0.7)
        graphs = [random_graph(rng, n, 0.3), dense, ef.build_graph(n, []),
                  ef.complete_graph(n),
                  ef.build_graph(n, [e for e in dense.edges if max(e) < n - 2])]
        for g in graphs:
            for choices in ((0, 1, 2), (1, 2), (0, 1), (2,), (0, 2)):
                for _ in range(3):
                    side = [rng.choice(choices) for _ in range(n)]
                    s = tuple(v for v in range(n) if side[v] == 1)
                    t = tuple(v for v in range(n) if side[v] == 2)
                    _check_against_networkx(g, s, t)


@st.composite
def deficiency_inputs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = ef.build_graph(n, [e for e in pairs if draw(st.booleans())])
    side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return (g, tuple(v for v in range(n) if side[v] == 1),
            tuple(v for v in range(n) if side[v] == 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(deficiency_inputs())
def test_deficiency_terms_agree_with_networkx_on_drawn_inputs(case):
    _check_against_networkx(*case)


def test_deficiency_scale_cap():
    # one vertex over the cap is refused before the adjacency masks (about
    # n^2/2 bits on a path) are built; at the cap the value is exact: S is the
    # middle vertex and T the two ends, so both halves have an odd cut into T
    over = ef.path_graph(DEFICIENCY_VERTEX_CAP + 1)
    with pytest.raises(ef.ScaleError) as err:
        ef.even_factor_deficiency(over, 2, 2, [], [0])
    assert str(err.value) == (f"deficiency evaluation supports n <= "
                              f"{DEFICIENCY_VERTEX_CAP}, got n={DEFICIENCY_VERTEX_CAP + 1}")
    assert "adjacency_masks" not in vars(over)
    n = DEFICIENCY_VERTEX_CAP
    path = ef.path_graph(n)
    s, t = [n // 2], [0, n - 1]
    assert _terms(path, s, t) == (2, 2)
    assert ef.even_factor_deficiency(path, 2, 2, s, t) == 2 - 2 + 4 - 2
    assert ef.even_factor_deficiency(path, 2, 2, [], [0]) == 1 + 2 - 1
    assert ef.even_factor_deficiency(path, 2, 4, s, t) % 2 == 0


# -------------------------------------------------------- lovasz_deficiency

def test_lovasz_matches_spanning_interval_examples():
    # C4 with exact degree 2 everywhere, T one vertex: all terms vanish
    assert lovasz_deficiency(C4, [2] * 4, [2] * 4, (), (0,)) == 0
    # perfect-matching bounds on K4: single component, even target sum
    assert lovasz_deficiency(K4, [1] * 4, [1] * 4, (), ()) == 0


def test_lovasz_zero_lower_bound_reduces_to_minus_q():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        upper = list(g.degrees)
        val = lovasz_deficiency(g, [0] * g.n, upper, (), ())
        q = 0
        for comp in ef.components_after_deletion(g, ()):
            if all(upper[v] == 0 for v in comp) and sum(upper[v] for v in comp) % 2:
                q += 1
        assert val == -q


def test_lovasz_reports_violations_per_vertex():
    with pytest.raises(ValueError) as err:
        lovasz_deficiency(ef.path_graph(3), [0, 2, 0], [1, 3, 1], (), ())
    assert "v=1" in str(err.value)


def test_lovasz_agrees_with_even_deficiency_when_bounds_coincide():
    # With lower = upper = a (even) on all vertices, the two expressions are
    # negatives of each other.
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.9)
        a = 2
        if min(g.degrees) < a:
            continue
        side = [rng.randrange(3) for _ in range(g.n)]
        s = tuple(v for v in range(g.n) if side[v] == 1)
        t = tuple(v for v in range(g.n) if side[v] == 2)
        assert (lovasz_deficiency(g, [a] * g.n, [a] * g.n, s, t)
                == -ef.even_factor_deficiency(g, a, a, s, t))


# ------------------------------------------------------------------- parity

def test_parity_examples():
    assert ef.even_factor_deficiency(STAR, 2, 2, (), (0,)) % 2 == 0
    assert ef.even_factor_deficiency(C4, 2, 4, (), ()) % 2 == 0


def test_parity_random_sample():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        side = [rng.randrange(3) for _ in range(n)]
        s = tuple(v for v in range(n) if side[v] == 1)
        t = tuple(v for v in range(n) if side[v] == 2)
        assert ef.even_factor_deficiency(g, 4, 4, s, t) % 2 == 0


# ---------------------------------------------------------- criterion_decide
#
# The library decides the criterion on the matching gadget; the exhaustive
# enumeration in criterion_oracle is the oracle it is checked against, and
# the tie-break, block and memory tests below exercise that oracle itself.

def _assert_checked_witness(g, a, b, holds, witness):
    """A failing criterion carries a positive witness that re-evaluates to
    its own value."""
    if holds:
        assert witness is None
    else:
        assert witness.value > 0 and not set(witness.S) & set(witness.T)
        assert ef.even_factor_deficiency(g, a, b, witness.S, witness.T) == witness.value


def test_criterion_k5_holds():
    assert ef.criterion_decide(K5, 4, 4) == (True, None)


def test_criterion_c6_holds():
    assert ef.criterion_decide(C6, 2, 2) == (True, None)


def test_criterion_star_fails_with_maximizing_witness():
    # independent maximizer: T = all three leaves reaches value 4, and so
    # does the library's S = {center}, T = the leaves
    value, s, t = brute_max_deficiency(STAR, 2, 2)
    assert (value, s, t) == (4, (), (1, 2, 3))
    holds, witness = enumerate_criterion(STAR, 2, 2)
    assert not holds and (witness.value, witness.S, witness.T) == (value, s, t)
    assert ef.criterion_decide(STAR, 2, 2) == (False, ef.CriterionWitness((0,), (1, 2, 3), 4))


def test_criterion_witness_matches_brute_force_with_tie_break():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.5, 0.8]))
        for a, b in [(2, 2), (2, 4), (4, 4)]:
            holds, witness = enumerate_criterion(g, a, b)
            value, s, t = brute_max_deficiency(g, a, b)
            assert holds == (value <= 0)
            if not holds:
                assert (witness.value, witness.S, witness.T) == (value, s, t)
            holds, witness = ef.criterion_decide(g, a, b)
            assert holds == (value <= 0)
            _assert_checked_witness(g, a, b, holds, witness)
            assert holds or witness.value == value


def test_criterion_witness_matches_brute_force_at_seven_and_eight_vertices():
    # The splits of each W are built by doubling over its members, not in
    # key order, so the tie-break must come from the key comparison alone;
    # n = 7, 8 gives W with up to 256 splits and many tied maxima.
    rng = random.Random(9)
    graphs = [random_graph(rng, n, p)
              for n in (7, 8) for p in (0.2, 0.5, 0.8) for _ in range(5)]
    graphs += [ef.cycle_graph(8), ef.complete_bipartite(1, 6),
               ef.complete_bipartite(3, 4)]
    # Graphs whose smallest maximizer lies in a W visited after the maximum
    # was reached, with bound equal to it: such a W must still be walked.
    graphs += [
        ef.build_graph(8, [(0, 1), (0, 3), (0, 5), (1, 6), (1, 7), (2, 4), (2, 7),
                           (3, 4), (3, 7), (4, 5), (4, 7)]),
        ef.build_graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (2, 5),
                           (3, 5), (4, 5)]),
    ]
    for g in graphs:
        for a, b in [(2, 2), (2, 4), (4, 6)]:
            holds, witness = enumerate_criterion(g, a, b)
            value, s, t = brute_max_deficiency(g, a, b)
            assert holds == (value <= 0)
            if holds:
                assert witness is None
            else:
                assert (witness.value, witness.S, witness.T) == (value, s, t)


def test_criterion_sufficiency_on_random_graphs():
    # criterion holds => the construction pipeline finds an even factor; the
    # criterion comes from the enumeration, since the library's answers
    # through the same gadget as find_even_factor
    rng = random.Random(8)
    holds_count = 0
    for _ in range(10_000):
        n = rng.choice([7, 8])
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
        for a, b in [(2, 2), (2, 4), (4, 4)]:
            holds, _ = enumerate_criterion(g, a, b)
            if holds:
                holds_count += 1
                assert ef.find_even_factor(g, a, b) is not None
    assert holds_count > 0


def test_gadget_exposed_nodes_equal_the_maximum_deficiency():
    # Tutte's f-factor theorem in deficiency form: a maximum matching of the
    # even gadget leaves exposed exactly max over (S, T) of the deficiency,
    # which is 0 when the criterion holds.  Unbalanced bipartite graphs
    # supply most of the deficient cases; draws with a vertex below a give
    # the gadget deficit nodes.
    rng = random.Random(7)
    checked = deficient = below_a = 0
    while checked < 300:
        if rng.random() < 0.5:
            x = rng.randint(2, 4)
            y, p = rng.randint(x + 1, 10 - x), rng.choice([0.6, 0.9])
            g = ef.build_graph(x + y, [(u, x + v) for u in range(x) for v in range(y)
                                       if rng.random() < p])
        else:
            g = random_graph(rng, rng.randint(5, 10), rng.choice([0.3, 0.6, 0.9]))
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (4, 6), (2, 6)])
        checked += 1
        below_a += min(g.degrees) < a
        inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
        exposed = inst.n_nodes - 2 * len(ef.max_matching(inst))
        holds, witness = enumerate_criterion(g, a, b)
        assert exposed == (0 if holds else witness.value), (sorted(g.edges), a, b)
        deficient += not holds
    assert deficient >= 30
    assert below_a >= 30


def test_criterion_agrees_with_the_enumeration_on_random_graphs():
    # The gadget engine against the exhaustive oracle: the same verdict and
    # the same maximum, with a witness that re-evaluates to it.  Sparse
    # draws and large a put vertices below a, where the gadget has deficit
    # nodes.
    rng = random.Random(26)
    checked = deficient = below_a = 0
    for _ in range(600):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        a, b = rng.choice([(2, 2), (2, 4), (4, 4), (4, 6), (2, 6), (6, 6)])
        holds, witness = ef.criterion_decide(g, a, b)
        expected, best = enumerate_criterion(g, a, b)
        assert holds == expected, (sorted(g.edges), a, b)
        _assert_checked_witness(g, a, b, holds, witness)
        if not holds:
            assert witness.value == best.value, (sorted(g.edges), a, b)
        checked += 1
        deficient += not holds
        below_a += g.n > 0 and min(g.degrees) < a
    assert checked == 600 and deficient >= 200 and below_a >= 100
    assert checked - deficient >= 100


@pytest.mark.parametrize("g, a, b", [
    (ef.example1(4, 12, 9), 4, 12),
    (ef.example2(4, 24, 6), 4, 24),
    (ef.example2(4, 24, 8), 4, 24),
], ids=["example1_4_12_9", "example2_4_24_6", "example2_4_24_8"])
def test_criterion_witnesses_on_the_paper_families(g, a, b):
    # 20, 33 and 35 vertices: beyond the enumeration, and each the paper's
    # graph with no even [a,b]-factor
    holds, witness = ef.criterion_decide(g, a, b)
    assert not holds and witness.value == 2
    _assert_checked_witness(g, a, b, holds, witness)


def test_criterion_refuses_above_the_cap_before_any_gadget(monkeypatch):
    def no_gadget(*args):
        raise AssertionError("gadget built above the cap")

    monkeypatch.setattr(search, "tutte_gadget", no_gadget)
    over = ef.path_graph(DEFICIENCY_VERTEX_CAP + 1)
    with pytest.raises(ef.ScaleError, match=f"n <= {DEFICIENCY_VERTEX_CAP}"):
        ef.criterion_decide(over, 2, 2)
    assert "adjacency" not in vars(over)


def test_split_keys_order_like_tuple_keys():
    # The int64 witness key sorts every disjoint (S, T) as the tuple
    # (|S|, |T|, S, T) does, with no two splits sharing a key.
    for n in range(6):
        splits = []
        for assign in itertools.product(range(3), repeat=n):
            s = tuple(v for v in range(n) if assign[v] == 1)
            t = tuple(v for v in range(n) if assign[v] == 2)
            splits.append((len(s), len(t), s, t))
        s_masks = np.array([sum(1 << v for v in s) for _, _, s, _ in splits], dtype=np.int32)
        t_masks = np.array([sum(1 << v for v in t) for _, _, _, t in splits], dtype=np.int32)
        keys = oracle._split_keys(n, s_masks, t_masks).tolist()
        assert len(set(keys)) == len(keys) == 3 ** n
        assert sorted(range(len(keys)), key=keys.__getitem__) == \
            sorted(range(len(splits)), key=splits.__getitem__)


@pytest.mark.parametrize("block_bits, pad", [(4, 4), (6, 16)])
def test_criterion_answer_does_not_depend_on_block_cuts(monkeypatch, block_bits, pad):
    # Blocks of 16 or 64 splits put the tied maxima of one W, and of W next
    # to each other, in different blocks, and leave several blocks per chunk
    # for the pruning before each block; the witness must still be the one
    # found with the default blocks.  K_n minus the matching {i, n - i} at
    # a = n - 1 ties T = {0, 2, 3} with the smaller key T = {0, 1, 4} (n = 5)
    # in a W visited later, so only the key comparison across blocks finds it.
    rng = random.Random(23)
    graphs = [random_graph(rng, n, p) for n in range(7, 12) for p in (0.25, 0.6)]
    graphs += [ef.cycle_graph(7), ef.cycle_graph(9), ef.complete_bipartite(1, 7),
               ef.complete_bipartite(2, 7), ef.complete_bipartite(3, 6)]
    cases = [(g, a, b) for g in graphs for a, b in [(2, 4), (4, 6)]]
    for n in (5, 7):
        cases.append((ef.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                         if u + v != n]), n - 1, n - 1))
    # The double star 1, 2 - 0 - 5 - 3, 4 at [2, 4] ties T = {1, 2, 3} with
    # the smaller key T = {0, 3, 4} at value 4, and the bound of W = {0, 3, 4}
    # is exactly 4.  With 64-split blocks both W lie in one chunk, {0, 3, 4}
    # in a later block, so the re-check before that block must keep a row
    # whose bound equals the best value found earlier in the chunk.
    cases.append((ef.build_graph(6, [(0, 1), (0, 2), (0, 5), (3, 5), (4, 5)]), 2, 4))
    expected = [enumerate_criterion(g, a, b) for g, a, b in cases]
    monkeypatch.setattr(oracle, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(oracle, "_BLOCK", 1 << block_bits)
    monkeypatch.setattr(oracle, "_PAD", pad)
    assert [enumerate_criterion(g, a, b) for g, a, b in cases] == expected
    assert expected[-3][1].T == (0, 1, 4)
    assert expected[-1] == (False, ef.CriterionWitness((), (0, 3, 4), 4))
    assert sum(not holds for holds, _ in expected) >= 10


def test_row_blocks_cut_rows_into_full_spans():
    # Spans cover the rows in order, hold at most _BLOCK padded splits (a
    # lone row of more than _BLOCK_BITS members excepted) with at most _PAD
    # of padding, and each cut is forced: the next row would break a bound.
    def padded(sizes, r0, r1):
        return (r1 - r0) << sizes[r1 - 1]

    def padding(sizes, r0, r1):
        return padded(sizes, r0, r1) - sum(1 << k for k in sizes[r0:r1])

    rng = random.Random(4)
    lists = [oracle._subset_tables(n).sizes.tolist() for n in (0, 1, 6, 9, 16)]
    for _ in range(300):
        n = rng.randint(0, EXHAUSTIVE_VERTEX_CAP)
        lists.append(sorted(rng.choice([rng.randint(0, n), rng.randint(n // 2, n)])
                            for _ in range(rng.randint(0, 400))))
    for sizes in lists:
        spans = oracle._row_blocks(sizes)
        assert [r for r0, r1 in spans for r in range(r0, r1)] == list(range(len(sizes)))
        assert all(r0 < r1 for r0, r1 in spans)
        for r0, r1 in spans:
            lone = r1 - r0 == 1 and sizes[r0] > oracle._BLOCK_BITS
            assert lone or padded(sizes, r0, r1) <= oracle._BLOCK
            assert padding(sizes, r0, r1) <= oracle._PAD
        for (r0, r1), _ in zip(spans, spans[1:]):
            assert (padded(sizes, r0, r1 + 1) > oracle._BLOCK
                    or padding(sizes, r0, r1 + 1) > oracle._PAD)


def test_criterion_pins_at_thirteen_and_fourteen_vertices():
    # Every (holds, witness) below was recorded with an earlier enumeration
    # that walked the splits of each W one at a time in Gray-code order; the
    # library must reach the same maximum.
    cases = [
        (ef.cycle_graph(13), 2, 2, None),
        (ef.cycle_graph(14), 2, 2, None),
        (random_graph(random.Random(7), 13, 0.25), 2, 2,
         ((0, 4, 5), (1, 3, 7, 9, 10, 12), 6)),
        (random_graph(random.Random(2), 13, 0.35), 4, 6,
         ((), (1, 3, 4, 5, 6, 7, 9), 14)),
    ]
    for g, a, b, expected in cases:
        holds, witness = enumerate_criterion(g, a, b)
        assert holds == (expected is None)
        if expected is None:
            assert witness is None
        else:
            assert (witness.S, witness.T, witness.value) == expected
        holds, witness = ef.criterion_decide(g, a, b)
        assert holds == (expected is None)
        _assert_checked_witness(g, a, b, holds, witness)
        assert holds or witness.value == expected[2]


def test_criterion_memory_stays_small_at_fourteen_vertices():
    # 3^14 splits would take 19 MB as int32; the blocks keep the peak near
    # the O(2^n n) tables, which the cleared cache counts in.
    oracle._subset_tables.cache_clear()
    tracemalloc.start()
    try:
        assert enumerate_criterion(ef.cycle_graph(14), 2, 2) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_criterion_scale_cap():
    # one vertex over the enumeration's cap: 3^19 splits, so only a refusal
    # made before the enumeration returns at once
    with pytest.raises(ef.ScaleError, match=f"n <= {EXHAUSTIVE_VERTEX_CAP}"):
        enumerate_criterion(ef.cycle_graph(EXHAUSTIVE_VERTEX_CAP + 1), 2, 2)
    with pytest.raises(ef.ScaleError):
        enumerate_criterion(ef.example1(4, 12, 9), 4, 12)  # n=20 > 18


def test_witness_json_shape():
    _, witness = ef.criterion_decide(STAR, 2, 2)
    assert ef.to_json(witness) == {"S": [0], "T": [1, 2, 3], "value": 4}


# ------------------------------------------------------- condition checkers

def test_main_theorem_conditions_vertex_counterexample():
    report = ef.main_theorem_conditions(ef.example2(4, 24, 6), 4, 24)
    assert not report["vertex-connectivity"].holds
    assert report["vertex-connectivity"].lhs == 3
    assert report["order"].holds and report["order"].rhs == Fraction(181, 6)
    assert report["min-degree"].holds
    assert report["min-degree"].rhs == Fraction(132, 28)
    assert not report.overall


def test_main_theorem_conditions_k9_fails_order():
    report = ef.main_theorem_conditions(ef.complete_graph(9), 4, 4)
    assert report["vertex-connectivity"].holds
    assert not report["order"].holds
    assert report["order"].rhs == 11
    assert not report.overall


def test_main_theorem_conditions_k12_all_hold_and_factor_exists():
    g = ef.complete_graph(12)
    report = ef.main_theorem_conditions(g, 4, 4)
    assert report.overall
    assert ef.find_even_factor(g, 4, 4) is not None


def test_main_theorem_small_a_uses_linear_order_bound():
    report = ef.main_theorem_conditions(ef.complete_graph(5), 2, 2)
    assert report["order"].rhs == 5
    assert report.overall


def test_order_and_degree_conditions_force_min_degree_above_a():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(5, 12), rng.choice([0.5, 0.7, 0.9]))
        for a, b in [(4, 4), (4, 6)]:
            report = ef.main_theorem_conditions(g, a, b)
            if report["order"].holds and report["min-degree"].holds:
                assert ef.degree_profile(g)[1] >= a + 1


def test_conjecture_conditions_examples():
    report = ef.conjecture_conditions(ef.example1(4, 12, 9), 4, 12)
    assert report.overall
    assert report["degree-sum"].lhs == 12
    assert report["degree-sum"].rhs == Fraction(10)
    report = ef.conjecture_conditions(ef.example2(4, 24, 6), 4, 24)
    assert report.overall
    assert report["degree-sum"].rhs == Fraction(66, 7)
    report = ef.conjecture_conditions(STAR, 2, 2)
    assert not report["edge-connectivity"].holds
    assert not report.overall


def test_connectivity_conditions_hold_exactly_when_the_exact_values_reach_the_bound():
    # the conditions read min(kappa, a) and min(kappa', 2), with flows that
    # stop at the bound: the same verdicts as the exact values, and the exact
    # value itself whenever a condition fails
    rng = random.Random(47)
    for _ in range(240):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.4, 0.6, 0.8, 0.95]))
        kappa, kappa_e = ef.vertex_connectivity(g), ef.edge_connectivity(g)
        for a, b in ((2, 2), (2, 4), (4, 6)):
            vertex = ef.main_theorem_conditions(g, a, b)["vertex-connectivity"]
            assert (vertex.holds, vertex.lhs) == (kappa >= a, min(kappa, a))
            edge = ef.conjecture_conditions(g, a, b)["edge-connectivity"]
            assert (edge.holds, edge.lhs) == (kappa_e >= 2, min(kappa_e, 2))


def test_condition_sets_on_a_dense_200_vertex_graph_take_under_a_second():
    # exact kappa on this graph takes tens of seconds of CPU, and the
    # uncapped theorem check did not answer in 300 s; flows that stop at the
    # bound answer in a few hundredths
    g = random_graph(random.Random(3), 200, 0.5)
    for check, name, bound in ((ef.main_theorem_conditions, "vertex-connectivity", 4),
                               (ef.conjecture_conditions, "edge-connectivity", 2)):
        start = time.process_time()
        report = check(g, 4, 6)
        assert time.process_time() - start < 1.0, name
        assert report[name].holds and report[name].lhs == bound


def test_condition_report_serializes_rationals_and_infinity():
    report = ef.conjecture_conditions(ef.complete_graph(6), 2, 2)
    payload = ef.to_json(report)
    assert report.overall
    by_name = {c["name"]: c for c in payload["conditions"]}
    assert by_name["order"]["rhs"] == {"num": 3, "den": 1}
    assert by_name["degree-sum"]["lhs"] == "INFINITY"


# ---------------------------------------------------------------- prop_f_eval

def test_prop_f_eval_exact_values():
    assert ef.prop_f_eval(4, 12, 19, 1, 13) == Fraction(-15, 4)
    assert ef.order_threshold(4, 4) == 11
    assert ef.prop_f_eval(4, 4, 11, 1, 5) < 0
    assert ef.prop_f_eval(4, 4, 11, 1, 5) == Fraction(-3, 2)


def test_prop_f_eval_third_term_vanishes_at_x_equal_b_plus_one():
    for p in (1, 2, 3):
        assert ef.prop_f_eval(4, 12, 19, p, 13) == ef.prop_f_eval(4, 12, 19, 1, 13)


def test_prop_f_eval_accepts_rational_x():
    val = ef.prop_f_eval(4, 6, 15, 1, Fraction(7, 2))
    assert isinstance(val, Fraction)


def test_prop_f_eval_equals_the_literal_formula():
    # prop_f_eval folds the value into one numerator over b(a+b)xd^2; the
    # formula here is evaluated term by term, as the paper writes it
    cases = 0
    for a in (1, 2, 4, 6):
        for b in range(a, a + 21):
            for n in (0, 1, a + b - 1, 2 * a + b, 2 * a + b + 7, 50):
                for p in (0, 1, 2, 3):
                    for x in (0, 1, b + 1, a + b - 3, Fraction(7, 3), Fraction(-5, 2)):
                        x = Fraction(x)
                        literal = (n + (a - 1 - Fraction(a * n, a + b)) * x
                                   + (x - 1 - b) * (a * x - p) / Fraction(b))
                        got = ef.prop_f_eval(a, b, n, p, x)
                        assert isinstance(got, Fraction)
                        assert got == literal, (a, b, n, p, x)
                        cases += 1
    assert cases == 4 * 21 * 6 * 4 * 6


def test_threshold_formulas_refuse_bad_parameters_by_name():
    # Non-integer parameters and zero denominators are refused by name,
    # not left to Fraction's ZeroDivisionError or TypeError.
    cases = [
        (lambda: ef.order_threshold(2, 0), "need b != 0, got a=2, b=0"),
        (lambda: ef.prop_f_eval(4, -4, 19, 1, 13),
         "need b != 0 and a + b != 0, got a=4, b=-4"),
        (lambda: ef.prop_f_eval(4, 0, 19, 1, 13),
         "need b != 0 and a + b != 0, got a=4, b=0"),
        (lambda: ef.prop_f_eval(4.0, 12, 19, 1, 13), "a must be an integer, got 4.0"),
        (lambda: ef.prop_f_eval(4, 12.5, 19, 1, 13), "b must be an integer, got 12.5"),
        (lambda: ef.prop_f_eval(4, 12, "19", 1, 13), "n must be an integer, got '19'"),
        (lambda: ef.prop_f_eval(4, 12, 19, None, 13), "p must be an integer, got None"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
