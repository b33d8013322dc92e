import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import evenfactor as ef
from evenfactor import criteria
from evenfactor.criteria import EXHAUSTIVE_VERTEX_CAP
from helpers import brute_max_deficiency, random_graph

STAR = ef.complete_bipartite(1, 3)
C4 = ef.cycle_graph(4)
C6 = ef.cycle_graph(6)
K4 = ef.complete_graph(4)
K5 = ef.complete_graph(5)


# ---------------------------------------------------------------- odd_cut_q

def test_odd_cut_q_star_center():
    # three singleton components, each joined to the center by one edge
    assert ef.odd_cut_q(STAR, (), (0,)) == 3


def test_odd_cut_q_empty_t_is_zero():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        s = tuple(v for v in range(g.n) if rng.random() < 0.3)
        assert ef.odd_cut_q(g, s, ()) == 0


def test_odd_cut_q_c4_single_vertex():
    # the remaining path meets T in two edges: even, so no component counts
    assert ef.odd_cut_q(C4, (), (0,)) == 0


def test_odd_cut_q_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        ef.odd_cut_q(C4, (0,), (0, 1))


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


def test_deficiency_rejects_bad_bounds():
    with pytest.raises(ValueError, match="even"):
        ef.even_factor_deficiency(STAR, 2, 3, (), ())
    with pytest.raises(ValueError, match="a <= b"):
        ef.even_factor_deficiency(STAR, 4, 2, (), ())


# -------------------------------------------------------- lovasz_deficiency

def test_lovasz_matches_spanning_interval_examples():
    # C4 with exact degree 2 everywhere, T one vertex: all terms vanish
    assert ef.lovasz_deficiency(C4, [2] * 4, [2] * 4, (), (0,)) == 0
    # perfect-matching bounds on K4: single component, even target sum
    assert ef.lovasz_deficiency(K4, [1] * 4, [1] * 4, (), ()) == 0


def test_lovasz_zero_lower_bound_reduces_to_minus_q():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        upper = list(g.degrees)
        val = ef.lovasz_deficiency(g, [0] * g.n, upper, (), ())
        q = 0
        for comp in ef.components_after_deletion(g, ()):
            if all(upper[v] == 0 for v in comp) and sum(upper[v] for v in comp) % 2:
                q += 1
        assert val == -q


def test_lovasz_reports_violations_per_vertex():
    with pytest.raises(ValueError) as err:
        ef.lovasz_deficiency(ef.path_graph(3), [0, 2, 0], [1, 3, 1], (), ())
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
        assert (ef.lovasz_deficiency(g, [a] * g.n, [a] * g.n, s, t)
                == -ef.even_factor_deficiency(g, a, a, s, t))


# -------------------------------------------------------------- parity_check

def test_parity_examples():
    assert ef.parity_check(STAR, 2, 2, (), (0,))
    assert ef.parity_check(C4, 2, 4, (), ())
    with pytest.raises(ValueError, match="parity"):
        ef.parity_check(C4, 2, 5, (), ())


def test_parity_random_sample():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        side = [rng.randrange(3) for _ in range(n)]
        s = tuple(v for v in range(n) if side[v] == 1)
        t = tuple(v for v in range(n) if side[v] == 2)
        assert ef.parity_check(g, 4, 4, s, t)


# ---------------------------------------------------------- criterion_decide

def test_criterion_k5_holds():
    assert ef.criterion_decide(K5, 4, 4) == (True, None)


def test_criterion_c6_holds():
    assert ef.criterion_decide(C6, 2, 2) == (True, None)


def test_criterion_star_fails_with_maximizing_witness():
    holds, witness = ef.criterion_decide(STAR, 2, 2)
    assert not holds
    # independent maximizer: T = all three leaves reaches value 4
    value, s, t = brute_max_deficiency(STAR, 2, 2)
    assert (witness.value, witness.S, witness.T) == (value, s, t) == (4, (), (1, 2, 3))


def test_criterion_witness_matches_brute_force_with_tie_break():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.5, 0.8]))
        for a, b in [(2, 2), (2, 4), (4, 4)]:
            holds, witness = ef.criterion_decide(g, a, b)
            value, s, t = brute_max_deficiency(g, a, b)
            assert holds == (value <= 0)
            if not holds:
                assert (witness.value, witness.S, witness.T) == (value, s, t)


def test_criterion_witness_matches_brute_force_at_seven_and_eight_vertices():
    # The splits of each W are walked in Gray-code order, so the tie-break
    # must come from the key comparison alone; n = 7, 8 gives W with up to
    # 256 splits and many tied maxima.
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
            holds, witness = ef.criterion_decide(g, a, b)
            value, s, t = brute_max_deficiency(g, a, b)
            assert holds == (value <= 0)
            if holds:
                assert witness is None
            else:
                assert (witness.value, witness.S, witness.T) == (value, s, t)


def test_criterion_sufficiency_on_random_graphs():
    # criterion holds => the construction pipeline finds an even factor
    rng = random.Random(8)
    holds_count = 0
    for _ in range(10_000):
        n = rng.choice([7, 8])
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
        for a, b in [(2, 2), (2, 4), (4, 4)]:
            holds, _ = ef.criterion_decide(g, a, b)
            if holds:
                holds_count += 1
                assert ef.find_even_factor(g, a, b) is not None
    assert holds_count > 0


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
        keys = criteria._split_keys(n, s_masks, t_masks).tolist()
        assert len(set(keys)) == len(keys) == 3 ** n
        assert sorted(range(len(keys)), key=keys.__getitem__) == \
            sorted(range(len(splits)), key=splits.__getitem__)


def test_criterion_pins_at_thirteen_and_fourteen_vertices():
    # Every (holds, witness) below was recorded with the earlier
    # criterion_decide that walked the splits of each W one at a time in
    # Gray-code order.
    cases = [
        (ef.cycle_graph(13), 2, 2, None),
        (ef.cycle_graph(14), 2, 2, None),
        (random_graph(random.Random(7), 13, 0.25), 2, 2,
         ((0, 4, 5), (1, 3, 7, 9, 10, 12), 6)),
        (random_graph(random.Random(2), 13, 0.35), 4, 6,
         ((), (1, 3, 4, 5, 6, 7, 9), 14)),
    ]
    for g, a, b, expected in cases:
        holds, witness = ef.criterion_decide(g, a, b)
        assert holds == (expected is None)
        if expected is None:
            assert witness is None
        else:
            assert (witness.S, witness.T, witness.value) == expected


def test_criterion_memory_stays_small_at_fourteen_vertices():
    # 3^14 splits would take 19 MB as int32; the blocks keep the peak near
    # the O(2^n n) tables, which the cleared cache counts in.
    criteria._subset_tables.cache_clear()
    tracemalloc.start()
    try:
        assert ef.criterion_decide(ef.cycle_graph(14), 2, 2) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_criterion_scale_cap():
    # one vertex over the cap: 3^19 splits, so only a refusal made before the
    # enumeration returns at once
    with pytest.raises(ef.ScaleError, match=f"n <= {EXHAUSTIVE_VERTEX_CAP}"):
        ef.criterion_decide(ef.cycle_graph(EXHAUSTIVE_VERTEX_CAP + 1), 2, 2)
    with pytest.raises(ef.ScaleError):
        ef.criterion_decide(ef.example1(4, 12, 9), 4, 12)  # n=20 > 18


def test_witness_json_shape():
    _, witness = ef.criterion_decide(STAR, 2, 2)
    assert witness.to_json() == {"S": [], "T": [1, 2, 3], "value": 4}


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


def test_condition_report_serializes_rationals_and_infinity():
    report = ef.conjecture_conditions(ef.complete_graph(6), 2, 2)
    payload = report.to_json()
    assert payload["overall"]
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
