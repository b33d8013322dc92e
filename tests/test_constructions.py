import collections

import pytest

import evenfactor as ef


# ------------------------------------------------------------------ example1

def test_example1_reference_size():
    g = ef.example1(4, 12, 9)
    assert (g.n, g.m) == (20, 79)


def test_example1_vertex_layout():
    g = ef.example1(4, 12, 9)
    y, z = 18, 19
    assert (y, z) in g.edges
    assert g.adjacency[y] & frozenset(range(9)) == {0}          # a/2 - 1 = 1
    assert g.adjacency[y] & frozenset(range(9, 18)) == {10, 11}  # a/2 .. a-1
    assert g.adjacency[z] & frozenset(range(9, 18)) == {9}
    assert g.adjacency[z] & frozenset(range(9)) == {1, 2}


def test_example1_rejects_small_t():
    with pytest.raises(ValueError, match="t >= "):
        ef.example1(4, 12, 8)


def test_example1_rejects_small_b():
    with pytest.raises(ValueError, match="b >= 3a"):
        ef.example1(4, 10, 12)


def test_example1_rejects_odd_parameters():
    with pytest.raises(ValueError, match="even"):
        ef.example1(5, 15, 12)


def test_example1_reports_all_violations():
    with pytest.raises(ValueError) as err:
        ef.example1(3, 8, 1)
    message = str(err.value)
    assert "even" in message and "b >= 3a" in message and "t >= " in message


@pytest.mark.parametrize("a,b,t", [(4, 12, 9), (4, 12, 10), (4, 14, 10)])
def test_example1_sharpness_invariants(a, b, t):
    g = ef.example1(a, b, t)
    assert ef.edge_connectivity(g) == a - 1
    assert ef.degree_profile(g)[1] == a
    assert ef.sigma2(g) == a + t - 1
    assert ef.conjecture_conditions(g, a, b).overall
    assert ef.find_even_factor(g, a, b) is None


# ------------------------------------------------------------------ example2

def test_example2_reference_stats():
    g = ef.example2(4, 24, 6)
    assert g.n == 33
    assert ef.vertex_connectivity(g) == 3
    assert ef.degree_profile(g)[1] == 5
    assert ef.sigma2(g) == 10


def test_example2_hub_layout():
    g = ef.example2(4, 24, 6)
    hubs = range(3)
    starts = [3 + i * 6 for i in range(4)] + [3 + 24]
    for j, hub in enumerate(hubs):
        assert g.adjacency[hub] == frozenset(start + j for start in starts)


def test_example2_rejects_t_above_interval():
    with pytest.raises(ValueError, match="interval upper end"):
        ef.example2(4, 24, 9)


def test_example2_rejects_small_b():
    with pytest.raises(ValueError, match="sqrt"):
        ef.example2(4, 6, 6)


def test_example2_flags_empty_feasible_region():
    # at b=8 the printed interval is entirely negative, so no t can satisfy
    # both it and the min-degree guard
    with pytest.raises(ValueError, match="no valid t exists"):
        ef.example2(4, 8, 6)


@pytest.mark.parametrize("t", [6, 7, 8])
def test_example2_sharpness_invariants(t):
    a, b = 4, 24
    g = ef.example2(a, b, t)
    assert ef.vertex_connectivity(g) == a - 1
    assert ef.degree_profile(g)[1] == a + 1
    assert ef.sigma2(g) == 2 * (a + 1)
    assert ef.conjecture_conditions(g, a, b).overall
    assert ef.find_even_factor(g, a, b) is None


def test_counterexample_families_fail_exactly_the_connectivity_hypothesis():
    g1 = ef.example1(4, 12, 9)
    assert ef.edge_connectivity(g1) == 3 < 4
    g2 = ef.example2(4, 24, 6)
    report = ef.main_theorem_conditions(g2, 4, 24)
    assert not report["vertex-connectivity"].holds
    assert report["order"].holds and report["min-degree"].holds


# ---------------------------------------------------------------------- h_na

def test_h_na_pendant_case():
    g = ef.h_na(5, 2)
    assert g.degrees == (1, 4, 3, 3, 3)


def test_h_na_degree_multiset_example():
    g = ef.h_na(6, 4)
    assert sorted(g.degrees) == [3, 4, 4, 5, 5, 5]


def test_h_na_degree_multiset_grid():
    for n in range(2, 31):
        for a in range(1, n):
            g = ef.h_na(n, a)
            counts = collections.Counter(g.degrees)
            expected = collections.Counter()
            expected[a - 1] += 1
            expected[n - 1] += a - 1
            expected[n - 2] += n - a
            assert counts == +expected


def test_h_na_has_no_factor_at_its_parameter():
    for n, a, b in [(5, 2, 2), (6, 2, 4), (7, 4, 4)]:
        assert ef.find_ab_factor(ef.h_na(n, a), a, b) is None


def test_h_na_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n >= a\\+1"):
        ef.h_na(4, 4)
    with pytest.raises(ValueError, match="a >= 1"):
        ef.h_na(4, 0)


# ------------------------------------------------------- complete_bipartite

def test_complete_bipartite_sizes():
    g = ef.complete_bipartite(3, 3)
    assert (g.n, g.m) == (6, 9)
    star = ef.complete_bipartite(1, 3)
    assert star.degrees == (3, 1, 1, 1)


def test_complete_bipartite_rejects_empty_part():
    with pytest.raises(ValueError, match=">= 1"):
        ef.complete_bipartite(0, 3)
