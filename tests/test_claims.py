import itertools
import random

from evenfactor import claims, criteria
from helpers import random_graph


def test_connectivity_gap_rows_are_pinned():
    edge = claims.claim_edge_connectivity_gap()
    assert edge.claim == "edge-connectivity-gap"
    assert edge.params == {"a": 4, "b": 12, "t": 9}
    assert edge.observed == {
        "n": 20, "m": 79, "edge_connectivity": 3, "min_degree": 4,
        "sigma2": 12, "order_threshold": "55/3", "conditions_hold": True,
        "factor_present": False}
    assert edge.passed is True
    vertex = claims.claim_vertex_connectivity_gap()
    assert vertex.claim == "vertex-connectivity-gap"
    assert vertex.params == {"a": 4, "b": 24, "t": 6}
    assert vertex.observed == {
        "n": 33, "m": 90, "vertex_connectivity": 3, "min_degree": 5,
        "sigma2": 10, "order_threshold": "181/6", "conditions_hold": True,
        "factor_present": False}
    assert vertex.passed is True
    for row in (edge, vertex):
        kind = row.claim.split("-")[0]
        assert row.description == (
            f"family with {kind} connectivity a-1 satisfying every degree "
            "condition yet lacking an even [a,b]-factor")


def test_connectivity_gap_claims_look_up_connectivity_at_call_time(monkeypatch):
    # rebinding the module names (as a tracer does) must reach the claims
    calls = []
    for name in ("edge_connectivity", "vertex_connectivity"):
        original = getattr(claims, name)

        def traced(g, original=original, name=name):
            calls.append(name)
            return original(g)
        monkeypatch.setattr(claims, name, traced)
    claims.claim_edge_connectivity_gap()
    claims.claim_vertex_connectivity_gap()
    assert calls == ["edge_connectivity", "vertex_connectivity"]


def _graph_drawn_parity_samples():
    """The claim's samples as they were drawn when each was a Graph plus S
    and T tuples: the same RNG calls in the same order."""
    rng = random.Random(claims.PARITY_SEED)
    for _ in range(claims.PARITY_TRIALS):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        side = [rng.randrange(3) for _ in range(n)]
        s = tuple(v for v in range(n) if side[v] == 1)
        t = tuple(v for v in range(n) if side[v] == 2)
        yield g, s, t


def test_parity_claim_values_equal_the_deficiency():
    # the mask-drawn samples are the Graph-drawn ones bit for bit, and the
    # claim's four values per sample equal the public deficiency
    checked = 0
    for (g, s, t), (n, adj, s_mask, t_mask) in itertools.zip_longest(
            _graph_drawn_parity_samples(), claims._parity_samples()):
        assert (n, tuple(adj)) == (g.n, g.adjacency_masks)
        assert s_mask == sum(1 << v for v in s)
        assert t_mask == sum(1 << v for v in t)
        q, e = criteria._deficiency_terms(n, adj, s_mask, t_mask)
        values = [q - b * len(s) + a * len(t) - e for a, b in claims.PARITY_PAIRS]
        assert values == [criteria.even_factor_deficiency(g, a, b, s, t)
                          for a, b in claims.PARITY_PAIRS], (g, s, t)
        checked += len(values)
    assert checked == 40_000


def test_parity_samples_are_frozen():
    # totals of the claim's inputs, so a drift of the draws fails even when
    # the public-API oracle drifts with it
    n_sum = m_sum = s_sum = t_sum = 0
    for n, adj, s_mask, t_mask in claims._parity_samples():
        n_sum += n
        m_sum += sum(mask.bit_count() for mask in adj) // 2
        s_sum += s_mask.bit_count()
        t_sum += t_mask.bit_count()
    assert (n_sum, m_sum, s_sum, t_sum) == (54575, 82000, 18140, 18120)


def test_parity_invariance_row_is_pinned():
    row = claims.claim_parity_invariance()
    assert row.claim == "parity-invariance"
    assert row.description == ("deficiency parity equals the parity of the "
                               "degree bounds")
    assert row.params == {"trials": 10_000,
                          "pairs": [(2, 2), (2, 4), (4, 4), (4, 6)],
                          "seed": 20240801, "max_n": 10}
    assert row.observed == {"violations": 0}
    assert row.passed is True


def test_quadratic_sign_grid_row_is_pinned():
    row = claims.claim_quadratic_sign_grid()
    assert row.claim == "quadratic-sign-grid"
    assert row.observed == {"evaluations": 528, "violations": [],
                            "violation_count": 0}
    assert row.passed is True
