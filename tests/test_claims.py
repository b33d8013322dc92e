import itertools

from evenfactor import claims
from evenfactor.criteria import even_factor_deficiency


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


def test_parity_claim_values_equal_the_deficiency():
    # replays the claim's own draw sequence; each pair's value, built from
    # the shared (a,b)-free terms, equals the public deficiency
    checked = 0
    for g, s, t in itertools.islice(claims._parity_samples(), 2000):
        values = claims._pair_deficiencies(g, s, t)
        assert values == [even_factor_deficiency(g, a, b, s, t)
                          for a, b in claims.PARITY_PAIRS], (g, s, t)
        checked += len(values)
    assert checked == 8000


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
