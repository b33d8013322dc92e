from evenfactor import claims


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
