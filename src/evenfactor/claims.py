"""One entry point per reproducible claim, for the CLI repro command.

Each claim runs a self-contained check with frozen parameters (random trials
use fixed seeds) and reports observed values next to a pass/fail verdict.
Failures come back as rows, never as exceptions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .graph import degree_profile, sigma2, edge_connectivity, \
    vertex_connectivity, _require_even_pair
from .criteria import conjecture_conditions, order_threshold, prop_f_eval, \
    _deficiency_terms
from .constructions import complete_bipartite, example1, example2, h_na
from .search import find_ab_factor, find_even_factor
from .spectral import THRESHOLD_GUARD, bipartite_threshold, classify_threshold, \
    conjecture_sweep, lambda1, lambda1_all, observation_decide, rho, \
    sweep_summary

PARITY_SEED = 20240801
PARITY_TRIALS = 10_000
PARITY_PAIRS = ((2, 2), (2, 4), (4, 4), (4, 6))


@dataclass(frozen=True)
class ClaimRow:
    claim: str
    description: str
    params: dict
    observed: dict
    passed: bool


def _parity_samples():
    """The claim's seeded samples (n, adjacency masks, S mask, T mask), drawn
    in order: n, the edge probability, one draw per pair u < v, then one
    side (0 outside, 1 in S, 2 in T) per vertex.

    These are exactly the Mersenne-Twister draws that ``randint(1, 10)``,
    ``choice`` of the three probabilities and ``randrange(3)`` make, written
    out as the rejection loops CPython runs for them: ``getrandbits(4)``
    until it is below 10, and ``getrandbits(2)`` until it is below 3.
    ``random()`` is the one draw whose stream CPython promises to keep
    across versions; the others are now pinned to ``getrandbits``.
    ``tests/test_claims.py::test_parity_claim_values_equal_the_deficiency``
    pins all samples against the public-API oracle
    ``_graph_drawn_parity_samples``, which calls ``randint``, ``choice`` and
    ``randrange``.

    A sample's pair draws are one list, and only the drawn pairs of the
    per-n table ``(u, v, 1 << u, 1 << v)`` are walked."""
    rng = random.Random(PARITY_SEED)
    draw, bits = rng.random, rng.getrandbits
    probs = (0.2, 0.5, 0.8)
    pair_table = [[(u, v, 1 << u, 1 << v) for u in range(n) for v in range(u + 1, n)]
                  for n in range(11)]
    for _ in range(PARITY_TRIALS):
        r = bits(4)
        while r >= 10:
            r = bits(4)
        n = r + 1
        c = bits(2)
        while c >= 3:
            c = bits(2)
        p = probs[c]
        pairs = pair_table[n]
        adj = [0] * n
        for u, v, bit_u, bit_v in compress(pairs, [draw() < p for _ in pairs]):
            adj[u] |= bit_v
            adj[v] |= bit_u
        s_mask = t_mask = 0
        bit = 1
        for _ in range(n):
            side = bits(2)
            while side >= 3:
                side = bits(2)
            if side == 1:
                s_mask |= bit
            elif side == 2:
                t_mask |= bit
            bit <<= 1
        yield n, adj, s_mask, t_mask


def claim_parity_invariance() -> ClaimRow:
    """Deficiency value keeps the parity of a on random (G, S, T) samples;
    each sample's (a,b)-free terms are worked out once for all pairs."""
    for a, b in PARITY_PAIRS:
        _require_even_pair(a, b)
    violations = 0
    for n, adj, s_mask, t_mask in _parity_samples():
        q, e = _deficiency_terms(n, adj, s_mask, t_mask)
        ns, nt = s_mask.bit_count(), t_mask.bit_count()
        for a, b in PARITY_PAIRS:
            if (q - b * ns + a * nt - e) % 2 != a % 2:
                violations += 1
    return ClaimRow(
        "parity-invariance",
        "deficiency parity equals the parity of the degree bounds",
        {"trials": PARITY_TRIALS, "pairs": list(PARITY_PAIRS), "seed": PARITY_SEED,
         "max_n": 10},
        {"violations": violations},
        violations == 0)


def _connectivity_gap(kind: str, connectivity, family, a: int, b: int, t: int,
                      delta: int, s2: int) -> ClaimRow:
    """``family(a, b, t)`` meets every degree condition with minimum degree
    ``delta`` and sigma2 ``s2``, has ``kind`` connectivity a-1, and has no even
    [a,b]-factor."""
    g = family(a, b, t)
    _, min_degree, _ = degree_profile(g)
    kappa = connectivity(g)
    sig = sigma2(g)
    conds = conjecture_conditions(g, a, b)
    factor = find_even_factor(g, a, b)
    observed = {
        "n": g.n, "m": g.m,
        f"{kind}_connectivity": kappa, "min_degree": min_degree, "sigma2": sig,
        "order_threshold": str(order_threshold(a, b)),
        "conditions_hold": conds.overall,
        "factor_present": factor is not None,
    }
    # conds.overall holds the order and degree-sum bounds among the rest.
    passed = (kappa == a - 1 and min_degree == delta and sig == s2
              and conds.overall and factor is None)
    return ClaimRow(
        f"{kind}-connectivity-gap",
        f"family with {kind} connectivity a-1 satisfying every degree condition "
        "yet lacking an even [a,b]-factor",
        {"a": a, "b": b, "t": t}, observed, passed)


def claim_edge_connectivity_gap() -> ClaimRow:
    """The bridged-cliques family: all degree-sum conditions hold, edge
    connectivity is a-1, and no even [a,b]-factor exists."""
    a, b, t = 4, 12, 9
    return _connectivity_gap("edge", edge_connectivity, example1, a, b, t,
                             delta=a, s2=a + t - 1)


def claim_vertex_connectivity_gap() -> ClaimRow:
    """The hub-cliques family: same sharpness story for vertex connectivity."""
    a, b, t = 4, 24, 6
    return _connectivity_gap("vertex", vertex_connectivity, example2, a, b, t,
                             delta=a + 1, s2=2 * (a + 1))


def claim_quadratic_sign_grid() -> ClaimRow:
    """Sign pattern of the case-analysis quadratic, in exact arithmetic."""
    evaluations = 0
    violations = []
    for a in (4, 6):
        for b in range(a, a + 21, 2):
            x_thresh = 2 * a + b + Fraction(a * a - 3 * a, b)
            n_center = math.ceil(x_thresh)
            for p in (1, 2, 3):
                for n in range(n_center - 2, n_center + 6):
                    evaluations += 1
                    if n >= x_thresh - 2:
                        for x in (b + 1, a + b - 3):
                            if prop_f_eval(a, b, n, p, x) >= 0:
                                violations.append((a, b, n, p, x))
                    if n >= x_thresh + 1:
                        for x in (a + b - 1, a + b - 2):
                            if prop_f_eval(a, b, n, p, x) >= 0:
                                violations.append((a, b, n, p, x))
    return ClaimRow(
        "quadratic-sign-grid",
        "the deficiency-bounding quadratic is negative at its four checkpoints "
        "once the order threshold holds",
        {"a": [4, 6], "b": "a..a+20 step 2", "p": [1, 2, 3],
         "n": "ceil(threshold)-2 .. +5"},
        {"evaluations": evaluations, "violations": violations[:10],
         "violation_count": len(violations)},
        not violations)


def _bipartite_grid(min_n_over_2a: bool) -> ClaimRow:
    pairs = [(2, 2), (2, 4), (3, 5), (4, 4)]
    mismatches = []
    boundary = 0
    compared = 0
    grid = [(x, n - x, complete_bipartite(x, n - x))
            for n in range(2, 15) for x in range(1, n // 2 + 1)]
    spectra = lambda1_all(g for _, _, g in grid)
    for (x, y, g), spec in zip(grid, spectra):
        n, lam = x + y, spec.lambda1
        for a, b in pairs:
            if min_n_over_2a and n < 2 * a:
                continue
            closed = observation_decide(x, y, a, b)
            searched = find_ab_factor(g, a, b) is not None
            try:
                thr = bipartite_threshold(a, b, n)
            except ValueError:
                mismatches.append((x, y, a, b, "threshold undefined"))
                continue
            cls = classify_threshold(lam, thr)
            if cls == "boundary":
                boundary += 1
                if closed != searched:
                    mismatches.append((x, y, a, b, "closed vs search at boundary"))
                continue
            compared += 1
            spectral = cls == "above"
            if not (closed == spectral == searched):
                mismatches.append(
                    (x, y, a, b,
                     f"closed={closed} spectral={spectral} searched={searched}"))
    name = ("bipartite-threshold-effective" if min_n_over_2a
            else "bipartite-threshold-grid")
    desc = ("closed form, eigenvalue threshold, and direct search agree on "
            "complete bipartite graphs"
            + (" (restricted to n >= 2a, where a factor can exist at all)"
               if min_n_over_2a else " (full grid x+y <= 14)"))
    return ClaimRow(
        name, desc,
        {"max_n": 14, "pairs": pairs, "guard": THRESHOLD_GUARD,
         "restrict_n_ge_2a": min_n_over_2a},
        {"compared": compared, "boundary": boundary,
         "mismatches": mismatches, "mismatch_count": len(mismatches)},
        not mismatches)


def claim_bipartite_threshold_grid() -> ClaimRow:
    return _bipartite_grid(min_n_over_2a=False)


def claim_bipartite_threshold_effective() -> ClaimRow:
    return _bipartite_grid(min_n_over_2a=True)


def claim_cubic_root_agreement() -> ClaimRow:
    """lambda1 of the clique-plus-attached-vertex family equals the largest
    root of its characteristic cubic."""
    cases = [(n, a) for n in range(5, 21) for a in range(1, n) if (a * n) % 2 == 0]
    spectra = lambda1_all(h_na(n, a) for n, a in cases)
    worst = max(abs(spec.lambda1 - rho(n, a)) for (n, a), spec in zip(cases, spectra))
    return ClaimRow(
        "cubic-root-agreement",
        "largest eigenvalue of the extremal family matches the cubic root",
        {"n": "5..20", "a": "1..n-1 with a*n even", "tolerance": 1e-6},
        {"checked": len(cases), "max_deviation": worst},
        worst <= 1e-6)


def claim_sweep_smoke() -> ClaimRow:
    """Exhaustive eigenvalue sweep at n=5, a=b=2 finds no counterexample."""
    records = conjecture_sweep(5, 2, 2, source="exhaustive")
    summary = sweep_summary(records)
    extremal = h_na(5, 2)
    cls = classify_threshold(lambda1(extremal).lambda1, rho(5, 2))
    observed = {"summary": summary, "extremal_classification": cls}
    return ClaimRow(
        "sweep-smoke",
        "no graph above the eigenvalue threshold lacks a [2,2]-factor; the "
        "extremal graph itself sits exactly on the threshold",
        {"n": 5, "a": 2, "b": 2, "source": "exhaustive"},
        observed,
        summary["absent"] == 0 and cls == "boundary")


CLAIMS = {
    "parity-invariance": claim_parity_invariance,
    "edge-connectivity-gap": claim_edge_connectivity_gap,
    "vertex-connectivity-gap": claim_vertex_connectivity_gap,
    "quadratic-sign-grid": claim_quadratic_sign_grid,
    "bipartite-threshold-grid": claim_bipartite_threshold_grid,
    "bipartite-threshold-effective": claim_bipartite_threshold_effective,
    "cubic-root-agreement": claim_cubic_root_agreement,
    "sweep-smoke": claim_sweep_smoke,
}


def repro_report(claims: list[str] | None = None) -> list[ClaimRow]:
    """Run the requested claims (default all) and return one row each."""
    ids = list(CLAIMS) if claims is None else claims
    unknown = [c for c in ids if c not in CLAIMS]
    if unknown:
        raise ValueError(
            f"unknown claims {unknown}; available: {sorted(CLAIMS)}")
    return [CLAIMS[c]() for c in ids]
