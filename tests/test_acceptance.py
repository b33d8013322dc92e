"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 6 checks the bipartite eigenvalue-threshold equivalence
over the full x+y <= 14 grid; the threshold formula is only a faithful
existence test when n >= 2a, so the test pins the exact set of degenerate
n < 2a tuples on which it disagrees, derived in integer arithmetic.
"""

import itertools
import math
import random
from fractions import Fraction

import evenfactor as ef
from evenfactor import claims, spectral
from criterion_oracle import enumerate_criterion
from helpers import brute_force_even_factor


def _report(number: int, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} acceptance criterion {number}: {detail}")
    return passed


def test_criterion_1_oracle_equivalence_exhaustive():
    """All graphs on <= 6 vertices: pipeline == brute force, and the
    deficiency criterion, by exhaustive enumeration, implies a factor."""
    pairs6 = list(itertools.combinations(range(6), 2))
    bad = []
    holds_cases = 0
    for mask in range(1 << 15):
        edges = [pairs6[i] for i in range(15) if (mask >> i) & 1]
        g = ef.build_graph(6, edges)
        for a, b in [(2, 2), (2, 4), (4, 4)]:
            got = ef.find_even_factor(g, a, b)
            expected = brute_force_even_factor(g, a, b)
            if (got is None) != (expected is None):
                bad.append(("oracle", mask, a, b))
                continue
            if got is not None and not ef.verify_factor(g, got, a, b, True):
                bad.append(("verify", mask, a, b))
            holds, _ = enumerate_criterion(g, a, b)
            if holds:
                holds_cases += 1
                if got is None:
                    bad.append(("sufficiency", mask, a, b))
    ok = _report(1, not bad,
                 f"98304 equivalence checks, {holds_cases} criterion-holds cases"
                 + (f", violations: {bad[:5]}" if bad else ""))
    assert ok


def test_criterion_2_parity_lemma():
    """Deficiency keeps the parity of the degree bounds on 10^4 samples."""
    rng = random.Random(424242)
    pairs = [(2, 2), (2, 4), (4, 4), (4, 6)]
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 10)
        p = rng.choice([0.2, 0.5, 0.8])
        g = ef.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
        side = [rng.randrange(3) for _ in range(n)]
        s = tuple(v for v in range(n) if side[v] == 1)
        t = tuple(v for v in range(n) if side[v] == 2)
        for a, b in pairs:
            if ef.even_factor_deficiency(g, a, b, s, t) % 2 != a % 2:
                violations += 1
    ok = _report(2, violations == 0,
                 f"10^4 random (G,S,T) samples x {len(pairs)} bound pairs, "
                 f"{violations} parity violations")
    assert ok


def test_criterion_3_edge_connectivity_counterexample():
    """Bridged-cliques family at (4,12,9): all stated statistics, no factor."""
    a, b, t = 4, 12, 9
    g = ef.example1(a, b, t)
    checks = {
        "edge_connectivity=3": ef.edge_connectivity(g) == 3,
        "min_degree=4": ef.degree_profile(g)[1] == 4,
        "sigma2=12>=10": ef.sigma2(g) == 12
                         and Fraction(12) >= Fraction(2 * a * g.n, a + b) == 10,
        "n=20>=55/3": g.n == 20 and Fraction(g.n) >= ef.order_threshold(a, b)
                      and ef.order_threshold(a, b) == Fraction(55, 3),
        "factor_absent": ef.find_even_factor(g, a, b) is None,
    }
    ok = _report(3, all(checks.values()),
                 ", ".join(k for k in checks) if all(checks.values())
                 else f"failed: {[k for k, v in checks.items() if not v]}")
    assert ok


def test_criterion_4_vertex_connectivity_counterexample():
    """Hub-cliques family at (4,24,6): all stated statistics, no factor."""
    a, b, t = 4, 24, 6
    g = ef.example2(a, b, t)
    checks = {
        "vertex_connectivity=3": ef.vertex_connectivity(g) == 3,
        "min_degree=5": ef.degree_profile(g)[1] == 5,
        "sigma2=10>=66/7": ef.sigma2(g) == 10
                           and Fraction(10) >= Fraction(2 * a * g.n, a + b)
                           and Fraction(2 * a * g.n, a + b) == Fraction(66, 7),
        "n=33>=181/6": g.n == 33 and Fraction(g.n) >= ef.order_threshold(a, b)
                       and ef.order_threshold(a, b) == Fraction(181, 6),
        "factor_absent": ef.find_even_factor(g, a, b) is None,
    }
    ok = _report(4, all(checks.values()),
                 ", ".join(k for k in checks) if all(checks.values())
                 else f"failed: {[k for k, v in checks.items() if not v]}")
    assert ok


def test_criterion_5_quadratic_sign_grid():
    """Sign pattern of the bounding quadratic over the full parameter grid,
    in exact rational arithmetic."""
    violations = []
    evaluations = 0
    for a in (4, 6):
        for b in range(a, a + 21, 2):
            threshold = 2 * a + b + Fraction(a * a - 3 * a, b)
            center = math.ceil(threshold)
            for p in (1, 2, 3):
                for n in range(center - 2, center + 6):
                    if n >= threshold - 2:
                        for x in (b + 1, a + b - 3):
                            evaluations += 1
                            if ef.prop_f_eval(a, b, n, p, x) >= 0:
                                violations.append((a, b, n, p, x))
                    if n >= threshold + 1:
                        for x in (a + b - 1, a + b - 2):
                            evaluations += 1
                            if ef.prop_f_eval(a, b, n, p, x) >= 0:
                                violations.append((a, b, n, p, x))
    ok = _report(5, not violations,
                 f"{evaluations} exact sign checks"
                 + (f", violations: {violations[:5]}" if violations else ""))
    assert ok


def test_criterion_6_bipartite_threshold_equivalence_full_grid():
    """Closed form <=> eigenvalue threshold <=> direct search on every
    K_{x,y} with x+y <= 14, with the n < 2a disagreements pinned exactly.

    Closed form and direct search agree on every tuple.  Below n = 2a no
    bipartition can reach minimum degree a, so both say "absent", yet the
    threshold formula stays finite (or leaves the reals once n < a).  The
    threshold route agrees on every non-boundary tuple with n >= 2a, and its
    disagreements are exactly the set derived in integer arithmetic: there
    n < a+b, so the threshold is sqrt(a(n-a)) and lambda1 = sqrt(xy), giving
    'threshold-undefined' when n < a and 'spectral-vs-closed' when
    xy > a(n-a).  The bipartite-threshold-grid claim reports the same
    tuples, and the boundary ties are exactly the tuples with xy equal to the
    squared threshold.
    """
    mismatches = set()
    derived = set()
    present_below_2a = []
    tuples = 0
    boundary = 0
    exact_ties = 0
    for n in range(2, 15):
        for x in range(1, n // 2 + 1):
            y = n - x
            g = ef.complete_bipartite(x, y)
            lam = ef.lambda1(g).lambda1
            for a, b in [(2, 2), (2, 4), (3, 5), (4, 4)]:
                tuples += 1
                if n < a:
                    derived.add((x, y, a, b, "threshold-undefined"))
                elif n < 2 * a and x * y > a * (n - a):
                    derived.add((x, y, a, b, "spectral-vs-closed"))
                if n >= a:
                    threshold_sq = (Fraction(a * b * n * n, (a + b) ** 2)
                                    if n >= a + b else Fraction(a * (n - a)))
                    if x * y == threshold_sq:
                        exact_ties += 1
                closed = ef.observation_decide(x, y, a, b)
                searched = ef.find_ab_factor(g, a, b) is not None
                if n < 2 * a and (closed or searched):
                    present_below_2a.append((x, y, a, b))
                if closed != searched:
                    mismatches.add((x, y, a, b, "closed-vs-search"))
                    continue
                try:
                    thr = ef.bipartite_threshold(a, b, n)
                except ValueError:
                    mismatches.add((x, y, a, b, "threshold-undefined"))
                    continue
                cls = ef.classify_threshold(lam, thr)
                if cls == "boundary":
                    boundary += 1
                    continue
                if (cls == "above") != closed:
                    mismatches.add((x, y, a, b, "spectral-vs-closed"))
    row = claims.repro_report(["bipartite-threshold-grid"])[0]
    grid = row.observed
    claimed = [m[:4] for m in grid["mismatches"]]
    checks = {
        "closed==search": all(m[4] != "closed-vs-search" for m in mismatches),
        "absent below n=2a": not present_below_2a,
        "threshold agrees for n>=2a": all(m[0] + m[1] < 2 * m[2]
                                          for m in mismatches),
        "disagreements==derived": mismatches == derived,
        "claim==derived": (len(claimed) == grid["mismatch_count"] == len(derived)
                           and set(claimed) == {d[:4] for d in derived}),
        "boundary==exact ties": boundary == exact_ties,
        "claim guard==classifier's": row.params["guard"] == spectral.THRESHOLD_GUARD,
    }
    failed = [k for k, v in checks.items() if not v]
    ok = _report(6, not failed,
                 f"{tuples} tuples, {boundary} boundary ties "
                 f"({exact_ties} exact), {len(derived)} derived n < 2a "
                 f"disagreements pinned"
                 + (f"; failed: {failed}" if failed else ""))
    assert ok, (
        f"failed {failed}: unexpected {sorted(mismatches - derived)}, "
        f"missing {sorted(derived - mismatches)}, present below n=2a "
        f"{present_below_2a}, claim reports {claimed}")


def test_criterion_7_cubic_consistency():
    """lambda1 of the extremal family matches the cubic root to 1e-6."""
    worst = 0.0
    checked = 0
    for n in range(5, 21):
        for a in range(1, n):
            if (a * n) % 2:
                continue
            checked += 1
            worst = max(worst, abs(ef.lambda1(ef.h_na(n, a)).lambda1
                                   - ef.rho(n, a)))
    ok = _report(7, worst <= 1e-6,
                 f"{checked} (n,a) pairs, max |lambda1 - rho| = {worst:.2e}")
    assert ok


def test_criterion_8_conjecture_sweep_smoke():
    """Exhaustive n=5, a=b=2 sweep: no counterexample candidates; the
    extremal graph is excluded by the strict inequality."""
    records = ef.conjecture_sweep(5, 2, 2, source="exhaustive")
    summary = ef.sweep_summary(records)
    extremal_cls = ef.classify_threshold(
        ef.lambda1(ef.h_na(5, 2)).lambda1, ef.rho(5, 2))
    passed = (summary["absent"] == 0 and summary["budget_exhausted"] == 0
              and extremal_cls == "boundary")
    ok = _report(8, passed,
                 f"summary={summary}, extremal graph classified {extremal_cls}")
    assert ok


def test_criterion_9_main_theorem_smoke():
    """200 random graphs satisfying the three hypotheses all have factors."""
    rng = random.Random(777)
    failures = []
    total = 0
    for a, b, p in [(4, 4, 0.75), (4, 6, 0.6)]:
        accepted = 0
        while accepted < 100:
            n = rng.randint(14, 18)
            g = ef.build_graph(n, [(u, v) for u in range(n)
                                   for v in range(u + 1, n)
                                   if rng.random() < p])
            if not ef.main_theorem_conditions(g, a, b).overall:
                continue
            accepted += 1
            total += 1
            factor = ef.find_even_factor(g, a, b)
            if factor is None or not ef.verify_factor(g, factor, a, b, True):
                failures.append((a, b, sorted(g.edges)))
    ok = _report(9, not failures,
                 f"{total} hypothesis-satisfying graphs, "
                 f"{len(failures)} missing factors")
    assert ok
