"""Deterministic generators for the named extremal graph families.

Every generator freezes its vertex id layout so tests can address the special
vertices without search.  A non-integer parameter raises ValueError naming
it; otherwise validation reports all violated parameter constraints, not
just the first.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graph import Graph, _require_ints, build_graph


def _reject(problems: list[str], family: str) -> None:
    if problems:
        raise ValueError(f"{family}: " + "; ".join(problems))


def complete_graph(n: int) -> Graph:
    _require_ints(n=n)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    _require_ints(n=n)
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    _require_ints(n=n)
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(x: int, y: int) -> Graph:
    """K_{x,y} with parts {0..x-1} and {x..x+y-1}."""
    _require_ints(x=x, y=y)
    problems = []
    if x < 1:
        problems.append(f"first part size must be >= 1, got {x}")
    if y < 1:
        problems.append(f"second part size must be >= 1, got {y}")
    _reject(problems, "complete_bipartite")
    return build_graph(x + y, [(u, x + v) for u in range(x) for v in range(y)])


def example1(a: int, b: int, t: int) -> Graph:
    """Two t-cliques bridged by an adjacent pair, with edge connectivity a-1.

    Layout: first clique = 0..t-1, second clique = t..2t-1, y = 2t, z = 2t+1.
    y is adjacent to the first a/2-1 vertices of the first clique and to
    vertices a/2..a-1 (0-based: a/2-1..a-2) of the second; z symmetrically.

    Constraints: a, b even with 12 <= 3a <= b, and
    t >= ((a+b)^2 - 3a - 4b) / (2b).
    """
    _require_ints(a=a, b=b, t=t)
    problems = []
    if a % 2 or b % 2:
        problems.append(f"a and b must be even, got a={a}, b={b}")
    if 3 * a < 12:
        problems.append(f"need 3a >= 12, got 3a={3 * a}")
    if b < 3 * a:
        problems.append(f"need b >= 3a, got b={b} < {3 * a}")
    if b > 0:
        t_min = Fraction((a + b) ** 2 - 3 * a - 4 * b, 2 * b)
        if t < t_min:
            problems.append(
                f"need t >= ((a+b)^2-3a-4b)/(2b) = {t_min} "
                f"(so t >= {math.ceil(t_min)}), got t={t}")
    _reject(problems, "example1")

    h1 = list(range(t))
    h2 = list(range(t, 2 * t))
    y, z = 2 * t, 2 * t + 1
    edges = [(u, v) for grp in (h1, h2)
             for i, u in enumerate(grp) for v in grp[i + 1:]]
    edges.append((y, z))
    half = a // 2
    # y: first half-1 vertices of clique 1, vertices half..a-1 of clique 2.
    edges.extend((y, h1[j]) for j in range(half - 1))
    edges.extend((y, h2[j]) for j in range(half - 1, a - 1))
    # z: mirrored.
    edges.extend((z, h2[j]) for j in range(half - 1))
    edges.extend((z, h1[j]) for j in range(half - 1, a - 1))
    return build_graph(2 * t + 2, edges)


def example2(a: int, b: int, t: int) -> Graph:
    """An independent hub set meeting a+1 cliques, with vertex connectivity a-1.

    Layout: hubs y_1..y_{a-1} = 0..a-2; for 1 <= i <= a, clique i on a+2
    vertices starting at (a-1) + (i-1)(a+2); the final clique on t vertices
    starts at (a-1) + a(a+2).  Hub y_j is adjacent to the j-th vertex of every
    clique.

    Constraints: a, b even, at least 4; 2b - a^2 + 3a must dominate
    a*sqrt((a-3)(a+1)) (checked in integers); t >= a+2 (otherwise the final
    clique drops the minimum degree below a+1); and t must lie in
    [-a^2-a+b+(a^2-3a)/b-1, -a^2-2a+b+b/a+2].
    """
    _require_ints(a=a, b=b, t=t)
    problems = []
    if a % 2 or b % 2:
        problems.append(f"a and b must be even, got a={a}, b={b}")
    if a < 4 or b < 4:
        problems.append(f"a and b must be at least 4, got a={a}, b={b}")
    if a >= 4:
        lhs = 2 * b - a * a + 3 * a
        rhs_sq = a * a * (a - 3) * (a + 1)
        if lhs < 0 or lhs * lhs < rhs_sq:
            problems.append(
                f"need b >= (a^2-3a+a*sqrt((a-3)(a+1)))/2 "
                f"~= {(a * a - 3 * a + math.sqrt(rhs_sq)) / 2:.3f}, got b={b}")
    if b > 0 and a > 0:
        t_lo = -a * a - a + b + Fraction(a * a - 3 * a, b) - 1
        t_hi = -a * a - 2 * a + b + Fraction(b, a) + 2
        if t < t_lo:
            problems.append(f"need t >= {t_lo} (interval lower end), got t={t}")
        if t > t_hi:
            problems.append(f"need t <= {t_hi} (interval upper end), got t={t}")
        if t < a + 2:
            problems.append(f"need t >= a+2 = {a + 2} to keep minimum degree a+1, got t={t}")
        if max(t_lo, a + 2) > t_hi:
            problems.append(
                f"no valid t exists for (a={a}, b={b}): "
                f"feasible interval [{max(t_lo, a + 2)}, {t_hi}] is empty")
    _reject(problems, "example2")

    hubs = list(range(a - 1))
    cliques: list[list[int]] = []
    start = a - 1
    for _ in range(a):
        cliques.append(list(range(start, start + a + 2)))
        start += a + 2
    cliques.append(list(range(start, start + t)))
    start += t

    edges = [(u, v) for grp in cliques
             for i, u in enumerate(grp) for v in grp[i + 1:]]
    for grp in cliques:
        for j, hub in enumerate(hubs):
            edges.append((hub, grp[j]))
    return build_graph(start, edges)


def h_na(n: int, a: int) -> Graph:
    """One vertex joined by a-1 edges to a clique on the other n-1 vertices.

    Vertex 0 is the low-degree vertex, adjacent to vertices 1..a-1; vertices
    1..n-1 form a complete graph.  Degree multiset: one vertex of degree a-1,
    a-1 vertices of degree n-1, n-a vertices of degree n-2.
    """
    _require_ints(n=n, a=a)
    problems = []
    if a < 1:
        problems.append(f"need a >= 1, got a={a}")
    if n <= a:
        problems.append(f"need n >= a+1, got n={n}, a={a}")
    _reject(problems, "h_na")
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges.extend((0, v) for v in range(1, a))
    return build_graph(n, edges)
