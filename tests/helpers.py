"""Shared test utilities: random graphs and independent oracles.

Everything here is deliberately naive so it cannot share bugs with the
library code it checks.  The oracles use only public ``evenfactor`` names;
:func:`blossom_matching` alone reaches into the library, to run its
matching kernel on plain adjacency lists.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import evenfactor as ef
from evenfactor import search

#: Edge-count cap for the brute-force oracle (2^m worst case).
EXHAUSTIVE_EDGE_CAP = 24


def random_graph(rng: random.Random, n: int, p: float) -> ef.Graph:
    return ef.build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_graph_edge_capped(rng: random.Random, n: int, p: float,
                             cap: int) -> ef.Graph:
    g = random_graph(rng, n, p)
    if g.m <= cap:
        return g
    kept = rng.sample(sorted(g.edges), cap)
    return ef.build_graph(n, kept)


def blossom_matching(n, adj, init=None, optional=()) -> list[int]:
    """The library's matching kernel on adjacency lists ``adj``: a mate array."""
    own = [tuple(nbrs) for nbrs in adj]
    return search._blossom_matching(n, own, [()] * n, [None] * n, init, optional)[0]


def degree_interval_search(g: ef.Graph, a: int, b: int,
                           require_even: bool) -> ef.Factor | None:
    """Backtracking edge-subset search with degree-feasibility pruning.

    Exhaustive: explores exactly the subsets not excluded by the bounds
    a <= d <= b and the parity constraint.  It recurses once per edge, so it
    serves only at small scale.
    """
    degs = g.degrees
    if any(d < a for d in degs):
        return None
    # Column-major order closes each vertex as early as possible, so the
    # degree and parity constraints start pruning high in the tree.
    edges = sorted(g.edges, key=lambda e: (e[1], e[0]))
    m = len(edges)
    remaining = list(degs)
    chosen_deg = [0] * g.n
    chosen: list[tuple[int, int]] = []

    def feasible(v: int) -> bool:
        lo = max(a, chosen_deg[v])
        hi = min(b, chosen_deg[v] + remaining[v])
        if lo > hi:
            return False
        if require_even and lo == hi and lo % 2:
            return False
        return True

    def dfs(i: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        chosen_deg[u] += 1
        chosen_deg[v] += 1
        if feasible(u) and feasible(v):
            chosen.append((u, v))
            if dfs(i + 1):
                return True
            chosen.pop()
        chosen_deg[u] -= 1
        chosen_deg[v] -= 1
        if feasible(u) and feasible(v):
            if dfs(i + 1):
                return True
        remaining[u] += 1
        remaining[v] += 1
        return False

    if dfs(0):
        return ef.Factor.from_edges(g, chosen)
    return None


def brute_force_even_factor(g: ef.Graph, a: int, b: int) -> ef.Factor | None:
    """Ground-truth oracle: exhaustive search for an even [a,b]-factor."""
    if a % 2 or b % 2 or not 2 <= a <= b:
        raise ValueError(f"need even 2 <= a <= b, got a={a}, b={b}")
    if g.m > EXHAUSTIVE_EDGE_CAP:
        raise ef.ScaleError(
            f"brute force supports at most {EXHAUSTIVE_EDGE_CAP} edges, got {g.m}")
    return degree_interval_search(g, a, b, require_even=True)


def lovasz_deficiency(g: ef.Graph, lower, upper, s, t) -> int:
    """General degree-interval deficiency for per-vertex bounds lower <= upper.

    Evaluates

        sum_{v in T} (d(v) - lower(v)) + sum_{u in S} upper(u) - |[S,T]| - q(S,T)

    where q(S,T) counts components Q of G-(S+T) with lower = upper on all of Q
    and |[Q,T]| + sum_{v in Q} upper(v) odd.  Nonnegativity over all disjoint
    (S, T) characterizes the existence of a spanning subgraph with
    lower(v) <= d_H(v) <= upper(v) everywhere (Lovász 1970).
    """
    if len(lower) != g.n or len(upper) != g.n:
        raise ValueError(f"bound vectors must have length n={g.n}")
    bad = [v for v in range(g.n)
           if not (0 <= lower[v] <= upper[v] <= g.degrees[v])]
    if bad:
        detail = ", ".join(
            f"v={v}: lower={lower[v]}, upper={upper[v]}, degree={g.degrees[v]}"
            for v in bad)
        raise ValueError(f"need 0 <= lower <= upper <= degree per vertex; violated at {detail}")
    ss, tt = set(s), set(t)
    if ss & tt:
        raise ValueError(f"S and T overlap on {sorted(ss & tt)}")
    adj = g.adjacency
    q = sum(1 for comp in ef.components_after_deletion(g, ss | tt)
            if all(lower[v] == upper[v] for v in comp)
            and sum(len(adj[v] & tt) + upper[v] for v in comp) % 2)
    return (sum(g.degrees[v] - lower[v] for v in tt)
            + sum(upper[u] for u in ss)
            - sum(len(adj[u] & tt) for u in ss)
            - q)


def explicit_gadget(looped: tuple[ef.Graph, int], b: int,
                    a: int | None = None) -> SimpleNamespace:
    """Reference port/core gadget, built edge by edge.

    The same gadget as ``ef.tutte_gadget`` with every join written out as an
    edge tuple: real edge i is (2i, 2i+1), then per vertex its hard cores,
    soft singles and soft pairs, each joined to every port of the vertex.  A
    vertex below its least degree (b - 2k, or a when given) keeps all its
    ports for real edges and gets one deficit node per missing degree, after
    its other nodes: a node with no edges, listed in no block.  Returns
    ``n_nodes``, ``edges``, ``decode``, ``ports``, ``cores`` and ``singles``
    with the library's numbering and order.
    """
    g, k = looped
    ports = [[] for _ in range(g.n)]
    cores = [[] for _ in range(g.n)]
    singles = [[] for _ in range(g.n)]
    edges = []
    decode = {}
    counter = 0
    for (u, v) in g.sorted_edges():
        ports[u].append(counter)
        ports[v].append(counter + 1)
        edges.append((counter, counter + 1))
        decode[(counter, counter + 1)] = ("edge", (u, v))
        counter += 2
    least = b - 2 * k if a is None else a
    for v in range(g.n):
        d = len(ports[v])
        top = min(b, d)
        if a is None:
            top -= (b - top) % 2
        if d < least:
            top = d
        for _ in range(d - top):
            cores[v].append(counter)
            edges.extend((p, counter) for p in ports[v])
            counter += 1
        for _ in range(0 if a is None else top - a):
            singles[v].append(counter)
            edges.extend((p, counter) for p in ports[v])
            counter += 1
        for _ in range(k - (b - top) // 2):
            pair = (counter, counter + 1)
            edges.append(pair)
            decode[pair] = ("unused_loop", v)
            edges.extend((p, s) for s in pair for p in ports[v])
            counter += 2
        counter += max(0, least - d)  # deficit nodes: no edges, in no block
    return SimpleNamespace(
        n_nodes=counter, edges=tuple(edges), decode=decode,
        ports=tuple(tuple(p) for p in ports),
        cores=tuple(tuple(c) for c in cores),
        singles=tuple(tuple(s) for s in singles))


def gadget_adjacency(n: int, edges) -> list[list[int]]:
    """Adjacency lists of an explicit edge list, one append per edge end."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def lambda1_per_component(g: ef.Graph) -> tuple[float, float]:
    """(λ1, residual) with one ``numpy.linalg.eigh`` per component.

    Components are found by a depth-first search over ``g.edges``, taken in
    order of least vertex, and each matrix has its rows in sorted vertex
    order; the residual ||Av - λv||_inf is that of the first component to
    attain λ1.  This is the eigensolve as it was before ``lambda1`` batched
    its matrices, so the batched engine must equal it bit for bit.
    """
    import numpy as np

    if g.n < 1:
        raise ValueError("eigenvalue undefined for the empty graph")
    adj = gadget_adjacency(g.n, g.edges)
    seen = [False] * g.n
    best, best_residual = 0.0, 0.0
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if len(comp) == 1:
            continue
        comp.sort()
        index = {v: i for i, v in enumerate(comp)}
        mat = np.zeros((len(comp), len(comp)))
        for v in comp:
            for w in adj[v]:
                mat[index[v], index[w]] = 1.0
        values, vectors = np.linalg.eigh(mat)
        lam, vec = float(values[-1]), vectors[:, -1]
        if lam > best:
            best = lam
            best_residual = float(np.max(np.abs(mat @ vec - lam * vec)))
    return best, best_residual


def exhaustive_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching cardinality by memoized recursion over free-vertex sets."""
    adjmask = [0] * n
    for u, v in edges:
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u
    memo: dict[int, int] = {}

    def best(free: int) -> int:
        if not free:
            return 0
        cached = memo.get(free)
        if cached is not None:
            return cached
        low = free & -free
        v = low.bit_length() - 1
        rest = free & ~low
        res = best(rest)  # leave v unmatched
        nbrs = adjmask[v] & rest
        while nbrs:
            w = nbrs & -nbrs
            res = max(res, 1 + best(rest & ~w))
            nbrs ^= w
        memo[free] = res
        return res

    return best((1 << n) - 1)


def brute_max_deficiency(g: ef.Graph, a: int, b: int):
    """Independent maximizer over all 3^n disjoint (S, T) assignments.

    Returns (value, S, T) with the same tie-break the library promises:
    lexicographically smallest (|S|, |T|, S, T) among maximizers.
    """
    best = None
    for assign in itertools.product(range(3), repeat=g.n):
        s = tuple(v for v in range(g.n) if assign[v] == 1)
        t = tuple(v for v in range(g.n) if assign[v] == 2)
        val = ef.even_factor_deficiency(g, a, b, s, t)
        key = (-val, len(s), len(t), s, t)
        if best is None or key < best:
            best = key
    return -best[0], best[3], best[4]


def encode_factor_as_perfect_matching(g: ef.Graph, a: int, b: int,
                                      factor: ef.Factor) -> set[tuple[int, int]]:
    """Build the gadget matching that an even [a,b]-factor induces.

    Chosen host edges match their twin gadget edge.  At each vertex v, with
    top the largest value of b's parity at most min(b, d(v)), the factor
    uses (top - d_F(v))/2 of the loops that are not forced: that many soft
    pairs take two free ports each, the other soft pairs (loops left unused)
    match to each other, and the leftover ports pair off with the hard
    cores.  The result must be a perfect matching of the instance.
    """
    inst = ef.tutte_gadget(ef.loop_augment(g, a, b), b)
    twin = {}
    soft_pairs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for e, info in inst.decode.items():
        if info[0] == "edge":
            twin[info[1]] = e
        else:
            assert info[0] == "unused_loop"
            soft_pairs[info[1]].append(e)
    matched: set[tuple[int, int]] = set()
    used: set[int] = set()

    def take(u: int, v: int) -> None:
        assert u not in used and v not in used
        matched.add((min(u, v), max(u, v)))
        used.update((u, v))

    for host_edge in sorted(factor.edges):
        take(*twin[host_edge])
    for v in range(g.n):
        top = max(x for x in range(min(b, g.degrees[v]) + 1) if x % 2 == b % 2)
        on_ports = (top - factor.degrees[v]) // 2
        free_ports = [p for p in inst.ports[v] if p not in used]
        for x, y in sorted(soft_pairs[v])[:on_ports]:
            take(x, free_ports.pop())
            take(y, free_ports.pop())
        for x, y in sorted(soft_pairs[v])[on_ports:]:
            take(x, y)
        assert len(free_ports) == len(inst.cores[v])
        for p, c in zip(free_ports, inst.cores[v]):
            take(p, c)

    edge_set = set(explicit_gadget(ef.loop_augment(g, a, b), b).edges)
    assert matched <= edge_set
    assert len(used) == inst.n_nodes
    return matched
