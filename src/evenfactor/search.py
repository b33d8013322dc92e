"""Exact construction of even [a,b]-factors and of parity-free [a,b]-factors.

Both questions reduce to a b-factor of a multigraph, decided by perfect
matching.  For an even [a,b]-factor, add (b-a)/2 loops at every vertex.  For
an [a,b]-factor of any parity, take the graph, a twin copy of it and b-a
parallel edges between every vertex and its twin.  Every multigraph is then
expanded into the classical port/core gadget whose perfect matchings
correspond to b-factors (Tutte 1952, "The factors of graphs").
The matching starts with every core matched to a port of its own vertex, and
each augmenting-path search then works only on the vertices it labels, so
its cost follows the search tree rather than the size of the gadget.
A brute-force edge-subset search provides the independent ground truth at
small scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ScaleError
from .graph import Edge, Graph, MultiGraph
from .criteria import _require_even_pair

#: Edge-count cap for the brute-force oracle (2^m worst case).
EXHAUSTIVE_EDGE_CAP = 24


@dataclass(frozen=True)
class Factor:
    """A chosen edge subset of a host graph plus its induced degree vector."""

    host: Graph
    edges: frozenset[Edge]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, host: Graph, edges: Iterable[Edge]) -> "Factor":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        degs = [0] * host.n
        for u, v in canon:
            degs[u] += 1
            degs[v] += 1
        return cls(host, canon, tuple(degs))

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in sorted(self.edges)],
                "degrees": list(self.degrees)}


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Gadget graph whose perfect matchings encode b-factors of a multigraph.

    ``ports[v]`` lists the gadget nodes standing for edge endpoints at v (two
    per loop), ``cores[v]`` the d'(v)-b filler nodes completely joined to
    them.  ``decode`` maps the gadget edges that stand for host edges or
    loops; gadget edges absent from it are internal core joins.
    """

    n_nodes: int
    edges: tuple[Edge, ...]
    decode: dict[Edge, tuple]
    ports: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]


def verify_factor(g: Graph, factor: Factor, a: int, b: int,
                  require_even: bool) -> bool:
    """True iff every vertex degree of the factor lies in [a, b] (and is even
    when requested).  Edges outside the host graph raise ValueError."""
    foreign = factor.edges - g.edges
    if foreign:
        raise ValueError(f"factor contains non-host edges {sorted(foreign)}")
    degs = [0] * g.n
    for u, v in factor.edges:
        degs[u] += 1
        degs[v] += 1
    for d in degs:
        if not (a <= d <= b):
            return False
        if require_even and d % 2:
            return False
    return True


def _degree_interval_search(g: Graph, a: int, b: int,
                            require_even: bool) -> Factor | None:
    """Backtracking edge-subset search with degree-feasibility pruning.

    Exhaustive: explores exactly the subsets not excluded by the bounds
    a <= d <= b and the parity constraint.  It recurses once per edge, so it
    serves only as the small-scale oracle behind :func:`brute_force_even_factor`
    and the tests.
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
    chosen: list[Edge] = []

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
        return Factor.from_edges(g, chosen)
    return None


def brute_force_even_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Ground-truth oracle: exhaustive search for an even [a,b]-factor."""
    _require_even_pair(a, b)
    if g.m > EXHAUSTIVE_EDGE_CAP:
        raise ScaleError(
            f"brute force supports at most {EXHAUSTIVE_EDGE_CAP} edges, got {g.m}")
    return _degree_interval_search(g, a, b, require_even=True)


def loop_augment(g: Graph, a: int, b: int) -> MultiGraph:
    """Add (b-a)/2 loops at every vertex, lifting degrees by b-a."""
    _require_even_pair(a, b)
    k = (b - a) // 2
    loops = {v: k for v in range(g.n)} if k else {}
    return MultiGraph(g.n, {e: 1 for e in g.sorted_edges()}, loops)


def tutte_gadget(mg: MultiGraph, b: int) -> MatchingInstance:
    """Expand a multigraph into the port/core gadget for target degree b.

    Every vertex v with degree d'(v) gets one port per incident edge endpoint
    (two per loop) and d'(v)-b core nodes joined to all of its ports; every
    edge or loop gets one gadget edge between its own ports.  Perfect
    matchings correspond exactly to spanning subgraphs with all degrees b.
    Vertices with d'(v) < b cannot reach degree b: fail fast, naming one.
    """
    degs = mg.degrees
    for v in range(mg.n):
        if degs[v] < b:
            raise ValueError(
                f"vertex {v} has augmented degree {degs[v]} < b={b}; no b-factor exists")
    ports: list[list[int]] = [[] for _ in range(mg.n)]
    cores: list[list[int]] = [[] for _ in range(mg.n)]
    gadget_edges: list[Edge] = []
    decode: dict[Edge, tuple] = {}
    counter = 0

    def new_node() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    for (u, v) in sorted(mg.edge_mult):
        for _ in range(mg.edge_mult[(u, v)]):
            pu, pv = new_node(), new_node()
            ports[u].append(pu)
            ports[v].append(pv)
            e = (min(pu, pv), max(pu, pv))
            gadget_edges.append(e)
            decode[e] = ("edge", (u, v))
    for v in range(mg.n):
        for _ in range(mg.loops.get(v, 0)):
            p1, p2 = new_node(), new_node()
            ports[v].extend((p1, p2))
            e = (min(p1, p2), max(p1, p2))
            gadget_edges.append(e)
            decode[e] = ("loop", v)
    for v in range(mg.n):
        for _ in range(degs[v] - b):
            c = new_node()
            cores[v].append(c)
            for p in ports[v]:
                gadget_edges.append((min(c, p), max(c, p)))

    return MatchingInstance(
        n_nodes=counter,
        edges=tuple(gadget_edges),
        decode=decode,
        ports=tuple(tuple(p) for p in ports),
        cores=tuple(tuple(c) for c in cores),
    )


def maximum_cardinality_matching(n: int, adj: Sequence[Sequence[int]],
                                 init: Sequence[int] | None = None) -> list[int]:
    """Maximum matching in a general graph by augmenting paths with blossom
    contraction.  Returns the mate array (mate[v] = -1 for exposed v).

    ``init`` is an optional starting matching as a mate array; it must be
    symmetric and use only edges of ``adj`` (ValueError otherwise).  A
    vertex-order greedy extends it, then one alternating-tree search runs
    from every vertex still exposed.  Each search records the vertices it
    labels and does its work on that list only: blossom relabelling walks it,
    and afterwards only those vertices have ``parent``, ``base`` and
    ``in_queue`` reset.  The lowest-common-ancestor and blossom marks are
    integer stamps in arrays allocated once per call, so a search costs time
    in proportion to its tree, not to n (Gabow 1976).
    """
    if init is None:
        mate = [-1] * n
    else:
        mate = list(init)
        if len(mate) != n:
            raise ValueError(f"init has {len(mate)} entries, expected {n}")
        for v, u in enumerate(mate):
            if u >= 0 and (u >= n or mate[u] != v or u not in adj[v]):
                raise ValueError(f"init pairs {v} with {u}, not a matching edge")
    for v in range(n):
        if mate[v] < 0:
            for u in adj[v]:
                if mate[u] < 0:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    lca_mark = [0] * n
    blossom_mark = [0] * n
    stamp = 0

    def find_lca(x: int, y: int) -> int:
        while True:
            x = base[x]
            lca_mark[x] = stamp
            if mate[x] < 0:
                break
            x = parent[mate[x]]
        while True:
            y = base[y]
            if lca_mark[y] == stamp:
                return y
            y = parent[mate[y]]

    def mark_blossom(v: int, lca_base: int, child: int) -> None:
        while base[v] != lca_base:
            blossom_mark[base[v]] = stamp
            blossom_mark[base[mate[v]]] = stamp
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def try_augment(root: int, touched: list[int]) -> bool:
        nonlocal stamp
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                    # Even vertex reached: contract the blossom.  Only
                    # labelled vertices can have a base inside it.
                    stamp += 1
                    lca_base = find_lca(v, to)
                    mark_blossom(v, lca_base, to)
                    mark_blossom(to, lca_base, v)
                    for i in touched:
                        if blossom_mark[base[i]] == stamp:
                            base[i] = lca_base
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] < 0:
                    parent[to] = v
                    touched.append(to)
                    if mate[to] < 0:
                        # Augment: flip matched/unmatched along the path.
                        u = to
                        while u >= 0:
                            pv = parent[u]
                            ppv = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = ppv
                        return True
                    touched.append(mate[to])
                    in_queue[mate[to]] = True
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] < 0:
            touched = [v]
            try_augment(v, touched)
            for i in touched:
                parent[i] = -1
                base[i] = i
                in_queue[i] = False
    return mate


def max_matching(instance: MatchingInstance) -> set[Edge]:
    """Maximum-cardinality matching of a gadget instance as an edge set.

    The search starts from the core-first matching: the i-th core of every
    vertex is matched to that vertex's i-th port.  Cores are joined only to
    ports, and a vertex has d'(v)-b cores against d'(v) ports, so this is
    always a matching, and it covers every core before the greedy and the
    augmenting-path searches finish the job.
    """
    adj: list[list[int]] = [[] for _ in range(instance.n_nodes)]
    for u, v in instance.edges:
        adj[u].append(v)
        adj[v].append(u)
    init = [-1] * instance.n_nodes
    for ports, cores in zip(instance.ports, instance.cores):
        for c, p in zip(cores, ports):
            init[c] = p
            init[p] = c
    mate = maximum_cardinality_matching(instance.n_nodes, adj, init)
    return {(v, mate[v]) for v in range(instance.n_nodes) if 0 <= v < mate[v]}


def is_perfect(instance: MatchingInstance, matching: set[Edge]) -> bool:
    return 2 * len(matching) == instance.n_nodes


def _factor_from_b_factor(g: Graph, mg: MultiGraph, a: int, b: int,
                          require_even: bool) -> Factor | None:
    """Decide a b-factor of ``mg`` by perfect matching on its gadget.

    ``mg`` carries g's edges under their own names.  The b-factor's edges
    that are edges of g form the returned factor, which is re-verified
    against [a, b] (and parity when requested).
    """
    instance = tutte_gadget(mg, b)
    matching = max_matching(instance)
    if not is_perfect(instance, matching):
        return None
    chosen = [info[1] for e in matching
              for info in (instance.decode.get(e),)
              if info is not None and info[0] == "edge" and info[1] in g.edges]
    factor = Factor.from_edges(g, chosen)
    if not verify_factor(g, factor, a, b, require_even):
        raise RuntimeError("internal error: decoded factor failed verification")
    return factor


def find_even_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Decide and construct an even [a,b]-factor; absence is exact.

    Pipeline: loop augmentation, gadget expansion, maximum matching, decode.
    Any returned factor is re-verified.  Vertices of degree below a make the
    answer absent immediately.
    """
    _require_even_pair(a, b)
    if any(d < a for d in g.degrees):
        return None
    return _factor_from_b_factor(g, loop_augment(g, a, b), a, b, require_even=True)


def find_ab_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Decide and construct an [a,b]-factor of any parity; absence is exact.

    G has an [a,b]-factor iff the doubled multigraph has a b-factor: G on
    vertices 0..n-1, a twin copy G' on n..2n-1, and b-a parallel edges
    between every v and its twin v+n.  A factor F of G copied into both
    halves, plus b - d_F(v) <= b-a twin edges at each v, is a b-factor;
    conversely at most b-a twin edges meet v, so the first copy's degrees lie
    in [a, b].  Vertices of degree below a make the answer absent at once,
    which keeps every doubled degree at least b as the gadget requires.
    """
    if not (0 <= a <= b):
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if any(d < a for d in g.degrees):
        return None
    n = g.n
    mult = {}
    for u, v in g.sorted_edges():
        mult[(u, v)] = 1
        mult[(u + n, v + n)] = 1
    if b > a:
        for v in range(n):
            mult[(v, v + n)] = b - a
    return _factor_from_b_factor(g, MultiGraph(2 * n, mult, {}), a, b,
                                 require_even=False)
